//! Mesh solves are host-independent: the Auto plan picks its solver from
//! the mesh alone, so the process-wide thread budget (which the engine
//! derives from the core count) never changes a single bit of an answer.
//!
//! Its own test binary, and the only test in it: the budget is
//! process-global and the test runner is multi-threaded.

use np_grid::mesh::MeshCache;
use np_grid::plan::{scoped_thread_budget, thread_budget};
use np_roadmap::TechNode;
use np_units::Microns;

/// Worst drop of a fresh `MeshCache` (cold solve, default Auto plan) at
/// `resolution` nodes per side.
fn cold_worst_drop(resolution: usize) -> f64 {
    MeshCache::new()
        .worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), resolution)
        .unwrap()
        .0
}

#[test]
fn auto_worst_drop_is_bitwise_identical_at_any_thread_budget() {
    // 129² sits on the multigrid ladder; 200 (assembled as 201²) misses
    // it and stays on PCG.
    for resolution in [129, 200] {
        let drops: Vec<u64> = [1, 2]
            .iter()
            .map(|&budget| {
                let _guard = scoped_thread_budget(budget);
                assert_eq!(thread_budget(), budget);
                cold_worst_drop(resolution).to_bits()
            })
            .collect();
        assert_eq!(
            drops[0],
            drops[1],
            "{resolution}²: budget 1 gives {:e}, budget 2 gives {:e}",
            f64::from_bits(drops[0]),
            f64::from_bits(drops[1])
        );
    }
}
