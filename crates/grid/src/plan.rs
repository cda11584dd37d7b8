//! The Fig. 5 study — per-node grid plans under minimum bump pitch
//! versus ITRS pad counts — plus the [`SolvePlan`] strategy layer that
//! routes a mesh problem to the right solver by size, and the
//! process-wide [`thread_budget`] that the parallel optimizer reads.

use crate::analytic::{rail_routing_fraction, required_rail_width, IrBudget};
use crate::cg::{solve_cg, solve_pcg};
use crate::error::GridError;
use crate::multigrid::{solve_mgcg, solve_multigrid, MgHierarchy};
use crate::solver::MeshProblem;
use np_roadmap::{PackagingRoadmap, TechNode};
use np_units::Microns;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which bump-provisioning assumption a plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BumpAssumption {
    /// The minimum attainable flip-chip pitch (Fig. 5 open symbols).
    MinPitch,
    /// The ITRS pad-count projection (Fig. 5 solid symbols).
    ItrsPads,
}

/// A sized top-level power grid for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPlan {
    /// The node planned.
    pub node: TechNode,
    /// Provisioning assumption.
    pub assumption: BumpAssumption,
    /// Bump (and power-grid) pitch used.
    pub bump_pitch: Microns,
    /// Required rail width per net; `None` when the budget is unreachable
    /// (rail wider than the pitch).
    pub rail_width: Option<Microns>,
    /// The rail width the drop budget demands, even if unroutable — the
    /// quantity Fig. 5 plots.
    pub demanded_width: Microns,
}

impl GridPlan {
    /// Plans the grid at the node's minimum attainable bump pitch.
    ///
    /// # Errors
    ///
    /// Propagates model errors other than routability (an unroutable
    /// demand is reported in the plan itself).
    pub fn min_pitch(node: TechNode) -> Result<Self, GridError> {
        let pitch = PackagingRoadmap::for_node(node).min_bump_pitch;
        Self::at_pitch(node, pitch, BumpAssumption::MinPitch)
    }

    /// Plans the grid at the ITRS effective pad pitch.
    ///
    /// # Errors
    ///
    /// Same as [`GridPlan::min_pitch`].
    pub fn itrs_pads(node: TechNode) -> Result<Self, GridError> {
        let pitch = PackagingRoadmap::for_node(node).effective_itrs_bump_pitch();
        Self::at_pitch(node, pitch, BumpAssumption::ItrsPads)
    }

    fn at_pitch(
        node: TechNode,
        pitch: Microns,
        assumption: BumpAssumption,
    ) -> Result<Self, GridError> {
        let budget = IrBudget::default();
        match required_rail_width(node, pitch, &budget) {
            Ok(w) => Ok(Self {
                node,
                assumption,
                bump_pitch: pitch,
                rail_width: Some(w),
                demanded_width: w,
            }),
            Err(GridError::Infeasible { width_um }) => Ok(Self {
                node,
                assumption,
                bump_pitch: pitch,
                rail_width: None,
                demanded_width: Microns(width_um),
            }),
            Err(e) => Err(e),
        }
    }

    /// The Fig. 5 y-axis: demanded rail width over the minimum top-metal
    /// width.
    pub fn width_over_min(&self) -> f64 {
        self.demanded_width.0 / self.node.params().top_metal_min_width.0
    }

    /// Fraction of top-level routing consumed by the power rails alone.
    pub fn rail_fraction(&self) -> f64 {
        rail_routing_fraction(self.demanded_width, self.bump_pitch)
    }

    /// Total routing-resource fraction including the constant 16 %
    /// landing-pad overhead (the paper's "around 17-20%").
    pub fn total_routing_fraction(&self) -> f64 {
        self.rail_fraction() + PackagingRoadmap::for_node(self.node).landing_pad_overhead
    }

    /// True when the demanded rail physically fits under the bump pitch.
    pub fn is_routable(&self) -> bool {
        self.rail_width.is_some()
    }
}

impl fmt::Display for GridPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}): pitch {:.0}, demanded width {:.2} ({:.0}x min, {}), rails {:.1}% + pads 16%",
            self.node,
            self.assumption,
            self.bump_pitch,
            self.demanded_width,
            self.width_over_min(),
            if self.is_routable() { "routable" } else { "UNROUTABLE" },
            self.rail_fraction() * 100.0,
        )
    }
}

/// Both Fig. 5 series for every node.
///
/// # Errors
///
/// Propagates model errors.
pub fn fig5_series() -> Result<Vec<(GridPlan, GridPlan)>, GridError> {
    TechNode::ALL
        .iter()
        .map(|&n| Ok((GridPlan::min_pitch(n)?, GridPlan::itrs_pads(n)?)))
        .collect()
}

/// Meshes with at least this many nodes (65×65) — when their
/// dimensions fit the 2^k+1 multigrid ladder — auto-route to MGCG.
///
/// Measured on a 2-vCPU x86_64 Linux host with a fresh
/// [`crate::mesh::MeshCache`] per solve (assembly and hierarchy build
/// included), CPU ms per solve, Jacobi-PCG vs MGCG: 0.50 vs 0.80 at
/// 33², 4.95 vs 2.05 at 65², 38 vs 6.7 at 129². The crossover lies
/// between 33² and 65², and MGCG's O(N) cycle widens its lead with every
/// further mesh doubling against PCG's O(N^1.5) iteration growth.
pub const AUTO_MULTIGRID_THRESHOLD: usize = 4_225;

/// The process-wide thread budget; `0` means "unset", which
/// resolves to the machine's available parallelism.
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The number of threads a parallel kernel may use right now. Mesh
/// solves never read it (every solve runs on one core); the parallel
/// optimizer (`np_opt::parallel`) sizes its scoring fan-out from it.
///
/// Defaults to [`std::thread::available_parallelism`]; the engine caps
/// it while worker threads are running (via [`scoped_thread_budget`]) so
/// engine workers and the optimizer's threads don't oversubscribe the
/// machine.
pub fn thread_budget() -> usize {
    match THREAD_BUDGET.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Caps [`thread_budget`] at `budget` (at least 1) until the returned
/// guard is dropped, which restores the previous setting.
///
/// The budget is process-global: the engine installs one guard around a
/// whole run, dividing the machine between its own workers and each
/// worker's optimizer threads. Nested guards restore in LIFO drop order.
pub fn scoped_thread_budget(budget: usize) -> ThreadBudgetGuard {
    let previous = THREAD_BUDGET.swap(budget.max(1), Ordering::Relaxed);
    ThreadBudgetGuard { previous }
}

/// Restores the prior [`thread_budget`] on drop; created by
/// [`scoped_thread_budget`].
#[derive(Debug)]
pub struct ThreadBudgetGuard {
    previous: usize,
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        THREAD_BUDGET.store(self.previous, Ordering::Relaxed);
    }
}

/// Which algorithm a [`SolvePlan`] runs. Every strategy is sequential:
/// a mesh solve runs on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolveStrategy {
    /// Pick per mesh: [`SolveStrategy::MultigridCg`] from
    /// [`AUTO_MULTIGRID_THRESHOLD`] nodes up when the mesh dimensions fit
    /// the 2^k+1 coarsening ladder, Jacobi-preconditioned CG otherwise
    /// (see [`SolvePlan::resolve`]). The pick depends on the mesh alone,
    /// never on the host or the [`thread_budget`], so Auto answers are
    /// bitwise identical everywhere.
    #[default]
    Auto,
    /// The red-black SOR sweep of [`MeshProblem::solve`].
    SequentialSor,
    /// Plain conjugate gradients ([`solve_cg`]).
    SequentialCg,
    /// The standalone geometric multigrid V-cycle
    /// ([`crate::multigrid::solve_multigrid`]); needs 2^k+1 mesh
    /// dimensions.
    Multigrid,
    /// Multigrid-preconditioned CG ([`crate::multigrid::solve_mgcg`]);
    /// needs 2^k+1 mesh dimensions. What [`SolveStrategy::Auto`] picks on
    /// compatible meshes from [`AUTO_MULTIGRID_THRESHOLD`] nodes up.
    MultigridCg,
}

/// A solver selection.
///
/// ```
/// use np_grid::solver::MeshProblem;
/// use np_grid::SolvePlan;
///
/// let mut m = MeshProblem::new(9, 9, 1.0);
/// m.injection = vec![1e-4; 81];
/// let centre = m.index(4, 4);
/// m.pinned[centre] = true;
/// let v = SolvePlan::auto().solve(&m)?;
/// assert_eq!(v.len(), 81);
/// # Ok::<(), np_grid::GridError>(())
/// ```
///
/// Strategies can be forced; on a 2^k+1 mesh the multigrid family is
/// available explicitly (Auto upgrades to it only from
/// [`AUTO_MULTIGRID_THRESHOLD`] nodes up):
///
/// ```
/// use np_grid::solver::MeshProblem;
/// use np_grid::{SolvePlan, SolveStrategy};
///
/// let mut m = MeshProblem::new(17, 17, 1.0);
/// m.injection = vec![1e-4; 17 * 17];
/// let centre = m.index(8, 8);
/// m.pinned[centre] = true;
/// let auto = SolvePlan::auto().solve(&m)?;
/// let mgcg = SolvePlan::with_strategy(SolveStrategy::MultigridCg).solve(&m)?;
/// for (a, b) in auto.iter().zip(&mgcg) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SolvePlan {
    /// The algorithm to run (or [`SolveStrategy::Auto`]).
    pub strategy: SolveStrategy,
}

impl SolvePlan {
    /// The default plan: [`SolveStrategy::Auto`].
    pub fn auto() -> Self {
        Self::default()
    }

    /// A plan running `strategy`.
    pub fn with_strategy(strategy: SolveStrategy) -> Self {
        Self { strategy }
    }

    /// The concrete strategy this plan runs on `m`.
    ///
    /// Auto resolves to [`SolveStrategy::MultigridCg`] when the mesh has
    /// at least [`AUTO_MULTIGRID_THRESHOLD`] nodes *and* its dimensions
    /// fit the 2^k+1 coarsening ladder, and to
    /// [`SolveStrategy::SequentialCg`] (run preconditioned) otherwise.
    /// Explicit strategies are returned verbatim.
    pub fn resolve(&self, m: &MeshProblem) -> SolveStrategy {
        match self.strategy {
            SolveStrategy::Auto
                if m.nx * m.ny >= AUTO_MULTIGRID_THRESHOLD
                    && MgHierarchy::compatible(m.nx, m.ny) =>
            {
                SolveStrategy::MultigridCg
            }
            SolveStrategy::Auto => SolveStrategy::SequentialCg,
            other => other,
        }
    }

    /// Solves `m` with the resolved strategy.
    ///
    /// # Errors
    ///
    /// Those of the underlying solver ([`MeshProblem::solve`] /
    /// [`solve_cg`] / [`solve_pcg`] /
    /// [`crate::multigrid::solve_multigrid`]).
    pub fn solve(&self, m: &MeshProblem) -> Result<Vec<f64>, GridError> {
        match self.resolve(m) {
            SolveStrategy::SequentialSor => m.solve(),
            SolveStrategy::SequentialCg => {
                if self.strategy == SolveStrategy::Auto {
                    solve_pcg(m) // Auto prefers the preconditioned path
                } else {
                    solve_cg(m)
                }
            }
            SolveStrategy::Multigrid => solve_multigrid(m),
            SolveStrategy::MultigridCg => solve_mgcg(m),
            SolveStrategy::Auto => unreachable!("resolve never returns Auto"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_pitch_plans_are_routable_everywhere() {
        for node in TechNode::ALL {
            let p = GridPlan::min_pitch(node).unwrap();
            assert!(p.is_routable(), "{node} should be routable at min pitch");
            assert!(
                p.width_over_min() < 40.0,
                "{node}: {:.0}x min width is not 'manageable'",
                p.width_over_min()
            );
        }
    }

    #[test]
    fn itrs_pads_blow_up_at_the_end_of_the_roadmap() {
        // Fig. 5 solid symbols: "over 2000X the minimum allowable" at
        // 35 nm; we require at least a three-order-of-magnitude demand.
        let p = GridPlan::itrs_pads(TechNode::N35).unwrap();
        assert!(!p.is_routable());
        assert!(p.width_over_min() > 500.0, "got {:.0}x", p.width_over_min());
    }

    #[test]
    fn min_pitch_routing_fraction_is_small() {
        let p = GridPlan::min_pitch(TechNode::N35).unwrap();
        assert!(
            p.rail_fraction() < 0.08,
            "{:.1}%",
            p.rail_fraction() * 100.0
        );
        let total = p.total_routing_fraction();
        assert!(
            (0.16..=0.24).contains(&total),
            "total {:.1}% should be ~17-20%",
            total * 100.0
        );
    }

    #[test]
    fn series_covers_all_nodes() {
        let s = fig5_series().unwrap();
        assert_eq!(s.len(), 6);
        for (a, b) in &s {
            assert_eq!(a.assumption, BumpAssumption::MinPitch);
            assert_eq!(b.assumption, BumpAssumption::ItrsPads);
            assert!(b.width_over_min() >= a.width_over_min());
        }
    }

    #[test]
    fn display_mentions_routability() {
        let p = GridPlan::itrs_pads(TechNode::N35).unwrap();
        assert!(format!("{p}").contains("UNROUTABLE"));
        let p = GridPlan::min_pitch(TechNode::N35).unwrap();
        assert!(format!("{p}").contains("routable"));
    }

    fn loaded_mesh(n: usize) -> MeshProblem {
        let mut m = MeshProblem::new(n, n, 1.0);
        m.injection = vec![1e-4; n * n];
        let centre = m.index(n / 2, n / 2);
        m.pinned[centre] = true;
        m
    }

    // One test owns every THREAD_BUDGET mutation: the budget is
    // process-global, and the test runner is multi-threaded.
    #[test]
    fn auto_resolves_by_size_and_budget_and_guard_restores() {
        let outer = thread_budget();
        let plan = SolvePlan::auto();
        for budget in [1, 2, 8] {
            let _guard = scoped_thread_budget(budget);
            assert_eq!(thread_budget(), budget);
            // The pick depends on the mesh alone, never on the budget.
            for (n, expected) in [
                (33, SolveStrategy::SequentialCg),
                (65, SolveStrategy::MultigridCg),
                (129, SolveStrategy::MultigridCg),
                (200, SolveStrategy::SequentialCg),
                (260, SolveStrategy::SequentialCg),
            ] {
                assert_eq!(
                    plan.resolve(&loaded_mesh(n)),
                    expected,
                    "{n}² at budget {budget}"
                );
            }
            {
                let _inner = scoped_thread_budget(1);
                assert_eq!(thread_budget(), 1);
            }
            assert_eq!(thread_budget(), budget, "inner guard restores");
        }
        assert_eq!(thread_budget(), outer);
    }

    #[test]
    fn auto_upgrades_large_compatible_meshes_to_mgcg() {
        let plan = SolvePlan::auto();
        // 65x65 fits the ladder and sits exactly on the threshold.
        let threshold = loaded_mesh(65);
        assert_eq!(threshold.nx * threshold.ny, AUTO_MULTIGRID_THRESHOLD);
        assert_eq!(plan.resolve(&threshold), SolveStrategy::MultigridCg);
        assert_eq!(plan.resolve(&loaded_mesh(129)), SolveStrategy::MultigridCg);
        // Meshes that miss the 2^k+1 ladder stay on PCG at every size.
        for n in [200, 260] {
            assert_eq!(plan.resolve(&loaded_mesh(n)), SolveStrategy::SequentialCg);
        }
        // Ladder meshes below the threshold stay on PCG.
        assert_eq!(plan.resolve(&loaded_mesh(33)), SolveStrategy::SequentialCg);
        // Explicit strategies are never upgraded.
        let forced = SolvePlan::with_strategy(SolveStrategy::SequentialCg);
        assert_eq!(forced.resolve(&threshold), SolveStrategy::SequentialCg);
    }

    #[test]
    fn all_strategies_agree_on_a_loaded_mesh() {
        // 9x9: small enough for SOR, and 2^3+1 so the multigrid
        // strategies are eligible too.
        let m = loaded_mesh(9);
        let reference = m.solve().unwrap();
        for strategy in [
            SolveStrategy::Auto,
            SolveStrategy::SequentialSor,
            SolveStrategy::SequentialCg,
            SolveStrategy::Multigrid,
            SolveStrategy::MultigridCg,
        ] {
            let v = SolvePlan::with_strategy(strategy).solve(&m).unwrap();
            for (a, b) in v.iter().zip(&reference) {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{strategy:?} disagrees with SOR: {a} vs {b}"
                );
            }
        }
    }
}
