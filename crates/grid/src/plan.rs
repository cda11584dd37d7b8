//! The Fig. 5 study — per-node grid plans under minimum bump pitch
//! versus ITRS pad counts — plus the [`SolvePlan`] strategy layer that
//! routes a mesh problem to the right solver under the process-wide
//! [`thread_budget`].

use crate::analytic::{rail_routing_fraction, required_rail_width, IrBudget};
use crate::cg::{solve_cg, solve_pcg, solve_pcg_parallel};
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

/// Meshes below this node count solve faster sequentially than the
/// barrier overhead of sharded workers can recoup (a 128×128 mesh sits
/// right at the boundary on commodity cores).
pub const AUTO_PARALLEL_THRESHOLD: usize = 16_384;

/// Meshes with at least this many nodes (257×257) — when their
/// dimensions fit the 2^k+1 multigrid ladder — auto-route to MGCG: the
/// O(N) cycle overtakes Jacobi-PCG's O(N^1.5) iteration growth around
/// here, and the margin widens by ~2× per further mesh doubling.
pub const AUTO_MULTIGRID_THRESHOLD: usize = 66_049;

/// The process-wide solver thread budget; `0` means "unset", which
/// resolves to the machine's available parallelism.
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The number of threads a parallel solve may use right now.
///
/// Defaults to [`std::thread::available_parallelism`]; the engine caps
/// it while worker threads are running (via [`scoped_thread_budget`]) so
/// engine workers and solver shards don't oversubscribe the machine.
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
/// worker's solver shards. Nested guards restore in LIFO drop order.
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

/// Which algorithm a [`SolvePlan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolveStrategy {
    /// Pick per mesh: sequential PCG below [`AUTO_PARALLEL_THRESHOLD`]
    /// nodes or when the [`thread_budget`] is 1, parallel PCG otherwise
    /// — upgraded to [`SolveStrategy::MultigridCg`] at
    /// [`AUTO_MULTIGRID_THRESHOLD`] nodes and above when the mesh
    /// dimensions fit the 2^k+1 coarsening ladder (see
    /// [`SolvePlan::resolve_for`]).
    #[default]
    Auto,
    /// The red-black SOR sweep of [`MeshProblem::solve`].
    SequentialSor,
    /// Row-band-sharded SOR ([`MeshProblem::solve_parallel`]); bitwise
    /// identical to [`SolveStrategy::SequentialSor`].
    ParallelSor,
    /// Plain conjugate gradients ([`solve_cg`]).
    SequentialCg,
    /// Jacobi-preconditioned CG, sharded ([`solve_pcg_parallel`]).
    ParallelCg,
    /// The standalone geometric multigrid V-cycle
    /// ([`crate::multigrid::solve_multigrid`]); needs 2^k+1 mesh
    /// dimensions. Always sequential.
    Multigrid,
    /// Multigrid-preconditioned CG ([`crate::multigrid::solve_mgcg`]);
    /// needs 2^k+1 mesh dimensions. Always sequential. What
    /// [`SolveStrategy::Auto`] picks on large compatible meshes.
    MultigridCg,
}

/// A solver selection: strategy plus an optional explicit shard count.
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
    /// Shard count for the parallel strategies; `None` uses the
    /// [`thread_budget`].
    pub shards: Option<usize>,
}

impl SolvePlan {
    /// The default plan: [`SolveStrategy::Auto`] with budget-derived
    /// shards.
    pub fn auto() -> Self {
        Self::default()
    }

    /// A plan running `strategy` with budget-derived shards.
    pub fn with_strategy(strategy: SolveStrategy) -> Self {
        Self {
            strategy,
            shards: None,
        }
    }

    /// Overrides the shard count for parallel strategies.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// The concrete (strategy, shards) pair this plan uses for a mesh of
    /// `nodes` total nodes.
    ///
    /// Auto falls back to the sequential solver whenever the mesh is
    /// small, the resolved shard count is 1, *or* the effective
    /// [`thread_budget`] is 1 — on a single-CPU host the parallel path
    /// is pure sharding overhead even when the caller explicitly asked
    /// for multiple shards (measured: `pcg.par`/`sor.par` slower than
    /// seq in `BENCH_grid.json` at ncpu=1).
    pub fn resolve(&self, nodes: usize) -> (SolveStrategy, usize) {
        let shards = self.shards.unwrap_or_else(thread_budget).max(1);
        let strategy = match self.strategy {
            SolveStrategy::Auto => {
                if nodes < AUTO_PARALLEL_THRESHOLD || shards == 1 || thread_budget() == 1 {
                    SolveStrategy::SequentialCg
                } else {
                    SolveStrategy::ParallelCg
                }
            }
            other => other,
        };
        (strategy, shards)
    }

    /// [`SolvePlan::resolve`] with the mesh in hand: Auto additionally
    /// upgrades to [`SolveStrategy::MultigridCg`] when the mesh has at
    /// least [`AUTO_MULTIGRID_THRESHOLD`] nodes *and* its dimensions fit
    /// the 2^k+1 coarsening ladder.
    ///
    /// The upgrade happens under any [`thread_budget`] — MGCG wins on
    /// algorithmic work, not parallelism — and the multigrid family
    /// always runs on one shard.
    pub fn resolve_for(&self, m: &MeshProblem) -> (SolveStrategy, usize) {
        let nodes = m.nx * m.ny;
        let (strategy, shards) = self.resolve(nodes);
        if self.strategy == SolveStrategy::Auto
            && nodes >= AUTO_MULTIGRID_THRESHOLD
            && MgHierarchy::compatible(m.nx, m.ny)
        {
            return (SolveStrategy::MultigridCg, 1);
        }
        (strategy, shards)
    }

    /// Solves `m` with the resolved strategy.
    ///
    /// # Errors
    ///
    /// Those of the underlying solver ([`MeshProblem::solve`] /
    /// [`solve_cg`] / [`solve_pcg`] /
    /// [`crate::multigrid::solve_multigrid`]).
    pub fn solve(&self, m: &MeshProblem) -> Result<Vec<f64>, GridError> {
        match self.resolve_for(m) {
            (SolveStrategy::SequentialSor, _) => m.solve(),
            (SolveStrategy::ParallelSor, shards) => m.solve_parallel(shards),
            (SolveStrategy::SequentialCg, _) => {
                if self.strategy == SolveStrategy::Auto {
                    solve_pcg(m) // Auto prefers the preconditioned path
                } else {
                    solve_cg(m)
                }
            }
            (SolveStrategy::ParallelCg, shards) => solve_pcg_parallel(m, shards),
            (SolveStrategy::Multigrid, _) => solve_multigrid(m),
            (SolveStrategy::MultigridCg, _) => solve_mgcg(m),
            (SolveStrategy::Auto, _) => unreachable!("resolve never returns Auto"),
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
        {
            let _guard = scoped_thread_budget(8);
            assert_eq!(thread_budget(), 8);
            let plan = SolvePlan::auto();
            assert_eq!(plan.resolve(100), (SolveStrategy::SequentialCg, 8));
            assert_eq!(
                plan.resolve(AUTO_PARALLEL_THRESHOLD),
                (SolveStrategy::ParallelCg, 8)
            );
            {
                let _inner = scoped_thread_budget(1);
                assert_eq!(
                    plan.resolve(AUTO_PARALLEL_THRESHOLD),
                    (SolveStrategy::SequentialCg, 1)
                );
                // Even explicit multi-shard plans go sequential under a
                // budget of 1: the parallel path is pure overhead on a
                // single-CPU host. Explicit non-auto strategies are
                // still honored verbatim.
                let sharded = SolvePlan::auto().with_shards(4);
                assert_eq!(
                    sharded.resolve(AUTO_PARALLEL_THRESHOLD),
                    (SolveStrategy::SequentialCg, 4)
                );
                let forced = SolvePlan::with_strategy(SolveStrategy::ParallelCg).with_shards(4);
                assert_eq!(
                    forced.resolve(AUTO_PARALLEL_THRESHOLD),
                    (SolveStrategy::ParallelCg, 4)
                );
            }
            assert_eq!(thread_budget(), 8);
        }
        assert_eq!(thread_budget(), outer);
    }

    #[test]
    fn explicit_shards_override_the_budget() {
        let plan = SolvePlan::with_strategy(SolveStrategy::ParallelSor).with_shards(3);
        assert_eq!(plan.resolve(10_000), (SolveStrategy::ParallelSor, 3));
    }

    #[test]
    fn auto_upgrades_large_compatible_meshes_to_mgcg() {
        let plan = SolvePlan::auto();
        // 257x257 fits the ladder and crosses the threshold.
        let big = loaded_mesh(257);
        assert_eq!(big.nx * big.ny, AUTO_MULTIGRID_THRESHOLD);
        let (strategy, _) = plan.resolve_for(&big);
        assert_eq!(strategy, SolveStrategy::MultigridCg);
        // A mesh of the same size that misses the 2^k+1 ladder keeps
        // the CG-family pick.
        let incompatible = loaded_mesh(260);
        let (strategy, _) = plan.resolve_for(&incompatible);
        assert_ne!(strategy, SolveStrategy::MultigridCg);
        // Small meshes never upgrade.
        let small = loaded_mesh(33);
        let (strategy, _) = plan.resolve_for(&small);
        assert_eq!(strategy, SolveStrategy::SequentialCg);
        // Explicit strategies are never upgraded.
        let forced = SolvePlan::with_strategy(SolveStrategy::SequentialCg);
        let (strategy, _) = forced.resolve_for(&big);
        assert_eq!(strategy, SolveStrategy::SequentialCg);
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
            SolveStrategy::ParallelSor,
            SolveStrategy::SequentialCg,
            SolveStrategy::ParallelCg,
            SolveStrategy::Multigrid,
            SolveStrategy::MultigridCg,
        ] {
            let v = SolvePlan::with_strategy(strategy)
                .with_shards(3)
                .solve(&m)
                .unwrap();
            for (a, b) in v.iter().zip(&reference) {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{strategy:?} disagrees with SOR: {a} vs {b}"
                );
            }
        }
    }
}
