//! Bump-cell mesh analysis: the numeric counterpart of
//! [`crate::analytic`].
//!
//! One bump cell (pitch × pitch) is discretized as a resistive sheet whose
//! effective sheet conductivity comes from rails of width `w` at the grid
//! pitch, the hot-spot current is spread uniformly over the cell, and the
//! bump pins the centre node. The worst mesh drop validates the analytic
//! `k_geo` factor.

use crate::analytic::hotspot_current_density;
use crate::cg::{solve_pcg_warm, PreparedMesh};
use crate::error::GridError;
use crate::multigrid::{solve_mgcg_warm, solve_multigrid_warm, MgHierarchy};
use crate::plan::{SolvePlan, SolveStrategy};
use crate::solver::MeshProblem;
use np_roadmap::TechNode;
use np_units::{Microns, Volts};
use std::collections::HashMap;

/// Default mesh resolution per bump cell (nodes per side).
pub const DEFAULT_RESOLUTION: usize = 33;

/// Numeric worst-case IR drop in a bump cell of `pitch` with rails of
/// `rail_width` at the same pitch (one rail per cell per direction).
///
/// # Errors
///
/// Propagates solver errors; rejects non-positive geometry.
pub fn mesh_worst_drop(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
) -> Result<Volts, GridError> {
    mesh_worst_drop_with_resolution(node, pitch, rail_width, DEFAULT_RESOLUTION)
}

/// [`mesh_worst_drop`] at an explicit resolution (for convergence
/// studies).
///
/// # Errors
///
/// Same as [`mesh_worst_drop`]; additionally rejects resolutions < 5.
pub fn mesh_worst_drop_with_resolution(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
    resolution: usize,
) -> Result<Volts, GridError> {
    if process_cache_enabled() {
        return process_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .worst_drop_with_resolution(node, pitch, rail_width, resolution);
    }
    let (m, _i_per_node) = assemble_bump_cell(node, pitch, rail_width, resolution)?;
    let v = m.solve()?;
    Ok(worst_drop_of(&v))
}

/// Builds the bump-cell [`MeshProblem`] — effective sheet conductance
/// from rail geometry, uniform hot-spot injection, centre node pinned —
/// returning it together with the per-node injection current.
///
/// # Errors
///
/// Rejects non-positive geometry and resolutions < 5.
fn assemble_bump_cell(
    node: TechNode,
    pitch: Microns,
    rail_width: Microns,
    resolution: usize,
) -> Result<(MeshProblem, f64), GridError> {
    if !(pitch.0 > 0.0 && rail_width.0 > 0.0) {
        return Err(GridError::BadParameter("pitch and width must be positive"));
    }
    if resolution < 5 {
        return Err(GridError::BadParameter("resolution must be at least 5"));
    }
    let n = if resolution.is_multiple_of(2) {
        resolution + 1
    } else {
        resolution
    };
    let rho_s = node.params().top_metal_sheet_resistance().0; // Ω/sq
                                                              // Rails of width w at pitch P give the sheet an effective sheet
                                                              // conductivity of (w/P)/ρ_s per routing direction; a square mesh edge
                                                              // then has that conductance.
    let sheet_conductance = (rail_width.0 / pitch.0) / rho_s;
    let mut m = MeshProblem::new(n, n, sheet_conductance);
    let j = hotspot_current_density(node); // A/µm²
    let h = pitch.0 / (n as f64 - 1.0); // µm per mesh step
    let i_per_node = j * h * h;
    for v in m.injection.iter_mut() {
        *v = i_per_node;
    }
    let centre = m.index(n / 2, n / 2);
    m.pinned[centre] = true;
    Ok((m, i_per_node))
}

/// The worst (most negative) node voltage, reported as a positive drop.
fn worst_drop_of(v: &[f64]) -> Volts {
    Volts(-v.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Cache key: everything `assemble_bump_cell` depends on. Geometry is
/// keyed by exact bit pattern — the electro-thermal fixed point re-solves
/// the *same* geometry, which is the case the cache exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    node: TechNode,
    pitch_bits: u64,
    width_bits: u64,
    resolution: usize,
}

/// One memoized mesh: the assembled problem, its Jacobi preconditioner,
/// the multigrid level hierarchy (built lazily, on the first solve that
/// needs it), and per-strategy-family warm-start solutions.
///
/// Warm starts are kept per family — CG-family and multigrid-family
/// solves each warm-start from their own last solution — so alternating
/// strategies on the same mesh (a plan switch, or Auto straddling the
/// multigrid threshold across resolutions) don't evict each other's
/// state.
#[derive(Debug, Clone)]
struct CacheEntry {
    problem: MeshProblem,
    prepared: PreparedMesh,
    hierarchy: Option<MgHierarchy>,
    warm_cg: Option<Vec<f64>>,
    warm_mg: Option<Vec<f64>>,
    i_per_node: f64,
}

/// Memoizes bump-cell mesh setup across repeated solves.
///
/// The electro-thermal fixed point (and any sweep that revisits a
/// geometry) re-assembles and re-solves the same mesh every iteration.
/// The cache keeps the assembled [`MeshProblem`] and its
/// [`PreparedMesh`] per distinct `(node, pitch, width, resolution)` key
/// and warm-starts each solve from the previous solution, so repeat
/// solves converge in a handful of PCG iterations instead of `O(nx)`.
///
/// ```
/// use np_grid::mesh::MeshCache;
/// use np_roadmap::TechNode;
/// use np_units::Microns;
///
/// let mut cache = MeshCache::new();
/// let cold = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
/// let warm = cache.worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))?;
/// assert!((cold.0 - warm.0).abs() <= 1e-9 * cold.0.abs());
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Default)]
pub struct MeshCache {
    entries: HashMap<CacheKey, CacheEntry>,
    plan: SolvePlan,
    hits: u64,
    misses: u64,
}

impl MeshCache {
    /// An empty cache solving with [`SolvePlan::auto`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache solving with an explicit [`SolvePlan`].
    pub fn with_plan(plan: SolvePlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// Switches the plan for subsequent solves; memoized meshes (and
    /// each strategy family's warm starts) are kept — switching between
    /// CG and multigrid on the same mesh never discards the other
    /// family's state.
    pub fn set_plan(&mut self, plan: SolvePlan) {
        self.plan = plan;
    }

    /// Cached counterpart of [`mesh_worst_drop`].
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop`].
    pub fn worst_drop(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
    ) -> Result<Volts, GridError> {
        self.worst_drop_with_resolution(node, pitch, rail_width, DEFAULT_RESOLUTION)
    }

    /// Cached counterpart of [`mesh_worst_drop_with_resolution`].
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop_with_resolution`].
    pub fn worst_drop_with_resolution(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
    ) -> Result<Volts, GridError> {
        self.worst_drop_scaled(node, pitch, rail_width, resolution, 1.0)
    }

    /// [`MeshCache::worst_drop_with_resolution`] with the hot-spot
    /// injection scaled by `scale` — the electro-thermal loop's knob,
    /// where leakage growth multiplies the load current while the mesh
    /// geometry stays fixed.
    ///
    /// # Errors
    ///
    /// Same as [`mesh_worst_drop_with_resolution`]; additionally rejects
    /// a non-finite or negative `scale`.
    pub fn worst_drop_scaled(
        &mut self,
        node: TechNode,
        pitch: Microns,
        rail_width: Microns,
        resolution: usize,
        scale: f64,
    ) -> Result<Volts, GridError> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(GridError::BadParameter(
                "injection scale must be finite and non-negative",
            ));
        }
        let key = CacheKey {
            node,
            pitch_bits: pitch.0.to_bits(),
            width_bits: rail_width.0.to_bits(),
            resolution,
        };
        if let std::collections::hash_map::Entry::Vacant(slot) = self.entries.entry(key) {
            let (problem, i_per_node) = assemble_bump_cell(node, pitch, rail_width, resolution)?;
            let prepared = PreparedMesh::new(&problem);
            slot.insert(CacheEntry {
                problem,
                prepared,
                hierarchy: None,
                warm_cg: None,
                warm_mg: None,
                i_per_node,
            });
            self.misses += 1;
            np_telemetry::counter("grid.mesh_cache.miss", 1);
        } else {
            self.hits += 1;
            np_telemetry::counter("grid.mesh_cache.hit", 1);
        }
        // Entry exists by construction; avoid unwrap to satisfy the
        // crate-wide unwrap ban.
        let Some(entry) = self.entries.get_mut(&key) else {
            return Err(GridError::BadParameter("mesh cache entry vanished"));
        };
        let n_nodes = entry.problem.nx * entry.problem.ny;
        let m = MeshProblem {
            injection: vec![entry.i_per_node * scale; n_nodes],
            ..entry.problem.clone()
        };
        let strategy = self.plan.resolve(&m);
        let v = match strategy {
            SolveStrategy::SequentialSor => m.solve()?,
            // Auto never survives `resolve`; SequentialCg takes the
            // warm-started preconditioned path.
            SolveStrategy::SequentialCg | SolveStrategy::Auto => {
                let x0 = entry.warm_cg.as_deref();
                let v = solve_pcg_warm(&m, &entry.prepared, x0)?;
                entry.warm_cg = Some(v.clone());
                v
            }
            SolveStrategy::Multigrid | SolveStrategy::MultigridCg => {
                // The hierarchy depends only on the mesh shape and pins
                // (not the injection), so one build serves every scale.
                if entry.hierarchy.is_none() {
                    entry.hierarchy = Some(MgHierarchy::new(&m)?);
                }
                let Some(hier) = entry.hierarchy.as_ref() else {
                    return Err(GridError::BadParameter("mesh cache hierarchy vanished"));
                };
                let x0 = entry.warm_mg.as_deref();
                let v = if strategy == SolveStrategy::Multigrid {
                    solve_multigrid_warm(&m, hier, x0)?
                } else {
                    solve_mgcg_warm(&m, hier, x0)?
                };
                entry.warm_mg = Some(v.clone());
                v
            }
        };
        Ok(worst_drop_of(&v))
    }

    /// Solves served from a memoized mesh.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Solves that had to assemble the mesh first.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct meshes currently memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no meshes yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The process-wide shared [`MeshCache`] behind
/// [`scoped_process_cache`] — one cache for every thread of a
/// long-running service, so repeated grid solves across requests share
/// assembled meshes and warm starts.
static PROCESS_CACHE: std::sync::OnceLock<std::sync::Mutex<MeshCache>> = std::sync::OnceLock::new();
static PROCESS_CACHE_ENABLED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

fn process_cache() -> &'static std::sync::Mutex<MeshCache> {
    PROCESS_CACHE.get_or_init(|| std::sync::Mutex::new(MeshCache::new()))
}

/// Whether the free mesh functions currently route through the shared
/// process-wide cache.
pub fn process_cache_enabled() -> bool {
    PROCESS_CACHE_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Routes [`mesh_worst_drop`] / [`mesh_worst_drop_with_resolution`]
/// through one process-wide shared [`MeshCache`] until the returned
/// guard drops, which restores the previous setting.
///
/// Off by default: one-shot runs (and the byte-identical `repro`
/// artifacts) keep the direct solver path. A long-running service turns
/// it on once at startup so every request on every connection shares
/// assembled meshes and warm-started solutions. The cached and direct
/// paths agree to solver tolerance (≤1e-6 relative — see the
/// `cache_matches_the_free_function` test); entries key on the exact
/// geometry bits, so there is no cross-geometry contamination. Nested
/// guards restore in LIFO drop order, mirroring
/// [`crate::plan::scoped_thread_budget`].
pub fn scoped_process_cache(enabled: bool) -> ProcessCacheGuard {
    let previous = PROCESS_CACHE_ENABLED.swap(enabled, std::sync::atomic::Ordering::Relaxed);
    ProcessCacheGuard { previous }
}

/// Restores the prior [`process_cache_enabled`] state on drop; created
/// by [`scoped_process_cache`].
#[derive(Debug)]
pub struct ProcessCacheGuard {
    previous: bool,
}

impl Drop for ProcessCacheGuard {
    fn drop(&mut self) {
        PROCESS_CACHE_ENABLED.store(self.previous, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Lifetime `(hits, misses)` of the process-wide shared cache,
/// regardless of whether routing is currently enabled — the counters a
/// service surfaces in its stats response.
pub fn process_cache_stats() -> (u64, u64) {
    let cache = process_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (cache.hits(), cache.misses())
}

/// Entries currently resident in the process-wide shared cache — the
/// occupancy figure a service's stats/health endpoints report alongside
/// [`process_cache_stats`].
pub fn process_cache_entries() -> usize {
    process_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::worst_case_drop;

    #[test]
    fn mesh_and_analytic_agree_within_a_factor() {
        // The analytic k_geo was chosen to track the mesh; demand
        // agreement within ±50% across nodes and widths.
        for (node, pitch, w) in [
            (TechNode::N35, 80.0, 4.0),
            (TechNode::N50, 90.0, 3.0),
            (TechNode::N70, 110.0, 2.0),
        ] {
            let mesh = mesh_worst_drop(node, Microns(pitch), Microns(w)).unwrap();
            let ana = worst_case_drop(node, Microns(pitch), Microns(w)).unwrap();
            let ratio = mesh.0 / ana.0;
            assert!(
                (0.5..=1.6).contains(&ratio),
                "{node} P={pitch} w={w}: mesh {mesh} vs analytic {ana} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn mesh_drop_scales_inversely_with_width() {
        let d2 = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(2.0)).unwrap();
        let d8 = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(8.0)).unwrap();
        let ratio = d2.0 / d8.0;
        assert!((ratio - 4.0).abs() < 0.1, "got {ratio}");
    }

    #[test]
    fn resolution_convergence() {
        let coarse =
            mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), 17)
                .unwrap();
        let fine = mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(4.0), 49)
            .unwrap();
        // The mesh refines the same physical sheet; answers drift by the
        // log-divergent point-pin correction but stay close.
        let ratio = fine.0 / coarse.0;
        assert!((0.7..=1.4).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(mesh_worst_drop(TechNode::N35, Microns(0.0), Microns(1.0)).is_err());
        assert!(
            mesh_worst_drop_with_resolution(TechNode::N35, Microns(80.0), Microns(1.0), 3).is_err()
        );
    }

    #[test]
    fn cache_matches_the_free_function() {
        let mut cache = MeshCache::new();
        let cached = cache
            .worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))
            .unwrap();
        let direct = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(4.0)).unwrap();
        // Different solvers (warm PCG vs SOR), same physics: agree to
        // solver tolerance, far tighter than the model's own accuracy.
        assert!(
            (cached.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
            "cached {cached} vs direct {direct}"
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repeat_solves_hit_the_cache_and_agree() {
        let mut cache = MeshCache::new();
        let first = cache
            .worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))
            .unwrap();
        let second = cache
            .worst_drop(TechNode::N50, Microns(90.0), Microns(3.0))
            .unwrap();
        assert!((first.0 - second.0).abs() <= 1e-9 * first.0.abs());
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A different geometry is a fresh entry, not a stale hit.
        cache
            .worst_drop(TechNode::N50, Microns(91.0), Microns(3.0))
            .unwrap();
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn scaled_injection_scales_the_drop_linearly() {
        let mut cache = MeshCache::new();
        let base = cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1.0)
            .unwrap();
        let doubled = cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 2.0)
            .unwrap();
        // The operator is linear in the injection.
        assert!(
            (doubled.0 - 2.0 * base.0).abs() <= 1e-6 * base.0.abs(),
            "base {base}, doubled {doubled}"
        );
        assert!(cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, f64::NAN)
            .is_err());
    }

    #[test]
    fn warm_started_scale_sweep_handles_zero_and_tiny_scales() {
        // One cache, three scales, all on the same warm-started entry:
        // the second and third solves reuse the previous solution as the
        // PCG starting guess, which is exactly the path that used to
        // break down for a zero injection (the residual decayed into
        // denormals chasing a clamped tolerance).
        let mut cache = MeshCache::new();
        let base = cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1.0)
            .unwrap();
        assert!(base.0 > 0.0, "unit scale must produce a real drop: {base}");
        // scale = 0: no injection means no drop, exactly.
        let zero = cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 0.0)
            .unwrap();
        assert_eq!(zero, Volts(0.0), "zero injection must yield a zero drop");
        // scale = 1e-9: linearity, warm-started from the zero solution.
        let tiny = cache
            .worst_drop_scaled(TechNode::N35, Microns(80.0), Microns(4.0), 33, 1e-9)
            .unwrap();
        assert!(
            (tiny.0 - 1e-9 * base.0).abs() <= 1e-6 * 1e-9 * base.0,
            "tiny-scale drop must stay linear: base {base}, tiny {tiny}"
        );
        // All three solves shared one assembled mesh.
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
    }

    #[test]
    fn process_cache_routes_and_counts() {
        // Unique geometry bits so parallel tests sharing the global
        // cache cannot interfere with the hit/miss deltas.
        let pitch = Microns(83.257_119);
        let width = Microns(4.113_271);
        let direct = mesh_worst_drop(TechNode::N35, pitch, width).unwrap();
        assert!(!process_cache_enabled(), "off by default");
        let (hits_before, _) = process_cache_stats();
        {
            let _guard = scoped_process_cache(true);
            assert!(process_cache_enabled());
            let cold = mesh_worst_drop(TechNode::N35, pitch, width).unwrap();
            let warm = mesh_worst_drop(TechNode::N35, pitch, width).unwrap();
            assert!(
                (cold.0 - direct.0).abs() <= 1e-6 * direct.0.abs(),
                "cached {cold} vs direct {direct}"
            );
            assert!((warm.0 - cold.0).abs() <= 1e-9 * cold.0.abs());
        }
        assert!(!process_cache_enabled(), "guard restores");
        let (hits_after, _) = process_cache_stats();
        assert!(hits_after > hits_before, "repeat solve hit the cache");
        // Routing disabled again: direct path, stats unchanged.
        let again = mesh_worst_drop(TechNode::N35, pitch, width).unwrap();
        assert_eq!(again, direct);
        assert_eq!(process_cache_stats().0, hits_after);
        // Guards nest LIFO, like `scoped_thread_budget`. (Exercised here
        // rather than in a separate test: the flag is process-global and
        // parallel tests toggling it would race.)
        let outer = scoped_process_cache(true);
        {
            let _inner = scoped_process_cache(false);
            assert!(!process_cache_enabled());
        }
        assert!(process_cache_enabled(), "inner guard restored outer state");
        drop(outer);
        assert!(!process_cache_enabled());
    }

    #[test]
    fn strategy_switches_share_the_entry_but_not_warm_starts() {
        // One cache, one mesh (64 rounds up to 65 = 2^6+1, so the
        // multigrid ladder applies), three strategy switches: every
        // solve reuses the single assembled entry, each family warm
        // starts from its own last solution, and the answers agree.
        let mut cache = MeshCache::with_plan(SolvePlan::with_strategy(SolveStrategy::SequentialCg));
        let geometry = (TechNode::N50, Microns(90.0), Microns(3.0), 65);
        let (node, pitch, width, res) = geometry;
        let cg = cache
            .worst_drop_with_resolution(node, pitch, width, res)
            .unwrap();
        cache.set_plan(SolvePlan::with_strategy(SolveStrategy::Multigrid));
        let mg = cache
            .worst_drop_with_resolution(node, pitch, width, res)
            .unwrap();
        cache.set_plan(SolvePlan::with_strategy(SolveStrategy::MultigridCg));
        let mgcg = cache
            .worst_drop_with_resolution(node, pitch, width, res)
            .unwrap();
        cache.set_plan(SolvePlan::with_strategy(SolveStrategy::SequentialCg));
        let cg_again = cache
            .worst_drop_with_resolution(node, pitch, width, res)
            .unwrap();
        assert!(
            (cg.0 - mg.0).abs() <= 1e-6 * cg.0.abs(),
            "CG {cg} vs MG {mg}"
        );
        assert!(
            (cg.0 - mgcg.0).abs() <= 1e-6 * cg.0.abs(),
            "CG {cg} vs MGCG {mgcg}"
        );
        // The CG family's warm start survived the multigrid interlude:
        // returning to CG reproduces its own answer to solver precision.
        assert!(
            (cg.0 - cg_again.0).abs() <= 1e-9 * cg.0.abs(),
            "CG {cg} vs warm CG {cg_again}"
        );
        assert_eq!(
            (cache.misses(), cache.hits()),
            (1, 3),
            "all four solves shared one assembled mesh"
        );
    }

    #[test]
    fn cache_honours_an_explicit_plan() {
        let mut cache =
            MeshCache::with_plan(SolvePlan::with_strategy(SolveStrategy::SequentialSor));
        let v = cache
            .worst_drop(TechNode::N35, Microns(80.0), Microns(4.0))
            .unwrap();
        let direct = mesh_worst_drop(TechNode::N35, Microns(80.0), Microns(4.0)).unwrap();
        // The free function runs the same SOR sweep: bitwise identical.
        assert_eq!(v, direct);
    }
}
