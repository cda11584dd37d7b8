//! Geometric multigrid for the power-grid Poisson solve.
//!
//! The mesh Laplacian of a `2^k+1 × 2^j+1` grid coarsens geometrically:
//! every other node in each direction forms the next level, whose
//! operator is the *same* `g·L` graph Laplacian on the smaller grid.
//! A V-cycle then drives every error wavelength at the level where it is
//! cheap to damp:
//!
//! 1. **smooth** — a few red-black Gauss-Seidel sweeps (SOR at `ω = 1`)
//!    kill the high-frequency error;
//! 2. **restrict** — the remaining smooth residual moves to the next
//!    coarser grid by full weighting (the 9-point `1/16·[1 2 1; 2 4 2;
//!    1 2 1]` stencil), scaled by 4 because the coarse `g·L` operator
//!    discretizes a `(2h)²` cell;
//! 3. **recurse** — down to a ≤ 9-node-per-side grid solved (near-)
//!    exactly by Jacobi-PCG;
//! 4. **prolongate** — the coarse correction interpolates back
//!    bilinearly and a few more sweeps smooth the interpolation error.
//!
//! The total work per cycle is a small constant number of fine-grid
//! sweeps (the level sizes form a geometric series), and the cycle count
//! to a fixed tolerance is essentially mesh-independent — the solve is
//! O(N) where CG-family methods are O(N^1.5). Two entry families are
//! exposed:
//!
//! * [`solve_multigrid`] / [`solve_multigrid_warm`] — the standalone
//!   V-cycle iteration;
//! * [`solve_mgcg`] / [`solve_mgcg_warm`] — CG
//!   preconditioned by one V-cycle (symmetrized: red-black pre-sweeps,
//!   black-red post-sweeps, near-exact coarse solve), the robust choice
//!   [`crate::plan::SolvePlan`] auto-selects on compatible meshes from
//!   65×65 up.
//!
//! Dirichlet pins coarsen conservatively: a coarse node is pinned when
//! *any* fine pin falls in the 3×3 fine neighborhood it represents, so
//! pins always survive to the coarsest grid (every level stays
//! non-singular) and corrections never move a pinned node. Pin-adjacent
//! restriction/interpolation error only costs convergence *rate*, never
//! correctness — acceptance is always the fine-grid residual reaching
//! the CG-family tolerance `1e-12·‖b‖`.
//!
//! Both families run sequentially on the crate's slice kernels (the
//! `stencil` module) and are bitwise deterministic: the result is a
//! pure function of the problem. Smoothing is not sharded: row bands
//! measured 1.0× at 2 shards on a 1025² MGCG solve.

use crate::cg::solve_pcg;
use crate::error::GridError;
use crate::solver::MeshProblem;
use crate::stencil::{self, Stencil};
use np_units::convergence::{Breakdown, ResidualTrace};

/// Coarsening stops once a level reaches this many nodes per side; the
/// resulting ≤ 9×9 system is handed to the (near-exact) PCG coarse
/// solver.
pub const MG_COARSEST_SIDE: usize = 9;

/// Gauss-Seidel sweeps before restriction at each level.
const PRE_SWEEPS: usize = 2;

/// Gauss-Seidel sweeps after prolongation at each level (run black-red,
/// mirroring the pre-sweeps, so the V-cycle is a symmetric operator and
/// therefore a valid CG preconditioner).
const POST_SWEEPS: usize = 2;

/// V-cycle budget for the standalone solver; typical loaded meshes
/// converge in 10–20 cycles regardless of size.
const MAX_CYCLES: usize = 100;

/// Whether an `n`-node-per-side dimension fits the 2^k+1 coarsening
/// ladder.
fn is_pow2_plus_one(n: usize) -> bool {
    n >= 3 && (n - 1).is_power_of_two()
}

/// One level's shape: grid dimensions plus the coarsened pin mask.
#[derive(Debug, Clone)]
struct LevelShape {
    nx: usize,
    ny: usize,
    pinned: Vec<bool>,
}

/// The precomputed level ladder for one mesh shape — dimensions and
/// coarsened pin masks per level, finest first.
///
/// Building the hierarchy costs one pass over the mesh; repeated solves
/// of the same geometry (the electro-thermal fixed point, warm bench
/// runs, [`crate::mesh::MeshCache`] entries) reuse one hierarchy across
/// every [`solve_multigrid_warm`] / [`solve_mgcg_warm`] call.
///
/// ```
/// use np_grid::multigrid::{solve_multigrid_warm, MgHierarchy};
/// use np_grid::solver::MeshProblem;
///
/// let mut m = MeshProblem::new(33, 33, 1.0);
/// m.injection = vec![1e-4; 33 * 33];
/// let centre = m.index(16, 16);
/// m.pinned[centre] = true;
/// let hier = MgHierarchy::new(&m)?;
/// assert_eq!(hier.levels(), 3); // 33 -> 17 -> 9
/// let cold = solve_multigrid_warm(&m, &hier, None)?;
/// let warm = solve_multigrid_warm(&m, &hier, Some(&cold))?;
/// assert_eq!(cold, warm); // warm start from the solution is a no-op
/// # Ok::<(), np_grid::GridError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MgHierarchy {
    levels: Vec<LevelShape>,
    edge_conductance: f64,
}

impl MgHierarchy {
    /// Whether a `nx × ny` mesh fits the geometric coarsening ladder
    /// (both dimensions of the form `2^k+1`).
    pub fn compatible(nx: usize, ny: usize) -> bool {
        is_pow2_plus_one(nx) && is_pow2_plus_one(ny)
    }

    /// Builds the level ladder for `m`, coarsening until a side reaches
    /// [`MG_COARSEST_SIDE`].
    ///
    /// # Errors
    ///
    /// Those of [`MeshProblem::validate`], plus
    /// [`GridError::BadParameter`] when either dimension is not `2^k+1`.
    pub fn new(m: &MeshProblem) -> Result<Self, GridError> {
        m.validate()?;
        if !Self::compatible(m.nx, m.ny) {
            return Err(GridError::BadParameter(
                "multigrid needs 2^k+1 nodes per side",
            ));
        }
        let mut levels = vec![LevelShape {
            nx: m.nx,
            ny: m.ny,
            pinned: m.pinned.clone(),
        }];
        loop {
            let last = &levels[levels.len() - 1];
            if last.nx <= MG_COARSEST_SIDE || last.ny <= MG_COARSEST_SIDE {
                break;
            }
            let (nxc, nyc) = ((last.nx - 1) / 2 + 1, (last.ny - 1) / 2 + 1);
            let pinned = coarsen_pins(last, nxc, nyc);
            levels.push(LevelShape {
                nx: nxc,
                ny: nyc,
                pinned,
            });
        }
        Ok(Self {
            levels,
            edge_conductance: m.edge_conductance,
        })
    }

    /// Number of levels in the ladder (≥ 1; the finest counts).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Rejects a hierarchy built for a different mesh: the level ladder
    /// bakes in the pin masks, so shape *and* pins must match exactly.
    fn check_matches(&self, m: &MeshProblem) -> Result<(), GridError> {
        let Some(fine) = self.levels.first() else {
            return Err(GridError::BadParameter("multigrid hierarchy is empty"));
        };
        if fine.nx != m.nx
            || fine.ny != m.ny
            || fine.pinned != m.pinned
            || self.edge_conductance.to_bits() != m.edge_conductance.to_bits()
        {
            return Err(GridError::BadParameter(
                "multigrid hierarchy does not match the mesh",
            ));
        }
        Ok(())
    }
}

/// A coarse node is pinned when any fine pin falls in the 3×3 fine
/// neighborhood of its image `(2x, 2y)` — conservative, so every pin
/// survives coarsening and each level keeps at least one Dirichlet node.
fn coarsen_pins(fine: &LevelShape, nxc: usize, nyc: usize) -> Vec<bool> {
    let mut pinned = vec![false; nxc * nyc];
    for yc in 0..nyc {
        for xc in 0..nxc {
            let (fx, fy) = (2 * xc, 2 * yc);
            let mut any = false;
            for py in fy.saturating_sub(1)..=(fy + 1).min(fine.ny - 1) {
                for px in fx.saturating_sub(1)..=(fx + 1).min(fine.nx - 1) {
                    any |= fine.pinned[py * fine.nx + px];
                }
            }
            pinned[yc * nxc + xc] = any;
        }
    }
    pinned
}

/// Per-solve mutable state of one level: the level solution, a residual
/// scratch vector, and — below the finest level, whose right-hand side
/// the caller passes in — the restricted right-hand side `b` of the
/// level's correction system `A·v = b`.
struct LevelState {
    x: Vec<f64>,
    r: Vec<f64>,
    b: Vec<f64>,
}

/// The per-solve buffers of a V-cycle over one [`MgHierarchy`].
struct Workspace<'h> {
    hier: &'h MgHierarchy,
    levels: Vec<LevelState>,
    /// The coarsest level as a mesh problem for the PCG coarse solve;
    /// its `injection` is rewritten every cycle.
    coarsest: MeshProblem,
}

impl<'h> Workspace<'h> {
    fn new(hier: &'h MgHierarchy) -> Result<Self, GridError> {
        let Some(last) = hier.levels.last() else {
            return Err(GridError::BadParameter("multigrid hierarchy is empty"));
        };
        let levels = hier
            .levels
            .iter()
            .enumerate()
            .map(|(depth, shape)| {
                let n = shape.nx * shape.ny;
                LevelState {
                    x: vec![0.0; n],
                    r: vec![0.0; n],
                    b: if depth == 0 { Vec::new() } else { vec![0.0; n] },
                }
            })
            .collect();
        let coarsest = MeshProblem {
            nx: last.nx,
            ny: last.ny,
            edge_conductance: hier.edge_conductance,
            injection: vec![0.0; last.nx * last.ny],
            pinned: last.pinned.clone(),
        };
        Ok(Self {
            hier,
            levels,
            coarsest,
        })
    }

    fn stencil(&self, depth: usize) -> Stencil<'h> {
        let shape = &self.hier.levels[depth];
        Stencil {
            nx: shape.nx,
            ny: shape.ny,
            g: self.hier.edge_conductance,
            pinned: &shape.pinned,
        }
    }

    /// The finest level's solution.
    fn fine_x(&self) -> &[f64] {
        self.levels.first().map_or(&[], |lvl| &lvl.x)
    }

    /// One V-cycle on `A·x = b` at `depth`, improving that level's `x`
    /// in place.
    ///
    /// `work` accumulates fine-grid-sweep equivalents: each sweep at a
    /// level counts as its node-count fraction of the finest grid, plus
    /// two sweeps' worth per level visit for the residual/restrict/
    /// prolongate passes — the currency the bench harness compares
    /// against PCG iteration counts.
    fn v_cycle(
        &mut self,
        depth: usize,
        b: &[f64],
        fine_nodes: f64,
        work: &mut f64,
    ) -> Result<(), GridError> {
        let _level_span = np_telemetry::shard_span("grid.mg.level", depth);
        let s = self.stencil(depth);
        let nodes = (s.nx * s.ny) as f64;
        if depth + 1 == self.levels.len() {
            // Coarsest grid: a ≤ 9×9 system, solved near-exactly. The
            // solver takes the load `I = −b` (zero at pins).
            for ((inj, &bi), &p) in self.coarsest.injection.iter_mut().zip(b).zip(s.pinned) {
                *inj = if p { 0.0 } else { -bi };
            }
            let v = solve_pcg(&self.coarsest)?;
            self.levels[depth].x.copy_from_slice(&v);
            *work += nodes / fine_nodes;
            return Ok(());
        }
        let coarse = self.stencil(depth + 1);
        let (cur, rest) = self.levels[depth..].split_at_mut(1);
        let (cur, next) = (&mut cur[0], &mut rest[0]);
        stencil::smooth(&s, &mut cur.x, b, PRE_SWEEPS, 0);
        stencil::residual(&s, &cur.x, b, &mut cur.r);
        stencil::restrict(&s, &cur.r, &coarse, &mut next.b);
        next.x.fill(0.0);
        let next_b = std::mem::take(&mut next.b);
        let cycled = self.v_cycle(depth + 1, &next_b, fine_nodes, work);
        self.levels[depth + 1].b = next_b;
        cycled?;
        let (cur, rest) = self.levels[depth..].split_at_mut(1);
        stencil::prolong_add(&coarse, &rest[0].x, &s, &mut cur[0].x);
        stencil::smooth(&s, &mut cur[0].x, b, POST_SWEEPS, 1);
        *work += ((PRE_SWEEPS + POST_SWEEPS) as f64 + 2.0) * nodes / fine_nodes;
        Ok(())
    }
}

/// The right-hand side `b` of the mesh system `A·x = b`: `−I` at free
/// nodes, `0` at pins.
fn rhs(m: &MeshProblem) -> Vec<f64> {
    m.injection
        .iter()
        .zip(&m.pinned)
        .map(|(&i, &p)| if p { 0.0 } else { -i })
        .collect()
}

/// The coupling `1ᵀ·A·1` of the all-ones free-node vector: `g` times the
/// number of free→pinned edges. This is the denominator of the
/// constant-mode deflation step (see [`deflate_constant_mode`]).
fn pin_coupling(m: &MeshProblem) -> f64 {
    let mut edges = 0usize;
    for y in 0..m.ny {
        for x in 0..m.nx {
            let i = y * m.nx + x;
            if m.pinned[i] {
                continue;
            }
            let mut nb = |xx: usize, yy: usize| {
                if m.pinned[yy * m.nx + xx] {
                    edges += 1;
                }
            };
            if x > 0 {
                nb(x - 1, y);
            }
            if x + 1 < m.nx {
                nb(x + 1, y);
            }
            if y > 0 {
                nb(x, y - 1);
            }
            if y + 1 < m.ny {
                nb(x, y + 1);
            }
        }
    }
    m.edge_conductance * edges as f64
}

/// Rank-one correction of the near-constant error mode:
/// `x += 1_free · ⟨1_free, r⟩ / ⟨1_free, A·1_free⟩`.
///
/// A bump cell pins a handful of nodes in a sea of free ones, so the
/// operator's weakest mode is almost constant — its amplitude is set by
/// the log-divergent spreading resistance into the pin, which the
/// coarse grids (at 2h, 4h, …) systematically under-represent; the
/// V-cycle alone then contracts that one mode by only ~0.5 per cycle.
/// Deflating it explicitly (the exact A-projection of the residual onto
/// the constant) restores the mesh-independent ~0.1 contraction of the
/// fully-pinned-boundary case. With no free→pinned edge the step is
/// skipped (`coupling = 0` cannot happen on a validated mesh, which
/// requires at least one pin).
fn deflate_constant_mode(pinned: &[bool], x: &mut [f64], r: &[f64], coupling: f64) {
    if coupling <= 0.0 {
        return;
    }
    let mass: f64 = r
        .iter()
        .zip(pinned)
        .filter(|(_, &p)| !p)
        .map(|(r, _)| r)
        .sum();
    let alpha = mass / coupling;
    for (xi, &p) in x.iter_mut().zip(pinned) {
        if !p {
            *xi += alpha;
        }
    }
}

/// Rejects a warm-start vector of the wrong length.
fn check_warm_len(m: &MeshProblem, x0: Option<&[f64]>) -> Result<(), GridError> {
    if let Some(x0) = x0 {
        if x0.len() != m.nx * m.ny {
            return Err(GridError::BadParameter(
                "warm-start vector must have nx*ny entries",
            ));
        }
    }
    Ok(())
}

/// Solves the mesh by the standalone multigrid V-cycle iteration.
///
/// Same contract (and `1e-12·‖b‖` tolerance) as
/// [`crate::cg::solve_pcg`], in O(N) total work. Bitwise deterministic:
/// the result is a pure function of the problem alone.
///
/// ```
/// use np_grid::multigrid::solve_multigrid;
/// use np_grid::solver::MeshProblem;
///
/// let mut m = MeshProblem::new(17, 17, 1.0);
/// m.injection = vec![1e-4; 17 * 17];
/// let centre = m.index(8, 8);
/// m.pinned[centre] = true;
/// let v = solve_multigrid(&m)?;
/// assert_eq!(v.len(), 17 * 17);
/// assert_eq!(v[centre], 0.0); // the bump stays at the rail
/// # Ok::<(), np_grid::GridError>(())
/// ```
///
/// # Errors
///
/// Those of [`MeshProblem::validate`]; [`GridError::BadParameter`] when
/// a dimension is not `2^k+1`; [`GridError::NoConvergence`] when the
/// cycle budget runs out.
pub fn solve_multigrid(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    let hier = MgHierarchy::new(m)?;
    solve_multigrid_warm(m, &hier, None)
}

/// [`solve_multigrid`] with a reusable [`MgHierarchy`] and an optional
/// warm start (pinned entries of `x0` are forced to zero).
///
/// # Errors
///
/// Those of [`solve_multigrid`], plus [`GridError::BadParameter`] when
/// `hier` or `x0` does not match the mesh.
pub fn solve_multigrid_warm(
    m: &MeshProblem,
    hier: &MgHierarchy,
    x0: Option<&[f64]>,
) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    hier.check_matches(m)?;
    check_warm_len(m, x0)?;
    let _span = np_telemetry::span("grid.mg.solve");
    let n = m.nx * m.ny;
    let b_norm_sq: f64 = (0..n)
        .filter(|&i| !m.pinned[i])
        .map(|i| m.injection[i] * m.injection[i])
        .sum();
    if b_norm_sq == 0.0 {
        // x = 0 is the exact solution; iterating a warm start toward it
        // chases a clamped tolerance into denormals (same short-circuit
        // as the PCG family).
        return Ok(vec![0.0; n]);
    }
    let tol = 1e-12 * b_norm_sq.sqrt().max(1e-300);
    let b = rhs(m);
    let mut ws = Workspace::new(hier)?;
    let s = Stencil::of(m);
    if let Some(seed) = x0 {
        for ((xi, &v), &p) in ws.levels[0].x.iter_mut().zip(seed).zip(&m.pinned) {
            *xi = if p { 0.0 } else { v };
        }
    }
    let fine_nodes = n as f64;
    let coupling = pin_coupling(m);
    let mut work = 0.0f64;
    let mut cycles: usize = 0;
    let mut final_rnorm;
    let mut prev_rnorm = f64::INFINITY;
    let mut stalled: usize = 0;
    let mut trace = ResidualTrace::new();
    let result = loop {
        // The true fine residual, recomputed from scratch every cycle.
        let fine = &mut ws.levels[0];
        stencil::residual(&s, &fine.x, &b, &mut fine.r);
        let rnorm = fine.r.iter().map(|v| v * v).sum::<f64>().sqrt();
        final_rnorm = rnorm;
        trace.record(rnorm);
        work += 1.0; // the fine residual evaluation itself
        if !rnorm.is_finite() {
            break Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::NonFinite {
                    at_iteration: cycles,
                }),
            });
        }
        if rnorm <= tol {
            break Ok(());
        }
        // Unlike the CG family, this loop measures the TRUE residual
        // every cycle (the recursive CG residual drifts optimistic by
        // 10-100× at these tolerances), and the true residual has a
        // rounding floor near `n·ε·‖A‖·‖x‖` that a tight relative
        // tolerance can sit below. Once cycles stop contracting the
        // iterate is at that floor — more accurate than a nominally
        // "converged" PCG solve — so accept within a generous band and
        // report failure only for a genuinely unconverged stall. The
        // comparison is against the PREVIOUS cycle: the first deflation
        // step spikes the residual transiently (it concentrates the
        // constant mode's mass at the pin), which a best-so-far
        // comparison would misread as three straight stalls.
        if rnorm > 0.9 * prev_rnorm {
            stalled += 1;
        } else {
            stalled = 0;
        }
        prev_rnorm = rnorm;
        if stalled >= 3 || cycles >= MAX_CYCLES {
            break if rnorm <= tol * 1e3 {
                Ok(())
            } else {
                Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::IterationBudget),
                })
            };
        }
        deflate_constant_mode(&m.pinned, &mut fine.x, &fine.r, coupling);
        if let Err(e) = ws.v_cycle(0, &b, fine_nodes, &mut work) {
            break Err(e);
        }
        cycles += 1;
    };
    np_telemetry::counter("grid.mg.cycles", cycles as u64);
    np_telemetry::counter("grid.mg.sweeps_equivalent", work.round() as u64);
    np_telemetry::value("grid.mg.sweeps_equivalent", work);
    np_telemetry::value("grid.mg.final_residual", final_rnorm);
    result.map(|()| ws.levels.swap_remove(0).x)
}

/// Solves the mesh by multigrid-preconditioned conjugate gradients
/// (MGCG): the CG iteration of [`crate::cg::solve_pcg`] with one
/// symmetrized V-cycle as the preconditioner instead of the Jacobi
/// diagonal.
///
/// Converges in a near-mesh-independent number of CG iterations (each
/// O(N)), and tolerates rough patches — irregular pin clusters, strong
/// local corrections — that can slow the standalone V-cycle, which is
/// why [`crate::plan::SolvePlan`]'s auto heuristic picks MGCG on
/// compatible meshes from 65×65 up. Bitwise deterministic, like [`solve_multigrid`].
///
/// # Errors
///
/// Exactly those of [`solve_multigrid`].
pub fn solve_mgcg(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    let hier = MgHierarchy::new(m)?;
    solve_mgcg_warm(m, &hier, None)
}

/// [`solve_mgcg`] with a reusable [`MgHierarchy`] and an optional warm
/// start.
///
/// # Errors
///
/// Those of [`solve_mgcg`], plus [`GridError::BadParameter`] when
/// `hier` or `x0` does not match the mesh.
pub fn solve_mgcg_warm(
    m: &MeshProblem,
    hier: &MgHierarchy,
    x0: Option<&[f64]>,
) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    hier.check_matches(m)?;
    check_warm_len(m, x0)?;
    let _span = np_telemetry::span("grid.mgcg.solve");
    let n = m.nx * m.ny;
    let s = Stencil::of(m);
    let b = rhs(m);
    if b.iter().all(|&v| v == 0.0) {
        return Ok(vec![0.0; n]); // see solve_multigrid_warm
    }
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    let (mut x, mut r) = match x0 {
        Some(seed) => {
            let x: Vec<f64> = seed
                .iter()
                .zip(&m.pinned)
                .map(|(&v, &p)| if p { 0.0 } else { v })
                .collect();
            let mut r = vec![0.0; n];
            stencil::residual(&s, &x, &b, &mut r);
            (x, r)
        }
        None => (vec![0.0; n], b),
    };
    let tol = 1e-12 * b_norm;
    let max_iters = 10 * n;
    let fine_nodes = n as f64;
    let mut work = 0.0f64;
    let mut ws = Workspace::new(hier)?;
    let mut ap = vec![0.0f64; n];
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut trace = ResidualTrace::new();
    // The labeled block funnels every exit path through one point so the
    // iteration count and final residual are recorded exactly once.
    let result = 'solve: {
        // z = M⁻¹·r lives in the finest level's `x`.
        if let Err(e) = apply_preconditioner(&mut ws, &r, fine_nodes, &mut work) {
            break 'solve Err(e);
        }
        let mut rz = dot(&r, ws.fine_x());
        let mut p = ws.fine_x().to_vec();
        for _ in 0..max_iters {
            if rr.sqrt() <= tol {
                break 'solve Ok(x);
            }
            let p_ap = stencil::apply_dot(&s, &p, &mut ap);
            work += 2.0; // mat-vec plus the iteration's vector updates
            if !p_ap.is_finite() {
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::NonFinite {
                        at_iteration: trace.iterations(),
                    }),
                });
            }
            if p_ap <= 0.0 {
                if rr.sqrt() <= tol * 10.0 {
                    break 'solve Ok(x);
                }
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::IndefiniteOperator { curvature: p_ap }),
                });
            }
            let alpha = rz / p_ap;
            rr = -0.0;
            for (((xi, ri), &pi), &api) in x.iter_mut().zip(r.iter_mut()).zip(&p).zip(&ap) {
                *xi += alpha * pi;
                *ri -= alpha * api;
                rr += *ri * *ri;
            }
            trace.record(rr.sqrt());
            if let Err(e) = apply_preconditioner(&mut ws, &r, fine_nodes, &mut work) {
                break 'solve Err(e);
            }
            let z = ws.fine_x();
            let rz_new = dot(&r, z);
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, &zi) in p.iter_mut().zip(z) {
                *pi = zi + beta * *pi;
            }
        }
        if rr.sqrt() <= tol * 10.0 {
            Ok(x)
        } else {
            Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        }
    };
    np_telemetry::counter("grid.mgcg.iterations", trace.iterations() as u64);
    np_telemetry::counter("grid.mgcg.sweeps_equivalent", work.round() as u64);
    np_telemetry::value("grid.mgcg.sweeps_equivalent", work);
    np_telemetry::value("grid.mgcg.final_residual", rr.sqrt());
    result
}

/// `a·b`, summed in index order like `Iterator::sum`.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// `z = M⁻¹·r` into the finest level's `x`, where `M⁻¹` is one V-cycle
/// from a zero guess on the correction system `A·z = r`. The cycle's
/// symmetric smoothing order and near-exact coarse solve make `M`
/// symmetric positive-definite, as CG requires of its preconditioner.
fn apply_preconditioner(
    ws: &mut Workspace<'_>,
    r: &[f64],
    fine_nodes: f64,
    work: &mut f64,
) -> Result<(), GridError> {
    ws.levels[0].x.fill(0.0);
    ws.v_cycle(0, r, fine_nodes, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::solve_pcg;

    fn loaded(n: usize) -> MeshProblem {
        let mut m = MeshProblem::new(n, n, 1.3);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        m
    }

    #[test]
    fn hierarchy_ladder_has_the_expected_depth() {
        let h = MgHierarchy::new(&loaded(33)).unwrap();
        assert_eq!(h.levels(), 3, "33 -> 17 -> 9");
        let h = MgHierarchy::new(&loaded(9)).unwrap();
        assert_eq!(h.levels(), 1, "9 is already the coarsest");
        let h = MgHierarchy::new(&loaded(129)).unwrap();
        assert_eq!(h.levels(), 5, "129 -> 65 -> 33 -> 17 -> 9");
    }

    #[test]
    fn non_pow2_plus_one_meshes_are_a_typed_bad_parameter() {
        for n in [12usize, 16, 30, 100] {
            let mut m = MeshProblem::new(n, n, 1.0);
            let pin = m.index(n / 2, n / 2);
            m.pinned[pin] = true;
            m.injection = vec![1e-3; n * n];
            assert!(
                matches!(solve_multigrid(&m), Err(GridError::BadParameter(_))),
                "n={n} must be rejected"
            );
            assert!(
                matches!(solve_mgcg(&m), Err(GridError::BadParameter(_))),
                "n={n} must be rejected for MGCG too"
            );
        }
        // 2x2 passes MeshProblem::new but not the coarsening ladder.
        let mut m = MeshProblem::new(2, 2, 1.0);
        m.pinned[0] = true;
        assert!(matches!(
            solve_multigrid(&m),
            Err(GridError::BadParameter(_))
        ));
    }

    #[test]
    fn multigrid_matches_sor_and_pcg() {
        for n in [9usize, 17, 33] {
            let m = loaded(n);
            let sor = m.solve().expect("sor");
            let mg = solve_multigrid(&m).expect("mg");
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - mg[i]).abs() < 1e-6 * (1.0 + sor[i].abs()),
                    "n={n} node {i}: SOR {} vs MG {}",
                    sor[i],
                    mg[i]
                );
            }
        }
    }

    #[test]
    fn mgcg_matches_pcg() {
        for n in [17usize, 33] {
            let m = loaded(n);
            let pcg = solve_pcg(&m).expect("pcg");
            let mgcg = solve_mgcg(&m).expect("mgcg");
            for i in 0..pcg.len() {
                assert!(
                    (pcg[i] - mgcg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()),
                    "n={n} node {i}: PCG {} vs MGCG {}",
                    pcg[i],
                    mgcg[i]
                );
            }
        }
    }

    #[test]
    fn off_centre_and_multiple_pins_survive_coarsening() {
        for pins in [vec![(0usize, 0usize)], vec![(1, 2), (31, 30), (16, 0)]] {
            let mut m = MeshProblem::new(33, 33, 1.0);
            for &(x, y) in &pins {
                let i = m.index(x, y);
                m.pinned[i] = true;
            }
            m.injection = vec![1e-3; 33 * 33];
            let mg = solve_multigrid(&m).expect("mg with awkward pins");
            let pcg = solve_pcg(&m).expect("pcg");
            for i in 0..mg.len() {
                assert!(
                    (pcg[i] - mg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()),
                    "pins {pins:?} node {i}"
                );
            }
        }
    }

    #[test]
    fn rectangular_meshes_coarsen_per_dimension() {
        let mut m = MeshProblem::new(17, 33, 1.0);
        let pin = m.index(8, 16);
        m.pinned[pin] = true;
        m.injection = vec![1e-3; 17 * 33];
        let mg = solve_multigrid(&m).unwrap();
        let pcg = solve_pcg(&m).unwrap();
        for i in 0..mg.len() {
            assert!((pcg[i] - mg[i]).abs() < 1e-6 * (1.0 + pcg[i].abs()));
        }
    }

    #[test]
    fn warm_start_from_the_solution_takes_zero_cycles() {
        let m = loaded(33);
        let hier = MgHierarchy::new(&m).unwrap();
        let cold = solve_multigrid_warm(&m, &hier, None).unwrap();
        let collector = np_telemetry::Collector::new();
        let warm = {
            let _guard = np_telemetry::install(&collector);
            solve_multigrid_warm(&m, &hier, Some(&cold)).unwrap()
        };
        assert_eq!(cold, warm);
        let summary = collector.summary();
        let cycles = summary
            .counters
            .iter()
            .find(|(name, _)| name == "grid.mg.cycles")
            .map(|(_, n)| *n);
        assert_eq!(cycles, Some(0), "a converged warm start needs no cycles");
    }

    #[test]
    fn zero_injection_short_circuits_to_zeros() {
        let mut m = MeshProblem::new(17, 17, 1.0);
        let pin = m.index(8, 8);
        m.pinned[pin] = true;
        assert_eq!(solve_multigrid(&m).unwrap(), vec![0.0; 17 * 17]);
        assert_eq!(solve_mgcg(&m).unwrap(), vec![0.0; 17 * 17]);
    }

    #[test]
    fn mismatched_hierarchy_and_warm_starts_are_rejected() {
        let m = loaded(17);
        let other = MgHierarchy::new(&loaded(33)).unwrap();
        assert!(matches!(
            solve_multigrid_warm(&m, &other, None),
            Err(GridError::BadParameter(_))
        ));
        // Same shape, different pins: still a mismatch.
        let mut repinned = m.clone();
        let extra = repinned.index(0, 0);
        repinned.pinned[extra] = true;
        let hier = MgHierarchy::new(&m).unwrap();
        assert!(matches!(
            solve_multigrid_warm(&repinned, &hier, None),
            Err(GridError::BadParameter(_))
        ));
        let short = vec![0.0; 3];
        assert!(matches!(
            solve_multigrid_warm(&m, &hier, Some(&short)),
            Err(GridError::BadParameter(_))
        ));
        assert!(matches!(
            solve_mgcg_warm(&m, &hier, Some(&short)),
            Err(GridError::BadParameter(_))
        ));
    }

    #[test]
    fn multigrid_beats_pcg_on_sweeps_equivalent() {
        // The acceptance currency: MGCG's total fine-grid-sweep
        // equivalents must undercut PCG's iteration count by ≥5× from
        // 257×257 up (the gap only widens with N — PCG iterations grow
        // ~O(nx): 381/841/1954 at 129/257/513, while MGCG stays nearly
        // flat at ~140). Separate collectors: the V-cycle's coarse
        // solves also emit `grid.pcg.iterations`, which would pollute a
        // shared one.
        let m = loaded(257);
        let counter = |summary: &np_telemetry::Summary, name: &str| {
            summary
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let pcg_collector = np_telemetry::Collector::new();
        {
            let _guard = np_telemetry::install(&pcg_collector);
            solve_pcg(&m).unwrap();
        }
        let mgcg_collector = np_telemetry::Collector::new();
        {
            let _guard = np_telemetry::install(&mgcg_collector);
            solve_mgcg(&m).unwrap();
        }
        let pcg_iters = counter(&pcg_collector.summary(), "grid.pcg.iterations");
        let mgcg_sweeps = counter(&mgcg_collector.summary(), "grid.mgcg.sweeps_equivalent");
        assert!(
            pcg_iters >= 5 * mgcg_sweeps,
            "PCG {pcg_iters} iterations vs MGCG {mgcg_sweeps} sweep-equivalents"
        );
        // The standalone V-cycle also has to beat PCG outright, if not
        // by the same margin (the point-pin log mode costs it a
        // slowly-growing cycle count: ~38 cycles here vs MGCG's 13
        // iterations).
        let mg_collector = np_telemetry::Collector::new();
        {
            let _guard = np_telemetry::install(&mg_collector);
            solve_multigrid(&m).unwrap();
        }
        let mg_sweeps = counter(&mg_collector.summary(), "grid.mg.sweeps_equivalent");
        assert!(
            pcg_iters >= 2 * mg_sweeps,
            "PCG {pcg_iters} iterations vs MG {mg_sweeps} sweep-equivalents"
        );
    }
}
