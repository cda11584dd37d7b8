//! Conjugate-gradient solvers for the resistive mesh.
//!
//! A second, independent numeric method for the same
//! [`MeshProblem`]: the mesh Laplacian is
//! symmetric positive-definite once at least one node is pinned, so
//! conjugate gradients converge in at most `n` steps and typically far
//! fewer. Having two solvers lets the test suite cross-validate the
//! linear algebra itself, not just the physics built on it — and CG is
//! the faster choice on large meshes.
//!
//! Two CG entry points:
//!
//! * [`solve_cg`] — plain CG, the historical reference;
//! * [`solve_pcg`] — Jacobi-preconditioned CG (the standard choice for
//!   power-grid meshes), with optional warm starts via
//!   [`solve_pcg_warm`] for repeated solves (see
//!   [`crate::mesh::MeshCache`]).
//!
//! Callers normally pick a method through [`crate::plan::SolvePlan`]
//! rather than calling a specific solver directly.

use crate::error::GridError;
use crate::solver::MeshProblem;
use crate::stencil::{self, Stencil};
use np_units::convergence::{Breakdown, ResidualTrace};

/// Solves the mesh by conjugate gradients.
///
/// Returns node voltages identical (to solver tolerance) to
/// [`MeshProblem::solve`].
///
/// # Errors
///
/// [`GridError::BadParameter`]/[`GridError::NonFinite`] when
/// [`MeshProblem::validate`] rejects the problem;
/// [`GridError::NoConvergence`] if the iteration stalls, with a
/// diagnostic whose reason distinguishes a plain budget exhaustion from
/// a loss of positive-definiteness
/// ([`Breakdown::IndefiniteOperator`]) — the latter means the system is
/// singular/indefinite and re-running cannot help.
pub fn solve_cg(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    cg_iterate(m)
}

/// The CG iteration proper, after [`MeshProblem::validate`] has accepted
/// the inputs. Kept separate so the breakdown watchdogs can be exercised
/// on inputs `validate` would reject.
fn cg_iterate(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    // Degenerate meshes must surface as the typed domain error, never as
    // a convergence/IndefiniteOperator breakdown (or a silent empty
    // success): the guard runs before any iteration state is built.
    if m.nx < 2 || m.ny < 2 {
        return Err(GridError::BadParameter("mesh needs at least 2x2 nodes"));
    }
    let _span = np_telemetry::span("grid.cg.solve");
    let n = m.nx * m.ny;
    // RHS: -I at free nodes (current draw pulls the node negative),
    // 0 at pinned nodes.
    let b: Vec<f64> = (0..n)
        .map(|i| if m.pinned[i] { 0.0 } else { -m.injection[i] })
        .collect();
    let mut x = vec![0.0f64; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; n];
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    let b_norm = rs_old.sqrt().max(1e-300);
    let tol = 1e-12 * b_norm;
    let max_iters = 10 * n;
    let mut trace = ResidualTrace::new();
    // The labeled block funnels every exit path through one point so the
    // iteration count and final residual are recorded exactly once.
    let result = 'solve: {
        for _ in 0..max_iters {
            if rs_old.sqrt() <= tol {
                break 'solve Ok(x);
            }
            let p_ap = stencil::apply_dot(&Stencil::of(m), &p, &mut ap);
            if !p_ap.is_finite() {
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::NonFinite {
                        at_iteration: trace.iterations(),
                    }),
                });
            }
            if p_ap <= 0.0 {
                // Loss of positive-definiteness is a structural breakdown, not
                // a budget problem — report it as its own reason so callers
                // don't retry a solve that cannot succeed. A solution already
                // within the relaxed tolerance is still accepted.
                if rs_old.sqrt() <= tol * 10.0 {
                    break 'solve Ok(x);
                }
                break 'solve Err(GridError::NoConvergence {
                    diag: trace.diagnostic(Breakdown::IndefiniteOperator { curvature: p_ap }),
                });
            }
            let alpha = rs_old / p_ap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rs_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rs_new / rs_old;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            rs_old = rs_new;
            trace.record(rs_old.sqrt());
        }
        if rs_old.sqrt() <= tol * 10.0 {
            Ok(x)
        } else {
            Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        }
    };
    np_telemetry::counter("grid.cg.iterations", trace.iterations() as u64);
    np_telemetry::value("grid.cg.final_residual", rs_old.sqrt());
    result
}

/// Mesh setup that repeated solves can reuse: the Jacobi preconditioner
/// (the inverse of the Laplacian diagonal) for a given mesh shape.
///
/// Assembling it costs one pass over the mesh; the electro-thermal loop
/// and the bench harness solve the same mesh shape dozens of times, so
/// [`crate::mesh::MeshCache`] builds one `PreparedMesh` per mesh and
/// hands it back to every subsequent [`solve_pcg_warm`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedMesh {
    /// `1 / diag(G)` per node: `1/(g·deg)` at free nodes, `1.0` at
    /// pinned nodes (whose rows are identity).
    inv_diag: Vec<f64>,
}

impl PreparedMesh {
    /// Builds the preconditioner for `m` (which should already satisfy
    /// [`MeshProblem::validate`]; degenerate meshes yield an empty or
    /// unusable preconditioner that the solvers reject).
    pub fn new(m: &MeshProblem) -> Self {
        let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
        let n = nx * ny;
        let mut inv_diag = vec![1.0; n];
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if i < m.pinned.len() && m.pinned[i] {
                    continue; // identity row
                }
                let deg = f64::from(u8::from(x > 0))
                    + f64::from(u8::from(x + 1 < nx))
                    + f64::from(u8::from(y > 0))
                    + f64::from(u8::from(y + 1 < ny));
                if deg > 0.0 && g != 0.0 {
                    inv_diag[i] = 1.0 / (g * deg);
                }
            }
        }
        Self { inv_diag }
    }

    /// The inverse-diagonal entries, node-indexed.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

/// Solves the mesh by Jacobi-preconditioned conjugate gradients.
///
/// Same contract as [`solve_cg`]; the diagonal preconditioner cuts the
/// iteration count roughly in half on loaded meshes and is the method
/// [`crate::plan::SolvePlan`] selects for sequential CG solves.
///
/// # Errors
///
/// Exactly those of [`solve_cg`].
pub fn solve_pcg(m: &MeshProblem) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    pcg_iterate(m, &PreparedMesh::new(m), None)
}

/// [`solve_pcg`] with a reusable [`PreparedMesh`] and an optional warm
/// start.
///
/// `x0` seeds the iteration (its pinned entries are forced to zero); a
/// start near the solution — e.g. the previous solve of the same mesh in
/// a fixed-point loop — converges in a handful of iterations instead of
/// `O(nx)`.
///
/// # Errors
///
/// Those of [`solve_pcg`], plus [`GridError::BadParameter`] when
/// `prepared` or `x0` does not match the mesh size.
pub fn solve_pcg_warm(
    m: &MeshProblem,
    prepared: &PreparedMesh,
    x0: Option<&[f64]>,
) -> Result<Vec<f64>, GridError> {
    m.validate()?;
    let n = m.nx * m.ny;
    if prepared.inv_diag.len() != n {
        return Err(GridError::BadParameter(
            "prepared mesh does not match the problem size",
        ));
    }
    if x0.is_some_and(|x0| x0.len() != n) {
        return Err(GridError::BadParameter(
            "warm-start vector must have nx*ny entries",
        ));
    }
    pcg_iterate(m, prepared, x0)
}

/// The Jacobi-PCG iteration.
fn pcg_iterate(
    m: &MeshProblem,
    prepared: &PreparedMesh,
    x0: Option<&[f64]>,
) -> Result<Vec<f64>, GridError> {
    if m.nx < 2 || m.ny < 2 {
        return Err(GridError::BadParameter("mesh needs at least 2x2 nodes"));
    }
    let _span = np_telemetry::span("grid.pcg.solve");
    let n = m.nx * m.ny;
    let b: Vec<f64> = (0..n)
        .map(|i| if m.pinned[i] { 0.0 } else { -m.injection[i] })
        .collect();
    let (mut x, mut r) = match x0 {
        Some(seed) => {
            let mut x = seed.to_vec();
            for (i, xi) in x.iter_mut().enumerate() {
                if m.pinned[i] {
                    *xi = 0.0; // pinned nodes stay exactly at the bump rail
                }
            }
            let mut r = vec![0.0; n];
            stencil::residual(&Stencil::of(m), &x, &b, &mut r);
            (x, r)
        }
        None => (vec![0.0; n], b.clone()),
    };
    let mut z: Vec<f64> = r
        .iter()
        .zip(&prepared.inv_diag)
        .map(|(r, d)| r * d)
        .collect();
    let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    if b.iter().all(|&v| v == 0.0) {
        // x = 0 is the exact solution of the pinned SPD system with zero
        // injection. Iterating a warm start toward it instead chases a
        // tolerance of ~1e-312 (b_norm clamps at 1e-300) into denormal
        // territory until p·Ap underflows to an indefinite 0.
        return Ok(vec![0.0; n]);
    }
    let mut p = z.clone();
    let mut ap = vec![0.0f64; n];
    let tol = 1e-12 * b_norm;
    let max_iters = 10 * n;
    let mut trace = ResidualTrace::new();
    // The labeled block funnels every exit path through one point so the
    // iteration count and final residual are recorded exactly once.
    let result = 'solve: {
        for _ in 0..max_iters {
            if rr.sqrt() <= tol {
                break 'solve Ok(x);
            }
            let p_ap = stencil::apply_dot(&Stencil::of(m), &p, &mut ap);
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
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            rr = r.iter().map(|v| v * v).sum();
            trace.record(rr.sqrt());
            for i in 0..n {
                z[i] = r[i] * prepared.inv_diag[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
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
    np_telemetry::counter("grid.pcg.iterations", trace.iterations() as u64);
    np_telemetry::value("grid.pcg.final_residual", rr.sqrt());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_mesh(n: usize) -> MeshProblem {
        let mut m = MeshProblem::new(n, n, 1.3);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        m
    }

    #[test]
    fn cg_matches_sor() {
        for n in [5usize, 9, 16] {
            let m = loaded_mesh(n);
            let sor = m.solve().expect("sor");
            let cg = solve_cg(&m).expect("cg");
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - cg[i]).abs() < 1e-6,
                    "n={n} node {i}: SOR {} vs CG {}",
                    sor[i],
                    cg[i]
                );
            }
        }
    }

    #[test]
    fn cg_satisfies_kcl() {
        let m = loaded_mesh(9);
        let v = solve_cg(&m).unwrap();
        let mut gv = vec![0.0; v.len()];
        stencil::apply_dot(&Stencil::of(&m), &v, &mut gv);
        for (i, g) in gv.iter().enumerate() {
            if !m.pinned[i] {
                assert!(
                    (g + m.injection[i]).abs() < 1e-9,
                    "KCL at {i}: {g} vs {}",
                    -m.injection[i]
                );
            }
        }
    }

    #[test]
    fn pinned_nodes_stay_at_zero() {
        let m = loaded_mesh(11);
        let v = solve_cg(&m).unwrap();
        for (i, vi) in v.iter().enumerate() {
            if m.pinned[i] {
                assert_eq!(*vi, 0.0);
            }
        }
    }

    #[test]
    fn unpinned_rejected() {
        let m = MeshProblem::new(4, 4, 1.0);
        assert!(matches!(solve_cg(&m), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn non_finite_injection_rejected_with_typed_error() {
        let mut m = loaded_mesh(5);
        m.injection[3] = f64::NAN;
        assert!(matches!(solve_cg(&m), Err(GridError::NonFinite(_))));
    }

    #[test]
    fn mismatched_injection_length_rejected_not_panicking() {
        let mut m = loaded_mesh(5);
        m.injection.truncate(3);
        assert!(matches!(solve_cg(&m), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn indefinite_operator_reports_breakdown_reason() {
        use np_units::convergence::Breakdown;
        // A negative conductance makes the operator negative-definite:
        // pᵀAp < 0 on the first step. `validate` rejects this at the
        // public API; the iteration's own watchdog must still name the
        // structural cause rather than a generic budget exhaustion.
        let mut m = loaded_mesh(5);
        m.edge_conductance = -1.0;
        match cg_iterate(&m) {
            Err(GridError::NoConvergence { diag }) => {
                assert!(
                    matches!(diag.reason, Breakdown::IndefiniteOperator { curvature } if curvature < 0.0),
                    "got {:?}",
                    diag.reason
                );
            }
            other => panic!("expected breakdown, got {other:?}"),
        }
    }

    #[test]
    fn multiple_pins_supported() {
        let mut m = loaded_mesh(13);
        let extra = m.index(0, 0);
        m.pinned[extra] = true;
        let sor = m.solve().unwrap();
        let cg = solve_cg(&m).unwrap();
        for i in 0..sor.len() {
            assert!((sor[i] - cg[i]).abs() < 1e-6);
        }
    }

    // Regression: a degenerate (zero- or one-row) mesh must surface the
    // typed domain error, not an IndefiniteOperator breakdown or a
    // silent empty success from a zero-trip iteration loop.
    #[test]
    fn degenerate_mesh_is_a_domain_error_not_a_breakdown() {
        let empty = MeshProblem {
            nx: 0,
            ny: 0,
            edge_conductance: 1.0,
            injection: vec![],
            pinned: vec![],
        };
        assert!(matches!(
            cg_iterate(&empty),
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
        assert!(matches!(
            solve_cg(&empty),
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
        // A 1-wide strip is singular without pins; the guard must fire
        // before the iteration can report IndefiniteOperator.
        let strip = MeshProblem {
            nx: 1,
            ny: 4,
            edge_conductance: 1.0,
            injection: vec![1e-3; 4],
            pinned: vec![false; 4],
        };
        assert!(matches!(
            cg_iterate(&strip),
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
        let prepared = PreparedMesh { inv_diag: vec![] };
        assert!(matches!(
            pcg_iterate(&empty, &prepared, None),
            Err(GridError::BadParameter("mesh needs at least 2x2 nodes"))
        ));
    }

    #[test]
    fn pcg_matches_sor_and_cg() {
        for n in [5usize, 9, 16] {
            let m = loaded_mesh(n);
            let sor = m.solve().expect("sor");
            let pcg = solve_pcg(&m).expect("pcg");
            for i in 0..sor.len() {
                assert!(
                    (sor[i] - pcg[i]).abs() < 1e-6,
                    "n={n} node {i}: SOR {} vs PCG {}",
                    sor[i],
                    pcg[i]
                );
            }
        }
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let m = loaded_mesh(17);
        let prepared = PreparedMesh::new(&m);
        let cold = solve_pcg_warm(&m, &prepared, None).unwrap();
        let warm = solve_pcg_warm(&m, &prepared, Some(&cold)).unwrap();
        for i in 0..cold.len() {
            assert!((warm[i] - cold[i]).abs() <= 1e-9 * (1.0 + cold[i].abs()));
        }
    }

    #[test]
    fn warm_inputs_are_validated() {
        let m = loaded_mesh(5);
        let wrong = PreparedMesh {
            inv_diag: vec![1.0; 3],
        };
        assert!(matches!(
            solve_pcg_warm(&m, &wrong, None),
            Err(GridError::BadParameter(_))
        ));
        let prepared = PreparedMesh::new(&m);
        let short = vec![0.0; 3];
        assert!(matches!(
            solve_pcg_warm(&m, &prepared, Some(&short)),
            Err(GridError::BadParameter(_))
        ));
    }

    #[test]
    fn prepared_mesh_inverts_the_diagonal() {
        let m = loaded_mesh(5);
        let p = PreparedMesh::new(&m);
        let pin = m.index(2, 2);
        assert_eq!(p.inv_diag()[pin], 1.0, "pinned rows are identity");
        // A corner node has degree 2.
        assert!((p.inv_diag()[0] - 1.0 / (1.3 * 2.0)).abs() < 1e-15);
        // An interior free node has degree 4.
        let interior = m.index(1, 1);
        assert!((p.inv_diag()[interior] - 1.0 / (1.3 * 4.0)).abs() < 1e-15);
    }
}
