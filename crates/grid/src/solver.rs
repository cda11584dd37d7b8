//! Successive over-relaxation solver for resistive meshes.
//!
//! Solves `G·V = I` on a regular 2-D grid of nodes connected by uniform
//! edge conductances, with a set of Dirichlet (voltage-pinned) nodes —
//! the discrete form of a power-grid sheet fed by bumps.

use crate::error::GridError;
use crate::shard::{self, AtomicF64Vec};
use np_units::convergence::{Breakdown, ResidualTrace};
use np_units::guard;
use std::ops::Range;
use std::sync::{Barrier, Mutex, PoisonError};

/// A rectangular resistive mesh problem.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshProblem {
    /// Nodes per row.
    pub nx: usize,
    /// Nodes per column.
    pub ny: usize,
    /// Conductance of every horizontal/vertical edge (siemens).
    pub edge_conductance: f64,
    /// Current injected (drawn) at each node, amperes; positive values are
    /// load current pulled *out* of the grid.
    pub injection: Vec<f64>,
    /// Nodes pinned to 0 V (the bumps).
    pub pinned: Vec<bool>,
}

impl MeshProblem {
    /// An `nx × ny` mesh with zero injections and no pins.
    ///
    /// # Panics
    ///
    /// Panics for an empty mesh or non-positive conductance.
    pub fn new(nx: usize, ny: usize, edge_conductance: f64) -> Self {
        assert!(nx >= 2 && ny >= 2, "mesh needs at least 2x2 nodes");
        assert!(edge_conductance > 0.0, "conductance must be positive");
        Self {
            nx,
            ny,
            edge_conductance,
            injection: vec![0.0; nx * ny],
            pinned: vec![false; nx * ny],
        }
    }

    /// Linear index of node `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn index(&self, x: usize, y: usize) -> usize {
        assert!(x < self.nx && y < self.ny, "node out of range");
        y * self.nx + x
    }

    /// Validates the problem before a solve: a pinned node must exist,
    /// the conductance must be finite and positive, the injection vector
    /// must be finite and sized to the mesh, and the pin mask must match.
    ///
    /// # Errors
    ///
    /// [`GridError::BadParameter`] or [`GridError::NonFinite`] naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.nx < 2 || self.ny < 2 {
            return Err(GridError::BadParameter("mesh needs at least 2x2 nodes"));
        }
        guard::finite_positive(
            self.edge_conductance,
            "edge conductance",
            "MeshProblem::solve",
        )?;
        if self.injection.len() != self.nx * self.ny {
            return Err(GridError::BadParameter(
                "injection vector must have nx*ny entries",
            ));
        }
        if self.pinned.len() != self.nx * self.ny {
            return Err(GridError::BadParameter("pin mask must have nx*ny entries"));
        }
        guard::all_finite(&self.injection, "injection", "MeshProblem::solve")?;
        if !self.pinned.iter().any(|&p| p) {
            return Err(GridError::BadParameter("at least one node must be pinned"));
        }
        Ok(())
    }

    /// Solves for node voltages by red-black SOR.
    ///
    /// Voltages are drops below the (0 V) bump potential: load current
    /// pulls nodes negative, so callers typically report `-V.min()` as the
    /// worst-case drop.
    ///
    /// # Errors
    ///
    /// [`GridError::BadParameter`]/[`GridError::NonFinite`] when
    /// [`MeshProblem::validate`] rejects the problem;
    /// [`GridError::NoConvergence`] (with a [`Convergence`] diagnostic)
    /// when the iteration stalls.
    ///
    /// [`Convergence`]: np_units::convergence::Convergence
    pub fn solve(&self) -> Result<Vec<f64>, GridError> {
        self.validate()?;
        let _span = np_telemetry::span("grid.sor.solve");
        let (nx, ny) = (self.nx, self.ny);
        let g = self.edge_conductance;
        let mut v = vec![0.0f64; nx * ny];
        let omega = 1.9;
        let max_iters = 50_000;
        let tol = 1e-12;
        let mut trace = ResidualTrace::new();
        // The labeled block funnels every exit through one point so the
        // sweep count is recorded exactly once, success or failure.
        let result = 'solve: {
            for _ in 0..max_iters {
                let mut max_delta = 0.0f64;
                for color in 0..2 {
                    for y in 0..ny {
                        for x in 0..nx {
                            if (x + y) % 2 != color {
                                continue;
                            }
                            let i = y * nx + x;
                            if self.pinned[i] {
                                continue;
                            }
                            let mut sum = 0.0;
                            let mut deg = 0.0;
                            if x > 0 {
                                sum += v[i - 1];
                                deg += 1.0;
                            }
                            if x + 1 < nx {
                                sum += v[i + 1];
                                deg += 1.0;
                            }
                            if y > 0 {
                                sum += v[i - nx];
                                deg += 1.0;
                            }
                            if y + 1 < ny {
                                sum += v[i + nx];
                                deg += 1.0;
                            }
                            // KCL: deg*g*v_i = g*sum - I_i  (I positive = draw).
                            let target = (g * sum - self.injection[i]) / (deg * g);
                            let next = v[i] + omega * (target - v[i]);
                            max_delta = max_delta.max((next - v[i]).abs());
                            v[i] = next;
                        }
                    }
                }
                trace.record(max_delta);
                if !max_delta.is_finite() {
                    break 'solve Err(GridError::NoConvergence {
                        diag: trace.diagnostic(Breakdown::NonFinite {
                            at_iteration: trace.iterations(),
                        }),
                    });
                }
                if max_delta < tol {
                    break 'solve Ok(v);
                }
            }
            Err(GridError::NoConvergence {
                diag: trace.diagnostic(Breakdown::IterationBudget),
            })
        };
        np_telemetry::counter("grid.sor.iterations", trace.iterations() as u64);
        result
    }

    /// Solves for node voltages by red-black SOR across `shards` parallel
    /// row bands.
    ///
    /// Red-black ordering makes every node of one color independent of
    /// all others of the same color, so each half-sweep parallelizes
    /// across row bands with a barrier between colors. The schedule
    /// performs *exactly* the arithmetic of [`MeshProblem::solve`] —
    /// same sweeps, same per-node updates, and a max-reduction (which is
    /// associative and commutative) for the convergence test — so the
    /// returned voltages are bitwise identical to the sequential solver
    /// for every shard count.
    ///
    /// `shards` is clamped to `1..=ny`; one shard falls back to the
    /// sequential path. Callers that want the machine-appropriate count
    /// should use [`crate::plan::SolvePlan`] instead of picking one here.
    ///
    /// # Errors
    ///
    /// Exactly those of [`MeshProblem::solve`].
    pub fn solve_parallel(&self, shards: usize) -> Result<Vec<f64>, GridError> {
        self.validate()?;
        let shards = shard::clamp_shards(shards, self.ny);
        if shards == 1 {
            return self.solve();
        }
        let _span = np_telemetry::span("grid.sor.solve_parallel");
        let omega = 1.9;
        let max_iters = 50_000;
        let tol = 1e-12;
        let v = AtomicF64Vec::zeros(self.nx * self.ny);
        let deltas = AtomicF64Vec::zeros(shards);
        let barrier = Barrier::new(shards);
        let bands = shard::row_bands(self.ny, shards);
        // Shard 0 owns the residual trace; it parks the final verdict
        // (and the sweep count for the telemetry counter) here.
        let outcome: Mutex<Option<(Result<(), GridError>, usize)>> = Mutex::new(None);
        let collector = np_telemetry::current();
        std::thread::scope(|scope| {
            for (shard_idx, band) in bands.iter().cloned().enumerate() {
                let (v, deltas, barrier, outcome, collector) =
                    (&v, &deltas, &barrier, &outcome, &collector);
                scope.spawn(move || {
                    let _telemetry = collector.as_ref().map(np_telemetry::install);
                    let _shard_span = np_telemetry::shard_span("grid.sor.shard", shard_idx);
                    let mut trace = ResidualTrace::new();
                    let mut status = SweepStatus::Budget;
                    for _ in 0..max_iters {
                        let mut local_delta = sor_color_pass(self, v, band.clone(), 0, omega);
                        // B1: all color-0 values visible before color 1
                        // reads them across band boundaries.
                        barrier.wait();
                        local_delta =
                            local_delta.max(sor_color_pass(self, v, band.clone(), 1, omega));
                        deltas.set(shard_idx, local_delta);
                        // B2: color-1 values and per-shard deltas visible.
                        // (B1 of the next sweep doubles as the guard that
                        // keeps fast shards from overwriting `deltas`
                        // before everyone has reduced this sweep's.)
                        barrier.wait();
                        let max_delta = (0..shards).map(|s| deltas.get(s)).fold(0.0f64, f64::max);
                        trace.record(max_delta);
                        if !max_delta.is_finite() {
                            status = SweepStatus::NonFinite;
                            break;
                        }
                        if max_delta < tol {
                            status = SweepStatus::Converged;
                            break;
                        }
                    }
                    if shard_idx == 0 {
                        let result = match status {
                            SweepStatus::Converged => Ok(()),
                            SweepStatus::NonFinite => Err(GridError::NoConvergence {
                                diag: trace.diagnostic(Breakdown::NonFinite {
                                    at_iteration: trace.iterations(),
                                }),
                            }),
                            SweepStatus::Budget => Err(GridError::NoConvergence {
                                diag: trace.diagnostic(Breakdown::IterationBudget),
                            }),
                        };
                        let iters = trace.iterations();
                        *outcome.lock().unwrap_or_else(PoisonError::into_inner) =
                            Some((result, iters));
                    }
                });
            }
        });
        // The fallback is unreachable (shard 0 always records before its
        // scope ends) but kept as a typed error rather than a panic.
        let (result, iters) = outcome
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .unwrap_or((
                Err(GridError::BadParameter(
                    "parallel SOR worker exited without recording an outcome",
                )),
                0,
            ));
        np_telemetry::counter("grid.sor.iterations", iters as u64);
        result.map(|()| v.to_vec())
    }
}

/// How a parallel SOR worker's sweep loop ended.
enum SweepStatus {
    Converged,
    NonFinite,
    Budget,
}

/// One half-sweep of red-black SOR over the rows in `band`, updating only
/// nodes of `color`; returns the band's max update magnitude.
///
/// Same-color nodes never neighbor each other, so every update in this
/// pass reads only opposite-color values — concurrent band updates of the
/// same color are independent, and the arithmetic matches the sequential
/// sweep exactly.
pub(crate) fn sor_color_pass(
    m: &MeshProblem,
    v: &AtomicF64Vec,
    band: Range<usize>,
    color: usize,
    omega: f64,
) -> f64 {
    let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
    let mut max_delta = 0.0f64;
    for y in band {
        for x in 0..nx {
            if (x + y) % 2 != color {
                continue;
            }
            let i = y * nx + x;
            if m.pinned[i] {
                continue;
            }
            let mut sum = 0.0;
            let mut deg = 0.0;
            if x > 0 {
                sum += v.get(i - 1);
                deg += 1.0;
            }
            if x + 1 < nx {
                sum += v.get(i + 1);
                deg += 1.0;
            }
            if y > 0 {
                sum += v.get(i - nx);
                deg += 1.0;
            }
            if y + 1 < ny {
                sum += v.get(i + nx);
                deg += 1.0;
            }
            // KCL: deg*g*v_i = g*sum - I_i  (I positive = draw).
            let target = (g * sum - m.injection[i]) / (deg * g);
            let cur = v.get(i);
            let next = cur + omega * (target - cur);
            max_delta = max_delta.max((next - cur).abs());
            v.set(i, next);
        }
    }
    max_delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_pinned_mesh_is_flat() {
        let mut m = MeshProblem::new(8, 8, 1.0);
        let c = m.index(0, 0);
        m.pinned[c] = true;
        let v = m.solve().unwrap();
        assert!(v.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn single_load_single_pin_matches_series_resistance() {
        // A 1-D chain (2 x n degenerate mesh is awkward; use a 2-node-wide
        // strip and compare against hand math on a 2x2).
        let mut m = MeshProblem::new(2, 2, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        let load = m.index(1, 1);
        m.injection[load] = 1.0; // 1 A drawn
        let v = m.solve().unwrap();
        // Two parallel 2-edge paths from pin to load: R = (1+1)||(1+1) = 1 Ω.
        assert!((v[load] + 1.0).abs() < 1e-6, "got {}", v[load]);
    }

    #[test]
    fn drop_grows_with_distance_from_pin() {
        let mut m = MeshProblem::new(16, 16, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = 1e-3;
        }
        let v = m.solve().unwrap();
        let near = -v[m.index(1, 1)];
        let far = -v[m.index(15, 15)];
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn more_pins_reduce_drop() {
        let build = |pins: &[(usize, usize)]| {
            let mut m = MeshProblem::new(17, 17, 1.0);
            for &(x, y) in pins {
                let idx = m.index(x, y);
                m.pinned[idx] = true;
            }
            for i in 0..m.injection.len() {
                m.injection[i] = 1e-3;
            }
            let v = m.solve().unwrap();
            -v.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let one = build(&[(8, 8)]);
        let five = build(&[(8, 8), (0, 0), (16, 0), (0, 16), (16, 16)]);
        assert!(five < one);
    }

    #[test]
    fn unpinned_mesh_is_rejected() {
        let m = MeshProblem::new(4, 4, 1.0);
        assert!(matches!(m.solve(), Err(GridError::BadParameter(_))));
    }

    #[test]
    fn drop_scales_inversely_with_conductance() {
        let run = |g: f64| {
            let mut m = MeshProblem::new(9, 9, g);
            let pin = m.index(4, 4);
            m.pinned[pin] = true;
            for i in 0..m.injection.len() {
                m.injection[i] = 1e-3;
            }
            let v = m.solve().unwrap();
            -v.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let d1 = run(1.0);
        let d2 = run(2.0);
        assert!((d1 / d2 - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_mesh_panics() {
        let _ = MeshProblem::new(1, 4, 1.0);
    }

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
    fn parallel_sor_is_bitwise_identical_to_sequential() {
        for n in [6usize, 9, 17] {
            let m = loaded(n);
            let seq = m.solve().unwrap();
            for shards in [2usize, 3, 7] {
                let par = m.solve_parallel(shards).unwrap();
                assert_eq!(seq, par, "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn parallel_sor_single_shard_falls_back() {
        let m = loaded(8);
        assert_eq!(m.solve().unwrap(), m.solve_parallel(1).unwrap());
    }

    #[test]
    fn parallel_sor_validates_first() {
        let m = MeshProblem::new(4, 4, 1.0); // no pins
        assert!(matches!(
            m.solve_parallel(4),
            Err(GridError::BadParameter(_))
        ));
    }

    #[test]
    fn parallel_sor_clamps_excess_shards() {
        let m = loaded(5);
        // 64 shards on a 5-row mesh: trailing bands are empty but the
        // solve still agrees with the sequential reference.
        assert_eq!(m.solve().unwrap(), m.solve_parallel(64).unwrap());
    }
}
