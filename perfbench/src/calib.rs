//! Host speed: a fixed reference kernel compiled into the benchmark and
//! run between the program's batches and phases, so that the program's
//! times can be read at the speed of a reference host.
//!
//! The machine this benchmark runs on is a share of a host whose
//! throughput drifts: the same `repro` batch took 16 s of CPU at one
//! minute and 9 s eight minutes later, with under 1 % steal (clock
//! frequency, memory bandwidth and caches taken by other tenants). CPU
//! time leaves out stolen time but not that drift. The kernel is a
//! red-black Gauss–Seidel sweep over a 1025×1025 mesh, the access
//! pattern and footprint of the program's multigrid smoother, so it
//! slows down with the host as the program does. The host's state
//! flips within seconds and differs between the machine's CPUs, so one
//! run takes short samples on every CPU at once, spread over the run,
//! and uses their mean. The kernel is the benchmark's own code:
//! a change to the program never changes it.

use std::hint::black_box;

/// Side of the reference mesh (the `fig5-mesh` resolution).
const SIDE: usize = 1025;

/// Full (red + black) sweeps in one timed kernel run.
const SWEEPS: usize = 16;

/// Kernel runs per thread per [`HostSpeed::sample`] (about a second).
const REPS: usize = 8;

/// Pitch of the pinned nodes (power-bump supply points).
const PIN_PITCH: usize = 64;

/// Thread CPU time of one kernel run, in ns, on the reference host: an
/// Intel Xeon (family 6, model 143) with 2 vCPUs under KVM, where it
/// took 60–190 ms depending on the minute. [`HostSpeed::speed`] is this
/// over the run's mean.
pub const REFERENCE_NS: f64 = 100e6;

/// One reference mesh.
struct Mesh {
    v: Vec<f64>,
    injection: Vec<f64>,
    pinned: Vec<bool>,
}

impl Mesh {
    fn new() -> Self {
        let n = SIDE * SIDE;
        let pinned = (0..n)
            .map(|i| (i / SIDE) % PIN_PITCH == 0 && (i % SIDE) % PIN_PITCH == 0)
            .collect();
        let injection = (0..n).map(|i| 1e-6 * (1 + i % 7) as f64).collect();
        Mesh {
            v: vec![0.0; n],
            injection,
            pinned,
        }
    }

    /// One kernel run from a zero mesh; returns the largest update of
    /// the last sweep, so the work cannot be optimised away.
    fn kernel(&mut self) -> f64 {
        self.v.fill(0.0);
        let (nx, g, omega) = (SIDE, 1.0, 1.5);
        let mut delta = 0.0f64;
        for _ in 0..SWEEPS {
            delta = 0.0;
            for color in 0..2 {
                for y in 0..SIDE {
                    for x in 0..nx {
                        if (x + y) % 2 != color {
                            continue;
                        }
                        let i = y * nx + x;
                        if self.pinned[i] {
                            continue;
                        }
                        let (mut sum, mut deg) = (0.0, 0.0);
                        if x > 0 {
                            sum += self.v[i - 1];
                            deg += 1.0;
                        }
                        if x + 1 < nx {
                            sum += self.v[i + 1];
                            deg += 1.0;
                        }
                        if y > 0 {
                            sum += self.v[i - nx];
                            deg += 1.0;
                        }
                        if y + 1 < SIDE {
                            sum += self.v[i + nx];
                            deg += 1.0;
                        }
                        let target = (g * sum - self.injection[i]) / (deg * g);
                        let cur = self.v[i];
                        let next = cur + omega * (target - cur);
                        delta = delta.max((next - cur).abs());
                        self.v[i] = black_box(next);
                    }
                }
            }
        }
        delta
    }

    /// Thread CPU times of [`REPS`] kernel runs, in ns.
    fn timed(&mut self) -> Result<Vec<f64>, String> {
        (0..REPS)
            .map(|_| {
                let start = thread_cpu_ns()?;
                black_box(self.kernel());
                Ok((thread_cpu_ns()? - start) as f64)
            })
            .collect()
    }
}

/// One reference mesh per CPU, allocated once per run, and the kernel
/// times measured so far.
pub struct HostSpeed {
    meshes: Vec<Mesh>,
    kernel_ns: Vec<f64>,
}

impl HostSpeed {
    /// Meshes for `threads` concurrent kernels (the host's CPUs: the
    /// program's work moves between them, and their speeds drift
    /// apart).
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            meshes: (0..threads.max(1)).map(|_| Mesh::new()).collect(),
            kernel_ns: Vec::new(),
        }
    }

    /// Times [`REPS`] kernel runs on every mesh at once, one thread
    /// each, with the thread's CPU clock, which leaves out stolen time.
    pub fn sample(&mut self) -> Result<(), String> {
        let times: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
            let (first, rest) = self.meshes.split_first_mut().expect("at least one mesh");
            let others: Vec<_> = rest.iter_mut().map(|m| scope.spawn(|| m.timed())).collect();
            let mut times = vec![first.timed()];
            times.extend(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("reference kernel panicked".into()))),
            );
            times
        });
        for t in times {
            self.kernel_ns.extend(t?);
        }
        Ok(())
    }

    /// The host's speed relative to the reference host over the samples
    /// taken so far: [`REFERENCE_NS`] over their mean (below 1 on a
    /// slower host, `NaN` before the first sample). A CPU time times
    /// this reads in reference-host seconds.
    pub fn speed(&self) -> f64 {
        let n = self.kernel_ns.len() as f64;
        REFERENCE_NS * n / self.kernel_ns.iter().sum::<f64>()
    }
}

/// CPU time this thread has run, in ns (Linux `/proc/thread-self/schedstat`,
/// first field).
fn thread_cpu_ns() -> Result<u64, String> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "no thread CPU time (/proc/thread-self/schedstat)".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut m = Mesh::new();
        let a = m.kernel();
        let b = m.kernel();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > 0.0);
        let mut h = HostSpeed::new(2);
        assert!(h.speed().is_nan());
        h.sample().unwrap();
        assert_eq!(h.kernel_ns.len(), 2 * REPS);
        assert!(h.speed() > 0.0 && h.speed().is_finite());
    }
}
