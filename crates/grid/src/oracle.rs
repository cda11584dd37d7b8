//! Bitwise oracle for the multigrid slice kernels.
//!
//! [`reference`] keeps the per-node code the multigrid solver ran before
//! its kernels moved to row slices: a generic colour pass that visits
//! every node and tests its colour, a residual that recovers `(x, y)`
//! from the index with `%` and `/`, and grid transfers that bounds-test
//! every stencil tap. [`fast`] wraps the slice kernels behind the same
//! signatures, so a test can run both on one input and compare the
//! results with `to_bits()`.
//!
//! Both sides take the level problem in the reference convention: a
//! [`MeshProblem`] whose `injection` is the load `I` of `A·x = −I`
//! (`b = −I` at free nodes, `0` at pins).
//!
//! Compiled for the crate's unit tests and, behind the `kernel-oracle`
//! feature, for the integration proptests. Not a supported API.

use crate::solver::MeshProblem;
use crate::stencil::{self, Stencil};

/// The pre-rewrite per-node kernels.
pub mod reference {
    use crate::solver::MeshProblem;

    /// One Gauss-Seidel half-sweep over the whole mesh, updating only
    /// the free nodes of `colour` (`(x + y) % 2`).
    pub fn colour_pass(m: &MeshProblem, v: &mut [f64], colour: usize) {
        let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
        let omega = 1.0;
        for y in 0..ny {
            for x in 0..nx {
                if (x + y) % 2 != colour {
                    continue;
                }
                let i = y * nx + x;
                if m.pinned[i] {
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
                let target = (g * sum - m.injection[i]) / (deg * g);
                let cur = v[i];
                v[i] = cur + omega * (target - cur);
            }
        }
    }

    /// `sweeps` sweeps, each a colour-`first` pass then the other colour.
    pub fn smooth(m: &MeshProblem, v: &mut [f64], sweeps: usize, first: usize) {
        for _ in 0..sweeps {
            colour_pass(m, v, first);
            colour_pass(m, v, 1 - first);
        }
    }

    /// Row `i` of the mesh Laplacian `(A·v)_i`.
    fn apply_row(m: &MeshProblem, v: &[f64], i: usize) -> f64 {
        let (nx, ny, g) = (m.nx, m.ny, m.edge_conductance);
        if m.pinned[i] {
            return v[i];
        }
        let (x, y) = (i % nx, i / nx);
        let mut acc = 0.0;
        let mut deg = 0.0;
        if x > 0 {
            acc += if m.pinned[i - 1] { 0.0 } else { v[i - 1] };
            deg += 1.0;
        }
        if x + 1 < nx {
            acc += if m.pinned[i + 1] { 0.0 } else { v[i + 1] };
            deg += 1.0;
        }
        if y > 0 {
            acc += if m.pinned[i - nx] { 0.0 } else { v[i - nx] };
            deg += 1.0;
        }
        if y + 1 < ny {
            acc += if m.pinned[i + nx] { 0.0 } else { v[i + nx] };
            deg += 1.0;
        }
        g * (deg * v[i] - acc)
    }

    /// `out = A·v`.
    pub fn apply(m: &MeshProblem, v: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = apply_row(m, v, i);
        }
    }

    /// `r = b − A·v` with `b = −I` at free nodes and `0` at pins.
    pub fn residual(m: &MeshProblem, v: &[f64], r: &mut [f64]) {
        for (i, ri) in r.iter_mut().enumerate() {
            let b = if m.pinned[i] { 0.0 } else { -m.injection[i] };
            *ri = b - apply_row(m, v, i);
        }
    }

    /// Full-weighting restriction of `r` into `coarse.injection`
    /// (`−4·Σ w·r` at free coarse nodes, `0` at coarse pins).
    pub fn restrict(fine: &MeshProblem, r: &[f64], coarse: &mut MeshProblem) {
        const FW_WEIGHTS: [[f64; 3]; 3] = [
            [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
            [1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0],
            [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
        ];
        let (nxf, nyf) = (fine.nx as isize, fine.ny as isize);
        let nxc = coarse.nx;
        for yc in 0..coarse.ny {
            for xc in 0..nxc {
                let ic = yc * nxc + xc;
                if coarse.pinned[ic] {
                    coarse.injection[ic] = 0.0;
                    continue;
                }
                let (fx, fy) = (2 * xc as isize, 2 * yc as isize);
                let mut acc = 0.0;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let (px, py) = (fx + dx as isize, fy + dy as isize);
                        if px < 0 || py < 0 || px >= nxf || py >= nyf {
                            continue;
                        }
                        #[allow(clippy::cast_sign_loss)]
                        let fi = (py * nxf + px) as usize;
                        acc += FW_WEIGHTS[(dy + 1) as usize][(dx + 1) as usize] * r[fi];
                    }
                }
                coarse.injection[ic] = -(4.0 * acc);
            }
        }
    }

    /// Adds the bilinear interpolation of `xc` into the free nodes of
    /// `x`.
    pub fn prolong_add(coarse: &MeshProblem, xc: &[f64], fine: &MeshProblem, x: &mut [f64]) {
        let nxc = coarse.nx;
        let at = |cx: usize, cy: usize| xc[cy * nxc + cx];
        for fy in 0..fine.ny {
            for fx in 0..fine.nx {
                let i = fy * fine.nx + fx;
                if fine.pinned[i] {
                    continue;
                }
                let (cx, cy) = (fx / 2, fy / 2);
                let corr = match (fx % 2, fy % 2) {
                    (0, 0) => at(cx, cy),
                    (1, 0) => 0.5 * (at(cx, cy) + at(cx + 1, cy)),
                    (0, 1) => 0.5 * (at(cx, cy) + at(cx, cy + 1)),
                    _ => 0.25 * (at(cx, cy) + at(cx + 1, cy) + at(cx, cy + 1) + at(cx + 1, cy + 1)),
                };
                x[i] += corr;
            }
        }
    }
}

/// The slice kernels behind the [`reference`] signatures.
pub mod fast {
    use super::{stencil, MeshProblem, Stencil};

    /// The right-hand side `b = −I` the slice kernels take.
    fn rhs(m: &MeshProblem) -> Vec<f64> {
        m.injection.iter().map(|i| -i).collect()
    }

    /// `stencil::smooth`: the fused red-black wavefront.
    pub fn smooth(m: &MeshProblem, v: &mut [f64], sweeps: usize, first: usize) {
        stencil::smooth(&Stencil::of(m), v, &rhs(m), sweeps, first);
    }

    /// `stencil::apply_dot`: `out = A·v`, returning `v·out`.
    pub fn apply_dot(m: &MeshProblem, v: &[f64], out: &mut [f64]) -> f64 {
        stencil::apply_dot(&Stencil::of(m), v, out)
    }

    /// `stencil::residual`.
    pub fn residual(m: &MeshProblem, v: &[f64], r: &mut [f64]) {
        stencil::residual(&Stencil::of(m), v, &rhs(m), r);
    }

    /// `stencil::restrict`, written back as the load `I = −b`
    /// (`0` at coarse pins).
    pub fn restrict(fine: &MeshProblem, r: &[f64], coarse: &mut MeshProblem) {
        let mut b = vec![0.0; coarse.nx * coarse.ny];
        stencil::restrict(&Stencil::of(fine), r, &Stencil::of(coarse), &mut b);
        for ((inj, bi), &p) in coarse.injection.iter_mut().zip(b).zip(&coarse.pinned) {
            *inj = if p { 0.0 } else { -bi };
        }
    }

    /// `stencil::prolong_add`.
    pub fn prolong_add(coarse: &MeshProblem, xc: &[f64], fine: &MeshProblem, x: &mut [f64]) {
        stencil::prolong_add(&Stencil::of(coarse), xc, &Stencil::of(fine), x);
    }
}
