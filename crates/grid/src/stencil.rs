//! Slice kernels of the 5-point mesh Laplacian: the Gauss-Seidel
//! smoother, the mat-vec and residual, and the multigrid grid transfers.
//!
//! Every kernel runs on plain `&[f64]` / `&mut [f64]` row slices. Interior
//! rows take a fast path whose neighbour reads come from three hoisted
//! row slices (the node's own row and the rows above and below) with no
//! per-node `%`, `/` or bounds test, and the mat-vec rows with no pin
//! among the three rows they touch drop the pin selects altogether. The
//! first and last row and column go through a per-node path that counts
//! the node's degree the way the reference solver does.
//!
//! The fast paths are bitwise copies of the per-node arithmetic:
//!
//! * a node's neighbour sum accumulates from `0.0` in the order left,
//!   right, up, down, and its degree `deg` is the count of neighbours
//!   (so an interior node divides by `4.0·g`, exactly the reference's
//!   `deg·g`);
//! * the smoother keeps `target = (g·sum − I)/(deg·g)` and
//!   `next = cur + ω·(target − cur)`. The kernels take the right-hand
//!   side `b = −I` of `A·x = b` rather than the load `I`, and compute
//!   `g·sum + b`: IEEE 754 defines `a − I` as `a + (−I)`, so the two are
//!   the same operation, signed zeros included;
//! * pinned neighbours enter the mat-vec as `if pinned {0.0} else {v}`;
//! * there is no reciprocal-multiply and no fused multiply-add, and
//!   every reduction runs in node-index order from `-0.0` (the start
//!   value of `Iterator::sum`).
//!
//! [`smooth`] fuses its half-sweeps into one row-lagged wavefront: at
//! wavefront step `y` the `k`-th half-sweep updates row `y − k`. A
//! colour-`c` update reads only its own value and its opposite-colour
//! neighbours. When it runs, half-sweep `k − 1` has already finished
//! rows up to `y − k + 1`, and half-sweep `k + 1` has not yet reached
//! row `y − k − 1`. So every read sees exactly the value the
//! one-colour-pass-at-a-time order gives it, and the mesh streams
//! through memory once per call rather than once per half-sweep.

/// The successive over-relaxation factor of the multigrid smoother:
/// `ω = 1` is plain Gauss-Seidel.
const OMEGA: f64 = 1.0;

/// The full-weighting restriction stencil, `[dy+1][dx+1]`-indexed.
const FW_WEIGHTS: [[f64; 3]; 3] = [
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
    [1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0],
    [1.0 / 16.0, 1.0 / 8.0, 1.0 / 16.0],
];

/// The operator of one mesh level: its shape, edge conductance and pin
/// mask. Node `(x, y)` lives at index `y·nx + x`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stencil<'a> {
    pub nx: usize,
    pub ny: usize,
    pub g: f64,
    pub pinned: &'a [bool],
}

impl<'a> Stencil<'a> {
    /// The operator of a mesh problem.
    pub fn of(m: &'a crate::solver::MeshProblem) -> Self {
        Self {
            nx: m.nx,
            ny: m.ny,
            g: m.edge_conductance,
            pinned: &m.pinned,
        }
    }

    /// Whether row `y` has a row above and below and at least one
    /// interior column — the rows the fast paths handle.
    fn interior_row(&self, y: usize) -> bool {
        y > 0 && y + 1 < self.ny && self.nx >= 3
    }
}

/// `if pinned {0.0} else {v}`: a pinned neighbour's term in the mat-vec.
#[inline(always)]
fn free(pinned: bool, v: f64) -> f64 {
    if pinned {
        0.0
    } else {
        v
    }
}

/// Whether any node of `pins` is pinned (a branch-free scan).
#[inline(always)]
fn any_pin(pins: &[bool]) -> bool {
    pins.iter().fold(false, |acc, &p| acc | p)
}

/// Rows `y − 1`, `y`, `y + 1` of `v` for an interior row `y`, the middle
/// one mutable.
#[inline(always)]
fn rows3(v: &mut [f64], nx: usize, y: usize) -> (&[f64], &mut [f64], &[f64]) {
    let (head, tail) = v.split_at_mut(y * nx);
    let (row, rest) = tail.split_at_mut(nx);
    (&head[(y - 1) * nx..], row, &rest[..nx])
}

/// One Gauss-Seidel update of node `(x, y)` through the per-node path
/// (any node, including the mesh boundary; the caller skips pins).
#[inline(always)]
fn gs_node(s: &Stencil<'_>, v: &mut [f64], b: &[f64], x: usize, y: usize) {
    let (nx, ny, g) = (s.nx, s.ny, s.g);
    let i = y * nx + x;
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
    let target = (g * sum + b[i]) / (deg * g);
    let cur = v[i];
    v[i] = cur + OMEGA * (target - cur);
}

/// Updates the colour-`colour` nodes of row `y` (colour = `(x+y) % 2`).
fn gs_row(s: &Stencil<'_>, v: &mut [f64], b: &[f64], y: usize, colour: usize) {
    let nx = s.nx;
    let pin = &s.pinned[y * nx..(y + 1) * nx];
    if !s.interior_row(y) {
        for x in ((y + colour) % 2..nx).step_by(2) {
            if !pin[x] {
                gs_node(s, v, b, x, y);
            }
        }
        return;
    }
    if y % 2 == colour && !pin[0] {
        gs_node(s, v, b, 0, y);
    }
    let g = s.g;
    let dg = 4.0 * g;
    let rhs = &b[y * nx..(y + 1) * nx];
    let (up, row, down) = rows3(v, nx, y);
    // The first interior column of this colour: 1 when (1+y) % 2 == colour.
    let mut x = 1 + (1 + y + colour) % 2;
    while x + 1 < nx {
        if !pin[x] {
            let sum = 0.0 + row[x - 1] + row[x + 1] + up[x] + down[x];
            let target = (g * sum + rhs[x]) / dg;
            let cur = row[x];
            row[x] = cur + OMEGA * (target - cur);
        }
        x += 2;
    }
    if (nx - 1 + y) % 2 == colour && !pin[nx - 1] {
        gs_node(s, v, b, nx - 1, y);
    }
}

/// `sweeps` Gauss-Seidel sweeps of `A·v = b` in place, each visiting the
/// nodes of colour `first` and then the other colour, fused into one
/// row-lagged wavefront (see the module docs). Pinned nodes keep their
/// value.
pub(crate) fn smooth(s: &Stencil<'_>, v: &mut [f64], b: &[f64], sweeps: usize, first: usize) {
    let halves = 2 * sweeps;
    for step in 0..s.ny + halves - 1 {
        for k in 0..halves {
            if let Some(y) = step.checked_sub(k).filter(|&y| y < s.ny) {
                gs_row(s, v, b, y, (first + k) % 2);
            }
        }
    }
}

/// `(A·v)` at node `(x, y)` through the per-node path: identity rows at
/// pins, `g·(deg·v − Σ free neighbours)` elsewhere.
#[inline(always)]
fn laplacian_node(s: &Stencil<'_>, v: &[f64], x: usize, y: usize) -> f64 {
    let (nx, ny, g) = (s.nx, s.ny, s.g);
    let i = y * nx + x;
    if s.pinned[i] {
        return v[i];
    }
    let mut acc = 0.0;
    let mut deg = 0.0;
    if x > 0 {
        acc += free(s.pinned[i - 1], v[i - 1]);
        deg += 1.0;
    }
    if x + 1 < nx {
        acc += free(s.pinned[i + 1], v[i + 1]);
        deg += 1.0;
    }
    if y > 0 {
        acc += free(s.pinned[i - nx], v[i - nx]);
        deg += 1.0;
    }
    if y + 1 < ny {
        acc += free(s.pinned[i + nx], v[i + nx]);
        deg += 1.0;
    }
    g * (deg * v[i] - acc)
}

/// Row `y` of `A·v` into `out` (`nx` entries).
fn laplacian_row(s: &Stencil<'_>, v: &[f64], y: usize, out: &mut [f64]) {
    let nx = s.nx;
    if !s.interior_row(y) {
        for (x, o) in out.iter_mut().enumerate() {
            *o = laplacian_node(s, v, x, y);
        }
        return;
    }
    let g = s.g;
    let row = &v[y * nx..(y + 1) * nx];
    let up = &v[(y - 1) * nx..y * nx];
    let down = &v[(y + 1) * nx..(y + 2) * nx];
    let pin = &s.pinned[y * nx..(y + 1) * nx];
    let pin_up = &s.pinned[(y - 1) * nx..y * nx];
    let pin_down = &s.pinned[(y + 1) * nx..(y + 2) * nx];
    out[0] = laplacian_node(s, v, 0, y);
    let n = nx - 2;
    let (out_mid, row_mid) = (&mut out[1..=n], &row[1..=n]);
    let (left, right) = (&row[..n], &row[2..]);
    let (pin_left, pin_mid, pin_right) = (&pin[..n], &pin[1..=n], &pin[2..]);
    let (up, down) = (&up[1..=n], &down[1..=n]);
    let (pin_up, pin_down) = (&pin_up[1..=n], &pin_down[1..=n]);
    if !any_pin(pin) && !any_pin(pin_up) && !any_pin(pin_down) {
        for k in 0..n {
            let acc = 0.0 + left[k] + right[k] + up[k] + down[k];
            out_mid[k] = g * (4.0 * row_mid[k] - acc);
        }
    } else {
        for k in 0..n {
            let acc = 0.0
                + free(pin_left[k], left[k])
                + free(pin_right[k], right[k])
                + free(pin_up[k], up[k])
                + free(pin_down[k], down[k]);
            let ax = g * (4.0 * row_mid[k] - acc);
            out_mid[k] = if pin_mid[k] { row_mid[k] } else { ax };
        }
    }
    out[nx - 1] = laplacian_node(s, v, nx - 1, y);
}

/// `out = A·v` — the mesh Laplacian with identity rows at pins —
/// returning `v·out` (summed in node order).
pub(crate) fn apply_dot(s: &Stencil<'_>, v: &[f64], out: &mut [f64]) -> f64 {
    let mut dot = -0.0;
    for (y, out_row) in out.chunks_exact_mut(s.nx).enumerate() {
        laplacian_row(s, v, y, out_row);
        let v_row = &v[y * s.nx..(y + 1) * s.nx];
        for (a, b) in v_row.iter().zip(out_row.iter()) {
            dot += a * b;
        }
    }
    dot
}

/// `r = b − A·v`, with `b` read as `0.0` at pins.
pub(crate) fn residual(s: &Stencil<'_>, v: &[f64], b: &[f64], r: &mut [f64]) {
    let nx = s.nx;
    for (y, r_row) in r.chunks_exact_mut(nx).enumerate() {
        laplacian_row(s, v, y, r_row);
        let b_row = &b[y * nx..(y + 1) * nx];
        let pin = &s.pinned[y * nx..(y + 1) * nx];
        if any_pin(pin) {
            for ((ri, &bi), &p) in r_row.iter_mut().zip(b_row).zip(pin) {
                *ri = free(p, bi) - *ri;
            }
        } else {
            for (ri, &bi) in r_row.iter_mut().zip(b_row) {
                *ri = bi - *ri;
            }
        }
    }
}

/// Full-weighting sum of the fine residual around coarse node
/// `(xc, yc)` through the per-node path: taps outside the mesh are
/// skipped.
fn restrict_node(fine: &Stencil<'_>, r: &[f64], xc: usize, yc: usize) -> f64 {
    let (fx, fy) = (2 * xc, 2 * yc);
    let mut acc = 0.0;
    for (dy, weights) in FW_WEIGHTS.iter().enumerate() {
        for (dx, w) in weights.iter().enumerate() {
            let (Some(px), Some(py)) = ((fx + dx).checked_sub(1), (fy + dy).checked_sub(1)) else {
                continue;
            };
            if px < fine.nx && py < fine.ny {
                acc += w * r[py * fine.nx + px];
            }
        }
    }
    acc
}

/// Full-weighting restriction of the fine residual `r` into the coarse
/// right-hand side `bc` (`0.0` at coarse pins).
///
/// The coarse operator is the same `g·L` graph Laplacian, which in
/// continuum terms discretizes a `(2h)²` cell — so the restricted
/// residual scales by 4 per coarsening.
pub(crate) fn restrict(fine: &Stencil<'_>, r: &[f64], coarse: &Stencil<'_>, bc: &mut [f64]) {
    let (nxf, nxc) = (fine.nx, coarse.nx);
    let [[w00, w01, w02], [w10, w11, w12], [w20, w21, w22]] = FW_WEIGHTS;
    for (yc, bc_row) in bc.chunks_exact_mut(nxc).enumerate() {
        let pin = &coarse.pinned[yc * nxc..(yc + 1) * nxc];
        if yc == 0 || yc + 1 == coarse.ny || nxc < 3 {
            for (xc, out) in bc_row.iter_mut().enumerate() {
                *out = if pin[xc] {
                    0.0
                } else {
                    4.0 * restrict_node(fine, r, xc, yc)
                };
            }
            continue;
        }
        let fy = 2 * yc;
        let above = &r[(fy - 1) * nxf..fy * nxf];
        let centre = &r[fy * nxf..(fy + 1) * nxf];
        let below = &r[(fy + 1) * nxf..(fy + 2) * nxf];
        bc_row[0] = if pin[0] {
            0.0
        } else {
            4.0 * restrict_node(fine, r, 0, yc)
        };
        for xc in 1..nxc - 1 {
            let fx = 2 * xc;
            let acc = 0.0
                + w00 * above[fx - 1]
                + w01 * above[fx]
                + w02 * above[fx + 1]
                + w10 * centre[fx - 1]
                + w11 * centre[fx]
                + w12 * centre[fx + 1]
                + w20 * below[fx - 1]
                + w21 * below[fx]
                + w22 * below[fx + 1];
            bc_row[xc] = if pin[xc] { 0.0 } else { 4.0 * acc };
        }
        let last = nxc - 1;
        bc_row[last] = if pin[last] {
            0.0
        } else {
            4.0 * restrict_node(fine, r, last, yc)
        };
    }
}

/// Adds the bilinear interpolation of the coarse correction `xc` into
/// the fine solution `x`; pinned fine nodes keep their value.
///
/// Fine node `(2i, 2j)` takes coarse `(i, j)`; odd positions average
/// their two (edge) or four (cell) coarse neighbours, summed in the
/// order `(i, j)`, `(i+1, j)`, `(i, j+1)`, `(i+1, j+1)`.
pub(crate) fn prolong_add(coarse: &Stencil<'_>, xc: &[f64], fine: &Stencil<'_>, x: &mut [f64]) {
    let (nxf, nxc) = (fine.nx, coarse.nx);
    let add = |v: &mut f64, p: bool, corr: f64| {
        if !p {
            *v += corr;
        }
    };
    for (fy, row) in x.chunks_exact_mut(nxf).enumerate() {
        let pin = &fine.pinned[fy * nxf..(fy + 1) * nxf];
        let cy = fy / 2;
        let c0 = &xc[cy * nxc..(cy + 1) * nxc];
        // Fine columns (2i, 2i+1) in pairs; the last (even) column after.
        let pairs = row.chunks_exact_mut(2).zip(pin.chunks_exact(2));
        if fy % 2 == 0 {
            for ((v, p), (a, b)) in pairs.zip(c0.iter().zip(&c0[1..])) {
                add(&mut v[0], p[0], *a);
                add(&mut v[1], p[1], 0.5 * (a + b));
            }
            add(&mut row[nxf - 1], pin[nxf - 1], c0[nxc - 1]);
        } else {
            let c1 = &xc[(cy + 1) * nxc..(cy + 2) * nxc];
            let cells = c0.iter().zip(&c0[1..]).zip(c1.iter().zip(&c1[1..]));
            for ((v, p), ((a, b), (c, d))) in pairs.zip(cells) {
                add(&mut v[0], p[0], 0.5 * (a + c));
                add(&mut v[1], p[1], 0.25 * (a + b + c + d));
            }
            add(
                &mut row[nxf - 1],
                pin[nxf - 1],
                0.5 * (c0[nxc - 1] + c1[nxc - 1]),
            );
        }
    }
}
