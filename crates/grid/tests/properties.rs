//! Property-based tests on the mesh solver and IR-drop models.

use np_grid::analytic::{required_rail_width, worst_case_drop, IrBudget};
use np_grid::cg::solve_pcg;
use np_grid::multigrid::solve_multigrid;
use np_grid::oracle;
use np_grid::solver::MeshProblem;
use np_grid::{GridError, SolvePlan, SolveStrategy};
use np_roadmap::TechNode;
use np_units::Microns;
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

/// A loaded mesh: uniform injection, pin at `(px, py)`.
fn loaded_mesh(n: usize, g: f64, load: f64, px: usize, py: usize) -> MeshProblem {
    let mut m = MeshProblem::new(n, n, g);
    let pin = m.index(px.min(n - 1), py.min(n - 1));
    m.pinned[pin] = true;
    for i in 0..m.injection.len() {
        m.injection[i] = load / (n * n) as f64;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_solution_satisfies_kcl(
        n in 5usize..12,
        g in 0.1..10.0f64,
        load in 1e-4..1e-1f64,
    ) {
        let mut m = MeshProblem::new(n, n, g);
        let pin = m.index(n / 2, n / 2);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = load / (n * n) as f64;
        }
        let v = m.solve().unwrap();
        // KCL at every free node: sum of edge currents equals injection.
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if m.pinned[i] {
                    continue;
                }
                let mut into = 0.0;
                if x > 0 { into += g * (v[i - 1] - v[i]); }
                if x + 1 < n { into += g * (v[i + 1] - v[i]); }
                if y > 0 { into += g * (v[i - n] - v[i]); }
                if y + 1 < n { into += g * (v[i + n] - v[i]); }
                prop_assert!(
                    (into - m.injection[i]).abs() < 1e-7 * (1.0 + m.injection[i].abs()),
                    "KCL violated at ({x},{y}): {into} vs {}",
                    m.injection[i]
                );
            }
        }
    }

    #[test]
    fn mesh_drops_are_nonpositive_under_load(n in 5usize..12, load in 1e-4..1e-1f64) {
        let mut m = MeshProblem::new(n, n, 1.0);
        let pin = m.index(0, 0);
        m.pinned[pin] = true;
        for i in 0..m.injection.len() {
            m.injection[i] = load / (n * n) as f64;
        }
        let v = m.solve().unwrap();
        prop_assert!(v.iter().all(|&x| x <= 1e-12), "grid voltages sag below the pin");
    }

    #[test]
    fn analytic_drop_scales_exactly(
        node in any_node(),
        pitch in 50.0..200.0f64,
        w in 0.5..10.0f64,
        k in 1.1..4.0f64,
    ) {
        let base = worst_case_drop(node, Microns(pitch), Microns(w)).unwrap();
        let wider = worst_case_drop(node, Microns(pitch), Microns(w * k)).unwrap();
        prop_assert!((base.0 / wider.0 / k - 1.0).abs() < 1e-9, "1/w scaling");
        let coarser = worst_case_drop(node, Microns(pitch * k), Microns(w)).unwrap();
        prop_assert!((coarser.0 / base.0 / k.powi(3) - 1.0).abs() < 1e-9, "P^3 scaling");
    }

    #[test]
    fn solved_width_always_meets_budget(node in any_node(), pitch in 40.0..150.0f64) {
        let budget = IrBudget::default();
        if let Ok(w) = required_rail_width(node, Microns(pitch), &budget) {
            let drop = worst_case_drop(node, Microns(pitch), w).unwrap();
            let allowed = budget.per_net(node.params().vdd).unwrap();
            prop_assert!(drop.0 <= allowed.0 * 1.0001);
            prop_assert!(w.0 >= node.params().top_metal_min_width.0);
        }
    }

    // Every strategy the SolvePlan enum can route to answers the same
    // physics: all agree with the SOR reference within tolerance.
    #[test]
    fn every_solve_plan_strategy_agrees(
        n in 5usize..16,
        load in 1e-4..1e-1f64,
    ) {
        let m = loaded_mesh(n, 1.0, load, n / 2, n / 2);
        let reference = m.solve().unwrap();
        for strategy in [SolveStrategy::Auto, SolveStrategy::SequentialCg] {
            let v = SolvePlan::with_strategy(strategy).solve(&m).unwrap();
            // Cross-algorithm comparison (CG-family vs the SOR
            // reference): both stop at their own 1e-12-scaled criteria,
            // so agreement is to solver accuracy, not bitwise.
            for i in 0..reference.len() {
                prop_assert!(
                    (reference[i] - v[i]).abs() <= 1e-6 * (1.0 + reference[i].abs()),
                    "{strategy:?} node {i}: {} vs {}",
                    reference[i],
                    v[i]
                );
            }
        }
    }

    #[test]
    fn tighter_budgets_demand_wider_rails(
        node in any_node(),
        share in 0.2..0.9f64,
    ) {
        let pitch = Microns(80.0);
        let loose = IrBudget { total_fraction: 0.10, top_level_share: share };
        let tight = IrBudget { total_fraction: 0.05, top_level_share: share };
        if let (Ok(wl), Ok(wt)) = (
            required_rail_width(node, pitch, &loose),
            required_rail_width(node, pitch, &tight),
        ) {
            prop_assert!(wt >= wl);
        }
    }
}

// A separate block with a lower case count: 257×257 solves are real
// work, and the property holds per mesh size rather than needing a
// dense random sweep.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The multigrid family agrees with PCG to 1e-6 at every ladder size
    // (33/129/257).
    #[test]
    fn multigrid_family_matches_pcg_across_sizes(
        n in prop::sample::select(vec![33usize, 129, 257]),
        g in 0.1..10.0f64,
        load in 1e-4..1e-1f64,
    ) {
        let m = loaded_mesh(n, g, load, n / 2, n / 2);
        let pcg = solve_pcg(&m).unwrap();
        let mg = SolvePlan::with_strategy(SolveStrategy::Multigrid).solve(&m).unwrap();
        let mgcg = SolvePlan::with_strategy(SolveStrategy::MultigridCg).solve(&m).unwrap();
        for i in 0..pcg.len() {
            prop_assert!(
                (pcg[i] - mg[i]).abs() <= 1e-6 * (1.0 + pcg[i].abs()),
                "MG n={n} node {i}: {} vs {}",
                pcg[i],
                mg[i]
            );
            prop_assert!(
                (pcg[i] - mgcg[i]).abs() <= 1e-6 * (1.0 + pcg[i].abs()),
                "MGCG n={n} node {i}: {} vs {}",
                pcg[i],
                mgcg[i]
            );
        }
    }
}

#[test]
fn multigrid_rejects_non_pow2_plus_one_meshes_with_a_typed_error() {
    // 20 is even (MeshProblem::new accepts it) and 21 = 3·7 misses the
    // 2^k+1 ladder; both must come back as a typed BadParameter, not a
    // panic or a silent wrong answer.
    for n in [20usize, 21] {
        let m = loaded_mesh(n, 1.0, 1e-2, n / 2, n / 2);
        assert!(
            matches!(solve_multigrid(&m), Err(GridError::BadParameter(_))),
            "n={n} must be a BadParameter"
        );
    }
}

/// Case generator for the kernel oracle: splitmix64 over a proptest-drawn
/// seed, so one `u64` fixes a whole mesh (pins, loads, values).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value in `[-1, 1)`, exactly `+0.0` or `-0.0` one time in four.
    fn value(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
        }
    }

    fn values(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.value()).collect()
    }

    /// A pin layout: none, the corners, boundary nodes, a cluster of
    /// adjacent nodes, or a random scatter — sometimes two overlaid.
    fn pins(&mut self, nx: usize, ny: usize) -> Vec<bool> {
        let mut pinned = vec![false; nx * ny];
        for _ in 0..1 + self.below(2) {
            match self.below(5) {
                0 => {}
                1 => {
                    for i in [0, nx - 1, (ny - 1) * nx, nx * ny - 1] {
                        pinned[i] = true;
                    }
                }
                2 => {
                    for _ in 0..1 + self.below(6) {
                        let (x, y) = match self.below(4) {
                            0 => (self.below(nx), 0),
                            1 => (self.below(nx), ny - 1),
                            2 => (0, self.below(ny)),
                            _ => (nx - 1, self.below(ny)),
                        };
                        pinned[y * nx + x] = true;
                    }
                }
                3 => {
                    let (x, y) = (self.below(nx), self.below(ny));
                    for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        pinned[(y + dy).min(ny - 1) * nx + (x + dx).min(nx - 1)] = true;
                    }
                }
                _ => {
                    for p in &mut pinned {
                        *p |= self.below(10) == 0;
                    }
                }
            }
        }
        pinned
    }

    /// A level problem with random pins and loads (`±0.0` included).
    fn mesh(&mut self, nx: usize, ny: usize) -> MeshProblem {
        let mut m = MeshProblem::new(nx, ny, 0.1 + 10.0 * self.value().abs());
        m.pinned = self.pins(nx, ny);
        m.injection = self.values(nx * ny);
        m
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mesh sides for the kernels that take any shape (3 and 2 included).
fn any_side() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![2usize, 3, 4, 5, 8, 9, 17, 33])
}

/// Fine sides on the 2^k+1 ladder for the grid transfers.
fn ladder_side() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![3usize, 5, 9, 17, 33, 65])
}

// The bitwise oracle: every slice kernel against the per-node reference
// it replaced, compared with `to_bits()`. The case count follows
// `PROPTEST_CASES` (default 256).
proptest! {
    #[test]
    fn oracle_smoother_wavefront_is_bitwise_exact(
        nx in any_side(),
        ny in any_side(),
        sweeps in 1usize..4,
        first in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = Gen(seed);
        let m = gen.mesh(nx, ny);
        let x0 = gen.values(nx * ny);
        let (mut fast, mut reference) = (x0.clone(), x0);
        oracle::fast::smooth(&m, &mut fast, sweeps, first);
        oracle::reference::smooth(&m, &mut reference, sweeps, first);
        prop_assert_eq!(bits(&fast), bits(&reference), "{}x{} sweeps={} first={}", nx, ny, sweeps, first);
    }

    #[test]
    fn oracle_laplacian_and_residual_are_bitwise_exact(
        nx in any_side(),
        ny in any_side(),
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = Gen(seed);
        let m = gen.mesh(nx, ny);
        let v = gen.values(nx * ny);
        let n = nx * ny;
        let (mut fast, mut reference) = (vec![0.0; n], vec![0.0; n]);
        oracle::fast::residual(&m, &v, &mut fast);
        oracle::reference::residual(&m, &v, &mut reference);
        prop_assert_eq!(bits(&fast), bits(&reference), "residual {}x{}", nx, ny);
        oracle::reference::apply(&m, &v, &mut reference);
        let dot = oracle::fast::apply_dot(&m, &v, &mut fast);
        let reference_dot: f64 = v.iter().zip(&reference).map(|(a, b)| a * b).sum();
        prop_assert_eq!(bits(&fast), bits(&reference), "apply_dot {}x{}", nx, ny);
        prop_assert_eq!(dot.to_bits(), reference_dot.to_bits(), "apply_dot {}x{}", nx, ny);
    }

    #[test]
    fn oracle_grid_transfers_are_bitwise_exact(
        nx in ladder_side(),
        ny in ladder_side(),
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = Gen(seed);
        let fine = gen.mesh(nx, ny);
        let (nxc, nyc) = ((nx - 1) / 2 + 1, (ny - 1) / 2 + 1);
        let coarse = gen.mesh(nxc, nyc);
        let r = gen.values(nx * ny);
        let (mut fast, mut reference) = (coarse.clone(), coarse.clone());
        oracle::fast::restrict(&fine, &r, &mut fast);
        oracle::reference::restrict(&fine, &r, &mut reference);
        prop_assert_eq!(bits(&fast.injection), bits(&reference.injection), "restrict {}x{}", nx, ny);
        let xc = gen.values(nxc * nyc);
        let x0 = gen.values(nx * ny);
        let (mut fast, mut reference) = (x0.clone(), x0);
        oracle::fast::prolong_add(&coarse, &xc, &fine, &mut fast);
        oracle::reference::prolong_add(&coarse, &xc, &fine, &mut reference);
        prop_assert_eq!(bits(&fast), bits(&reference), "prolong_add {}x{}", nx, ny);
    }
}
