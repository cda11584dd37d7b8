//! Pinned multigrid outputs: the `engine::fnv1a64` digest of every node
//! voltage (little-endian `f64` bits) for the standalone V-cycle and for
//! MGCG, on two ladder sizes and three pin layouts (plus one rectangular
//! mesh), and the exact MGCG work counters at 257². The values were
//! recorded from the per-node solver the slice kernels replaced; any
//! kernel rewrite must keep every one of them bitwise.

use nanopower::engine::fnv1a64;
use nanopower::grid::multigrid::{solve_mgcg, solve_multigrid};
use nanopower::grid::solver::MeshProblem;
use nanopower::telemetry;

/// Where a mesh's Dirichlet pins sit.
#[derive(Debug, Clone, Copy)]
enum Pins {
    Centre,
    Corners,
    /// Four adjacent pins in a 2×2 block off the diagonal.
    Cluster,
}

/// An `nx × ny` mesh with a non-uniform load and the given pin layout.
fn mesh(nx: usize, ny: usize, pins: Pins) -> MeshProblem {
    let mut m = MeshProblem::new(nx, ny, 1.3);
    for (i, inj) in m.injection.iter_mut().enumerate() {
        *inj = 1e-4 * (1.0 + (i % 7) as f64 / 7.0);
    }
    let at: Vec<(usize, usize)> = match pins {
        Pins::Centre => vec![(nx / 2, ny / 2)],
        Pins::Corners => vec![(0, 0), (nx - 1, 0), (0, ny - 1), (nx - 1, ny - 1)],
        Pins::Cluster => {
            let (x, y) = (nx / 3, ny / 4);
            vec![(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]
        }
    };
    for (x, y) in at {
        let i = m.index(x, y);
        m.pinned[i] = true;
    }
    m
}

fn digest(v: &[f64]) -> u64 {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn multigrid_and_mgcg_outputs_are_pinned() {
    let meshes = [
        (65, 65, Pins::Centre),
        (65, 65, Pins::Corners),
        (65, 65, Pins::Cluster),
        (129, 129, Pins::Centre),
        (129, 129, Pins::Corners),
        (129, 129, Pins::Cluster),
        (33, 129, Pins::Cluster),
    ];
    let mg_digests: [u64; 7] = [
        0xf462_ef6c_46c4_6dd8,
        0x3c0d_4912_4fe2_dbd5,
        0xc2d3_67ee_ead5_1d57,
        0xe10b_3727_ccaf_8204,
        0xda75_e66c_edce_830b,
        0x2f96_1035_4c43_277a,
        0x2486_ffa8_a6af_f248,
    ];
    let mgcg_digests: [u64; 7] = [
        0x4ca9_8ce5_b521_9fcb,
        0xf49f_1829_309c_c803,
        0xa957_8371_13a7_cbfa,
        0xb0cd_4995_bbd4_b91b,
        0xad00_45ed_35d3_36dd,
        0xad41_056b_8542_b819,
        0x53a6_0649_0d2e_7af7,
    ];
    for (((nx, ny, pins), mg_digest), mgcg_digest) in
        meshes.into_iter().zip(mg_digests).zip(mgcg_digests)
    {
        let m = mesh(nx, ny, pins);
        let mg = digest(&solve_multigrid(&m).unwrap());
        let mgcg = digest(&solve_mgcg(&m).unwrap());
        assert_eq!(mg, mg_digest, "solve_multigrid {nx}x{ny} {pins:?}");
        assert_eq!(mgcg, mgcg_digest, "solve_mgcg {nx}x{ny} {pins:?}");
    }
}

#[test]
fn mgcg_work_counters_are_pinned_at_257() {
    let collector = telemetry::Collector::new();
    {
        let _guard = telemetry::install(&collector);
        solve_mgcg(&mesh(257, 257, Pins::Centre)).unwrap();
    }
    let summary = collector.summary();
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("grid.mgcg.iterations"), Some(13));
    assert_eq!(counter("grid.mgcg.sweeps_equivalent"), Some(138));
}
