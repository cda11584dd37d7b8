//! `registry-batch`: the paper-reproduction job. Spawns
//! `repro --json --check --jobs <nproc>` over all registry artifacts,
//! [`BATCHES`] times, and checks every artifact's digest
//! against `golden/` independently of `repro`'s own gate.
//!
//! An operation is one artifact. `cpu_raw_s` is `repro`'s CPU time per
//! batch (user and system, all threads) and `wall_s` its wall time,
//! each the median over batches. The gated `cpu_s` is `cpu_raw_s` read
//! at the reference host's speed, from [`HostSpeed`] samples taken
//! before the first batch and after each: `fig5-mesh`'s memory-bound
//! smoother is most of a batch's CPU time and follows the host's drift
//! as the reference kernel does.
//!
//! `setup_raw_s` is `repro`'s fixed cost — process start, registry and
//! golden loading, report writing and exit — measured as wall time
//! minus the engine's `total_ms` over runs of the cheap artifacts,
//! [`SETUP_SPAWNS`] before the first batch and after each, whose median
//! is steadier than that of a few heavy batches. It drifts with the
//! host as CPU time does, so the gated `setup_s` reads it at the
//! reference host's speed too.
//!
//! The per-layer figures of the traced run come from the `telemetry`
//! section `repro --json` always carries (the program installs its
//! `np-telemetry` collector for every run).

use crate::calib::HostSpeed;
use crate::context::cpu_s;
use crate::daemon::vm_hwm_mb;
use crate::json::{self, Json};
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::Ctx;
use nanopower::engine::fnv1a64;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Nodes of the `fig5-mesh` solve (a 1025×1025 mesh), for ns per node
/// update.
const FIG5_MESH_NODES: f64 = 1025.0 * 1025.0;

/// Batches per run whatever `--seconds` says: 40–60 s with the runs
/// between them on a 2-core host at the commit the benchmark was
/// written against.
const BATCHES: usize = 4;

/// Runs of the cheap artifacts, for `setup_s`, before the first batch
/// and after each.
const SETUP_SPAWNS: usize = 5;

/// The two artifacts that take all of a batch's time.
const HEAVY: [&str; 2] = ["fig5-mesh", "fig34-mgate"];

/// `fnv1a:` digest of every golden text artifact, by name.
pub fn golden_digests() -> Result<BTreeMap<&'static str, String>, String> {
    np_bench::registry::names()
        .into_iter()
        .map(|name| {
            let path = format!("golden/{name}.txt");
            let text = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
            Ok((name, format!("fnv1a:{:016x}", fnv1a64(&text))))
        })
        .collect()
}

/// One `repro` batch as observed from outside.
struct Batch {
    start: Instant,
    wall: Duration,
    cpu_s: f64,
    total_ms: f64,
    peak_rss_mb: f64,
    /// `(artifact, completion ms since batch start, duration ms)`: each
    /// worker claims jobs in submission order and runs them back to
    /// back, so a record completes at the sum of its worker's durations
    /// up to and including it.
    records: Vec<(String, f64, f64)>,
    /// The report's `telemetry` section.
    telemetry: Json,
}

impl Batch {
    fn setup_s(&self) -> f64 {
        self.wall.as_secs_f64() - self.total_ms / 1e3
    }
}

/// Runs `repro` over `names` (every artifact when empty), checking each
/// record against `golden`; `trace_out` is passed on as `--trace-out`.
fn batch(
    ctx: &Ctx,
    names: &[&str],
    golden: &BTreeMap<&str, String>,
    trace_out: Option<&Path>,
    out: &mut Outcome,
) -> Result<Batch, String> {
    let repro = ctx.bin_dir.join("repro");
    let mut cmd = Command::new(&repro);
    cmd.args(["--json", "--check", "--jobs", &ctx.nproc.to_string()]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    cmd.args(names);
    let cpu_before = cpu_s("self", true).ok_or("no CPU time for children")?;
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let mut stdout = String::new();
    let mut peak = 0.0f64;
    let mut wall = Duration::ZERO;
    let status = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                if let Some(mb) = vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let read = child
            .stdout
            .take()
            .map(|mut s| s.read_to_string(&mut stdout));
        let status = child.wait();
        // Before the sampler is joined: it may still sleep up to 10 ms.
        wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        peak = sampler.join().unwrap_or(0.0);
        read.transpose().and(status)
    });
    let status = status.map_err(|e| format!("repro: {e}"))?;
    let cpu = cpu_s("self", true).ok_or("no CPU time for children")? - cpu_before;
    let mut report = json::parse(&stdout).map_err(|e| format!("repro --json output: {e}"))?;
    let total_ms = report
        .get("total_ms")
        .and_then(Json::as_f64)
        .ok_or("run report without total_ms")?;
    let artifacts = report
        .get("artifacts")
        .and_then(Json::as_arr)
        .ok_or("run report without artifacts")?;
    let mut per_worker: BTreeMap<u64, f64> = BTreeMap::new();
    let mut records = Vec::new();
    for a in artifacts {
        let name = a.get("artifact").and_then(Json::as_str).unwrap_or("?");
        let status = a.get("status").and_then(Json::as_str).unwrap_or("?");
        let duration = a.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let worker = a.get("worker").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let digest = a.get("digest").and_then(Json::as_str);
        out.attempted += 1;
        match golden.get(name) {
            _ if status != "ok" => out.fail(format!("{name}: status {status}")),
            Some(want) if digest == Some(want.as_str()) => {}
            Some(want) => out.fail(format!("{name}: digest {digest:?}, golden {want}")),
            None => out.fail(format!("{name}: no golden reference")),
        }
        let completed = per_worker.entry(worker).or_default();
        *completed += duration;
        records.push((name.to_string(), *completed, duration));
    }
    let wanted: Vec<&str> = if names.is_empty() {
        golden.keys().copied().collect()
    } else {
        names.to_vec()
    };
    for name in wanted {
        if !records.iter().any(|r| r.0 == name) {
            out.attempted += 1;
            out.fail(format!("{name}: missing from the run report"));
        }
    }
    if !status.success() && out.failed == 0 {
        out.attempted += 1;
        out.fail(format!("repro exited with {status}"));
    }
    let telemetry = match &mut report {
        Json::Obj(fields) => fields.remove("telemetry"),
        _ => None,
    }
    .ok_or("run report without telemetry")?;
    Ok(Batch {
        start,
        wall,
        cpu_s: cpu,
        total_ms,
        peak_rss_mb: peak,
        records,
        telemetry,
    })
}

/// Registry artifacts other than the two heavy ones.
fn cheap_names() -> Vec<&'static str> {
    np_bench::registry::names()
        .into_iter()
        .filter(|n| !HEAVY.contains(n))
        .collect()
}

/// The end-to-end run: a host speed sample and [`SETUP_SPAWNS`] cheap
/// runs before the first batch and after each of [`BATCHES`].
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let golden = golden_digests()?;
    let cheap = cheap_names();
    let mut out = Outcome::default();
    let mut host = HostSpeed::new(ctx.nproc);
    let mut setups = Vec::new();
    let mut batches = Vec::new();
    loop {
        host.sample()?;
        for _ in 0..SETUP_SPAWNS {
            setups.push(batch(ctx, &cheap, &golden, None, &mut out)?.setup_s());
        }
        if batches.len() == BATCHES {
            break;
        }
        batches.push(batch(ctx, &[], &golden, None, &mut out)?);
    }
    let walls: Vec<f64> = batches.iter().map(|b| b.wall.as_secs_f64()).collect();
    let cpus: Vec<f64> = batches.iter().map(|b| b.cpu_s).collect();
    let duration_of = |artifact: &str| -> f64 {
        let d: Vec<f64> = batches
            .iter()
            .flat_map(|b| b.records.iter().filter(|r| r.0 == artifact).map(|r| r.2))
            .collect();
        median(&d) / 1e3
    };
    let m = &mut out.metrics;
    m.set("setup_s", "s", median(&setups) * host.speed());
    m.set("cpu_s", "s", median(&cpus) * host.speed());
    let n = &mut out.notes;
    n.set("setup_raw_s", "s", median(&setups));
    n.set("cpu_raw_s", "s", median(&cpus));
    n.set("host.speed", "ratio", host.speed());
    n.set("wall_s", "s", median(&walls));
    n.set(
        "peak_rss_mb",
        "MB",
        median(&batches.iter().map(|b| b.peak_rss_mb).collect::<Vec<_>>()),
    );
    n.set("fig5_mesh_s", "s", duration_of("fig5-mesh"));
    n.set("fig34_mgate_s", "s", duration_of("fig34-mgate"));
    n.set("batches", "count", batches.len() as f64);
    n.set("artifacts_per_batch", "count", golden.len() as f64);
    n.set("setup_spawns", "count", setups.len() as f64);
    Ok(out)
}

/// `(count, total ms)` of a span in a telemetry section.
fn span_ms(telemetry: &Json, name: &str) -> (f64, f64) {
    let span = telemetry.get("spans").and_then(|s| s.get(name));
    let field = |f| span.and_then(|s| s.get(f)).and_then(Json::as_f64);
    (
        field("count").unwrap_or(0.0),
        field("total_ms").unwrap_or(0.0),
    )
}

fn counter(telemetry: &Json, name: &str) -> f64 {
    telemetry
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The engine, grid, circuit, optimizer and device figures of one run
/// report's telemetry section.
fn layer_metrics(t: &Json, nproc: usize, m: &mut Metrics) {
    let (_, run_ms) = span_ms(t, "engine.run");
    let (_, attempts_ms) = span_ms(t, "engine.attempt");
    m.set(
        "engine.busy_frac",
        "fraction",
        attempts_ms / (nproc as f64 * run_ms),
    );
    let queue_wait_us = t
        .get("values")
        .and_then(|v| v.get("engine.queue_wait_us"))
        .and_then(|v| v.get("mean"))
        .and_then(Json::as_f64);
    if let Some(us) = queue_wait_us {
        m.set("engine.queue_wait_ms", "ms", us / 1e3);
    }
    let (_, level0) = span_ms(t, "grid.mg.level#0");
    let coarse: f64 = t
        .get("spans")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
        .filter(|(n, _)| n.starts_with("grid.mg.level#") && *n != "grid.mg.level#0")
        .filter_map(|(_, s)| s.get("total_ms").and_then(Json::as_f64))
        .sum();
    let (_, mgcg) = span_ms(t, "grid.mgcg.solve");
    let sweeps = counter(t, "grid.mgcg.sweeps_equivalent");
    m.set("grid.mg.level0_ms", "ms", level0);
    m.set("grid.mg.coarse_ms", "ms", coarse);
    m.set("grid.mgcg.solve_ms", "ms", mgcg);
    if sweeps > 0.0 {
        m.set(
            "grid.ns_per_node_update",
            "ns",
            mgcg * 1e6 / (sweeps * FIG5_MESH_NODES),
        );
    }
    for name in [
        "grid.mgcg.iterations",
        "grid.mgcg.sweeps_equivalent",
        "grid.pcg.iterations",
        "circuit.sta.gates",
        "device.solve_vth.evals",
    ] {
        m.set(name, "count", counter(t, name));
    }
    let (sta_n, sta_ms) = span_ms(t, "circuit.sta.analyze");
    if sta_n > 0.0 {
        m.set("circuit.sta_ms", "ms", sta_ms / sta_n);
    }
    let (_, opt_run) = span_ms(t, "opt.parallel.run");
    let (rounds, round_ms) = span_ms(t, "opt.parallel.round");
    let accepted = counter(t, "opt.parallel.accepted");
    m.set("opt.run_ms", "ms", opt_run);
    if rounds > 0.0 {
        m.set("opt.round_ms", "ms", round_ms / rounds);
    }
    if accepted > 0.0 {
        m.set("opt.us_per_accepted", "us", opt_run * 1e3 / accepted);
    }
    m.set("opt.accepted", "count", accepted);
    m.set("opt.proposed", "count", counter(t, "opt.parallel.proposed"));
}

/// The traced run: a full batch with `--trace-out` (the program's span
/// timeline, written to the returned path) between two plain ones. The
/// layer figures come from the traced batch's telemetry section;
/// `trace.overhead_frac` compares its wall with the mean of the plain
/// batches' walls, which cancels a host that speeds up or slows down
/// steadily across the three.
/// The benchmark's own spans — a `repro.batch` span and one `job:`
/// span per artifact, rebuilt from the report — go to `ctx.tracer`.
pub fn traced(ctx: &Ctx) -> Result<(Outcome, PathBuf), String> {
    let golden = golden_digests()?;
    let mut out = Outcome::default();
    let trace_path = ctx
        .work_dir
        .join(format!("repro-trace-seed{}.json", ctx.seed));
    let before = batch(ctx, &[], &golden, None, &mut out)?;
    let traced = batch(ctx, &[], &golden, Some(&trace_path), &mut out)?;
    let after = batch(ctx, &[], &golden, None, &mut out)?;
    let untraced_s = (before.wall + after.wall).as_secs_f64() / 2.0;
    let root = ctx.tracer.record(
        "repro.batch",
        None,
        0,
        traced.start,
        traced.start + traced.wall,
    );
    for (index, (name, completed, duration)) in traced.records.iter().enumerate() {
        let at = |ms: f64| traced.start + Duration::from_secs_f64(ms.max(0.0) / 1e3);
        ctx.tracer.record(
            &format!("job:{name}"),
            root,
            index as u64 + 1,
            at(completed - duration),
            at(*completed),
        );
    }
    layer_metrics(&traced.telemetry, ctx.nproc, &mut out.metrics);
    out.metrics.set(
        "trace.overhead_frac",
        "fraction",
        traced.wall.as_secs_f64() / untraced_s - 1.0,
    );
    out.notes.set("untraced_wall_s", "s", untraced_s);
    out.notes
        .set("traced_wall_s", "s", traced.wall.as_secs_f64());
    Ok((out, trace_path))
}
