//! The nanopower benchmark: three workloads driven from outside the
//! program through its public binaries and functions.
//!
//! ```text
//! perfbench --workload <registry-batch|serve-cold|serve-hot|all>
//!           --seed N --seconds S --trace <0|1> [--runs K]
//! ```
//!
//! Prints a human-readable block (every metric by name with its unit,
//! stamped with the run's context), then as the last stdout line one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--runs K` is the steadiness mode: K runs with seeds
//! N..N+K, each metric's median, quartiles and (q3-q1)/median.
//! See `perfbench/README.md`.

mod calib;
mod context;
mod daemon;
mod json;
mod layers;
mod loadgen;
mod registry_batch;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod wire;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    /// Where `repro` and `nanopowerd` were built.
    pub bin_dir: PathBuf,
    /// Scratch directory inside the checkout (sockets, logs, traces).
    pub work_dir: PathBuf,
    /// The benchmark's span recorder (off unless `--trace 1`).
    pub tracer: Tracer,
    daemons: Cell<usize>,
}

impl Ctx {
    /// Spawns a fresh default daemon on a private socket.
    pub fn spawn_daemon(&self) -> Result<daemon::Daemon, String> {
        let n = self.daemons.get();
        self.daemons.set(n + 1);
        let id = std::process::id();
        let socket = self.work_dir.join(format!("d{id}-{n}.sock"));
        let log = self.work_dir.join(format!("d{id}-{n}.log"));
        let result = daemon::Daemon::spawn(&self.bin_dir.join("nanopowerd"), &socket, &log);
        if result.is_ok() {
            // Only a failed start leaves a log worth keeping.
            let _ = std::fs::remove_file(&log);
        }
        result
    }
}

const WORKLOADS: &[&str] = &["registry-batch", "serve-cold", "serve-hot"];

/// Known counters of the `registry-batch` traced run at the commit the
/// benchmark was written against; a difference is reported, not failed.
const EXACT_COUNTERS: &[(&str, f64)] = &[
    ("grid.mgcg.iterations", 91.0),
    ("grid.mgcg.sweeps_equivalent", 958.0),
    ("grid.pcg.iterations", 2135.0),
    ("circuit.sta.gates", 307_500.0),
    ("opt.accepted", 150_000.0),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        runs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--runs" => {
                let v = value()?;
                args.runs = Some(v.parse().ok().filter(|&k| k >= 2).ok_or_else(|| bad(&v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.runs.is_some() && args.workload == "all" {
        return Err("--runs takes one workload, not all".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all (got {:?})",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one workload once and prints its block and result line.
fn run_one(workload: &str, args: &Args, bin_dir: &std::path::Path) -> Result<(), String> {
    let work_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: context::nproc(),
        bin_dir: bin_dir.to_path_buf(),
        work_dir,
        tracer: if args.trace {
            Tracer::on()
        } else {
            Tracer::off()
        },
        daemons: Cell::new(0),
    };
    let context = context::json(workload, args.seed, args.seconds, args.trace);
    println!("context: {context}");
    let ticks = context::cpu_ticks();
    // A traced run also names the file holding the program's own
    // telemetry for it.
    let (mut outcome, telemetry): (Outcome, Option<PathBuf>) = match (workload, args.trace) {
        ("registry-batch", false) => (registry_batch::run(&ctx)?, None),
        ("registry-batch", true) => {
            let (o, path) = registry_batch::traced(&ctx)?;
            (o, Some(path))
        }
        (_, trace) => {
            let mix = if workload == "serve-cold" {
                serve::Mix::Cold
            } else {
                serve::Mix::Hot
            };
            if trace {
                let (o, summary) = serve::traced(mix, &ctx)?;
                let path = ctx
                    .work_dir
                    .join(format!("telemetry-{workload}-seed{}.json", args.seed));
                std::fs::write(&path, summary.to_json(0))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                (o, Some(path))
            } else {
                (serve::run(mix, &ctx)?, None)
            }
        }
    };
    outcome.notes.set(
        "host.steal_frac",
        "fraction",
        context::steal_between(ticks, context::cpu_ticks()),
    );
    print!("{}", report::human(workload, &outcome));
    if args.trace {
        let stem = format!("{workload}-seed{}", args.seed);
        let spans_path = ctx.work_dir.join(format!("trace-{stem}.json"));
        std::fs::write(&spans_path, ctx.tracer.to_json(&context))
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        println!("  spans written to {}", spans_path.display());
        if let Some(path) = &telemetry {
            println!("  program telemetry written to {}", path.display());
        }
        println!("  self time by span (ms): name, count, total, self");
        for (name, n, total, own) in ctx.tracer.self_times().iter().take(15) {
            println!("    {name:<28} {n:>7} {total:>12.3} {own:>12.3}");
        }
        if workload == "registry-batch" {
            for (name, want) in EXACT_COUNTERS {
                let got = outcome.metrics.get(name).unwrap_or(0.0);
                let verdict = if got == *want {
                    "matches"
                } else {
                    "DIFFERS from"
                };
                println!("  exact counter {name} = {got} ({verdict} {want})");
            }
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::result_line(&outcome, catalogue));
    Ok(())
}

/// Steadiness mode: `runs` child runs with consecutive seeds, then each
/// metric's median, quartiles and spread.
fn steadiness(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for k in 0..runs {
        let seed = args.seed + k as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = json::parse(last).map_err(|e| format!("seed {seed}: {e}: {last}"))?;
        let metrics = result
            .get("metrics")
            .and_then(json::Json::as_obj)
            .ok_or(format!("seed {seed}: no metrics"))?;
        let correct = result.get("correct") == Some(&json::Json::Bool(true));
        let steal = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("host.steal_frac"))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or("?");
        println!("seed {seed}: correct={correct} steal={steal} {last}");
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(json::Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(json::Json::as_str)
                .unwrap_or("")
                .to_string();
            match values.iter_mut().find(|e| &e.0 == name) {
                Some(e) => e.2.push(v),
                None => values.push((name.clone(), unit, vec![v])),
            }
        }
    }
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>10}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, unit, v) in &values {
        let (q1, _, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let spread = stats::spread(v).unwrap_or(f64::NAN);
        println!(
            "{name:<30} {:>14.6} {q1:>14.6} {q3:>14.6} {spread:>10.4}  {unit}",
            stats::median(v)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("golden").is_dir() {
        eprintln!("perfbench: run from the root of a nanopower checkout (no golden/ here)");
        return ExitCode::from(2);
    }
    let bin_dir = std::env::var_os("PERFBENCH_BIN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/release"));
    for bin in ["repro", "nanopowerd"] {
        if !bin_dir.join(bin).is_file() {
            eprintln!(
                "perfbench: {} not built (see perfbench/run.sh)",
                bin_dir.join(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    if let Some(runs) = args.runs {
        return match steadiness(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for w in workloads {
        if let Err(e) = run_one(w, &args, &bin_dir) {
            eprintln!("perfbench: {w}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
