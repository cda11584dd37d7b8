//! `serve-cold` and `serve-hot`: seeded request streams against a fresh
//! `nanopowerd serve`, an open-loop phase at one fixed rate followed by
//! a closed-loop saturation phase with one connection per core.
//!
//! Every request carries one operation (one spec or one registry name)
//! and its expected answer, computed in-process before any timing
//! starts: a spec's record digest from `ScenarioSpec::render` and
//! `engine::fnv1a64`, a registry name's from `golden/`, and a fuzz
//! case's typed rejection from its `SpecFuzzer` label.

use crate::calib::HostSpeed;
use crate::daemon::Daemon;
use crate::loadgen::{self, Phase, Timed};
use crate::report::Outcome;
use crate::rng::{Rng, Zipf};
use crate::stats::{median, percentile, tail, REFUSED};
use crate::trace::Tracer;
use crate::wire::{Conn, Reply};
use crate::Ctx;
use nanopower::engine::fnv1a64;
use nanopower::proto::{Request, Response, RunRequest, StatsMsg};
use nanopower::spec::ScenarioSpec;
use np_bench::chaos::{SpecExpectation, SpecFuzzer};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// The two request mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
}

impl Mix {
    /// The open-loop rate, requests per second: a constant of the
    /// benchmark, about a quarter (cold) and a fifth (hot) of the
    /// closed-loop `saturated_rps` on a 2-core host. At half, queueing
    /// behind heavy requests made p50 swing 2–4× between runs.
    fn rate(self) -> f64 {
        match self {
            Mix::Cold => 50.0,
            Mix::Hot => 2000.0,
        }
    }

    /// Requests in the closed-loop phase (fixed, so its wall time is
    /// the makespan of a fixed job).
    fn closed_requests(self) -> usize {
        match self {
            Mix::Cold => 25 * COLD_BLOCK,
            Mix::Hot => 60_000,
        }
    }
}

/// Share of `--seconds` the open loop runs for.
const OPEN_SHARE: f64 = 0.6;
/// The open loop always sends enough requests for a p99 with 10
/// samples beyond it.
const MIN_OPEN_REQUESTS: usize = 1000;
/// Extra spawn-to-ready measurements per run for `setup_s`.
const SETUP_SPAWNS: usize = 6;

/// What a request must draw from the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// One ok record named `name` whose output digest is `digest`.
    Record {
        name: String,
        digest: String,
    },
    InvalidSpec,
    TooExpensive,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub expect: Expect,
    /// The request's class, for reporting (`chip`, `grid129`, ...).
    pub class: String,
    /// Sent on the other connection with the same due time as the
    /// request before it.
    pub paired: bool,
    pub spec: Option<ScenarioSpec>,
    pub registry: Option<&'static str>,
}

fn spec_line(spec: &ScenarioSpec) -> String {
    Request::Run(RunRequest {
        specs: vec![spec.clone()],
        ..RunRequest::default()
    })
    .to_json()
}

fn name_line(name: &str) -> String {
    Request::Run(RunRequest {
        names: vec![name.to_string()],
        ..RunRequest::default()
    })
    .to_json()
}

const NODES: [u32; 6] = [180, 130, 100, 70, 50, 35];

/// A random valid spec with the given optional legs (as JSON fields).
fn random_spec(rng: &mut Rng, legs: &str) -> ScenarioSpec {
    let node = NODES[rng.below(NODES.len())];
    let activity = (50 + rng.below(901)) as f64 / 1000.0;
    let effective = (50 + rng.below(51)) as f64 / 100.0;
    let ratio = (25 + rng.below(76)) as f64 / 100.0;
    let text = format!(
        "{{\"node\": {node}, \"activity\": {activity}, \"effective_fraction\": {effective}, \
         \"workload_ratio\": {ratio}{legs}}}"
    );
    ScenarioSpec::parse(&text).expect("generated specs are valid")
}

/// Requests per block of the cold mix.
const COLD_BLOCK: usize = 80;
/// Grid legs of one cold block, in order: 33 and 65 common, one each at
/// 129 and 257, either side of the multigrid switch at 257².
const COLD_GRIDS: [usize; 16] = [
    65, 33, 65, 33, 129, 33, 65, 33, 65, 33, 65, 33, 257, 33, 65, 33,
];
/// Netlist legs of one cold block, in order: each sixteenth of the
/// 10k–100k-cell decade once, large and small interleaved.
const COLD_NETLISTS: [u8; 16] = [13, 2, 9, 5, 0, 11, 7, 15, 3, 10, 1, 14, 6, 12, 4, 8];

/// One block of the cold mix: 48 of 80 chip-only, 16 grid legs and 16
/// netlist legs, in a fixed order that spreads the heavy requests out.
/// Chip-only requests are a clear majority, so the median lands inside
/// their latency rather than on the edge between two classes. The seed
/// draws each netlist's exact size within its sixteenth and its
/// generator seed (and, in [`cold_requests`], every spec's parameters);
/// it does not move the amount or the order of the work, which keeps
/// the queueing behind heavy requests comparable across seeds.
fn cold_block(rng: &mut Rng) -> Vec<(String, String)> {
    let legs = COLD_GRIDS.len() + COLD_NETLISTS.len();
    let mut block = vec![("chip".to_string(), String::new()); COLD_BLOCK];
    for k in 0..legs {
        block[k * COLD_BLOCK / legs] = if k % 2 == 0 {
            let r = COLD_GRIDS[k / 2];
            (
                format!("grid{r}"),
                format!(", \"grid\": {{\"resolution\": {r}}}"),
            )
        } else {
            let part = f64::from(COLD_NETLISTS[k / 2]) + rng.unit();
            let cells = (10_000.0 * 10f64.powf(part / COLD_NETLISTS.len() as f64)) as usize;
            let seed = rng.next_u64() % 1_000_000;
            (
                "netlist".to_string(),
                format!(", \"netlist\": {{\"cells\": {cells}, \"seed\": {seed}}}"),
            )
        };
    }
    block
}

/// `n` distinct cold requests from stream `label` of `seed`; `seen`
/// keeps digests distinct across calls.
fn cold_requests(seed: u64, label: u64, n: usize, seen: &mut HashSet<u64>) -> Vec<Req> {
    let mut rng = Rng::stream(seed, label);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for (class, legs) in cold_block(&mut rng) {
            if out.len() == n {
                break;
            }
            let spec = loop {
                let spec = random_spec(&mut rng, &legs);
                if seen.insert(spec.digest()) {
                    break spec;
                }
            };
            out.push(Req {
                line: spec_line(&spec),
                expect: Expect::Record {
                    name: spec.job_name(),
                    digest: String::new(),
                },
                class,
                paired: false,
                spec: Some(spec),
                registry: None,
            });
        }
    }
    out
}

/// Registry artifacts cheap enough for the hot pool (everything but the
/// two heavy artifacts).
fn cheap_names() -> Vec<&'static str> {
    np_bench::registry::names()
        .into_iter()
        .filter(|n| !matches!(*n, "fig5-mesh" | "fig34-mgate"))
        .collect()
}

/// Entries in the hot pool: more than the daemon's default 256-entry
/// memo, so hits, evictions and recomputes all occur.
const HOT_POOL: usize = 400;
/// Zipf exponent of hot-pool popularity.
const HOT_ZIPF: f64 = 1.0;
/// Share of hot requests repeated on the other connection at the same
/// due time.
const HOT_PAIR_SHARE: f64 = 0.05;
/// Share of hot requests that are fuzz cases (invalid or over budget).
const HOT_FUZZ_SHARE: f64 = 0.03;

/// The hot pool in popularity order: the cheap registry names at fixed
/// ranks, and at every other rank a spec whose class (chip-only 70 %,
/// 17-grid 20 %, 33-grid 10 %) is fixed by the rank. The seed draws the
/// specs' parameters, so the cost of each popularity rank — and with it
/// the hit and miss mix — is the same for every seed.
fn hot_pool(seed: u64) -> Vec<Req> {
    let mut rng = Rng::stream(seed, 100);
    let mut names = cheap_names().into_iter();
    let registry_stride = HOT_POOL / names.len();
    let mut seen = HashSet::new();
    (0..HOT_POOL)
        .map(|rank| {
            if rank % registry_stride == 3 {
                if let Some(name) = names.next() {
                    return Req {
                        line: name_line(name),
                        expect: Expect::Record {
                            name: name.to_string(),
                            digest: String::new(),
                        },
                        class: "registry".into(),
                        paired: false,
                        spec: None,
                        registry: Some(name),
                    };
                }
            }
            let (class, legs) = match rank % 10 {
                0 | 2 | 4 | 5 | 6 | 8 | 9 => ("chip", ""),
                1 | 7 => ("grid17", ", \"grid\": {\"resolution\": 17}"),
                _ => ("grid33", ", \"grid\": {\"resolution\": 33}"),
            };
            let spec = loop {
                let spec = random_spec(&mut rng, legs);
                if seen.insert(spec.digest()) {
                    break spec;
                }
            };
            Req {
                line: spec_line(&spec),
                expect: Expect::Record {
                    name: spec.job_name(),
                    digest: String::new(),
                },
                class: class.into(),
                paired: false,
                spec: Some(spec),
                registry: None,
            }
        })
        .collect()
}

/// `n` hot requests from stream `label`: Zipf draws over `pool`, a few
/// same-due-time repeats, and a few fuzz cases.
fn hot_requests(seed: u64, label: u64, n: usize, pool: &[Req]) -> Vec<Req> {
    let mut rng = Rng::stream(seed, label);
    let zipf = Zipf::new(pool.len(), HOT_ZIPF);
    let fuzzer = SpecFuzzer::new(seed ^ label);
    let mut fuzz_index = 0usize;
    let mut out: Vec<Req> = Vec::with_capacity(n);
    while out.len() < n {
        let roll = rng.unit();
        if roll < HOT_FUZZ_SHARE {
            let case = loop {
                let case = fuzzer.case(fuzz_index);
                fuzz_index += 1;
                match case.expect {
                    SpecExpectation::InvalidSpec => break (case.line, Expect::InvalidSpec),
                    SpecExpectation::TooExpensive => break (case.line, Expect::TooExpensive),
                    _ => {}
                }
            };
            out.push(Req {
                line: case.0,
                expect: case.1,
                class: "fuzz".into(),
                paired: false,
                spec: None,
                registry: None,
            });
        } else if roll < HOT_FUZZ_SHARE + HOT_PAIR_SHARE && out.len() + 2 <= n {
            // A pair of identical requests due together, drawn
            // uniformly so that most are memo misses arriving at once.
            let pick = pool[rng.below(pool.len())].clone();
            out.push(pick.clone());
            out.push(Req {
                paired: true,
                ..pick
            });
        } else {
            out.push(pool[zipf.sample(&mut rng)].clone());
        }
    }
    out
}

/// Fills in every request's expected digest, computing each distinct
/// spec once with `ScenarioSpec::render` (on `nproc` threads) and each
/// registry name from `golden/`.
fn fill_expectations(
    reqs: &mut [&mut Req],
    golden: &BTreeMap<&str, String>,
    nproc: usize,
) -> Result<(), String> {
    let mut todo: Vec<ScenarioSpec> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    for r in reqs.iter() {
        if let (Some(spec), Expect::Record { name, .. }) = (&r.spec, &r.expect) {
            if !index.contains_key(name) {
                index.insert(name.clone(), todo.len());
                todo.push(spec.clone());
            }
        }
    }
    let digests: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let chunk = todo.len().div_ceil(nproc.max(1)).max(1);
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|specs| {
                scope.spawn(move || {
                    specs
                        .iter()
                        .map(|s| {
                            s.render(false)
                                .map(|out| format!("fnv1a:{:016x}", fnv1a64(out.as_bytes())))
                                .map_err(|e| format!("{}: {e}", s.job_name()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    if digests.len() != todo.len() {
        return Err("oracle thread failed".into());
    }
    for r in reqs.iter_mut() {
        let registry = r.registry;
        if let Expect::Record { name, digest } = &mut r.expect {
            *digest = match (registry, index.get(name)) {
                (Some(artifact), _) => golden
                    .get(artifact)
                    .cloned()
                    .ok_or_else(|| format!("{artifact}: no golden reference"))?,
                (None, Some(&i)) => digests[i].clone()?,
                (None, None) => return Err(format!("{name}: no oracle")),
            };
        }
    }
    Ok(())
}

/// The workload's two request lists (open loop, closed loop) with their
/// expectations filled in.
pub fn workload(mix: Mix, ctx: &Ctx) -> Result<(Vec<Req>, Vec<Req>), String> {
    let golden = crate::registry_batch::golden_digests()?;
    let open_n = ((mix.rate() * OPEN_SHARE * ctx.seconds as f64) as usize).max(MIN_OPEN_REQUESTS);
    let closed_n = mix.closed_requests();
    let (mut open, mut closed) = match mix {
        Mix::Cold => {
            let mut seen = HashSet::new();
            let open = cold_requests(ctx.seed, 1, open_n, &mut seen);
            let closed = cold_requests(ctx.seed, 2, closed_n, &mut seen);
            (open, closed)
        }
        Mix::Hot => {
            let pool = hot_pool(ctx.seed);
            (
                hot_requests(ctx.seed, 1, open_n, &pool),
                hot_requests(ctx.seed, 2, closed_n, &pool),
            )
        }
    };
    let mut all: Vec<&mut Req> = open.iter_mut().chain(closed.iter_mut()).collect();
    fill_expectations(&mut all, &golden, ctx.nproc)?;
    Ok((open, closed))
}

/// How one request went, judged against its expectation.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// What was wrong with the reply; `None` when it was right.
    pub problem: Option<String>,
    /// Every record of the reply was served from the memo.
    pub all_memo: bool,
    /// Names of records computed (not memo-served) for this request.
    pub computed: Vec<String>,
    /// The daemon's `total_ms` for the request, when it sent a report.
    pub total_ms: Option<f64>,
    pub bytes: usize,
}

/// Judges `reply` against `req.expect`.
pub fn judge(req: &Req, reply: Result<Reply, String>) -> Verdict {
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            return Verdict {
                problem: Some(format!("transport: {e}")),
                ..Verdict::default()
            }
        }
    };
    let mut v = Verdict {
        bytes: reply.bytes,
        ..Verdict::default()
    };
    let problem = match (&req.expect, &reply.terminal) {
        (Expect::Record { name, digest }, Response::Report(report)) => {
            v.total_ms = Some(report.total_ms);
            v.all_memo = !reply.records.is_empty() && reply.records.iter().all(|r| r.memo);
            v.computed = reply
                .records
                .iter()
                .filter(|r| !r.memo && r.status == "ok")
                .map(|r| r.name.clone())
                .collect();
            match reply.records.as_slice() {
                [r] if &r.name == name
                    && r.status == "ok"
                    && r.digest.as_deref() == Some(digest.as_str())
                    && report.failures == 0
                    && report.ok == 1 =>
                {
                    None
                }
                records => Some(format!(
                    "{name}: want digest {digest}, got {:?} (report {report:?})",
                    records
                        .iter()
                        .map(|r| (&r.name, &r.status, &r.digest))
                        .collect::<Vec<_>>()
                )),
            }
        }
        (Expect::InvalidSpec, Response::InvalidSpec { .. }) => None,
        (Expect::TooExpensive, Response::TooExpensive { .. }) => None,
        (want, got) => Some(format!("want {want:?}, got {got:?}")),
    };
    v.problem = problem.map(|p| format!("{} [{}]", p, req.class));
    v
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.problem.is_none()
    }
}

/// Drives `reqs` over `nproc` fresh connections, open loop at the mix's
/// rate when `rate` is set, closed loop otherwise. With tracing on,
/// each request gets a `client.request` span (request id = its index
/// plus `id_base`).
fn phase(
    daemon: &Daemon,
    reqs: &[Req],
    rate: Option<f64>,
    ctx: &Ctx,
    tracer: &Tracer,
    id_base: u64,
) -> Result<Phase<Verdict>, String> {
    let conns = (0..ctx.nproc)
        .map(|_| Conn::connect(daemon.socket()))
        .collect::<Result<Vec<_>, _>>()?;
    let due = match rate {
        Some(rate) => {
            let paired: Vec<bool> = reqs.iter().map(|r| r.paired).collect();
            loadgen::fixed_rate(reqs.len(), rate, &paired)
        }
        None => vec![Duration::ZERO; reqs.len()],
    };
    Ok(loadgen::drive(conns, &due, |conn: &mut Conn, i| {
        let _span = tracer.span("client.request", None, id_base + i as u64);
        judge(&reqs[i], conn.call(&reqs[i].line))
    }))
}

/// Counts a phase's operations into `out`; returns latencies from due
/// time, `+∞` for failures.
fn tally(phase: &Phase<Verdict>, out: &mut Outcome) -> Vec<f64> {
    phase
        .samples
        .iter()
        .map(|s| {
            out.attempted += 1;
            if let Some(p) = &s.outcome.problem {
                out.fail(p.clone());
            }
            if s.outcome.ok() {
                s.latency_ms()
            } else {
                REFUSED
            }
        })
        .collect()
}

/// Spawn-to-ready times of `n` throwaway daemons (the run adds its
/// measured daemon's and reports the median), each followed by a host
/// speed sample.
fn setup_samples(ctx: &Ctx, n: usize, host: &mut HostSpeed) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let d = ctx.spawn_daemon()?;
            let s = d.setup.as_secs_f64();
            d.shutdown();
            host.sample()?;
            Ok(s)
        })
        .collect()
}

/// Both phases against one fresh daemon.
struct Pass {
    open: Phase<Verdict>,
    closed: Phase<Verdict>,
    /// Daemon counters before the open loop and after the closed loop.
    before: StatsMsg,
    after: StatsMsg,
    peak_rss_mb: f64,
    /// The daemon's spawn-to-ready time.
    setup_s: f64,
    /// The daemon's CPU seconds over both phases.
    cpu_s: f64,
}

/// `host`, where given, is sampled between the phases.
fn pass(
    mix: Mix,
    ctx: &Ctx,
    open: &[Req],
    closed: &[Req],
    tracer: &Tracer,
    host: Option<&mut HostSpeed>,
) -> Result<Pass, String> {
    let daemon = ctx.spawn_daemon()?;
    let before = daemon.stats()?;
    let cpu_before = daemon.cpu_s().ok_or("no CPU time for the daemon")?;
    let open_phase = phase(&daemon, open, Some(mix.rate()), ctx, tracer, 0)?;
    if let Some(host) = host {
        host.sample()?;
    }
    let closed_phase = phase(&daemon, closed, None, ctx, tracer, open.len() as u64)?;
    let cpu_after = daemon.cpu_s().ok_or("no CPU time for the daemon")?;
    let after = daemon.stats()?;
    let pass = Pass {
        cpu_s: cpu_after - cpu_before,
        open: open_phase,
        closed: closed_phase,
        before,
        after,
        peak_rss_mb: daemon.peak_rss_mb().unwrap_or(0.0),
        setup_s: daemon.setup.as_secs_f64(),
    };
    daemon.shutdown();
    Ok(pass)
}

/// The end-to-end run.
pub fn run(mix: Mix, ctx: &Ctx) -> Result<Outcome, String> {
    let (open, closed) = workload(mix, ctx)?;
    // Half the throwaway spawns, each followed by a host speed sample,
    // go before the measured pass and half after, so the samples
    // bracket it.
    let mut host = HostSpeed::new(ctx.nproc);
    let mut setups = setup_samples(ctx, SETUP_SPAWNS / 2, &mut host)?;
    let Pass {
        open: open_phase,
        closed: closed_phase,
        peak_rss_mb,
        setup_s,
        cpu_s,
        ..
    } = pass(mix, ctx, &open, &closed, &Tracer::off(), Some(&mut host))?;
    setups.push(setup_s);
    setups.extend(setup_samples(
        ctx,
        SETUP_SPAWNS - SETUP_SPAWNS / 2,
        &mut host,
    )?);
    let mut out = Outcome::default();
    let latencies = tally(&open_phase, &mut out);
    tally(&closed_phase, &mut out);
    let closed_ok = closed_phase
        .samples
        .iter()
        .filter(|s| s.outcome.ok())
        .count();
    let closed_wall = closed_phase.makespan().as_secs_f64();
    let m = &mut out.metrics;
    m.set("setup_s", "s", median(&setups));
    m.set("cpu_s", "s", cpu_s * host.speed());
    let n = &mut out.notes;
    n.set("cpu_raw_s", "s", cpu_s);
    n.set("host.speed", "ratio", host.speed());
    n.set("p50_ms", "ms", median(&latencies));
    // The open loop sends at least 1000 requests: a p99 with 10 beyond.
    let (tail_p, tail_ms) = tail(&latencies).unwrap_or((100.0, f64::NAN));
    n.set("p99_ms", "ms", tail_ms);
    n.set("tail_percentile", "%", tail_p);
    n.set("saturated_rps", "req/s", closed_ok as f64 / closed_wall);
    n.set("wall_s", "s", closed_wall);
    n.set("peak_rss_mb", "MB", peak_rss_mb);
    n.set("open_rate", "req/s", mix.rate());
    n.set("open_requests", "count", open.len() as f64);
    n.set("closed_requests", "count", closed.len() as f64);
    n.set("loadgen.late_p99_ms", "ms", late_p99(&open_phase));
    n.set(
        "loadgen.repeat_share",
        "fraction",
        repeat_share(open.iter().chain(&closed)),
    );
    let mut by_class: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, latency) in open_phase.samples.iter().zip(&latencies) {
        let entry = by_class.entry(open[s.index].class.as_str()).or_default();
        entry.0.push(*latency);
        entry.1.push(s.service_ms());
    }
    for (class, (latency, service)) in by_class {
        n.set(&format!("p50_ms.{class}"), "ms", median(&latency));
        n.set(&format!("service_p50_ms.{class}"), "ms", median(&service));
    }
    Ok(out)
}

fn late_p99(phase: &Phase<Verdict>) -> f64 {
    let late: Vec<f64> = phase.samples.iter().map(Timed::late_ms).collect();
    percentile(&late, 99.0).map_or(0.0, |p| p.0)
}

/// Share of requests whose line was already sent earlier in the run.
fn repeat_share<'a>(reqs: impl Iterator<Item = &'a Req>) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    let mut repeats = 0usize;
    for r in reqs {
        total += 1;
        if !seen.insert(r.line.as_str()) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}

/// The traced run: the untraced passes (the overhead baseline), the
/// same passes with client spans and daemon counter deltas, and an
/// in-process replay of the stream through the proto, spec, engine,
/// chip, grid and circuit layers.
pub fn traced(mix: Mix, ctx: &Ctx) -> Result<(Outcome, nanopower::telemetry::Summary), String> {
    let (open, closed) = workload(mix, ctx)?;
    let base = pass(mix, ctx, &open, &closed, &Tracer::off(), None)?;
    let Pass {
        open: open_phase,
        closed: closed_phase,
        before,
        after,
        ..
    } = pass(mix, ctx, &open, &closed, &ctx.tracer, None)?;
    let mut out = Outcome::default();
    for phase in [&base.open, &base.closed, &open_phase, &closed_phase] {
        tally(phase, &mut out);
    }
    let samples: Vec<&Timed<Verdict>> = open_phase
        .samples
        .iter()
        .chain(&closed_phase.samples)
        .collect();
    let wire: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.outcome.total_ms.map(|t| s.service_ms() - t))
        .collect();
    let bytes: f64 = samples.iter().map(|s| s.outcome.bytes as f64).sum();
    let hit_total: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome.all_memo)
        .filter_map(|s| s.outcome.total_ms)
        .collect();
    let computed: Vec<&String> = samples.iter().flat_map(|s| &s.outcome.computed).collect();
    let distinct: HashSet<&&String> = computed.iter().collect();
    let accepted = after.accepted - before.accepted;
    let m = &mut out.metrics;
    m.set("loadgen.late_p99_ms", "ms", late_p99(&open_phase));
    m.set(
        "loadgen.repeat_share",
        "fraction",
        repeat_share(open.iter().chain(&closed)),
    );
    m.set("wire.overhead_ms", "ms", median(&wire));
    m.set(
        "wire.bytes_per_req",
        "bytes",
        bytes / samples.len().max(1) as f64,
    );
    m.set(
        "service.memo_hit_ratio",
        "fraction",
        (after.memo_hits - before.memo_hits) as f64 / accepted.max(1) as f64,
    );
    m.set(
        "service.memo_evictions",
        "count",
        (after.memo_evictions - before.memo_evictions) as f64,
    );
    m.set(
        "service.recompute_ratio",
        "ratio",
        computed.len() as f64 / distinct.len().max(1) as f64,
    );
    m.set(
        "service.refused",
        "count",
        ((after.rejected + after.overloaded + after.conn_rejected)
            - (before.rejected + before.overloaded + before.conn_rejected)) as f64,
    );
    if !hit_total.is_empty() {
        m.set("service.hit_total_ms", "ms", median(&hit_total));
    }
    m.set(
        "trace.overhead_frac",
        "fraction",
        closed_phase.makespan().as_secs_f64() / base.closed.makespan().as_secs_f64() - 1.0,
    );
    let summary = crate::layers::replay(ctx, &open, &mut out)?;
    Ok((out, summary))
}
