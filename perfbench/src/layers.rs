//! The in-process half of a traced serve run: a stratified sample of
//! the open-loop stream replayed through each layer's public functions,
//! with the benchmark's spans around every call and the `np-telemetry`
//! collector installed.
//!
//! For every replayed request (its index is the span's request id):
//! `proto.parse` → `spec.digest` → `engine.session` (the daemon's job
//! for the request, checked against the oracle digest) →
//! `proto.encode`, then the spec's legs one by one: `chip.power_budget`,
//! `chip.thermal_closure`, `grid.mesh_drop.r<N>`, `circuit.generate`,
//! `circuit.power`.
//!
//! The collector is installed only around each `engine.session`, so
//! its counters (`device.solve_vth.evals`, `circuit.sta.gates`, the
//! solver iterations) and its `circuit.sta.analyze` span count the
//! daemon's path once per request. The legs run without it: they time
//! what the program emits no span for.

use crate::report::Outcome;
use crate::serve::{Expect, Req};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use nanopower::chip::Chip;
use nanopower::circuit::{generate, power, sta};
use nanopower::engine::{Job, Session};
use nanopower::grid::{analytic, mesh::MeshCache, plan::GridPlan};
use nanopower::proto::{RecordMsg, ReportMsg, Request, Response};
use nanopower::spec::ScenarioSpec;
use nanopower::telemetry::{self, Summary};
use nanopower::units::{Celsius, Hertz};
use std::collections::BTreeMap;

/// Requests replayed per request class.
const PER_CLASS: usize = 12;

/// Runs a spec's legs one at a time under spans parented to `parent`.
fn legs(spec: &ScenarioSpec, tracer: &Tracer, parent: Option<u64>, id: u64) -> Result<(), String> {
    let activity = spec.activity * spec.workload_ratio;
    let mut builder = Chip::builder(spec.node)
        .activity(activity)
        .effective_fraction(spec.effective_fraction);
    if let Some(t) = spec.junction_temp_c {
        builder = builder.junction_temp(Celsius(t));
    }
    let chip = builder.build().map_err(|e| e.to_string())?;
    {
        let _s = tracer.span("chip.power_budget", parent, id);
        chip.power_budget().map_err(|e| e.to_string())?;
    }
    {
        let _s = tracer.span("chip.thermal_closure", parent, id);
        chip.thermal_closure().map_err(|e| e.to_string())?;
    }
    if let Some(g) = &spec.grid {
        let _s = tracer.span(&format!("grid.mesh_drop.r{}", g.resolution), parent, id);
        let plan = GridPlan::min_pitch(spec.node).map_err(|e| e.to_string())?;
        let width = plan.rail_width.ok_or("min-pitch plan lost routability")?;
        analytic::worst_case_drop(spec.node, plan.bump_pitch, width).map_err(|e| e.to_string())?;
        MeshCache::new()
            .worst_drop_with_resolution(spec.node, plan.bump_pitch, width, g.resolution)
            .map_err(|e| e.to_string())?;
    }
    if let Some(tier) = &spec.netlist {
        let netlist = {
            let _s = tracer.span("circuit.generate", parent, id);
            generate::generate_netlist(&generate::NetlistSpec::large(tier.seed, tier.cells))
        };
        // STA is timed by the program's own `circuit.sta.analyze` span
        // inside the session; here it only feeds the power leg.
        let ctx = sta::TimingContext::for_node(spec.node).map_err(|e| e.to_string())?;
        let critical = ctx
            .analyze(&netlist)
            .map_err(|e| e.to_string())?
            .critical_delay();
        let _s = tracer.span("circuit.power", parent, id);
        power::netlist_power(&netlist, &ctx, activity, Hertz(1.0 / critical.0))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A stratified sample of `reqs`: the first [`PER_CLASS`] of each class.
fn sample(reqs: &[Req]) -> Vec<(usize, &Req)> {
    let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
    reqs.iter()
        .enumerate()
        .filter(|(_, r)| {
            let n = taken.entry(r.class.as_str()).or_default();
            *n += 1;
            *n <= PER_CLASS
        })
        .collect()
}

/// Replays a sample of `reqs` in-process; adds the layer figures to
/// `out` and returns the program's own telemetry for the replay.
pub fn replay(ctx: &Ctx, reqs: &[Req], out: &mut Outcome) -> Result<Summary, String> {
    let tracer = &ctx.tracer;
    let collector = telemetry::Collector::new();
    let mut job_ms = Vec::new();
    let mut miss_overhead_ms = Vec::new();
    for (index, req) in sample(reqs) {
        let id = index as u64;
        let root = tracer.span("replay.request", None, id);
        let parent = root.id();
        {
            let _s = tracer.span("proto.parse", parent, id);
            // Fuzz cases are meant to fail parsing; the verdict is the
            // daemon pass's to give.
            let _ = Request::parse(&req.line);
        }
        let job = match (&req.expect, &req.spec, req.registry) {
            (Expect::Record { name, digest }, Some(spec), _) => {
                {
                    let _s = tracer.span("spec.digest", parent, id);
                    std::hint::black_box(spec.digest());
                }
                let spec_for_job = spec.clone();
                Some((
                    Job::new(name.clone(), move || spec_for_job.render(false)),
                    digest,
                ))
            }
            (Expect::Record { digest, .. }, None, Some(artifact)) => {
                np_bench::registry::find(artifact).map(|a| (a.job(false), digest))
            }
            _ => None,
        };
        let Some((job, want)) = job else {
            let _s = tracer.span("proto.encode", parent, id);
            std::hint::black_box(
                Response::InvalidSpec {
                    field: "spec".into(),
                    reason: "replayed rejection".into(),
                }
                .to_json(),
            );
            continue;
        };
        let report = {
            let _s = tracer.span("engine.session", parent, id);
            let _guard = telemetry::install(&collector);
            Session::new(vec![job]).workers(ctx.nproc).run()
        };
        out.attempted += 1;
        let record = &report.records[0];
        if record.digest().as_deref() != Some(want.as_str()) {
            out.fail(format!(
                "replay {}: digest {:?}, oracle {want}",
                record.name,
                record.digest()
            ));
        }
        job_ms.push(record.duration.as_secs_f64() * 1e3);
        miss_overhead_ms
            .push((report.total_wall.saturating_sub(record.duration)).as_secs_f64() * 1e3);
        {
            let _s = tracer.span("proto.encode", parent, id);
            std::hint::black_box(Response::Record(RecordMsg::from_record(record, false)).to_json());
            std::hint::black_box(
                Response::Report(ReportMsg {
                    ok: 1,
                    failures: 0,
                    cancelled: 0,
                    memo_hits: 0,
                    total_ms: report.total_wall.as_secs_f64() * 1e3,
                    interrupted: false,
                })
                .to_json(),
            );
        }
        if let Some(spec) = &req.spec {
            legs(spec, tracer, parent, id)?;
        }
    }
    let summary = collector.summary();
    let med = |name: &str, scale: f64| median(&tracer.durations_ms(name)) * scale;
    let m = &mut out.metrics;
    m.set("proto.parse_us", "us", med("proto.parse", 1e3));
    m.set("spec.digest_us", "us", med("spec.digest", 1e3));
    m.set("proto.encode_us", "us", med("proto.encode", 1e3));
    m.set("engine.job_ms", "ms", median(&job_ms));
    m.set("engine.miss_overhead_ms", "ms", median(&miss_overhead_ms));
    m.set("chip.power_budget_us", "us", med("chip.power_budget", 1e3));
    m.set(
        "chip.thermal_closure_us",
        "us",
        med("chip.thermal_closure", 1e3),
    );
    for r in [33, 65, 129, 257] {
        let d = tracer.durations_ms(&format!("grid.mesh_drop.r{r}"));
        if !d.is_empty() {
            m.set(&format!("grid.mesh_drop_ms.r{r}"), "ms", median(&d));
        }
    }
    for (span, metric) in [
        ("circuit.generate", "circuit.generate_ms"),
        ("circuit.power", "circuit.power_ms"),
    ] {
        let d = tracer.durations_ms(span);
        if !d.is_empty() {
            m.set(metric, "ms", median(&d));
        }
    }
    if let Some((_, s)) = summary
        .spans
        .iter()
        .find(|(n, _)| n == "circuit.sta.analyze")
        .filter(|(_, s)| s.count > 0)
    {
        m.set(
            "circuit.sta_ms",
            "ms",
            s.total_us as f64 / 1e3 / s.count as f64,
        );
    }
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    m.set(
        "device.solve_vth.evals",
        "count",
        counter("device.solve_vth.evals"),
    );
    m.set("circuit.sta.gates", "count", counter("circuit.sta.gates"));
    m.set(
        "grid.pcg.iterations",
        "count",
        counter("grid.pcg.iterations"),
    );
    m.set(
        "grid.mgcg.iterations",
        "count",
        counter("grid.mgcg.iterations"),
    );
    m.set(
        "grid.mgcg.sweeps_equivalent",
        "count",
        counter("grid.mgcg.sweeps_equivalent"),
    );
    if let Some((_, v)) = summary
        .values
        .iter()
        .find(|(n, _)| n == "engine.queue_wait_us")
    {
        m.set("engine.queue_wait_ms", "ms", v.mean() / 1e3);
    }
    Ok(summary)
}
