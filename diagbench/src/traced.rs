//! The traced run: per-layer numbers from the benchmark's own spans
//! around calls into each layer's public functions.
//!
//! A sample of the workload's reports goes through five passes:
//!
//! * **layers** — each report through `DiagnosisServer::diagnose` on a
//!   `decode_workers = 1` server, then every stage replayed from
//!   outside on the same report: `decode_snapshot_view`,
//!   `decode_thread_trace`, `process_snapshot`, scratch and cached
//!   scoped points-to, candidate selection, pattern computation,
//!   scoring and rendering. The replayed scores must equal the
//!   server's, so the replay measures the work the server does;
//! * **batch**, **stream**, **fleet** and **daemon** — the same
//!   reports through each route, each route call a span of its own.
//!
//! Each route's `unattributed` residual is its time minus the stage
//! times the layers pass measured for the work that route does, so a
//! ledger that does not add up shows as a large residual.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use lazy_analysis::{PointsTo, PointsToCache};
use lazy_ir::Pc;
use lazy_snorlax::patterns::{crash_patterns, deadlock_patterns, PatternContext};
use lazy_snorlax::{
    multivar_patterns, process_snapshot, score_patterns, select_candidates, BatchConfig, BatchJob,
    BugPattern, DiagnosisServer, ProcessedTrace, ServerConfig, StreamingDiagnoser,
};
use lazy_trace::{
    decode_snapshot_view, decode_thread_trace, encode_snapshot, ExecIndex, TraceSnapshot,
};

use crate::daemon;
use crate::inputs::{mix, top1_correct, Report};
use crate::ledger::{Ledger, SpanId};
use crate::stats::{mean, median, percentile};
use crate::workloads::{
    fleet_reports, fleet_router, prefix_render, streams, Inputs, Reference, Verdict, Workload,
    LADDER,
};

/// One per-layer metric as reported.
#[derive(Clone, Debug)]
pub struct LayerMetric {
    /// Name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("wire.parse_us", "us", "latency_p50_ms on daemon-open only"),
    ("wire.bytes", "bytes", "latency_p50_ms on daemon-open only"),
    ("decoder.decode_us", "us", "latency_p50_ms a little on every workload (~5% of a report)"),
    ("decoder.events", "count", "nothing; the work decoding does"),
    ("decoder.bytes", "bytes", "nothing; the input decoding reads"),
    ("processing.process_us", "us", "latency_p50_ms/latency_p90_ms (and the max_rate_rps note) on daemon-open; latency_p50_ms on stream-eval; reports_per_s on batch-incident less"),
    ("processing.aggregate_us", "us", "as processing.process_us: it is most of it"),
    ("processing.aggregate_share", "ratio", "as processing.process_us"),
    ("analysis.pointsto_scratch_us", "us", "latency on daemon-open and stream-eval"),
    ("analysis.pointsto_cached_us", "us", "reports_per_s on batch-incident and fleet-warm"),
    ("analysis.cache_exact_hit_ratio", "ratio", "reports_per_s on batch-incident and fleet-warm"),
    ("analysis.scope_insts", "count", "nothing; the scope points-to solves"),
    ("candidates.select_us", "us", "latency_p50_ms on stream-eval; barely daemon-open"),
    ("candidates.ranked", "count", "nothing; the work pattern computation gets"),
    ("patterns.compute_us", "us", "latency_p50_ms on stream-eval; barely daemon-open"),
    ("patterns.generated", "count", "nothing; the work scoring gets"),
    ("statistics.score_us", "us", "latency_p50_ms on stream-eval; barely daemon-open"),
    ("statistics.patterns_scored", "count", "nothing; scored patterns"),
    ("server.diagnose_us", "us", "every latency: the sequential service time"),
    ("server.render_us", "us", "every latency, slightly"),
    ("server.unattributed_us", "us", "nothing if the ledger adds up"),
    ("batch.run_us", "us", "latency_p50_ms and reports_per_s on batch-incident"),
    ("batch.snapshot_dedup_ratio", "ratio", "reports_per_s on batch-incident"),
    ("batch.jobs_failed", "count", "failed on batch-incident"),
    ("batch.unattributed_us", "us", "reports_per_s on batch-incident"),
    ("daemon.request_ms", "ms", "latency_p50_ms/latency_p90_ms on daemon-open"),
    ("daemon.service_ms", "ms", "latency_p50_ms on daemon-open"),
    ("daemon.wait_ms", "ms", "latency_p90_ms and the max_rate_rps note on daemon-open"),
    ("daemon.busy_rejections", "count", "failed and the max_rate_rps note on daemon-open"),
    ("daemon.timeouts", "count", "failed on daemon-open"),
    ("daemon.partial_frame_resumes", "count", "latency_p90_ms on daemon-open"),
    ("daemon.unattributed_ms", "ms", "latency_p90_ms on daemon-open"),
    ("streaming.fold_us", "us", "latency_p50_ms on stream-eval"),
    ("streaming.folds", "count", "latency_p50_ms on stream-eval"),
    ("streaming.finish_us", "us", "latency_p50_ms on stream-eval"),
    ("streaming.reports_to_converge", "count", "nothing: performance work must not move it"),
    ("streaming.unattributed_us", "us", "latency_p50_ms on stream-eval"),
    ("fleet.route_us", "us", "latency_p50_ms and reports_per_s on fleet-warm"),
    ("fleet.cache_exact_hit_ratio", "ratio", "reports_per_s on fleet-warm"),
    ("fleet.single_node_us", "us", "nothing; the single-node cost of the same reports"),
    ("fleet.unattributed_us", "us", "reports_per_s on fleet-warm"),
    ("obs.tracing_overhead", "ratio", "nothing; the benchmark's own span cost"),
    ("obs.span_records_dropped", "count", "nothing; the program's telemetry losing spans"),
    ("loadgen.late_ms_p99", "ms", "nothing; the generator's own lateness"),
    ("loadgen.gen_s", "s", "nothing; input generation, outside set-up"),
];

/// Reports sampled per workload for the traced run.
fn sample(w: Workload, inputs: &Inputs, smoke: bool) -> (Vec<usize>, Vec<Vec<usize>>) {
    let cap = |n: usize| if smoke { n.min(4) } else { n };
    match w {
        Workload::DaemonOpen | Workload::StreamEval => {
            let n = cap(if w == Workload::DaemonOpen {
                40
            } else {
                inputs.scenarios.len()
            });
            let units: Vec<usize> = (0..n.min(inputs.reports.len())).collect();
            // Batches: runs of up to 8 consecutive same-bug reports.
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for &u in &units {
                match groups.last_mut() {
                    Some(g)
                        if g.len() < 8
                            && inputs.reports[g[0]].scenario == inputs.reports[u].scenario =>
                    {
                        g.push(u);
                    }
                    _ => groups.push(vec![u]),
                }
            }
            (units, groups)
        }
        Workload::BatchIncident | Workload::FleetWarm => {
            let groups: Vec<Vec<usize>> = inputs.groups.iter().take(cap(3)).cloned().collect();
            (groups.concat(), groups)
        }
    }
}

/// Content key of a snapshot, to find the same snapshot across routes.
fn snapshot_key(s: &TraceSnapshot) -> u64 {
    let mut h = mix(s.taken_at, u64::from(s.trigger_tid));
    for t in &s.threads {
        h = mix(h, u64::from(t.tid));
        for chunk in t.bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h = mix(h, u64::from_le_bytes(w));
        }
    }
    h
}

/// Stage times the layers pass measured for one report, ns.
#[derive(Clone, Default)]
struct UnitCost {
    /// Per snapshot the server processes: key, `process_snapshot` and
    /// summed `decode_thread_trace` time.
    snaps: Vec<(u64, u64, u64)>,
    diagnose: u64,
    diagnose_default: u64,
    wire: u64,
    scratch: u64,
    cached: u64,
    select: u64,
    patterns: u64,
    score: u64,
    render: u64,
}

impl UnitCost {
    fn processing(&self) -> u64 {
        self.snaps.iter().map(|s| s.1).sum()
    }

    /// Steps 5–7 plus rendering.
    fn tail(&self) -> u64 {
        self.select + self.patterns + self.score + self.render
    }
}

/// Per-scenario state the layers pass reuses.
struct ScenarioState<'m> {
    sequential: DiagnosisServer<'m>,
    default: DiagnosisServer<'m>,
    index: ExecIndex,
    cache: PointsToCache,
}

/// Counts gathered next to the spans.
#[derive(Default)]
struct Counts {
    wire_bytes: u64,
    decoder_events: u64,
    decoder_bytes: u64,
    scope_insts: u64,
    ranked: u64,
    generated: u64,
    scored: u64,
}

fn dur(l: &Ledger, id: Option<SpanId>) -> u64 {
    id.map_or(0, |i| l.duration_ns(i))
}

/// The layers pass for one report: the server call, then each stage
/// replayed on the same report. Returns the stage times, the server's
/// render (`None` when the replayed scores or the default-config render
/// differ from the server's), and whether the diagnosis names the root
/// cause.
fn layer_pass(
    l: &mut Ledger,
    st: &mut ScenarioState<'_>,
    inputs: &Inputs,
    u: usize,
    counts: &mut Counts,
) -> (UnitCost, Option<String>, bool) {
    let r: &Report = &inputs.reports[u];
    let s = &inputs.scenarios[r.scenario];
    let m = &s.module;
    let cfg = ServerConfig::default();
    let req = u as u64;
    let mut c = UnitCost::default();

    let (d, root) = l.time("server.diagnose", req, None, || {
        st.sequential
            .diagnose(&r.failure, &r.failing, &r.successful)
    });
    c.diagnose = dur(l, root);
    let Ok(d) = d else {
        return (c, None, false);
    };
    let (render, id) = l.time("server.render", req, root, || d.render(m));
    c.render = dur(l, id);
    let top1 = top1_correct(&d, &s.targets);
    let (dd, id) = l.time("server.diagnose_default", req, None, || {
        st.default.diagnose(&r.failure, &r.failing, &r.successful)
    });
    c.diagnose_default = dur(l, id);
    let default_render = dd.ok().map(|dd| dd.render(m));
    let consistent = default_render.as_deref() == Some(render.as_str());

    // The snapshots the server uses: every failing one and successful
    // ones up to its cap.
    let cap = cfg.success_factor * r.failing.len().max(1);
    let used: Vec<&TraceSnapshot> = r
        .failing
        .iter()
        .chain(r.successful.iter().take(cap))
        .collect();
    for snap in &used {
        let bytes = encode_snapshot(snap);
        counts.wire_bytes += bytes.len() as u64;
        let (_, id) = l.time("wire.parse", req, None, || {
            decode_snapshot_view(&bytes).map(|v| v.threads.len())
        });
        c.wire += dur(l, id);
    }
    let mut traces: Vec<Option<ProcessedTrace>> = Vec::new();
    for snap in &used {
        let (t, pid) = l.time("processing.process", req, root, || {
            process_snapshot(m, &st.index, &cfg.trace, snap)
        });
        let mut decode = 0;
        for th in &snap.threads {
            let (events, id) = l.time("decoder.decode", req, pid, || {
                decode_thread_trace(&st.index, &cfg.trace, &th.bytes, snap.taken_at)
                    .map(|t| t.events.len())
            });
            decode += dur(l, id);
            counts.decoder_events += events.unwrap_or(0) as u64;
            counts.decoder_bytes += th.bytes.len() as u64;
        }
        c.snaps.push((snapshot_key(snap), dur(l, pid), decode));
        traces.push(t.ok());
    }
    let nf = r.failing.len();
    let failing: Vec<&ProcessedTrace> = traces[..nf].iter().flatten().collect();
    let successful: Vec<&ProcessedTrace> = traces[nf..].iter().flatten().collect();
    let mut executed: HashSet<Pc> = HashSet::new();
    for t in failing.iter().chain(&successful) {
        executed.extend(t.executed.iter().copied());
    }
    counts.scope_insts += executed.len() as u64;

    let (pts, id) = l.time("analysis.pointsto_scratch", req, root, || {
        PointsTo::analyze_scoped(m, &executed)
    });
    c.scratch = dur(l, id);
    let (_, id) = l.time("analysis.pointsto_cached", req, None, || {
        st.cache.analyze_scoped(m, &executed)
    });
    c.cached = dur(l, id);

    let (cands, id) = l.time("candidates.select", req, root, || {
        let mut cands = select_candidates(m, &pts, &executed, r.failure.pc, d.is_deadlock);
        cands.ranked.truncate(cfg.max_candidates);
        cands
    });
    c.select = dur(l, id);
    counts.ranked += cands.ranked.len() as u64;

    let (patterns, id) = l.time("patterns.compute", req, root, || {
        let ctx = PatternContext::new(m, &pts, &cands);
        let mut patterns: Vec<BugPattern> = Vec::new();
        for t in &failing {
            if d.is_deadlock {
                patterns.extend(deadlock_patterns(&ctx, &cands, t));
            } else {
                patterns.extend(crash_patterns(&ctx, &cands, t));
                patterns.extend(multivar_patterns(
                    m,
                    &pts,
                    &executed,
                    r.failure.pc,
                    t,
                    &cands,
                ));
            }
        }
        patterns.sort();
        patterns.dedup();
        patterns
    });
    c.patterns = dur(l, id);
    counts.generated += patterns.len() as u64;

    let (scores, id) = l.time("statistics.score", req, root, || {
        let rank_of: HashMap<Pc, u32> = cands.ranked.iter().map(|c| (c.pc, c.rank)).collect();
        score_patterns(&patterns, &failing, &successful, &rank_of)
    });
    c.score = dur(l, id);
    counts.scored += scores.len() as u64;

    let key = |s: &lazy_snorlax::PatternScore| {
        (
            s.pattern.signature(),
            s.f1.to_bits(),
            s.fail_support,
            s.success_support,
            s.type_rank,
        )
    };
    let replay_ok = consistent
        && scores.len() == d.scores.len()
        && scores.iter().map(key).eq(d.scores.iter().map(key));
    (c, Some(render).filter(|_| replay_ok), top1)
}

/// Everything the traced run reports.
pub struct Traced {
    /// Per-layer metrics, in [`LAYER_METRICS`] order.
    pub metrics: Vec<LayerMetric>,
    /// The span ledger.
    pub ledger: Ledger,
    /// Reports sampled.
    pub units: usize,
}

/// Runs the traced passes over a sample of `w`'s reports.
pub fn traced_run(
    w: Workload,
    inputs: &Inputs,
    refs: &[Reference],
    smoke: bool,
    verdict: &mut Verdict,
) -> Traced {
    let telemetry_base = lazy_obs::snapshot();
    let (units, groups) = sample(w, inputs, smoke);
    let mut l = Ledger::new(true);
    let mut counts = Counts::default();
    let mut states: Vec<ScenarioState<'_>> = inputs
        .scenarios
        .iter()
        .map(|s| ScenarioState {
            sequential: DiagnosisServer::new(
                &s.module,
                ServerConfig {
                    decode_workers: 1,
                    ..ServerConfig::default()
                },
            ),
            default: DiagnosisServer::new(&s.module, ServerConfig::default()),
            index: ExecIndex::build(&s.module),
            cache: PointsToCache::new(),
        })
        .collect();

    // Warm-up: each server builds its lazy state (the compiled walk
    // table) on its first report, outside the ledger.
    for (sc, st) in states.iter().enumerate() {
        if let Some(&u) = units.iter().find(|&&u| inputs.reports[u].scenario == sc) {
            let r = &inputs.reports[u];
            for server in [&st.sequential, &st.default] {
                std::hint::black_box(server.diagnose(&r.failure, &r.failing, &r.successful).ok());
            }
        }
    }

    // ---- layers ----------------------------------------------------
    let mut cost: BTreeMap<usize, UnitCost> = BTreeMap::new();
    for &u in &units {
        let sc = inputs.reports[u].scenario;
        let (c, render, top1) = layer_pass(&mut l, &mut states[sc], inputs, u, &mut counts);
        match render {
            Some(r) => verdict.same("server", u, &r, &refs[u].render),
            None => verdict.fail(format!(
                "server: report {u} stage replay diverged from diagnose"
            )),
        }
        verdict.served(top1, "server", u);
        cost.insert(u, c);
    }
    let n = units.len().max(1) as f64;
    let per = |f: &dyn Fn(&UnitCost) -> u64| -> f64 {
        cost.values().map(|c| f(c) as f64).sum::<f64>() / n / 1e3
    };
    let self_ns = l.self_ns_by_name();
    let self_us = |name: &str| self_ns.get(name).map_or(0.0, |&t| t as f64 / n / 1e3);
    let process_us = per(&|c| c.processing());
    let decode_us = per(&|c| c.snaps.iter().map(|s| s.2).sum());
    let aggregate_us = self_us("processing.process");
    let exact_hits: u64 = states.iter().map(|s| s.cache.stats().exact_hits).sum();
    let lookups: u64 = states.iter().map(|s| s.cache.stats().lookups).sum();

    // ---- tracing overhead: the same stage replays, spans off vs on ----
    let overhead = tracing_overhead(inputs, &units, &mut states);

    // ---- batch -------------------------------------------------------
    let batch_cfg = BatchConfig {
        workers: 1,
        ..BatchConfig::default()
    };
    let (mut batch_run, mut batch_attr, mut submitted, mut dedup, mut jobs_failed) =
        (0u64, 0u64, 0usize, 0usize, 0usize);
    for (gi, g) in groups.iter().enumerate() {
        let sc = inputs.reports[g[0]].scenario;
        let s = &inputs.scenarios[sc];
        let jobs: Vec<BatchJob<'_>> = g
            .iter()
            .map(|&u| {
                let r = &inputs.reports[u];
                BatchJob {
                    failure: &r.failure,
                    failing: &r.failing,
                    successful: &r.successful,
                }
            })
            .collect();
        let (out, id) = l.time("batch.run", gi as u64, None, || {
            let out = states[sc].sequential.diagnose_batch(&jobs, &batch_cfg);
            let renders: Vec<Option<String>> = out
                .diagnoses
                .iter()
                .map(|d| d.as_ref().ok().map(|d| d.render(&s.module)))
                .collect();
            (out.stats, renders)
        });
        batch_run += dur(&l, id);
        let (stats, renders) = out;
        dedup += stats.snapshot_dedup_hits;
        jobs_failed += stats.failed_jobs;
        let mut seen = HashSet::new();
        for (&u, render) in g.iter().zip(&renders) {
            match render {
                Some(r) => verdict.same("batch", u, r, &refs[u].render),
                None => verdict.fail(format!("batch: report {u} failed")),
            }
            let c = &cost[&u];
            submitted += c.snaps.len();
            batch_attr += c
                .snaps
                .iter()
                .filter(|s| seen.insert(s.0))
                .map(|s| s.1)
                .sum::<u64>()
                + c.cached
                + c.tail();
        }
    }
    let nb = groups.len().max(1) as f64;

    // ---- stream ------------------------------------------------------
    let all_streams = streams(inputs);
    let (mut folds, mut fold_ns, mut finish_ns, mut stream_attr) = (0usize, 0u64, 0u64, 0u64);
    let mut consumed = Vec::new();
    for &u in &units {
        let r = &inputs.reports[u];
        let s = &inputs.scenarios[r.scenario];
        let server = &states[r.scenario].sequential;
        let reps = &all_streams[u];
        let started = Instant::now();
        let mut diag = StreamingDiagnoser::new(server, &r.failure);
        let mut folded = Vec::new();
        let mut children = Vec::new();
        for rep in reps {
            let (res, id) = l.time("streaming.fold", u as u64, None, || diag.fold(rep));
            children.push(id);
            fold_ns += dur(&l, id);
            folds += 1;
            folded.push(match rep {
                lazy_snorlax::StreamReport::Failing(s) | lazy_snorlax::StreamReport::Success(s) => {
                    snapshot_key(s)
                }
            });
            if let Ok(true) = res {
                break;
            }
        }
        let (out, id) = l.time("streaming.finish", u as u64, None, || diag.finish());
        children.push(id);
        finish_ns += dur(&l, id);
        let sid = l.record("streaming.stream", u as u64, None, started, Instant::now());
        for id in children {
            l.adopt(id, sid);
        }
        let c = &cost[&u];
        let snap_cost: HashMap<u64, u64> = c.snaps.iter().map(|s| (s.0, s.1)).collect();
        stream_attr += folded.iter().filter_map(|k| snap_cost.get(k)).sum::<u64>() + c.render;
        match out {
            Ok(out) => {
                consumed.push(out.reports_consumed as f64);
                let got = out.diagnosis.render(&s.module);
                match prefix_render(server, r, reps, out.reports_consumed) {
                    Some(want) => verdict.same("stream", u, &got, &want),
                    None => verdict.fail(format!("stream: report {u} prefix does not diagnose")),
                }
                verdict.streamed(top1_correct(&out.diagnosis, &s.targets), &s.id, u);
            }
            Err(e) => verdict.fail(format!("stream: report {u} failed: {e}")),
        }
    }

    // ---- fleet -------------------------------------------------------
    let freports = fleet_reports(inputs);
    let (mut route_ns, mut fleet_hits, mut fleet_lookups) = (0u64, 0u64, 0u64);
    for (sc, s) in inputs.scenarios.iter().enumerate() {
        let mine: Vec<usize> = units
            .iter()
            .copied()
            .filter(|&u| inputs.reports[u].scenario == sc)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let router = fleet_router(s);
        for &u in &mine {
            // Warm the shards: the workload routes to warm shards.
            let _ = router.route(&freports[u]);
        }
        for &u in &mine {
            let (out, id) = l.time("fleet.route", u as u64, None, || {
                router
                    .route(&freports[u])
                    .map(|o| o.diagnosis.render(&s.module))
            });
            route_ns += dur(&l, id);
            match out {
                Ok(r) => verdict.same("fleet", u, &r, &refs[u].render),
                Err(e) => verdict.fail(format!("fleet: report {u} failed: {e}")),
            }
        }
        for st in router.shard_stats().into_iter().flatten() {
            fleet_hits += st.cache_exact_hits;
            fleet_lookups += st.cache_lookups;
        }
    }

    // ---- daemon ------------------------------------------------------
    let (mut request_ms, mut late_ms) = (Vec::new(), Vec::new());
    let (mut busy, mut timeouts, mut resumes) = (0u64, 0u64, 0u64);
    let mut daemon_service_ns = 0u64;
    let mut daemon_wire_ns = 0u64;
    for (sc, s) in inputs.scenarios.iter().enumerate() {
        let mine: Vec<usize> = units
            .iter()
            .copied()
            .filter(|&u| inputs.reports[u].scenario == sc)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let frames: Vec<Vec<u8>> = mine
            .iter()
            .map(|&u| daemon::diagnose_frame(&inputs.reports[u]))
            .collect();
        let views: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let (ex, stats, _) = daemon::with_daemon(&s.module, |addr| {
            // Warm-up: the workers build their lazy state here.
            daemon::open_loop(addr, &views[..views.len().min(2)], LADDER[0]);
            daemon::open_loop(addr, &views, LADDER[0])
        });
        busy += stats.rejected_busy;
        timeouts += stats.timeouts;
        resumes += stats.partial_frame_resumes;
        for (e, &u) in ex.iter().zip(&mine) {
            late_ms.extend(e.late_ms());
            match (&e.reply, e.report_latency_ms()) {
                (Some((at, _, body)), Some(lat)) => {
                    l.record("daemon.request", u as u64, None, e.due, *at);
                    request_ms.push(lat);
                    verdict.same("daemon", u, &String::from_utf8_lossy(body), &refs[u].render);
                    daemon_service_ns += cost[&u].diagnose_default;
                    daemon_wire_ns += cost[&u].wire;
                }
                _ => verdict.fail(format!("daemon: report {u} was not served")),
            }
        }
    }
    let served = request_ms.len().max(1) as f64;
    let request = mean(&request_ms);
    let service = daemon_service_ns as f64 / served / 1e6;

    let dropped = lazy_obs::snapshot()
        .since(&telemetry_base)
        .counter("obs.span_records_dropped_total");

    let values: HashMap<&str, f64> = [
        ("wire.parse_us", per(&|c| c.wire)),
        ("wire.bytes", counts.wire_bytes as f64 / n),
        ("decoder.decode_us", decode_us),
        ("decoder.events", counts.decoder_events as f64 / n),
        ("decoder.bytes", counts.decoder_bytes as f64 / n),
        ("processing.process_us", process_us),
        ("processing.aggregate_us", aggregate_us),
        (
            "processing.aggregate_share",
            if process_us > 0.0 {
                aggregate_us / process_us
            } else {
                0.0
            },
        ),
        ("analysis.pointsto_scratch_us", per(&|c| c.scratch)),
        ("analysis.pointsto_cached_us", per(&|c| c.cached)),
        ("analysis.cache_exact_hit_ratio", ratio(exact_hits, lookups)),
        ("analysis.scope_insts", counts.scope_insts as f64 / n),
        ("candidates.select_us", per(&|c| c.select)),
        ("candidates.ranked", counts.ranked as f64 / n),
        ("patterns.compute_us", per(&|c| c.patterns)),
        ("patterns.generated", counts.generated as f64 / n),
        ("statistics.score_us", per(&|c| c.score)),
        ("statistics.patterns_scored", counts.scored as f64 / n),
        ("server.diagnose_us", per(&|c| c.diagnose)),
        ("server.render_us", per(&|c| c.render)),
        ("server.unattributed_us", self_us("server.diagnose")),
        ("batch.run_us", batch_run as f64 / nb / 1e3),
        (
            "batch.snapshot_dedup_ratio",
            ratio(dedup as u64, submitted as u64),
        ),
        ("batch.jobs_failed", jobs_failed as f64),
        (
            "batch.unattributed_us",
            (batch_run as f64 - batch_attr as f64) / nb / 1e3,
        ),
        ("daemon.request_ms", request),
        ("daemon.service_ms", service),
        ("daemon.wait_ms", request - service),
        ("daemon.busy_rejections", busy as f64),
        ("daemon.timeouts", timeouts as f64),
        ("daemon.partial_frame_resumes", resumes as f64),
        (
            "daemon.unattributed_ms",
            request - service - daemon_wire_ns as f64 / served / 1e6,
        ),
        (
            "streaming.fold_us",
            fold_ns as f64 / folds.max(1) as f64 / 1e3,
        ),
        ("streaming.folds", folds as f64 / n),
        ("streaming.finish_us", finish_ns as f64 / n / 1e3),
        (
            "streaming.reports_to_converge",
            median(&consumed).unwrap_or(0.0),
        ),
        (
            "streaming.unattributed_us",
            (fold_ns as f64 + finish_ns as f64 - stream_attr as f64) / n / 1e3,
        ),
        ("fleet.route_us", route_ns as f64 / n / 1e3),
        (
            "fleet.cache_exact_hit_ratio",
            ratio(fleet_hits, fleet_lookups),
        ),
        ("fleet.single_node_us", per(&|c| c.diagnose_default)),
        // The shards run in parallel threads, so the sequential stage
        // times cannot be subtracted; the residual is the time routing
        // adds over single-node diagnosis of the same reports (rounds,
        // partitioning and merges, net of warm-cache savings).
        (
            "fleet.unattributed_us",
            route_ns as f64 / n / 1e3 - per(&|c| c.diagnose_default),
        ),
        ("obs.tracing_overhead", overhead),
        ("obs.span_records_dropped", dropped as f64),
        (
            "loadgen.late_ms_p99",
            percentile(&late_ms, 99.0).unwrap_or(0.0),
        ),
        ("loadgen.gen_s", inputs.gen_s),
    ]
    .into_iter()
    .collect();
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| LayerMetric {
            name,
            unit,
            value: values[name],
        })
        .collect();
    Traced {
        metrics,
        ledger: l,
        units: units.len(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Ratio of traced to untraced time for the layers pass over a few
/// reports: two alternating rounds each, medians compared.
fn tracing_overhead(inputs: &Inputs, units: &[usize], states: &mut [ScenarioState<'_>]) -> f64 {
    let few = &units[..units.len().min(8)];
    let mut on = Vec::new();
    let mut off = Vec::new();
    for round in 0..4 {
        let enabled = round % 2 == 1;
        let mut l = Ledger::new(enabled);
        let mut counts = Counts::default();
        let t = Instant::now();
        for &u in few {
            let sc = inputs.reports[u].scenario;
            std::hint::black_box(layer_pass(&mut l, &mut states[sc], inputs, u, &mut counts));
        }
        let s = t.elapsed().as_secs_f64();
        if enabled {
            on.push(s);
        } else {
            off.push(s);
        }
    }
    match (median(&on), median(&off)) {
        (Some(a), Some(b)) if b > 0.0 => a / b,
        _ => 1.0,
    }
}
