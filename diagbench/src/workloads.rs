//! The four workloads: their inputs, their set-up, and their measured
//! phases with tracing off. Every route's output is checked against the
//! in-process `DiagnosisServer::diagnose` render of the same report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lazy_snorlax::{
    interleave_reports, BatchConfig, BatchJob, DiagnosisServer, FleetReport, FleetRouter,
    ServerConfig, ShardConn, StreamReport, StreamingDiagnoser,
};
use lazy_trace::{TraceSnapshot, WalkTable};
use lazy_workloads::systems::eval_scenarios;
use lazy_workloads::{scenario_by_id, BugScenario};

use crate::daemon::{self, Exchange, FAILED_LATENCY_MS};
use crate::heap;
use crate::inputs::{chain, merged, top1_correct, vm_base, Chain, Report};
use crate::stats::{highest_passing, percentile, StepOutcome, TAIL_SAMPLES};

/// The bug the single-bug workloads serve: an atomicity violation that
/// manifests quickly and diagnoses reliably.
pub const SINGLE_BUG: &str = "mysql-3596";

/// daemon-open's fixed rate ladder, requests per second. The first
/// rung is the reference rate. Today's open-loop capacity on 2 shared
/// cores is 70–125/s depending on the machine's other tenants. The
/// reference rate sits near 30% of the low end, so that a host twice as
/// slow still leaves the daemon idle half the time and the rung's p90
/// stays mostly service time; the ladder reaches ~4× the high end so a
/// faster program shows.
pub const LADDER: [f64; 10] = [
    20.0, 45.0, 60.0, 80.0, 110.0, 150.0, 200.0, 280.0, 400.0, 500.0,
];

/// The p90 latency limit a ladder rung must meet, ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Requests per ladder rung above the reference: enough that the p90
/// has at least ten samples beyond it.
pub const STEP_REQUESTS: usize = 110;

/// Consecutive parts a run's completions are split into; the median
/// part's rate is the reported throughput.
pub const RATE_PARTS: usize = 5;

/// Fewest latency samples per part when a run's latencies are split
/// into parts (enough for ten samples beyond the p90), and the most
/// parts; the median part's percentile is reported.
pub const LATENCY_PART_MIN: usize = 110;
pub const LATENCY_PARTS: usize = 5;

/// daemon-open's reference rung is split into `LATENCY_PARTS` parts of
/// at least this many requests (four beyond each part's p90; the rung
/// as a whole has twenty). Interference on a shared host comes in
/// bursts of a second or two; with five parts a burst has to last
/// through three of them to move the reported p90.
pub const REFERENCE_PART_MIN: usize = 40;

/// The fewest latency samples per part for `w`'s percentiles.
pub fn latency_part_min(w: Workload) -> usize {
    if w == Workload::DaemonOpen {
        REFERENCE_PART_MIN
    } else {
        LATENCY_PART_MIN
    }
}

/// Set-up repetitions per run (daemon starts, in-process
/// constructions); the median is reported.
pub const DAEMON_SETUP_REPS: usize = 41;
pub const SETUP_REPS: usize = 31;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop single-report requests to one `snorlaxd` over loopback.
    DaemonOpen,
    /// Closed-loop `diagnose_batch` over same-bug incidents.
    BatchIncident,
    /// In-process streaming over all 11 eval bugs.
    StreamEval,
    /// In-process fleet routing over 2 warm local shards.
    FleetWarm,
}

impl Workload {
    /// Every workload. BENCHMARK.json runs all but `DaemonOpen`, whose
    /// latencies on a shared 2-core host follow the host's state (see
    /// the README); every traced run still ends with a daemon pass.
    pub const ALL: [Workload; 4] = [
        Workload::DaemonOpen,
        Workload::BatchIncident,
        Workload::StreamEval,
        Workload::FleetWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DaemonOpen => "daemon-open",
            Workload::BatchIncident => "batch-incident",
            Workload::StreamEval => "stream-eval",
            Workload::FleetWarm => "fleet-warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much input a run generates.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// daemon-open: reports in the reference rung (all distinct), sent
    /// over the whole `--seconds`.
    pub reference_requests: usize,
    /// daemon-open: requests per rung above the reference.
    pub step_requests: usize,
    /// batch-incident: incidents, and reports per incident.
    pub incidents: usize,
    pub incident_reports: usize,
    /// stream-eval: eval bugs used, streams per bug, collections per stream.
    pub bugs: usize,
    pub streams_per_bug: usize,
    pub stream_collections: usize,
    /// fleet-warm: batches, and reports per batch.
    pub fleet_batches: usize,
    pub fleet_batch_reports: usize,
}

impl Size {
    /// The measured configuration for a run of `seconds`.
    pub fn full(seconds: f64) -> Size {
        Size {
            reference_requests: ((LADDER[0] * seconds) as usize)
                .max(LATENCY_PARTS * REFERENCE_PART_MIN),
            step_requests: STEP_REQUESTS,
            incidents: 32,
            incident_reports: 8,
            bugs: 11,
            streams_per_bug: 16,
            stream_collections: 2,
            fleet_batches: 24,
            fleet_batch_reports: 4,
        }
    }

    /// A seconds-long configuration for the self-tests.
    pub fn smoke() -> Size {
        Size {
            reference_requests: 12,
            step_requests: 12,
            incidents: 2,
            incident_reports: 3,
            bugs: 3,
            streams_per_bug: 1,
            stream_collections: 2,
            fleet_batches: 2,
            fleet_batch_reports: 2,
        }
    }
}

/// A workload's generated reports.
pub struct Inputs {
    /// The scenarios reports refer to by index.
    pub scenarios: Vec<BugScenario>,
    /// Every report.
    pub reports: Vec<Report>,
    /// Report indices per incident / fleet batch / stream (one each).
    pub groups: Vec<Vec<usize>>,
    /// Wall time spent generating, s.
    pub gen_s: f64,
}

/// Generates `w`'s reports from `seed`.
pub fn generate(w: Workload, seed: u64, size: &Size) -> Inputs {
    let started = Instant::now();
    let single = || vec![scenario_by_id(SINGLE_BUG).expect("single-bug scenario exists")];
    let (scenarios, reports, groups) = match w {
        Workload::DaemonOpen => {
            let scenarios = single();
            let n = size.reference_requests.max(size.step_requests);
            let reports = chain(0, &scenarios[0], vm_base(seed, 1), n, Chain::Disjoint);
            let groups = vec![(0..n).collect()];
            (scenarios, reports, groups)
        }
        Workload::BatchIncident | Workload::FleetWarm => {
            let scenarios = single();
            let (count, per, salt) = if w == Workload::BatchIncident {
                (size.incidents, size.incident_reports, 100)
            } else {
                (size.fleet_batches, size.fleet_batch_reports, 200)
            };
            let mut reports = Vec::new();
            let mut groups = Vec::new();
            for g in 0..count {
                let start = vm_base(seed, salt + g as u64);
                let first = reports.len();
                reports.extend(chain(0, &scenarios[0], start, per, Chain::Overlapping));
                groups.push((first..reports.len()).collect());
            }
            (scenarios, reports, groups)
        }
        Workload::StreamEval => {
            let mut scenarios = eval_scenarios();
            scenarios.truncate(size.bugs);
            let mut reports = Vec::new();
            // Interleave bugs so every stretch of the measured loop mixes
            // bug classes.
            for k in 0..size.streams_per_bug {
                for (i, s) in scenarios.iter().enumerate() {
                    let start = vm_base(seed, 300 + (i * size.streams_per_bug + k) as u64);
                    reports.push(merged(i, s, start, size.stream_collections));
                }
            }
            let groups = (0..reports.len()).map(|i| vec![i]).collect();
            (scenarios, reports, groups)
        }
    };
    Inputs {
        scenarios,
        reports,
        groups,
        gen_s: started.elapsed().as_secs_f64(),
    }
}

/// Correctness findings of one run. Any error fails the run.
#[derive(Default)]
pub struct Verdict {
    /// Mismatches, first few in full.
    pub errors: Vec<String>,
    /// Mismatches in total.
    pub error_count: usize,
    /// Served diagnoses naming the ground-truth root cause.
    pub top1_ok: u64,
    /// Served diagnoses.
    pub top1_total: u64,
    /// Streams that exited onto a wrong root cause (first few).
    pub misses: Vec<String>,
}

impl Verdict {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.error_count += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Checks a route's render against the in-process reference.
    pub fn same(&mut self, route: &str, report: usize, got: &str, want: &str) {
        if got != want {
            self.fail(format!(
                "{route}: report {report} render differs from in-process diagnose"
            ));
        }
    }

    /// Counts one served diagnosis of a whole report. The in-process
    /// diagnosis of a whole report must name the root cause, so a miss
    /// fails the run.
    pub fn served(&mut self, top1: bool, route: &str, report: usize) {
        self.top1_total += 1;
        if top1 {
            self.top1_ok += 1;
        } else {
            self.fail(format!("{route}: report {report} misses the root cause"));
        }
    }

    /// Counts one stream's diagnosis. A stream that exits early onto a
    /// wrong root cause is the sequential rule's accuracy, which
    /// `top1_correct_share` measures: the miss is counted and listed,
    /// and the run goes on (its render must still equal batch
    /// diagnosis over the consumed prefix).
    pub fn streamed(&mut self, top1: bool, id: &str, report: usize) {
        self.top1_total += 1;
        if top1 {
            self.top1_ok += 1;
        } else if self.misses.len() < 5 {
            self.misses.push(format!(
                "stream: report {report} ({id}) exited on a wrong root cause"
            ));
        }
    }

    /// Share of served diagnoses that named the root cause.
    pub fn top1_share(&self) -> f64 {
        if self.top1_total == 0 {
            0.0
        } else {
            self.top1_ok as f64 / self.top1_total as f64
        }
    }
}

/// The in-process reference for one report.
pub struct Reference {
    /// `DiagnosisServer::diagnose(..).render(..)`.
    pub render: String,
    /// Whether it names the ground-truth root cause.
    pub top1: bool,
}

/// In-process default-config diagnoses of every report.
///
/// # Panics
///
/// If a generated report does not diagnose: the benchmark's inputs are
/// then not valid reports.
pub fn references(inputs: &Inputs) -> Vec<Reference> {
    let servers: Vec<DiagnosisServer<'_>> = inputs
        .scenarios
        .iter()
        .map(|s| DiagnosisServer::new(&s.module, ServerConfig::default()))
        .collect();
    inputs
        .reports
        .iter()
        .map(|r| {
            let s = &inputs.scenarios[r.scenario];
            let d = servers[r.scenario]
                .diagnose(&r.failure, &r.failing, &r.successful)
                .expect("generated report diagnoses in process");
            Reference {
                render: d.render(&s.module),
                top1: top1_correct(&d, &s.targets),
            }
        })
        .collect()
}

/// What a measured phase produced.
#[derive(Default)]
pub struct Measured {
    /// Set-up times, s, one per repetition.
    pub setup_s: Vec<f64>,
    /// Per-diagnosis latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Completions in time order: seconds since the measured phase
    /// began (daemon-open: since the reference rung's first due time),
    /// and reports completed.
    pub completions: Vec<(f64, usize)>,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Live heap when the measured phase began, MiB.
    pub heap_base_mib: f64,
    /// Peak live heap while each measured item ran, MiB.
    pub heap_peaks_mib: Vec<f64>,
    /// Human-readable details printed with the result.
    pub notes: Vec<(String, String)>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `SETUP_REPS` times, the state an in-process server builds before it
/// answers at warm speed, per module: the server itself and the
/// compiled walk table it builds lazily on its first decode (built here
/// through its public constructor, the same work).
fn server_setup(inputs: &Inputs) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for s in &inputs.scenarios {
                let server = DiagnosisServer::new(&s.module, ServerConfig::default());
                std::hint::black_box((&server, WalkTable::build(&s.module)));
            }
            secs(t.elapsed())
        })
        .collect()
}

/// Runs `w`'s measured phase for about `seconds`.
pub fn measure(
    w: Workload,
    inputs: &Inputs,
    refs: &[Reference],
    seconds: f64,
    size: &Size,
    verdict: &mut Verdict,
) -> Measured {
    match w {
        Workload::DaemonOpen => daemon_open(inputs, refs, size, verdict),
        Workload::BatchIncident => batch_incident(inputs, refs, seconds, verdict),
        Workload::StreamEval => stream_eval(inputs, seconds, verdict),
        Workload::FleetWarm => fleet_warm(inputs, refs, seconds, verdict),
    }
}

/// Checks one open-loop step's replies; returns the rung's outcome.
pub fn judge_step(
    rate: f64,
    exchanges: &[Exchange],
    ids: &[usize],
    refs: &[Reference],
    verdict: &mut Verdict,
) -> StepOutcome {
    for (e, &id) in exchanges.iter().zip(ids) {
        if let Some((_, lazy_snorlax::FrameKind::Report, body)) = &e.reply {
            let body = String::from_utf8_lossy(body);
            verdict.same("daemon", id, &body, &refs[id].render);
        }
    }
    StepOutcome {
        rate,
        latencies_ms: exchanges.iter().map(Exchange::report_latency_ms).collect(),
    }
}

/// Completions per second over a step: answered requests over the time
/// from the first due time to the last reply.
pub fn completion_rate(exchanges: &[Exchange]) -> f64 {
    let done: Vec<Instant> = exchanges
        .iter()
        .filter(|e| e.report_latency_ms().is_some())
        .filter_map(|e| e.reply.as_ref().map(|r| r.0))
        .collect();
    match (exchanges.first(), done.iter().max()) {
        (Some(first), Some(&last)) if last > first.due => {
            done.len() as f64 / secs(last - first.due)
        }
        _ => 0.0,
    }
}

fn daemon_open(
    inputs: &Inputs,
    refs: &[Reference],
    size: &Size,
    verdict: &mut Verdict,
) -> Measured {
    let module = &inputs.scenarios[0].module;
    let frames: Vec<Vec<u8>> = inputs.reports.iter().map(daemon::diagnose_frame).collect();
    let mut m = Measured {
        heap_base_mib: heap::live_mib(),
        ..Measured::default()
    };
    for _ in 1..DAEMON_SETUP_REPS {
        let ((), _, setup) = daemon::with_daemon(module, |_| ());
        m.setup_s.push(secs(setup));
    }
    let (steps, _stats, setup) = daemon::with_daemon(module, |addr| {
        // Warm-up: lazy per-worker state (walk tables) is built here,
        // not in the first rung.
        let warm: Vec<&[u8]> = frames.iter().take(8).map(Vec::as_slice).collect();
        daemon::open_loop(addr, &warm, LADDER[0] / 4.0);
        let mut steps = Vec::new();
        for (i, &rate) in LADDER.iter().enumerate() {
            let n = if i == 0 {
                size.reference_requests
            } else {
                size.step_requests
            };
            let ids: Vec<usize> = (0..n).collect();
            let batch: Vec<&[u8]> = ids.iter().map(|&k| frames[k].as_slice()).collect();
            let ex = daemon::open_loop(addr, &batch, rate);
            let passed = {
                let mut probe = Verdict::default();
                judge_step(rate, &ex, &ids, refs, &mut probe).passes(LATENCY_LIMIT_MS)
            };
            steps.push((ids, ex));
            if !passed {
                break;
            }
            // Let the daemon's queue empty between rungs.
            std::thread::sleep(Duration::from_millis(50));
        }
        steps
    });
    m.setup_s.push(secs(setup));

    let outcomes: Vec<StepOutcome> = steps
        .iter()
        .zip(LADDER)
        .map(|((ids, ex), rate)| judge_step(rate, ex, ids, refs, verdict))
        .collect();
    let best = highest_passing(&outcomes, LATENCY_LIMIT_MS);
    // Attempts count the reference rung and every passing rung; the
    // first failing rung is where the ladder stops and is reported in
    // the notes.
    let counted = best.map_or(1, |b| b + 1);
    for (i, (ids, ex)) in steps.iter().enumerate().take(counted) {
        m.attempted += ex.len() as u64;
        m.failed += outcomes[i].failed() as u64;
        for (e, &id) in ex.iter().zip(ids) {
            if e.report_latency_ms().is_some() {
                verdict.served(refs[id].top1, "daemon", id);
            }
        }
    }
    let reference = &steps[0].1;
    m.latencies_ms = reference
        .iter()
        .map(|e| e.report_latency_ms().unwrap_or(FAILED_LATENCY_MS))
        .collect();
    m.heap_peaks_mib = reference.iter().map(|e| e.heap_peak_mib).collect();
    // Goodput at the reference rate: it falls below the offered rate
    // only when the daemon cannot keep up with it. The ladder shows
    // how far above it the daemon can go.
    m.completions = reference
        .iter()
        .filter(|e| e.report_latency_ms().is_some())
        .filter_map(|e| e.reply.as_ref())
        .map(|r| (secs(r.0.saturating_duration_since(reference[0].due)), 1))
        .collect();
    let late: Vec<f64> = steps
        .iter()
        .flat_map(|(_, ex)| ex.iter().filter_map(Exchange::late_ms))
        .collect();
    for (o, (_, ex)) in outcomes.iter().zip(&steps) {
        m.notes.push((
            format!("rung {:>5.0}/s", o.rate),
            format!(
                "p50 {:.2} ms, p90 {:.2} ms, tail {:.2} ms, failed {}, completed {:.1}/s, n {} -> {}",
                o.percentile_ms(50.0).unwrap_or(f64::NAN),
                o.percentile_ms(90.0).unwrap_or(f64::NAN),
                o.tail_median_ms().unwrap_or(f64::NAN),
                o.failed(),
                completion_rate(ex),
                o.latencies_ms.len(),
                if o.passes(LATENCY_LIMIT_MS) { "pass" } else { "fail" }
            ),
        ));
    }
    m.notes.push((
        "max_rate_rps".into(),
        best.map_or_else(
            || "none (no rung passed)".into(),
            |b| {
                format!(
                    "{} (rung), {:.2} completed/s",
                    LADDER[b],
                    completion_rate(&steps[b].1)
                )
            },
        ),
    ));
    m.notes.push((
        "loadgen.late_ms_p99".into(),
        format!(
            "{:.3} over {} sends",
            percentile(&late, 99.0).unwrap_or(0.0),
            late.len()
        ),
    ));
    m
}

fn batch_incident(
    inputs: &Inputs,
    refs: &[Reference],
    seconds: f64,
    verdict: &mut Verdict,
) -> Measured {
    let s = &inputs.scenarios[0];
    let mut m = Measured {
        setup_s: server_setup(inputs),
        ..Measured::default()
    };
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let cfg = BatchConfig::default();
    let jobs: Vec<Vec<BatchJob<'_>>> = inputs
        .groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&i| {
                    let r = &inputs.reports[i];
                    BatchJob {
                        failure: &r.failure,
                        failing: &r.failing,
                        successful: &r.successful,
                    }
                })
                .collect()
        })
        .collect();
    // Warm-up: one incident builds the server's lazy state.
    std::hint::black_box(server.diagnose_batch(&jobs[0], &cfg));
    m.heap_base_mib = heap::live_mib();
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds || m.latencies_ms.len() < min_samples() {
        let g = k % jobs.len();
        heap::take_peak_mib();
        let t = Instant::now();
        let out = server.diagnose_batch(&jobs[g], &cfg);
        let renders: Vec<Option<String>> = out
            .diagnoses
            .iter()
            .map(|d| d.as_ref().ok().map(|d| d.render(&s.module)))
            .collect();
        m.latencies_ms.push(ms(t.elapsed()));
        drop(out);
        m.heap_peaks_mib.push(heap::take_peak_mib());
        for (render, &id) in renders.iter().zip(&inputs.groups[g]) {
            m.attempted += 1;
            match render {
                Some(r) => {
                    verdict.same("batch", id, r, &refs[id].render);
                    verdict.served(refs[id].top1, "batch", id);
                }
                None => m.failed += 1,
            }
        }
        m.completions
            .push((started.elapsed().as_secs_f64(), renders.len()));
        k += 1;
    }
    m.notes.push(("incidents measured".into(), k.to_string()));
    m
}

/// Samples every closed-loop workload collects at least, so its p90
/// has ten samples beyond it.
fn min_samples() -> usize {
    crate::stats::samples_needed(90.0).max(TAIL_SAMPLES)
}

/// What one stream produced.
struct StreamRun {
    render: String,
    consumed: usize,
    clean: bool,
    top1: bool,
}

/// One stream: fold until converged or out of reports, then finish and
/// render.
fn run_stream(
    server: &DiagnosisServer<'_>,
    r: &Report,
    reports: &[StreamReport],
    targets: &[lazy_ir::Pc],
) -> StreamRun {
    let mut diag = StreamingDiagnoser::new(server, &r.failure);
    for rep in reports {
        if let Ok(true) = diag.fold(rep) {
            break;
        }
    }
    match diag.finish() {
        Ok(out) => StreamRun {
            render: out.diagnosis.render(server.module()),
            consumed: out.reports_consumed,
            clean: out.reports_rejected == 0,
            top1: top1_correct(&out.diagnosis, targets),
        },
        Err(e) => StreamRun {
            render: format!("error: {e}"),
            consumed: 0,
            clean: false,
            top1: false,
        },
    }
}

/// The batch counterpart of a stream over its first `n` reports.
pub fn prefix_render(
    server: &DiagnosisServer<'_>,
    r: &Report,
    reports: &[StreamReport],
    n: usize,
) -> Option<String> {
    let (mut failing, mut successful): (Vec<TraceSnapshot>, Vec<TraceSnapshot>) = (vec![], vec![]);
    for rep in &reports[..n] {
        match rep {
            StreamReport::Failing(s) => failing.push(s.clone()),
            StreamReport::Success(s) => successful.push(s.clone()),
        }
    }
    let d = server.diagnose(&r.failure, &failing, &successful).ok()?;
    Some(d.render(server.module()))
}

/// Streams of a stream-eval input: each report's snapshots interleaved.
pub fn streams(inputs: &Inputs) -> Vec<Vec<StreamReport>> {
    inputs
        .reports
        .iter()
        .map(|r| interleave_reports(&r.failing, &r.successful))
        .collect()
}

fn stream_eval(inputs: &Inputs, seconds: f64, verdict: &mut Verdict) -> Measured {
    let mut m = Measured {
        setup_s: server_setup(inputs),
        ..Measured::default()
    };
    let servers: Vec<DiagnosisServer<'_>> = inputs
        .scenarios
        .iter()
        .map(|s| DiagnosisServer::new(&s.module, ServerConfig::default()))
        .collect();
    let streams = streams(inputs);
    // Reference pass (untimed, also the warm-up): every stream's render
    // must equal batch diagnosis over the prefix it consumed, and name
    // the ground-truth root cause.
    let mut expected: Vec<StreamRun> = Vec::new();
    for (i, (r, reps)) in inputs.reports.iter().zip(&streams).enumerate() {
        let server = &servers[r.scenario];
        let scenario = &inputs.scenarios[r.scenario];
        let run = run_stream(server, r, reps, &scenario.targets);
        if !run.clean {
            verdict.fail(format!(
                "stream: report {i} ({}) rejected reports",
                scenario.id
            ));
        }
        match prefix_render(server, r, reps, run.consumed) {
            Some(want) => verdict.same("stream", i, &run.render, &want),
            None => verdict.fail(format!("stream: report {i} prefix does not diagnose")),
        }
        expected.push(run);
    }
    let consumed: Vec<f64> = expected.iter().map(|e| e.consumed as f64).collect();
    m.heap_base_mib = heap::live_mib();
    // The loop cycles through every stream, so on a fast host each one
    // runs several times, seconds apart; its latency sample is the
    // median of its runs.
    let mut runs_ms: Vec<Vec<f64>> = vec![Vec::new(); streams.len()];
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds || k < min_samples() {
        let i = k % streams.len();
        let r = &inputs.reports[i];
        let targets = &inputs.scenarios[r.scenario].targets;
        heap::take_peak_mib();
        let t = Instant::now();
        let run = run_stream(&servers[r.scenario], r, &streams[i], targets);
        runs_ms[i].push(ms(t.elapsed()));
        m.completions.push((started.elapsed().as_secs_f64(), 1));
        m.heap_peaks_mib.push(heap::take_peak_mib());
        m.attempted += 1;
        if !run.clean {
            m.failed += 1;
        }
        verdict.same("stream", i, &run.render, &expected[i].render);
        verdict.streamed(run.top1, &inputs.scenarios[r.scenario].id, i);
        k += 1;
    }
    m.latencies_ms = runs_ms
        .iter()
        .filter_map(|runs| crate::stats::median(runs))
        .collect();
    m.notes.push((
        "streams measured".into(),
        format!(
            "{} in {k} runs, each stream's latency the median of its runs",
            m.latencies_ms.len()
        ),
    ));
    m.notes.push((
        "streaming.reports_to_converge (median)".into(),
        format!("{}", crate::stats::median(&consumed).unwrap_or(0.0)),
    ));
    m
}

/// The fleet router workloads use: 2 warm in-process shards.
pub fn fleet_router(s: &BugScenario) -> FleetRouter<'_> {
    let shards = (0..2)
        .map(|_| ShardConn::local(&s.module, ServerConfig::default()))
        .collect();
    FleetRouter::new(&s.module, ServerConfig::default(), shards)
}

/// Owned fleet reports for `inputs`.
pub fn fleet_reports(inputs: &Inputs) -> Vec<FleetReport> {
    inputs
        .reports
        .iter()
        .map(|r| FleetReport {
            failure: r.failure.clone(),
            failing: r.failing.clone(),
            successful: r.successful.clone(),
        })
        .collect()
}

/// One routed report: when it completed (s since the measured phase
/// began), which report, its latency (ms) and its render.
struct Routed {
    end: f64,
    id: usize,
    lat: f64,
    out: Option<String>,
}

fn fleet_warm(
    inputs: &Inputs,
    refs: &[Reference],
    seconds: f64,
    verdict: &mut Verdict,
) -> Measured {
    let s = &inputs.scenarios[0];
    let mut m = Measured::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let router = fleet_router(s);
        m.setup_s.push(secs(t.elapsed()));
        std::hint::black_box(&router);
    }
    let router = fleet_router(s);
    let reports = fleet_reports(inputs);
    // Warm-up: route every batch once so the shards' caches are full.
    for r in router.route_all(&reports) {
        if r.is_err() {
            verdict.fail("fleet: warm-up route failed".into());
        }
    }
    let results: Mutex<Vec<Routed>> = Mutex::new(Vec::with_capacity(1 << 16));
    m.heap_base_mib = heap::live_mib();
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds
        || results.lock().expect("results").len() < min_samples()
    {
        let g = &inputs.groups[k % inputs.groups.len()];
        // The same shape as `route_all`: two workers draining one batch.
        let next = AtomicUsize::new(0);
        heap::take_peak_mib();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = g.get(j) else { break };
                    let t = Instant::now();
                    let out = router
                        .route(&reports[id])
                        .ok()
                        .map(|o| o.diagnosis.render(&s.module));
                    let lat = ms(t.elapsed());
                    let end = started.elapsed().as_secs_f64();
                    results
                        .lock()
                        .expect("results")
                        .push(Routed { end, id, lat, out });
                });
            }
        });
        m.heap_peaks_mib.push(heap::take_peak_mib());
        k += 1;
    }
    let mut results = results.into_inner().expect("results");
    results.sort_by(|a, b| a.end.total_cmp(&b.end));
    for Routed { end, id, lat, out } in &results {
        m.attempted += 1;
        m.latencies_ms.push(*lat);
        m.completions.push((*end, 1));
        match out {
            Some(r) => {
                verdict.same("fleet", *id, r, &refs[*id].render);
                verdict.served(refs[*id].top1, "fleet", *id);
            }
            None => m.failed += 1,
        }
    }
    let stats: Vec<_> = router.shard_stats().into_iter().flatten().collect();
    let hits: u64 = stats.iter().map(|s| s.cache_exact_hits).sum();
    let lookups: u64 = stats.iter().map(|s| s.cache_lookups).sum();
    m.notes
        .push(("fleet cache exact hits".into(), format!("{hits}/{lookups}")));
    m
}
