//! `diagbench`: one diagnosis benchmark across the daemon, batch,
//! stream and fleet routes.
//!
//! ```text
//! diagbench --workload <daemon-open|batch-incident|stream-eval|fleet-warm>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off; `--trace 1` runs the traced per-layer ledger instead. Both check
//! every route's output against the in-process diagnosis of the same
//! report; a wrong output fails the run (exit code 1). The last line of
//! standard output is the result as one JSON object.

mod daemon;
mod heap;
mod inputs;
mod ledger;
mod provenance;
mod rss;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Size, Verdict, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Command-line options.
#[derive(Clone, Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: diagbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in BENCHMARK.json.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in BENCHMARK.json.
    pub unit: String,
    /// Samples behind the value.
    pub samples: usize,
}

/// A run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The metrics, in BENCHMARK.json order.
    pub metrics: Vec<Metric>,
}

fn metric(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        samples,
    }
}

/// A finite JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one workload; prints the human-readable report on stdout.
fn run(o: &Options) -> Outcome {
    let size = if o.smoke {
        Size::smoke()
    } else {
        Size::full(o.seconds)
    };
    let inputs = workloads::generate(o.workload, o.seed, &size);
    // The untraced stream route is checked against batch diagnosis of
    // each stream's consumed prefix instead, so it needs no whole-report
    // references.
    let refs = if o.trace || o.workload != Workload::StreamEval {
        workloads::references(&inputs)
    } else {
        Vec::new()
    };
    let mut verdict = Verdict::default();
    let prov = provenance::Provenance::collect(o.seed, o.workload.name(), o.trace);

    let (metrics, attempted, failed, samples) = if o.trace {
        let t = traced::traced_run(o.workload, &inputs, &refs, o.smoke, &mut verdict);
        println!(
            "{:<32} {:>14} {:<6} should move",
            "per-layer metric", "value", "unit"
        );
        for (m, &(_, _, moves)) in t.metrics.iter().zip(traced::LAYER_METRICS) {
            println!("{:<32} {:>14.3} {:<6} {moves}", m.name, m.value, m.unit);
        }
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", o.workload.name(), o.seed));
        match t.ledger.write_jsonl(&spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                t.ledger.spans().len(),
                spans.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
        let metrics: Vec<Metric> = t
            .metrics
            .iter()
            .map(|m| metric(m.name, m.value, m.unit, t.units))
            .collect();
        let attempted = verdict.top1_total;
        (metrics, attempted, 0, vec![("reports sampled", t.units)])
    } else {
        let baseline_mib = {
            rss::reset_peak();
            rss::current_mib().unwrap_or(0.0)
        };
        let m = workloads::measure(o.workload, &inputs, &refs, o.seconds, &size, &mut verdict);
        let peak = rss::peak_mib().unwrap_or(0.0);
        let heap_peak =
            heap::take_peak_mib().max(m.heap_peaks_mib.iter().copied().fold(0.0, f64::max));
        let n = m.latencies_ms.len();
        let latency = |p: f64| {
            stats::segmented_percentile(
                &m.latencies_ms,
                p,
                workloads::latency_part_min(o.workload),
                workloads::LATENCY_PARTS,
            )
            .unwrap_or(0.0)
        };
        let metrics = vec![
            metric(
                "setup_s",
                stats::median(&m.setup_s).unwrap_or(0.0),
                "s",
                m.setup_s.len(),
            ),
            metric("latency_p50_ms", latency(50.0), "ms", n),
            metric("latency_p90_ms", latency(90.0), "ms", n),
            metric(
                "reports_per_s",
                stats::segmented_rate(&m.completions, workloads::RATE_PARTS).unwrap_or(0.0),
                "1/s",
                m.completions.len(),
            ),
            metric(
                "peak_heap_mb",
                stats::median(&m.heap_peaks_mib).map_or(0.0, |p| p - m.heap_base_mib),
                "MiB",
                m.heap_peaks_mib.len(),
            ),
            metric(
                "top1_correct_share",
                verdict.top1_share(),
                "ratio",
                usize::try_from(verdict.top1_total).unwrap_or(usize::MAX),
            ),
        ];
        for (k, v) in &m.notes {
            println!("note {k}: {v}");
        }
        println!(
            "note peak_rss: {peak:.2} MiB peak vs {baseline_mib:.2} MiB when reset, growth {:.2} MiB",
            peak - baseline_mib
        );
        println!(
            "note heap: {heap_peak:.2} MiB highest item peak vs {:.2} MiB live at start, growth {:.2} MiB",
            m.heap_base_mib,
            heap_peak - m.heap_base_mib
        );
        println!(
            "note failed_share: {} of {} requests",
            m.failed, m.attempted
        );
        if !stats::percentile_supported(n, 90.0) {
            println!(
                "note latency_p90_ms: only {} samples beyond it (want {})",
                stats::samples_beyond(n, 90.0),
                stats::TAIL_SAMPLES
            );
        }
        (metrics, m.attempted, m.failed, vec![("latency samples", n)])
    };

    for m in &verdict.misses {
        println!("MISS {m}");
    }
    for e in &verdict.errors {
        println!("MISMATCH {e}");
    }
    if verdict.error_count > verdict.errors.len() {
        println!("MISMATCH ... {} in total", verdict.error_count);
    }
    if !o.trace {
        println!(
            "{:<22} {:>14} {:<6} samples",
            "end-to-end metric", "value", "unit"
        );
        for m in &metrics {
            println!(
                "{:<22} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let extra: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "{{\"provenance\": {}, \"gen_s\": {}, {}}}",
        prov.to_json(),
        num(inputs.gen_s),
        extra.join(", ")
    );
    Outcome {
        correct: verdict.error_count == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diagbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome = run(&o);
    eprintln!(
        "diagbench: {} seed {} trace {} done in {:.1} s",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(w: Workload, trace: bool) -> Options {
        Options {
            workload: w,
            seed: 1,
            seconds: 0.2,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let args: Vec<String> = "--workload stream-eval --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse(&args).expect("valid");
        assert_eq!(o.workload, Workload::StreamEval);
        assert_eq!(o.seed, 7);
        assert!(o.trace && !o.smoke);
        assert!(parse(&args[..6]).is_err());
        let mut bad = args.clone();
        bad[1] = "nope".into();
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("latency_p50_ms", 1.5, "ms", 3)],
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(num(f64::NAN), "0");
    }

    /// The smoke mode runs every workload end to end, untraced and
    /// traced, on a few reports: every output checks out and every
    /// declared metric is present.
    #[test]
    fn smoke_every_workload() {
        let _serial = heap::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).ok();
        for w in Workload::ALL {
            for trace in [false, true] {
                let out = run(&opts(w, trace));
                assert!(out.correct, "{} trace={trace}: outputs wrong", w.name());
                assert!(out.attempted >= 1);
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                if trace {
                    assert_eq!(names.len(), traced::LAYER_METRICS.len());
                } else {
                    assert_eq!(
                        names,
                        [
                            "setup_s",
                            "latency_p50_ms",
                            "latency_p90_ms",
                            "reports_per_s",
                            "peak_heap_mb",
                            "top1_correct_share"
                        ]
                    );
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{out:?}");
                }
                if let Some(json) = &declared {
                    for n in &names {
                        assert!(json.contains(&format!("\"{n}\"")), "{n} not declared");
                    }
                }
            }
        }
    }
}
