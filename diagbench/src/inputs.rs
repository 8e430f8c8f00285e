//! Seeded failure reports. The program under test only ever receives
//! the reports generated here; every workload derives its VM seeds
//! from the one `--seed` argument, so the same seed gives the same
//! reports.

use lazy_ir::Pc;
use lazy_snorlax::{CollectionClient, CollectionOutcome, Diagnosis, DiagnosisServer, ServerConfig};
use lazy_trace::TraceSnapshot;
use lazy_vm::{Failure, VmConfig};
use lazy_workloads::BugScenario;

/// Runs a collection may spend looking for the failure and its
/// successful traces.
const MAX_RUNS: usize = 1000;

/// Successful traces collected per report (the paper's 10×).
const SUCCESS_TARGET: usize = 10;

/// One failure report as an endpoint submits it.
#[derive(Clone, Debug)]
pub struct Report {
    /// Index of the report's scenario in the workload's scenario list.
    pub scenario: usize,
    /// The failure observed.
    pub failure: Failure,
    /// Failure-triggered snapshots.
    pub failing: Vec<TraceSnapshot>,
    /// Breakpoint-triggered snapshots from successful runs.
    pub successful: Vec<TraceSnapshot>,
}

impl Report {
    fn from_outcome(scenario: usize, c: CollectionOutcome) -> Report {
        Report {
            scenario,
            failure: c.failure,
            failing: c.failing,
            successful: c.successful,
        }
    }
}

/// SplitMix64: decorrelates the workload seed from the VM seed stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First VM seed of stream `salt` for workload seed `seed`. Kept well
/// below `u64::MAX` so consecutive runs never wrap.
pub fn vm_base(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) >> 24
}

/// How consecutive reports of one chain relate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// The next report starts right after the previous report's last
    /// failing run, so its successful runs repeat the previous report's
    /// (the shape a fleet produces when one shipped bug fails on many
    /// endpoints at once).
    Overlapping,
    /// The next report starts after every run the previous one used:
    /// no snapshot is shared between reports.
    Disjoint,
}

/// `n` reports of one scenario, starting at VM seed `start`.
///
/// # Panics
///
/// If the bug does not manifest within the collection budget: the
/// workload would then not be the one the benchmark defines.
pub fn chain(scenario: usize, s: &BugScenario, start: u64, n: usize, how: Chain) -> Vec<Report> {
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let mut out = Vec::with_capacity(n);
    let mut seed = start;
    while out.len() < n {
        let col = client
            .collect(seed, MAX_RUNS, SUCCESS_TARGET, 0)
            .unwrap_or_else(|| panic!("{}: bug did not manifest from seed {seed}", s.id));
        seed = match how {
            Chain::Overlapping => col.failing_seeds.last().copied().unwrap_or(seed) + 1,
            Chain::Disjoint => seed + col.runs as u64,
        };
        out.push(Report::from_outcome(scenario, col));
    }
    out
}

/// `collections` overlapping reports of one scenario merged into one
/// stream-shaped report (several failing traces spread through the
/// successes).
pub fn merged(scenario: usize, s: &BugScenario, start: u64, collections: usize) -> Report {
    let mut parts = chain(scenario, s, start, collections, Chain::Overlapping).into_iter();
    let mut first = parts.next().expect("at least one collection");
    for p in parts {
        first.failing.extend(p.failing);
        first.successful.extend(p.successful);
    }
    first
}

/// Whether a diagnosis names the scenario's root cause: a top pattern
/// exists and every one of its instructions is a ground-truth target.
pub fn top1_correct(d: &Diagnosis, targets: &[Pc]) -> bool {
    d.root_cause().is_some_and(|top| {
        let pcs = top.pattern.pcs();
        !pcs.is_empty() && pcs.iter().all(|pc| targets.contains(pc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(vm_base(7, 1), vm_base(7, 1));
        assert_ne!(vm_base(7, 1), vm_base(8, 1));
        assert_ne!(vm_base(7, 1), vm_base(7, 2));
        assert!(vm_base(u64::MAX, u64::MAX) < 1 << 40);
    }
}
