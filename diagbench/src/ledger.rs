//! The traced run's span ledger: the benchmark's own spans around its
//! calls into each layer's public functions.
//!
//! Every span carries a name, start, end, parent and request id. Spans
//! stay in memory and are written out once the run ends. A span's
//! children are either nested in its interval or replays of the same
//! request's stages timed next to it (the route call cannot be opened
//! from outside); either way a parent's self time is its duration
//! minus its children's durations, so a route's self time is the
//! residual no stage accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its ledger.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `processing.process`.
    pub name: &'static str,
    /// Start, ns since the ledger's epoch.
    pub start_ns: u64,
    /// End, ns since the ledger's epoch.
    pub end_ns: u64,
    /// The span this one's time is attributed to.
    pub parent: Option<SpanId>,
    /// The request (report) the span served.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. Disabled, it records nothing and costs one
/// branch per call, which is what the tracing-overhead ratio compares.
pub struct Ledger {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Ledger {
    /// An empty ledger; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span timed elsewhere (e.g. on a load-generator thread).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.record(name, request, parent, start, end))
    }

    /// Re-parents `child` under `parent` (a replayed stage attributed
    /// to the route call it stands in for).
    pub fn adopt(&mut self, child: Option<SpanId>, parent: Option<SpanId>) {
        if let (Some(c), Some(p)) = (child, parent) {
            self.spans[c].parent = Some(p);
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration in ns of span `id`.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self
            .spans
            .iter()
            .map(|s| i64::try_from(s.duration_ns()).unwrap_or(i64::MAX))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= i64::try_from(s.duration_ns()).unwrap_or(i64::MAX);
            }
        }
        out
    }

    /// Summed self time per span name, ns (negative when replayed
    /// children outweigh their parent).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, i64> {
        let mut out: BTreeMap<&'static str, i64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut l = Ledger::new(true);
        let t0 = l.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // A route of 100 ms with a nested 30 ms stage and a replayed
        // 50 ms stage timed after it.
        let route = l.record("route", 7, None, at(0), at(100));
        let nested = l.record("stage.a", 7, route, at(10), at(40));
        let replay = l.record("stage.b", 7, None, at(200), at(250));
        l.adopt(replay, route);
        // A grandchild is subtracted from its own parent only.
        l.record("stage.a.inner", 7, nested, at(15), at(25));
        let selfs = l.self_times_ns();
        assert_eq!(selfs[0], 20_000_000);
        assert_eq!(selfs[1], 20_000_000);
        assert_eq!(selfs[2], 50_000_000);
        assert_eq!(selfs[3], 10_000_000);
        let by_name = l.self_ns_by_name();
        assert_eq!(by_name["route"], 20_000_000);
        assert_eq!(by_name["stage.b"], 50_000_000);
        // The ledger adds up: the self times of a tree sum to its
        // root's duration, replayed children included.
        let sum: i64 = selfs.iter().sum();
        assert_eq!(sum, 100_000_000);
    }

    #[test]
    fn children_outweighing_parent_go_negative() {
        let mut l = Ledger::new(true);
        let t0 = l.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let route = l.record("route", 1, None, at(0), at(10));
        l.record("stage", 1, route, at(20), at(35));
        assert_eq!(l.self_times_ns()[0], -5_000_000);
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut l = Ledger::new(false);
        let (v, id) = l.time("x", 0, None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(id.is_none());
        assert!(l.spans().is_empty());
    }
}
