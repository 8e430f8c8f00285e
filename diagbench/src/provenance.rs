//! Where a result came from: machine, code, seed and build.

use std::path::Path;

/// The seed held out from tuning: later performance claims must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Provenance recorded with every result.
pub struct Provenance {
    /// Cores available to this process.
    pub nproc: usize,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
    /// The workload.
    pub workload: &'static str,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Whether the program's telemetry feature is compiled in.
    pub telemetry: bool,
}

impl Provenance {
    /// Collects provenance for this process.
    pub fn collect(seed: u64, workload: &'static str, trace: bool) -> Provenance {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: git_commit(&root.join(".git")).unwrap_or_else(|| "unknown".into()),
            seed,
            workload,
            trace,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            telemetry: cfg!(feature = "telemetry"),
        }
    }

    /// The provenance as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"commit\": \"{}\", \"seed\": {}, \"held_out_seed\": {}, \
             \"workload\": \"{}\", \"trace\": {}, \"profile\": \"{}\", \"telemetry\": {}}}",
            self.nproc,
            self.commit,
            self.seed,
            HELD_OUT_SEED,
            self.workload,
            self.trace,
            self.profile,
            self.telemetry
        )
    }
}

/// Resolves `HEAD` from a `.git` directory by reading its files (no
/// `git` process, nothing read outside the checkout).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return is_hash(head).then(|| head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        let id = id.trim();
        return is_hash(id).then(|| id.to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference && is_hash(id)).then(|| id.to_string())
    })
}

fn is_hash(s: &str) -> bool {
    s.len() >= 40 && s.chars().all(|c| c.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_json_with_the_core_count() {
        let p = Provenance::collect(3, "stream-eval", false);
        assert!(p.nproc >= 1);
        let j = p.to_json();
        assert!(j.contains("\"seed\": 3"));
        assert!(j.contains(&format!("\"nproc\": {}", p.nproc)));
        assert!(j.contains("\"held_out_seed\": 424242"));
    }

    #[test]
    fn hashes_only() {
        assert!(is_hash(&"a".repeat(40)));
        assert!(!is_hash("main"));
    }
}
