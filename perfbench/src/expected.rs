//! Recorded outputs: the values each workload must reproduce per seed.
//!
//! `expected.txt` holds one `<workload> <size> <seed> <key> <value>` line
//! per recorded output. `perfbench --record` prints the same lines for a
//! run, so adding a seed is `perfbench --record ... >> expected.txt`.

use std::collections::BTreeMap;

/// Outputs recorded for one (workload, size, seed).
pub type Recorded = BTreeMap<String, String>;

/// The expected-value table.
pub struct Expected {
    table: BTreeMap<(String, String, u64), Recorded>,
}

/// What checking one output against the table found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equals the recorded value.
    Match,
    /// Differs from the recorded value, or the key is missing from a
    /// recorded seed.
    Mismatch,
    /// Nothing is recorded for this seed; only invariants were checked.
    Unrecorded,
}

impl Expected {
    /// The table compiled into the binary.
    pub fn builtin() -> Self {
        Self::parse(include_str!("../expected.txt")).expect("built-in expected.txt parses")
    }

    /// Parses the line format; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut table: BTreeMap<(String, String, u64), Recorded> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, size, seed, key, value] = f[..] else {
                return Err(format!("line {}: expected 5 fields", n + 1));
            };
            let seed = seed
                .parse::<u64>()
                .map_err(|_| format!("line {}: bad seed {seed:?}", n + 1))?;
            table
                .entry((workload.to_owned(), size.to_owned(), seed))
                .or_default()
                .insert(key.to_owned(), value.to_owned());
        }
        Ok(Expected { table })
    }

    /// Checks one observed output.
    pub fn check(&self, workload: &str, size: &str, seed: u64, key: &str, value: &str) -> Verdict {
        match self
            .table
            .get(&(workload.to_owned(), size.to_owned(), seed))
        {
            None => Verdict::Unrecorded,
            Some(rec) if rec.get(key).map(String::as_str) == Some(value) => Verdict::Match,
            Some(_) => Verdict::Mismatch,
        }
    }
}

/// FNV-1a 64 of `text`, as 16 hex digits: a compact fingerprint for
/// equality checks (not a cryptographic hash).
pub fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}
