//! What one rank reports to the gates: named `u64` counters. An energy
//! travels as its bit pattern, so the parent compares the very `f64` the
//! rank computed rather than a decimal rendering of it. Member ranks
//! write theirs as a `name value` text file in the mesh's temp dir; rank 0
//! (in-process) hands its own over directly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub rank: usize,
    vals: BTreeMap<String, u64>,
}

impl Fragment {
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            vals: BTreeMap::new(),
        }
    }

    /// Add `v` to counter `name` (created at zero).
    pub fn add(&mut self, name: &str, v: u64) {
        *self.vals.entry(name.to_string()).or_insert(0) += v;
    }

    /// Overwrite counter `name` (the tests' way to break one value of a
    /// passing fixture).
    #[cfg(test)]
    pub fn set(&mut self, name: &str, v: u64) {
        self.vals.insert(name.to_string(), v);
    }

    /// Record an energy under `name`; ranks that are not their gang's
    /// leader have none and record nothing.
    pub fn add_energy(&mut self, name: &str, e: Option<f64>) {
        if let Some(e) = e {
            self.vals.insert(name.to_string(), e.to_bits());
        }
    }

    /// A counter this rank must have written. A gate reading a name no
    /// rank body records is a bug in this binary, and answering zero
    /// would turn every `== 0` gate on it into a pass.
    pub fn get(&self, name: &str) -> u64 {
        *self
            .vals
            .get(name)
            .unwrap_or_else(|| panic!("rank {}'s fragment has no counter `{name}`", self.rank))
    }

    pub fn energy(&self, name: &str) -> Option<f64> {
        self.vals.get(name).map(|&b| f64::from_bits(b))
    }

    fn path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank{rank}.txt"))
    }

    /// One `name value` line per counter, closed by `end <count>` so a
    /// file cut short (a rank killed mid-write) cannot parse.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (k, v) in &self.vals {
            text.push_str(&format!("{k} {v}\n"));
        }
        text.push_str(&format!("end {}\n", self.vals.len()));
        std::fs::write(Self::path(dir, self.rank), text)
    }

    pub fn read(dir: &Path, rank: usize) -> Result<Self, String> {
        let path = Self::path(dir, rank);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("rank {rank}'s fragment {}: {e}", path.display()))?;
        Self::parse(rank, &text)
    }

    fn parse(rank: usize, text: &str) -> Result<Self, String> {
        let mut f = Self::new(rank);
        let mut closed = false;
        for line in text.lines() {
            let bad = || format!("rank {rank}'s fragment: malformed line `{line}`");
            if closed {
                return Err(bad());
            }
            let (name, val) = line.split_once(' ').ok_or_else(bad)?;
            let val: u64 = val.parse().map_err(|_| bad())?;
            if name == "end" {
                closed = val == f.vals.len() as u64;
                if !closed {
                    return Err(bad());
                }
            } else if f.vals.insert(name.to_string(), val).is_some() {
                return Err(bad());
            }
        }
        if !closed || !text.ends_with('\n') {
            return Err(format!(
                "rank {rank}'s fragment is truncated ({} counters, no `end` line)",
                f.vals.len()
            ));
        }
        Ok(f)
    }
}

/// Counter `name` summed over ranks.
pub fn sum(frags: &[Fragment], name: &str) -> u64 {
    frags.iter().map(|f| f.get(name)).sum()
}

// ---- the three predicates every gate shares ---------------------------

/// A healthy mesh shows zero recovery activity: the retry/dedup machinery
/// must be pure bookkeeping, and its timers must never fire without
/// faults.
pub fn check_quiet(frags: &[Fragment]) -> Result<(), String> {
    let [timeouts, retries, dups] = ["timeouts", "retries", "dups"].map(|n| sum(frags, n));
    if timeouts + retries + dups != 0 {
        return Err(format!(
            "healthy mesh showed recovery activity ({timeouts} timeouts, {retries} retries, \
             {dups} dups) — retry timers must never fire without faults"
        ));
    }
    Ok(())
}

/// The coherence gate: where `verify_reads` is armed, each cache hit was
/// compared against a fresh owner fetch, and anything that left a stale
/// block cached shows up here. Zero tolerance.
pub fn check_coherent(frags: &[Fragment]) -> Result<(), String> {
    match sum(frags, "stale_reads") {
        0 => Ok(()),
        stale => Err(format!("{stale} cached reads observed stale data")),
    }
}

/// `what`'s energy reproduces the single-process reference to 1e-12.
pub fn check_energy(what: &str, e_ref: f64, energy: Option<f64>) -> Result<(), String> {
    let e = energy.ok_or(format!("{what}: the gang leader must report an energy"))?;
    let d = tensor_kernels::rel_diff(e_ref, e);
    if d >= 1e-12 {
        return Err(format!("{what}: energy {e} vs reference {e_ref} ({d:.2e})"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_exact_down_to_the_energy_bits() {
        let dir = std::env::temp_dir().join(format!("mesh_gate_frag_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut f = Fragment::new(2);
        f.add("retries", 3);
        f.add("retries", 4);
        // A NaN with a payload is what a decimal rendering loses
        // (`{:.17e}` prints `NaN`, which parses back to a different bit
        // pattern); a poisoned run can produce one, and the gate must see
        // exactly what the rank computed.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        f.add_energy("energy", Some(nan));
        f.add_energy("absent", None);
        f.write(&dir).unwrap();
        let g = Fragment::read(&dir, 2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.energy("energy").unwrap().to_bits(), nan.to_bits());
        assert_eq!(g.energy("absent"), None);
        assert_eq!(sum(&[f, g], "retries"), 14);
    }

    #[test]
    #[should_panic(expected = "rank 3's fragment has no counter `stale_reeds`")]
    fn reading_a_counter_nobody_wrote_is_loud_not_zero() {
        let mut f = Fragment::new(3);
        f.add("stale_reads", 0);
        f.get("stale_reeds");
    }

    #[test]
    fn truncated_and_malformed_files_are_errors_naming_the_rank() {
        let whole = "retries 0\nstale_reads 0\nend 2\n";
        assert!(Fragment::parse(1, whole).is_ok());
        for cut in 0..whole.len() {
            let err = Fragment::parse(1, &whole[..cut]).unwrap_err();
            assert!(err.contains("rank 1's fragment"), "cut at {cut}: {err}");
        }
        let bad = "a\nend 0\n|a x\nend 1\n|a 1\na 2\nend 1\n|a 1\nend 1\nb 2\n|a 1\nend 2\n";
        for text in bad.split('|') {
            let err = Fragment::parse(1, text).unwrap_err();
            assert!(err.contains("malformed line"), "{text:?}: {err}");
        }
        let missing = Fragment::read(Path::new("/nonexistent-mesh-gate-dir"), 5).unwrap_err();
        assert!(missing.contains("rank 5's fragment"), "{missing}");
    }
}
