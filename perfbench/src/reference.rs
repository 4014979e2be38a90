//! Committed default-seed references and the comparison against them.
//!
//! `reference/ops.json` pins, per workload, organisation and sub-seed,
//! the simulated outputs of one operation (see [`crate::ops::OpResult::outputs`]);
//! `reference/sweep-grid.csv` pins the sweep CSV byte for byte, digest
//! column included. Only runs on [`DEFAULT_SEED`] are compared; other
//! seeds fall back to invariant checks.

use std::path::{Path, PathBuf};

use nistats::Json;

/// The seed the committed references were made with.
pub const DEFAULT_SEED: u64 = 1;

/// Where the references live, and their loaded contents.
#[derive(Debug, Clone)]
pub struct Reference {
    dir: PathBuf,
    ops: Option<Json>,
    sweep_csv: Option<String>,
}

impl Reference {
    /// An unloaded reference set in `dir`.
    pub fn new(dir: &Path) -> Reference {
        Reference {
            dir: dir.to_path_buf(),
            ops: None,
            sweep_csv: None,
        }
    }

    /// Path of the per-operation reference.
    pub fn ops_path(&self) -> PathBuf {
        self.dir.join("ops.json")
    }

    /// Path of the sweep CSV reference.
    pub fn sweep_path(&self) -> PathBuf {
        self.dir.join("sweep-grid.csv")
    }

    /// Reads and parses `ops.json`.
    ///
    /// # Panics
    ///
    /// If the file is missing or malformed: the benchmark cannot check
    /// its outputs without it.
    pub fn load_ops(&mut self) {
        let path = self.ops_path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        self.ops = Some(Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }

    /// Reads `sweep-grid.csv`.
    ///
    /// # Panics
    ///
    /// If the file cannot be read.
    pub fn load_sweep(&mut self) {
        let path = self.sweep_path();
        self.sweep_csv = Some(
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display())),
        );
    }

    /// Differences between `got` and the reference entry for sub-seed
    /// `sub` of `workload`/`org`, one line per differing field.
    pub fn op_mismatches(&self, workload: &str, org: &str, sub: usize, got: &Json) -> Vec<String> {
        let expected = self
            .ops
            .as_ref()
            .and_then(|r| r.get(workload))
            .and_then(|w| w.get(org))
            .and_then(Json::as_array)
            .and_then(|subs| subs.get(sub));
        mismatches(expected, got)
    }

    /// Indices of sweep rows that differ from the reference CSV (see
    /// [`row_mismatches`]).
    pub fn sweep_mismatches(&self, csv: &str) -> Vec<Option<usize>> {
        match &self.sweep_csv {
            Some(expected) => row_mismatches(expected, csv),
            None => vec![None],
        }
    }
}

/// Indices of the data rows of CSV `got` that differ from `expected`;
/// a differing header is reported as `None`.
pub fn row_mismatches(expected: &str, got: &str) -> Vec<Option<usize>> {
    let mut exp = expected.lines();
    let mut got = got.lines();
    let mut out = Vec::new();
    if exp.next() != got.next() {
        out.push(None);
    }
    let mut index = 0;
    loop {
        match (exp.next(), got.next()) {
            (None, None) => break,
            (e, g) if e == g => {}
            _ => out.push(Some(index)),
        }
        index += 1;
    }
    out
}

/// Field-by-field differences of two JSON objects (`expected` missing
/// means every field differs).
pub fn mismatches(expected: Option<&Json>, got: &Json) -> Vec<String> {
    let Json::Object(fields) = got else {
        return vec!["output is not an object".to_string()];
    };
    let Some(expected) = expected else {
        return vec!["no reference entry".to_string()];
    };
    let mut out = Vec::new();
    for (key, value) in fields {
        if expected.get(key) != Some(value) {
            out.push(format!("{key} differs from the reference"));
        }
    }
    if let Json::Object(exp_fields) = expected {
        for (key, _) in exp_fields {
            if got.get(key).is_none() {
                out.push(format!("{key} missing from the output"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_field_is_reported() {
        let got = Json::object(vec![
            ("delivered".to_string(), Json::UInt(10)),
            ("digest".to_string(), Json::Str("ab".to_string())),
        ]);
        assert!(mismatches(Some(&got), &got).is_empty());
        let changed = Json::object(vec![
            ("delivered".to_string(), Json::UInt(11)),
            ("digest".to_string(), Json::Str("ab".to_string())),
        ]);
        assert_eq!(
            mismatches(Some(&changed), &got),
            vec!["delivered differs from the reference".to_string()]
        );
        assert_eq!(mismatches(None, &got).len(), 1);
    }

    #[test]
    fn sweep_rows_are_attributed() {
        let expected = "h\na\nb\nc\n";
        assert!(row_mismatches(expected, "h\na\nb\nc\n").is_empty());
        assert_eq!(row_mismatches(expected, "h\na\nX\nc\n"), vec![Some(1)]);
        assert_eq!(row_mismatches(expected, "H\na\nb\n"), vec![None, Some(2)]);
    }
}
