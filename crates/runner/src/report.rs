//! Result artifacts: CSV rows and a merged JSON document.
//!
//! Every formatter here is a pure function of the records, with fixed
//! column order and fixed float precision — the artifact bytes are part
//! of the determinism contract (serial and parallel sweeps must produce
//! identical output, and CI diffs rows against a committed golden set).
//! Wall-clock timings therefore never appear in the artifact; the sweep
//! binary reports them on stderr only.

use nistats::Json;

use crate::point::PointRecord;
use crate::system::SYSTEM_CSV_HEADER;

/// The CSV header row (no trailing newline). The twelve `req_*`/`coh_*`/
/// `rsp_*` columns are the per-class latency summaries QoS sweeps and
/// `--check-bounds` consume.
pub const CSV_HEADER: &str = "index,org,pattern,injection,rate,radix,vc_depth,hpc,fault,sample,\
     seed,status,attempts,injected,delivered,undrained,avg_latency,p50,p95,p99,max_latency,\
     avg_hops,throughput,req_p50,req_p95,req_p99,req_max,coh_p50,coh_p95,coh_p99,coh_max,\
     rsp_p50,rsp_p95,rsp_p99,rsp_max,reliability,retransmits,duplicates_suppressed,\
     escalations,digest";

/// Fixed-precision float formatting shared by the CSV and JSON writers.
fn fmt_f64(v: f64) -> String {
    format!("{v:.6}")
}

/// Formats one record as a CSV row (no trailing newline); a workload
/// point's row continues with the [`SYSTEM_CSV_HEADER`] columns.
pub fn csv_row(r: &PointRecord) -> String {
    let classes: Vec<String> = r
        .classes
        .iter()
        .map(|c| format!("{},{},{},{}", c.p50, c.p95, c.p99, c.max))
        .collect();
    let mut row = format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.index,
        r.org,
        r.pattern,
        r.injection,
        fmt_f64(r.rate),
        r.radix,
        r.vc_depth,
        r.hpc,
        r.fault,
        r.sample,
        r.seed,
        r.status,
        r.attempts,
        r.injected,
        r.delivered,
        r.undrained,
        fmt_f64(r.avg_latency),
        r.p50,
        r.p95,
        r.p99,
        r.max_latency,
        fmt_f64(r.avg_hops),
        fmt_f64(r.throughput),
        classes.join(","),
        r.reliability,
        r.retransmits,
        r.duplicates_suppressed,
        r.escalations,
        r.digest,
    );
    if let Some(sys) = &r.system {
        row.push_str(&format!(
            ",{},{},{}",
            sys.workload,
            sys.system,
            fmt_f64(sys.ipc)
        ));
        for c in sys.counters {
            row.push_str(&format!(",{c}"));
        }
    }
    row
}

/// Row counts by status family — the one-line health summary a sweep
/// prints to stderr (never into the artifacts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Rows with status `ok`.
    pub ok: usize,
    /// Rows with a `failed(...)` status (bad config, panic).
    pub failed: usize,
    /// Rows with a `timeout(...)` status (cycle/wall budget, cancel).
    pub timeout: usize,
    /// Rows with a `poisoned(...)` status (quarantined worker-killers).
    pub poisoned: usize,
}

/// Tallies records into [`StatusCounts`]. A status outside the four
/// known families counts as `failed` — an unknown status is not a
/// healthy row, and silently dropping it would make the summary lie.
pub fn status_counts(records: &[PointRecord]) -> StatusCounts {
    let mut c = StatusCounts::default();
    for r in records {
        if r.status == "ok" {
            c.ok += 1;
        } else if r.status.starts_with("timeout(") {
            c.timeout += 1;
        } else if r.status.starts_with("poisoned(") {
            c.poisoned += 1;
        } else {
            c.failed += 1;
        }
    }
    c
}

/// Formats all records as a CSV document (header + one row per record,
/// trailing newline). The header gains the [`SYSTEM_CSV_HEADER`]
/// columns when the rows are workload points.
pub fn to_csv(records: &[PointRecord]) -> String {
    let mut out = String::with_capacity((records.len() + 1) * 96);
    out.push_str(CSV_HEADER);
    if records.first().is_some_and(|r| r.system.is_some()) {
        out.push(',');
        out.push_str(SYSTEM_CSV_HEADER);
    }
    out.push('\n');
    for r in records {
        out.push_str(&csv_row(r));
        out.push('\n');
    }
    out
}

/// Builds the merged JSON artifact (the `BENCH_*.json` convention: a
/// single object with a label and machine-readable result rows).
pub fn to_json(sweep: &str, records: &[PointRecord]) -> Json {
    let points = records
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("index".to_string(), Json::UInt(r.index as u64)),
                ("org".to_string(), Json::from(r.org.as_str())),
                ("pattern".to_string(), Json::from(r.pattern.as_str())),
                ("injection".to_string(), Json::from(r.injection.as_str())),
                ("rate".to_string(), Json::Float(r.rate)),
                ("radix".to_string(), Json::UInt(u64::from(r.radix))),
                ("vc_depth".to_string(), Json::UInt(u64::from(r.vc_depth))),
                ("hpc".to_string(), Json::UInt(u64::from(r.hpc))),
                ("fault".to_string(), Json::from(r.fault.as_str())),
                ("sample".to_string(), Json::UInt(u64::from(r.sample))),
                ("seed".to_string(), Json::UInt(r.seed)),
                ("status".to_string(), Json::from(r.status.as_str())),
                ("attempts".to_string(), Json::UInt(u64::from(r.attempts))),
                ("injected".to_string(), Json::UInt(r.injected)),
                ("delivered".to_string(), Json::UInt(r.delivered)),
                ("undrained".to_string(), Json::UInt(r.undrained)),
                ("avg_latency".to_string(), Json::Float(r.avg_latency)),
                ("p50".to_string(), Json::UInt(r.p50)),
                ("p95".to_string(), Json::UInt(r.p95)),
                ("p99".to_string(), Json::UInt(r.p99)),
                ("max_latency".to_string(), Json::UInt(r.max_latency)),
                ("avg_hops".to_string(), Json::Float(r.avg_hops)),
                ("throughput".to_string(), Json::Float(r.throughput)),
                (
                    "classes".to_string(),
                    Json::Array(
                        r.classes
                            .iter()
                            .map(|c| {
                                Json::object(vec![
                                    ("p50".to_string(), Json::UInt(c.p50)),
                                    ("p95".to_string(), Json::UInt(c.p95)),
                                    ("p99".to_string(), Json::UInt(c.p99)),
                                    ("max".to_string(), Json::UInt(c.max)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "reliability".to_string(),
                    Json::from(r.reliability.as_str()),
                ),
                ("retransmits".to_string(), Json::UInt(r.retransmits)),
                (
                    "duplicates_suppressed".to_string(),
                    Json::UInt(r.duplicates_suppressed),
                ),
                ("escalations".to_string(), Json::UInt(r.escalations)),
                ("digest".to_string(), Json::from(r.digest.as_str())),
            ];
            if let Some(sys) = &r.system {
                fields.push(("system".to_string(), sys.to_json()));
            }
            Json::object(fields)
        })
        .collect();
    Json::object(vec![
        ("sweep".to_string(), Json::from(sweep)),
        ("points".to_string(), Json::Array(points)),
    ])
}

/// The first point of divergence between two CSV documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvDivergence {
    /// 1-based line number (line 1 is the header).
    pub line: usize,
    /// Column name from the header, or `"<line>"` when one document
    /// ends early or the rows have different arity.
    pub column: String,
    /// The expected cell (golden side), or the whole missing line.
    pub expected: String,
    /// The actual cell, or the whole unexpected line.
    pub got: String,
}

impl std::fmt::Display for CsvDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at line {}, column {}:",
            self.line, self.column
        )?;
        writeln!(f, "  expected: {}", self.expected)?;
        write!(f, "  got:      {}", self.got)
    }
}

/// Compares two CSV documents and returns the first cell-level
/// divergence, or `None` when they are identical. Used by
/// `sweep --check-golden` to say *where* a golden mismatch starts
/// instead of just that one exists.
pub fn diff_csv(expected: &str, got: &str) -> Option<CsvDivergence> {
    let header: Vec<&str> = expected.lines().next().unwrap_or("").split(',').collect();
    let mut exp_lines = expected.lines();
    let mut got_lines = got.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (exp_lines.next(), got_lines.next()) {
            (None, None) => return None,
            (Some(e), None) => {
                return Some(CsvDivergence {
                    line: line_no,
                    column: "<line>".to_string(),
                    expected: e.to_string(),
                    got: "<missing line>".to_string(),
                })
            }
            (None, Some(g)) => {
                return Some(CsvDivergence {
                    line: line_no,
                    column: "<line>".to_string(),
                    expected: "<end of document>".to_string(),
                    got: g.to_string(),
                })
            }
            (Some(e), Some(g)) => {
                if e == g {
                    continue;
                }
                let e_cells: Vec<&str> = e.split(',').collect();
                let g_cells: Vec<&str> = g.split(',').collect();
                if e_cells.len() != g_cells.len() {
                    return Some(CsvDivergence {
                        line: line_no,
                        column: "<line>".to_string(),
                        expected: e.to_string(),
                        got: g.to_string(),
                    });
                }
                for (col, (ec, gc)) in e_cells.iter().zip(&g_cells).enumerate() {
                    if ec != gc {
                        return Some(CsvDivergence {
                            line: line_no,
                            column: header.get(col).unwrap_or(&"<line>").to_string(),
                            expected: (*ec).to_string(),
                            got: (*gc).to_string(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::Organization;
    use crate::spec::SweepSpec;

    fn sample_record() -> PointRecord {
        let p = SweepSpec::new("t")
            .orgs(&[Organization::Mesh])
            .points()
            .remove(0);
        p.failed_record("boom, with comma")
    }

    #[test]
    fn header_and_rows_have_matching_arity() {
        let rec = sample_record();
        let cols = CSV_HEADER.split(',').count();
        assert_eq!(csv_row(&rec).split(',').count(), cols);
        let csv = to_csv(&[rec.clone(), rec]);
        assert_eq!(csv.lines().count(), 3);
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
    }

    #[test]
    fn failure_messages_cannot_break_the_csv() {
        let rec = sample_record();
        assert!(rec.status.contains("boom; with comma"), "{}", rec.status);
    }

    #[test]
    fn diff_csv_pinpoints_the_first_divergent_cell() {
        let rec = sample_record();
        let mut other = rec.clone();
        other.delivered = 7;
        let a = to_csv(std::slice::from_ref(&rec));
        let b = to_csv(&[other]);
        let d = diff_csv(&a, &b).expect("documents differ");
        assert_eq!(d.line, 2);
        assert_eq!(d.column, "delivered");
        assert_eq!(d.expected, "0");
        assert_eq!(d.got, "7");
        assert!(d.to_string().contains("line 2, column delivered"));
        assert_eq!(diff_csv(&a, &a), None);
    }

    #[test]
    fn diff_csv_reports_missing_and_extra_lines() {
        let rec = sample_record();
        let one = to_csv(std::slice::from_ref(&rec));
        let two = to_csv(&[rec.clone(), rec]);
        let d = diff_csv(&two, &one).expect("short document diverges");
        assert_eq!((d.line, d.column.as_str()), (3, "<line>"));
        assert_eq!(d.got, "<missing line>");
        let d = diff_csv(&one, &two).expect("long document diverges");
        assert_eq!(d.expected, "<end of document>");
    }

    #[test]
    fn json_artifact_shape() {
        let rec = sample_record();
        let doc = to_json("smoke", &[rec]);
        assert_eq!(doc.get("sweep").and_then(Json::as_str), Some("smoke"));
        let points = doc.get("points").and_then(Json::as_array).expect("points");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("org").and_then(Json::as_str), Some("mesh"));
        // Round-trips through the parser.
        let text = doc.to_string_pretty(2);
        let back = Json::parse(&text).expect("self-produced JSON parses");
        assert_eq!(back.get("sweep").and_then(Json::as_str), Some("smoke"));
    }
}
