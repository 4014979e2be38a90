//! The `sweep-grid` operation set: one in-process sweep of the spec in
//! `sweep-grid.json`, journaled point by point as `sweep --csv-out` does.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use runner::{
    run_point_full, run_points_full_with, to_csv, JournalHeader, JournalWriter, PointRecord,
    SweepSpec,
};

use crate::trace::{SharedTrace, Span};

/// Pool threads (the benchmark host has two cores).
pub const THREADS: usize = 2;

/// One sweep, start to finish.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Host seconds to read and expand the spec, load the reference and
    /// create the journal.
    pub setup_s: f64,
    /// Host seconds of the pool: first point started to last journaled.
    pub pool_s: f64,
    /// Host seconds `SweepSpec::from_json_str` + `SweepSpec::points` took.
    pub expand_s: f64,
    /// Host seconds `to_csv` took.
    pub report_s: f64,
    /// Host nanoseconds of each `run_point_full` call, by point index.
    pub point_ns: Vec<u64>,
    /// Simulated warm-up + measured cycles of each point.
    pub point_cycles: Vec<u64>,
    /// The point rows, in grid order.
    pub records: Vec<PointRecord>,
    /// The sweep CSV.
    pub csv: String,
    /// A journal append or create failure, if any.
    pub journal_error: Option<String>,
}

fn span<R>(trace: Option<&SharedTrace>, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => crate::trace::Tracer::span(t, name, id, f),
        None => f(),
    }
}

/// Runs the sweep in `spec_text` with `base_seed`, journaling to
/// `journal`. `before_setup` runs first, inside the set-up time (the
/// caller loads its reference there).
pub fn run_sweep(
    spec_text: &str,
    base_seed: u64,
    journal: &Path,
    trace: Option<&SharedTrace>,
    before_setup: impl FnOnce(),
) -> SweepRun {
    let start = Instant::now();
    before_setup();
    let expand_start = Instant::now();
    let mut spec = span(trace, "SweepSpec::from_json_str", 0, || {
        SweepSpec::from_json_str(spec_text)
    })
    .expect("the committed sweep spec parses");
    spec.base_seed = base_seed;
    let points = span(trace, "SweepSpec::points", 0, || spec.points());
    let expand_s = expand_start.elapsed().as_secs_f64();
    let header = JournalHeader {
        spec_hash: spec.spec_hash(),
        base_seed: spec.base_seed,
        count: points.len(),
        name: spec.name.clone(),
    };
    let path = journal.to_string_lossy();
    let mut journal_error = None;
    let mut writer = match JournalWriter::create(&path, &header) {
        Ok(w) => Some(w),
        Err(e) => {
            journal_error = Some(e.to_string());
            None
        }
    };
    let setup_s = start.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let since = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    // Written by pool workers, read after the pool has joined them.
    let starts: Vec<AtomicU64> = points.iter().map(|_| AtomicU64::new(0)).collect();
    let ends: Vec<AtomicU64> = points.iter().map(|_| AtomicU64::new(0)).collect();
    let outcomes = span(trace, "run_points_full_with", 0, || {
        run_points_full_with(
            &points,
            THREADS,
            |i| {
                starts[i].store(since(Instant::now()), Ordering::Relaxed);
                let out = run_point_full(&points[i]);
                ends[i].store(since(Instant::now()), Ordering::Relaxed);
                out
            },
            |i, outcome, _, _| {
                if let Some(w) = writer.as_mut() {
                    let appended = span(trace, "JournalWriter::append", i as u64, || {
                        w.append(outcome)
                    });
                    if let Err(e) = appended {
                        journal_error.get_or_insert(e.to_string());
                    }
                }
            },
        )
    });
    let pool_s = epoch.elapsed().as_secs_f64();
    if let Some(t) = trace {
        // The worker threads' calls are children of the pool span.
        let mut t = t.borrow_mut();
        let parent = t
            .spans()
            .iter()
            .rposition(|s| s.name == "run_points_full_with");
        let offset = t.now_ns() - since(Instant::now());
        for i in 0..points.len() {
            t.push(Span {
                name: "run_point_full",
                start_ns: offset + starts[i].load(Ordering::Relaxed),
                end_ns: offset + ends[i].load(Ordering::Relaxed),
                parent,
                id: i as u64,
            });
        }
    }
    let records: Vec<PointRecord> = outcomes.into_iter().map(|o| o.record).collect();
    let report_start = Instant::now();
    let csv = span(trace, "to_csv", 0, || to_csv(&records));
    let report_s = report_start.elapsed().as_secs_f64();
    SweepRun {
        setup_s,
        pool_s,
        expand_s,
        report_s,
        point_ns: starts
            .iter()
            .zip(&ends)
            .map(|(s, e)| e.load(Ordering::Relaxed) - s.load(Ordering::Relaxed))
            .collect(),
        point_cycles: points.iter().map(|p| p.warmup + p.measure).collect(),
        records,
        csv,
        journal_error,
    }
}

/// Per-point failures: non-`ok` status or packets left undrained.
pub fn point_problems(r: &PointRecord) -> Vec<String> {
    let mut out = Vec::new();
    if r.status != "ok" {
        out.push(format!("status {}", r.status));
    }
    if r.undrained > 0 {
        out.push(format!("{} packet(s) left undrained", r.undrained));
    }
    out
}
