//! `perfbench` — the repository's benchmark: simulator speed and model
//! outputs end to end, and per layer from an outside-in trace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload noc-uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each per-layer metric should move.

mod metrics;
mod ops;
mod reference;
mod sweep;
mod trace;

#[cfg(test)]
mod tests;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use nistats::Json;

use metrics::{end_to_end, median, peak_rss_mb, per_layer, LayerAgg, Metrics, SweepAgg};
use ops::{run_op, Kind, OpResult, Org};
use reference::{row_mismatches, Reference, DEFAULT_SEED};
use sweep::{point_problems, run_sweep, SweepRun};
use trace::{SharedTrace, Span, Trace};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["noc-uniform", "sys-media", "sweep-grid"];

/// Sub-seeds per run: repetitions cycle through this many inputs derived
/// from `--seed`, and every run makes at least this many repetitions.
pub const SUB_SEEDS: usize = 4;

const USAGE: &str = "\
usage: perfbench --workload <noc-uniform|sys-media|sweep-grid> [--seed N] [--seconds S]
                 [--trace 0|1] [--reference-dir DIR] [--write-reference]

  --seed N            workload seed [1]; only seed 1 is compared with the
                      committed references, other seeds check invariants.
                      Seed 2017 is held out for confirming claims.
  --seconds S         host seconds to measure for [10]
  --trace 0|1         1: traced run, prints the per-layer metrics [0]
  --reference-dir DIR default-seed references [perfbench/reference]
  --write-reference   regenerate the references (seed 1 only)";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_dir: PathBuf,
    write_reference: bool,
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Run outputs (journal, spans) go beside the benchmark, never into it.
fn out_dir() -> PathBuf {
    manifest_dir().join("../.bench_out")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference_dir: manifest_dir().join("reference"),
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--reference-dir" => args.reference_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) && !args.write_reference {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Operation accounting: every operation is attempted once and fails on
/// a panic, an invariant violation, or a reference mismatch.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; it failed when `problems` is non-empty.
    pub fn record(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("FAILED {label}: {}", problems.join("; ")));
        }
    }
}

/// The seed of sub-seed `sub` of a run with seed `seed`. Repetitions
/// cycle through [`SUB_SEEDS`] inputs so that the simulated metrics pool
/// several independent runs.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    runner::derive_seed(seed, sub as u64, 0)
}

/// A run's operations: the checks they get, their tally, and the outputs
/// of the first run of each (workload, organisation, sub-seed), which
/// every later run of it must reproduce.
#[derive(Debug)]
pub struct Session {
    /// Workload seed.
    pub seed: u64,
    /// Compare with the committed references (default seed only).
    pub compare: bool,
    /// Reference directory.
    pub reference_dir: PathBuf,
    /// Operations so far.
    pub tally: Tally,
    firsts: BTreeMap<(&'static str, &'static str, usize), Json>,
    first_csv: Option<String>,
}

impl Session {
    /// A session for `seed`, checking against the references in `dir`.
    pub fn new(seed: u64, dir: &Path) -> Session {
        Session {
            seed,
            compare: seed == DEFAULT_SEED,
            reference_dir: dir.to_path_buf(),
            tally: Tally::default(),
            firsts: BTreeMap::new(),
            first_csv: None,
        }
    }

    /// Runs sub-seed `sub` of `kind` on `org` under `catch_unwind` and
    /// checks it: invariants, equality with the first run of the same
    /// sub-seed (repetitions and traced runs must reproduce it), and the
    /// reference when comparing. Returns the result unless it panicked.
    pub fn op(
        &mut self,
        kind: Kind,
        org: Org,
        sub: usize,
        trace: Option<&SharedTrace>,
    ) -> Option<OpResult> {
        let label = format!(
            "{} {} sub-seed {sub}{}",
            kind.name(),
            org.key(),
            if trace.is_some() { " (traced)" } else { "" }
        );
        let mut reference = Reference::new(&self.reference_dir);
        let seed = sub_seed(self.seed, sub);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_op(kind, org, seed, trace, || reference.load_ops())
        }));
        let r = match run {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                self.tally.record(&label, &[format!("panicked: {msg}")]);
                return None;
            }
        };
        let outputs = r.outputs();
        let mut problems = r.invariant_problems();
        match self.firsts.get(&(kind.name(), org.key(), sub)) {
            Some(first) if *first != outputs => {
                problems.push("simulated outputs differ from the first run of this seed".into());
            }
            Some(_) => {}
            None => {
                self.firsts
                    .insert((kind.name(), org.key(), sub), outputs.clone());
            }
        }
        if self.compare {
            problems.extend(reference.op_mismatches(kind.name(), org.key(), sub, &outputs));
        }
        self.tally.record(&label, &problems);
        Some(r)
    }

    /// Runs one sweep and checks every point: status `ok`, drained, the
    /// journal written, rows equal to the first sweep of the run and,
    /// when comparing, to the reference CSV.
    pub fn sweep(&mut self, spec_text: &str, trace: Option<&SharedTrace>) -> Option<SweepRun> {
        let mut reference = Reference::new(&self.reference_dir);
        let journal = out_dir().join("sweep-grid.ckpt");
        let seed = self.seed;
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_sweep(spec_text, seed, &journal, trace, || reference.load_sweep())
        }));
        let Ok(run) = run else {
            self.tally
                .record("sweep-grid sweep", &["panicked".to_string()]);
            return None;
        };
        let mut row_problems: Vec<(Option<usize>, &str)> = Vec::new();
        match &self.first_csv {
            Some(first) => {
                for row in row_mismatches(first, &run.csv) {
                    row_problems.push((row, "row differs from the first sweep of this seed"));
                }
            }
            None => self.first_csv = Some(run.csv.clone()),
        }
        if self.compare {
            for row in reference.sweep_mismatches(&run.csv) {
                row_problems.push((row, "row differs from the reference"));
            }
        }
        for rec in &run.records {
            let mut problems = point_problems(rec);
            if let Some(e) = &run.journal_error {
                problems.push(format!("journal: {e}"));
            }
            for (row, what) in &row_problems {
                if row.is_none_or(|r| r == rec.index) {
                    problems.push((*what).to_string());
                }
            }
            self.tally
                .record(&format!("sweep-grid point {}", rec.index), &problems);
        }
        Some(run)
    }

    /// One full-system operation per organisation and sub-seed: the
    /// model probe `noc-uniform` and `sweep-grid` take IPC (and, for
    /// `sweep-grid`, latency) from.
    fn probe(&mut self) -> Vec<OpResult> {
        let mut out = Vec::new();
        for sub in 0..SUB_SEEDS {
            for org in Org::BOTH {
                out.extend(self.op(Kind::SysMedia, org, sub, None));
            }
        }
        out
    }
}

/// Alternates the organisations' order every repetition so slow drift
/// on the host does not favour one of them.
fn order(rep: usize) -> [Org; 2] {
    if rep.is_multiple_of(2) {
        Org::BOTH
    } else {
        [Org::MeshPra, Org::Mesh]
    }
}

fn spec_text() -> Result<String, String> {
    let path = manifest_dir().join("sweep-grid.json");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn new_trace() -> SharedTrace {
    Rc::new(RefCell::new(Trace::new()))
}

/// Repeats until `seconds` have passed and every sub-seed has run.
fn keep_going(start: Instant, rep: usize, seconds: f64) -> bool {
    rep < SUB_SEEDS || start.elapsed().as_secs_f64() < seconds
}

/// An untraced run of `noc-uniform` or `sys-media`: the end-to-end metrics.
fn measure_ops(kind: Kind, seconds: f64, session: &mut Session) -> Metrics {
    let probe = if kind == Kind::NocUniform {
        session.probe()
    } else {
        Vec::new()
    };
    let mut runs: [Vec<OpResult>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut rep = 0;
    while keep_going(start, rep, seconds) {
        for org in order(rep) {
            runs[org as usize].extend(session.op(kind, org, rep % SUB_SEEDS, None));
        }
        rep += 1;
    }
    end_to_end::from_ops(&runs, &probe)
}

/// An untraced run of `sweep-grid`: the end-to-end metrics.
fn measure_sweeps(seconds: f64, session: &mut Session) -> Result<Metrics, String> {
    let spec = spec_text()?;
    let probe = session.probe();
    let mut runs: Vec<SweepRun> = Vec::new();
    let start = Instant::now();
    let mut rep = 0;
    while keep_going(start, rep, seconds) {
        runs.extend(session.sweep(&spec, None));
        rep += 1;
    }
    if runs.is_empty() {
        return Err("every sweep panicked".to_string());
    }
    Ok(end_to_end::from_sweeps(&runs, &probe))
}

/// Spans of the last traced operations, by section name.
type Sections = Vec<(String, Vec<Span>)>;

/// A traced run of `noc-uniform` or `sys-media`: untraced and traced
/// operations alternate; the per-layer metrics come from the traced ones.
fn trace_ops(kind: Kind, seconds: f64, session: &mut Session) -> (Metrics, Sections) {
    let mut untraced: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut aggs = [LayerAgg::default(), LayerAgg::default()];
    let mut last_spans: [Vec<Span>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut rep = 0;
    while keep_going(start, rep, seconds) {
        let sub = rep % SUB_SEEDS;
        for org in order(rep) {
            let i = org as usize;
            if let Some(r) = session.op(kind, org, sub, None) {
                untraced[i].push(r.host_s);
            }
            let t = new_trace();
            if let Some(r) = session.op(kind, org, sub, Some(&t)) {
                traced[i].push(r.host_s);
                let spans = t.borrow().spans().to_vec();
                aggs[i].add(&r, &spans, sub == 0);
                last_spans[i] = spans;
            }
        }
        rep += 1;
    }
    let base: f64 = untraced.iter().map(|v| median(v)).sum();
    let with: f64 = traced.iter().map(|v| median(v)).sum();
    let metrics = per_layer::from_ops(kind, &aggs, with / base - 1.0);
    let sections = Org::BOTH
        .into_iter()
        .map(|o| {
            let spans = std::mem::take(&mut last_spans[o as usize]);
            (format!("{}.{}", kind.name(), o.key()), spans)
        })
        .collect();
    (metrics, sections)
}

/// A traced run of `sweep-grid`.
fn trace_sweeps(seconds: f64, session: &mut Session) -> Result<(Metrics, Sections), String> {
    let spec = spec_text()?;
    let mut untraced: Vec<f64> = Vec::new();
    let mut agg = SweepAgg::default();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    let mut rep = 0;
    while keep_going(start, rep, seconds) {
        if let Some(r) = session.sweep(&spec, None) {
            untraced.push(r.pool_s);
        }
        let t = new_trace();
        if let Some(r) = session.sweep(&spec, Some(&t)) {
            let spans = t.borrow().spans().to_vec();
            agg.add(&r, &spans);
            last_spans = spans;
        }
        rep += 1;
    }
    if untraced.is_empty() || agg.pool_s.is_empty() {
        return Err("every sweep panicked".to_string());
    }
    let overhead = median(&agg.pool_s) / median(&untraced) - 1.0;
    let sections = vec![("sweep-grid".to_string(), last_spans)];
    Ok((per_layer::from_sweeps(&agg, overhead), sections))
}

fn write_reference(args: &Args) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Err(format!("references are made with --seed {DEFAULT_SEED}"));
    }
    let mut tally = Tally::default();
    let mut fields = Vec::new();
    for kind in [Kind::NocUniform, Kind::SysMedia] {
        let mut orgs = Vec::new();
        for org in Org::BOTH {
            let mut subs = Vec::new();
            for sub in 0..SUB_SEEDS {
                let seed = sub_seed(args.seed, sub);
                let r = catch_unwind(|| run_op(kind, org, seed, None, || ()))
                    .map_err(|_| format!("{} {} panicked", kind.name(), org.key()))?;
                tally.record(kind.name(), &r.invariant_problems());
                subs.push(r.outputs());
            }
            orgs.push((org.key().to_string(), Json::Array(subs)));
        }
        fields.push((kind.name().to_string(), Json::object(orgs)));
    }
    let spec = spec_text()?;
    let journal = out_dir().join("sweep-grid.ckpt");
    let run = run_sweep(&spec, args.seed, &journal, None, || ());
    for rec in &run.records {
        tally.record("sweep-grid", &point_problems(rec));
    }
    if tally.failed > 0 {
        return Err(format!(
            "not writing references: {}",
            tally.failures.join("\n")
        ));
    }
    let reference = Reference::new(&args.reference_dir);
    std::fs::create_dir_all(&args.reference_dir).map_err(|e| e.to_string())?;
    std::fs::write(
        reference.ops_path(),
        Json::object(fields).to_string_pretty(1),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(reference.sweep_path(), &run.csv).map_err(|e| e.to_string())?;
    println!("references written to {}", args.reference_dir.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    if args.write_reference {
        return match write_reference(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut session = Session::new(args.seed, &args.reference_dir);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    if session.compare {
        println!(
            "correctness: default seed; outputs compared with {}",
            session.reference_dir.display()
        );
    } else {
        println!(
            "correctness: seed {} is not the default ({DEFAULT_SEED}); checked invariants only \
             (watchdog quiet, fully drained, all rows ok, repeated runs identical)",
            args.seed
        );
    }
    let kind = match args.workload.as_str() {
        "noc-uniform" => Some(Kind::NocUniform),
        "sys-media" => Some(Kind::SysMedia),
        _ => None,
    };
    let s = args.seconds;
    let outcome = match (kind, args.trace) {
        (Some(k), false) => Ok((measure_ops(k, s, &mut session), Vec::new())),
        (None, false) => measure_sweeps(s, &mut session).map(|m| (m, Vec::new())),
        (Some(k), true) => Ok(trace_ops(k, s, &mut session)),
        (None, true) => trace_sweeps(s, &mut session),
    };
    let (mut metrics, sections) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        metrics.set("peak_rss_mb", peak_rss_mb());
    }
    if !sections.is_empty() {
        let path = out_dir().join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        let refs: Vec<(&str, &[Span])> = sections
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_slice()))
            .collect();
        match trace::write_spans(&path, &refs) {
            Ok(()) => println!(
                "spans of the last traced operations written to {}",
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let tally = &session.tally;
    for line in &tally.failures {
        println!("{line}");
    }
    metrics.print();
    println!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    let result = Json::object(vec![
        ("correct".to_string(), Json::Bool(tally.failed == 0)),
        ("attempted".to_string(), Json::UInt(tally.attempted)),
        ("failed".to_string(), Json::UInt(tally.failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    println!("{}", result.to_string());
    ExitCode::SUCCESS
}
