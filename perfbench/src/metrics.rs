//! The benchmark's metrics: their names and units, and how they are
//! computed from operation results and spans.

use niobs::SparseHistogram;
use nistats::Json;

use crate::ops::{Counts, Kind, OpResult, Org};
use crate::sweep::{SweepRun, THREADS};
use crate::trace::{add_layer_times, LayerTimes, Span};
use crate::SUB_SEEDS;

/// Named values with units, in reporting order.
#[derive(Debug, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, bool)>,
    /// Context printed before the values (sample counts, sources).
    pub notes: Vec<String>,
}

impl Metrics {
    /// Every metric of `names`, at zero and not yet measured.
    pub fn new(names: &[(String, &'static str)]) -> Metrics {
        Metrics {
            entries: names
                .iter()
                .map(|(n, u)| (n.clone(), 0.0, *u, false))
                .collect(),
            notes: Vec::new(),
        }
    }

    /// Sets a metric; a non-finite value (an empty ratio) stays at zero.
    ///
    /// # Panics
    ///
    /// If `name` is not a metric of this set.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a listed metric"));
        if value.is_finite() {
            entry.1 = value;
            entry.3 = true;
        } else {
            self.notes.push(format!("{name}: no samples"));
        }
    }

    /// Prints the notes and one `name = value unit` line per metric.
    pub fn print(&self) {
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit, set) in &self.entries {
            let tail = if *set {
                ""
            } else {
                "  (not exercised by this workload)"
            };
            println!("  {name:<36} = {value} {unit}{tail}");
        }
    }

    /// `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> Json {
        Json::object(
            self.entries
                .iter()
                .map(|(name, value, unit, _)| {
                    (
                        name.clone(),
                        Json::object(vec![
                            ("value".to_string(), Json::Float(*value)),
                            ("unit".to_string(), Json::from(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The end-to-end metrics, printed by every untraced run.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for org in Org::BOTH {
        out.push((format!("{}.sim_cycles_per_s", org.key()), "cycles/s"));
    }
    out.push(("sweep.points_per_s".to_string(), "1/s"));
    out.push(("setup_s".to_string(), "s"));
    out.push(("peak_rss_mb".to_string(), "MiB"));
    for org in Org::BOTH {
        out.push((format!("{}.latency_p50_cycles", org.key()), "cycles"));
        out.push((format!("{}.latency_p999_cycles", org.key()), "cycles"));
    }
    for org in Org::BOTH {
        out.push((format!("{}.ipc", org.key()), "instr/cycle"));
    }
    out
}

/// The per-layer metrics, printed by every traced run.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("traffic.tick_ns_per_cycle", "ns");
    add("noc.step_ns_p50", "ns");
    add("noc.step_ns_p99", "ns");
    for org in Org::BOTH {
        let o = org.key();
        add(&format!("noc.ns_per_flit_hop.{o}"), "ns");
        add(&format!("noc.flit_hops.{o}"), "count");
        add(&format!("noc.packets_delivered.{o}"), "count");
        add(&format!("noc.drain_ns_per_cycle.{o}"), "ns");
        add(&format!("noc.inject_ns_per_packet.{o}"), "ns");
    }
    add("noc.reserved_moves", "count");
    add("noc.wasted_reservations", "count");
    add("noc.reservation_use", "ratio");
    for name in [
        "step_ns_p50",
        "step_ns_p99",
        "control_ns_per_cycle",
        "announce_ns_per_call",
        "ns_per_segment",
    ] {
        add(&format!("pra.{name}"), "ns");
    }
    for name in [
        "ctrl_injected_llc",
        "ctrl_injected_lsd",
        "refused_at_ni",
        "segments_processed",
        "hops_preallocated",
    ] {
        add(&format!("pra.{name}"), "count");
    }
    for reason in DROP_REASONS {
        add(&format!("pra.drops.{reason}"), "count");
    }
    add("pra.hops_per_segment", "ratio");
    add("pra.ctrl_per_data_packet", "ratio");
    for org in Org::BOTH {
        let o = org.key();
        for (name, unit) in [
            ("self_ns_per_cycle", "ns"),
            ("step_ns_p50", "ns"),
            ("step_ns_p99", "ns"),
            ("instructions", "count"),
            ("ns_per_instruction", "ns"),
            ("injects", "count"),
            ("announces", "count"),
            ("outstanding_tx_p50", "count"),
            ("outstanding_tx_max", "count"),
        ] {
            add(&format!("sysmodel.{name}.{o}"), unit);
        }
    }
    for (name, unit) in [
        ("expand_ms", "ms"),
        ("point_ms_p50", "ms"),
        ("point_ms_p90", "ms"),
        ("journal_append_us_p50", "us"),
        ("journal_append_us_p99", "us"),
        ("pool_busy_frac", "ratio"),
        ("report_ms", "ms"),
        ("points_retried", "count"),
        ("points_not_ok", "count"),
    ] {
        add(&format!("runner.{name}"), unit);
    }
    add("trace_overhead_frac", "ratio");
    out
}

/// `PraStats::drops_by_reason` order (`pra::stats::DropReason`).
const DROP_REASONS: [&str; 6] = [
    "completed",
    "lag_exhausted",
    "allocation_failed",
    "conflict",
    "ni_busy",
    "fault",
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a histogram of whole-cycle latencies, reading
/// each bucket `l` as latencies spread evenly over `[l - 0.5, l + 0.5)`,
/// so that the value moves with the distribution instead of jumping by
/// whole cycles. Returns `(value, samples)`.
#[allow(clippy::cast_precision_loss)]
pub fn interpolated_percentile(hist: &[u64], q: f64) -> (f64, u64) {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return (f64::NAN, 0);
    }
    let target = q * total as f64;
    let mut below = 0u64;
    for (lat, &n) in hist.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= target {
            let within = (target - below as f64) / n as f64;
            return (lat as f64 - 0.5 + within, total);
        }
        below += n;
    }
    ((hist.len() - 1) as f64, total)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// End-to-end metrics from untraced runs.
pub mod end_to_end {
    use super::*;

    /// Latency percentiles over the pooled measured windows of `ops`.
    fn latency(m: &mut Metrics, ops: &[OpResult], source: &str) {
        for org in Org::BOTH {
            let mut hist: Vec<u64> = Vec::new();
            let mut n_ops = 0;
            for r in ops.iter().filter(|r| r.org == org) {
                hist.resize(hist.len().max(r.latency.len()), 0);
                for (h, n) in hist.iter_mut().zip(&r.latency) {
                    *h += n;
                }
                n_ops += 1;
            }
            let o = org.key();
            let (p50, n) = interpolated_percentile(&hist, 0.50);
            let (p999, _) = interpolated_percentile(&hist, 0.999);
            m.set(&format!("{o}.latency_p50_cycles"), p50);
            m.set(&format!("{o}.latency_p999_cycles"), p999);
            m.notes.push(format!(
                "{o} latency from {source}: {n} packets of {n_ops} runs, p50 {p50:.3}, p99.9 {p999:.3} cycles"
            ));
            if hist.last().is_some_and(|&n| n > 0) {
                m.notes.push(format!(
                    "{o}: latencies beyond the histogram's last bucket; p99.9 is a lower bound"
                ));
            }
        }
    }

    /// Mean IPC of the full-system runs among `ops`.
    fn ipc(m: &mut Metrics, ops: &[OpResult], source: &str) {
        for org in Org::BOTH {
            let ipcs: Vec<f64> = ops
                .iter()
                .filter(|r| r.org == org)
                .filter_map(|r| r.ipc)
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let mean = ipcs.iter().sum::<f64>() / ipcs.len() as f64;
            m.set(&format!("{}.ipc", org.key()), mean);
            m.notes.push(format!(
                "{}.ipc from {source}: mean of {} runs",
                org.key(),
                ipcs.len()
            ));
        }
    }

    /// `noc-uniform` / `sys-media`: `runs[org]` are the timed operations,
    /// whose first [`SUB_SEEDS`] give the latency (and, on `sys-media`,
    /// the IPC); `probe` holds the full-system runs `noc-uniform` takes
    /// IPC from.
    pub fn from_ops(runs: &[Vec<OpResult>; 2], probe: &[OpResult]) -> Metrics {
        let mut m = Metrics::new(&end_to_end_names());
        let mut setups = Vec::new();
        let mut op_s = 0.0;
        for rs in runs {
            let Some(first) = rs.first() else { continue };
            #[allow(clippy::cast_precision_loss)]
            let speeds: Vec<f64> = rs.iter().map(|r| r.sim_cycles as f64 / r.host_s).collect();
            let op_times: Vec<f64> = rs.iter().map(|r| r.setup_s + r.host_s).collect();
            m.set(
                &format!("{}.sim_cycles_per_s", first.org.key()),
                median(&speeds),
            );
            m.notes.push(format!(
                "{}: {} runs of {} simulated cycles, cycles/s min {:.0} max {:.0}",
                first.org.key(),
                rs.len(),
                first.sim_cycles,
                speeds.iter().copied().fold(f64::INFINITY, f64::min),
                speeds.iter().copied().fold(0.0, f64::max),
            ));
            op_s += median(&op_times);
            setups.extend(rs.iter().map(|r| r.setup_s));
        }
        // One operation of each organisation takes `op_s`.
        m.set("sweep.points_per_s", 2.0 / op_s);
        m.set("setup_s", median(&setups));
        let own: Vec<OpResult> = runs
            .iter()
            .flat_map(|r| r.iter().take(SUB_SEEDS).cloned())
            .collect();
        latency(&mut m, &own, "this workload");
        if probe.is_empty() {
            ipc(&mut m, &own, "this workload");
        } else {
            ipc(&mut m, probe, "the sys-media model probe");
        }
        m
    }

    /// `sweep-grid`: simulator speed over the Mesh and Mesh+PRA points,
    /// points/s through the pool; latency and IPC from the model probe.
    pub fn from_sweeps(runs: &[SweepRun], probe: &[OpResult]) -> Metrics {
        let mut m = Metrics::new(&end_to_end_names());
        for org in Org::BOTH {
            let speeds: Vec<f64> = runs
                .iter()
                .map(|run| {
                    let (mut cycles, mut ns) = (0u64, 0u64);
                    for (i, rec) in run.records.iter().enumerate() {
                        if rec.org == org.key() {
                            cycles += run.point_cycles[i];
                            ns += run.point_ns[i];
                        }
                    }
                    ratio(cycles, ns) * 1e9
                })
                .collect();
            m.set(&format!("{}.sim_cycles_per_s", org.key()), median(&speeds));
        }
        #[allow(clippy::cast_precision_loss)]
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| r.records.len() as f64 / r.pool_s)
            .collect();
        m.set("sweep.points_per_s", median(&rates));
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        m.set("setup_s", median(&setups));
        m.notes.push(format!(
            "{} sweeps of {} points on {THREADS} threads",
            runs.len(),
            runs.first().map_or(0, |r| r.records.len())
        ));
        latency(&mut m, probe, "the sys-media model probe");
        ipc(&mut m, probe, "the sys-media model probe");
        m
    }
}

/// Span and count totals of one organisation's traced operations.
#[derive(Debug, Default, Clone)]
pub struct LayerAgg {
    ops: u64,
    /// Simulated cycles from the window start to the end of the drain.
    cycles: u64,
    step: LayerTimes,
    drain: LayerTimes,
    inject: LayerTimes,
    announce: LayerTimes,
    tick: LayerTimes,
    system: LayerTimes,
    /// Work summed over every traced operation, for the time ratios.
    flit_hops: u64,
    instructions: u64,
    segments: u64,
    /// Counts of the `counted` operation, as reported.
    counts: Counts,
    announces: u64,
    outstanding: SparseHistogram,
}

impl LayerAgg {
    /// Adds one traced operation: spans from its measured window on.
    /// The reported counts are those of a `counted` operation (sub-seed
    /// 0), so they are the same in every run of a seed.
    pub fn add(&mut self, r: &OpResult, spans: &[Span], counted: bool) {
        let from = r.window_start;
        self.ops += 1;
        self.cycles += r.sim_cycles - from;
        add_layer_times(&mut self.step, spans, "Network::step", from);
        add_layer_times(&mut self.drain, spans, "Network::drain_delivered", from);
        add_layer_times(&mut self.inject, spans, "Network::inject", from);
        add_layer_times(&mut self.announce, spans, "Network::announce", from);
        add_layer_times(&mut self.tick, spans, "TrafficGen::tick", from);
        add_layer_times(&mut self.system, spans, "System::step", from);
        self.flit_hops += r.counts.flit_hops;
        self.instructions += r.counts.instructions;
        self.segments += r.counts.segments;
        if counted {
            let mut announces = LayerTimes::default();
            add_layer_times(&mut announces, spans, "Network::announce", from);
            self.announces = announces.calls;
            self.counts = r.counts.clone();
            self.outstanding = r.outstanding.clone();
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n as f64
}

#[allow(clippy::cast_precision_loss)]
fn pct(h: &SparseHistogram, q: f64) -> f64 {
    h.percentile(q).map_or(f64::NAN, |v| v as f64)
}

/// Per-layer metrics from traced runs.
pub mod per_layer {
    use super::*;

    /// `noc-uniform` / `sys-media`, from `aggs[org]`.
    pub fn from_ops(kind: Kind, aggs: &[LayerAgg; 2], overhead: f64) -> Metrics {
        let mut m = Metrics::new(&per_layer_names());
        let [mesh, pra] = aggs;
        if kind == Kind::NocUniform {
            let tick: u64 = aggs.iter().map(|a| a.tick.self_ns).sum();
            let cycles: u64 = aggs.iter().map(|a| a.cycles).sum();
            m.set("traffic.tick_ns_per_cycle", per(tick, cycles));
        }
        m.set("noc.step_ns_p50", pct(&mesh.step.hist, 0.50));
        m.set("noc.step_ns_p99", pct(&mesh.step.hist, 0.99));
        m.set("pra.step_ns_p50", pct(&pra.step.hist, 0.50));
        m.set("pra.step_ns_p99", pct(&pra.step.hist, 0.99));
        for (org, a) in Org::BOTH.into_iter().zip(aggs) {
            let o = org.key();
            let c = &a.counts;
            m.set(
                &format!("noc.ns_per_flit_hop.{o}"),
                per(a.step.total_ns, a.flit_hops),
            );
            m.set(&format!("noc.flit_hops.{o}"), c.flit_hops as f64);
            m.set(&format!("noc.packets_delivered.{o}"), c.delivered as f64);
            m.set(
                &format!("noc.drain_ns_per_cycle.{o}"),
                per(a.drain.total_ns, a.cycles),
            );
            m.set(
                &format!("noc.inject_ns_per_packet.{o}"),
                per(a.inject.total_ns, a.inject.calls),
            );
            if kind == Kind::SysMedia {
                let s = &a.system;
                m.set(
                    &format!("sysmodel.self_ns_per_cycle.{o}"),
                    per(s.self_ns, s.calls),
                );
                m.set(&format!("sysmodel.step_ns_p50.{o}"), pct(&s.hist, 0.50));
                m.set(&format!("sysmodel.step_ns_p99.{o}"), pct(&s.hist, 0.99));
                m.set(&format!("sysmodel.instructions.{o}"), c.instructions as f64);
                m.set(
                    &format!("sysmodel.ns_per_instruction.{o}"),
                    per(s.total_ns, a.instructions),
                );
                m.set(&format!("sysmodel.injects.{o}"), c.injected as f64);
                m.set(&format!("sysmodel.announces.{o}"), a.announces as f64);
                m.set(
                    &format!("sysmodel.outstanding_tx_p50.{o}"),
                    pct(&a.outstanding, 0.50),
                );
                m.set(
                    &format!("sysmodel.outstanding_tx_max.{o}"),
                    a.outstanding.max().map_or(f64::NAN, |v| v as f64),
                );
            }
        }
        let c = &pra.counts;
        m.set("noc.reserved_moves", c.reserved_moves as f64);
        m.set("noc.wasted_reservations", c.wasted_reservations as f64);
        m.set(
            "noc.reservation_use",
            ratio(c.reserved_moves, c.reserved_moves + c.wasted_reservations),
        );
        let control =
            per(pra.step.total_ns, pra.step.calls) - per(mesh.step.total_ns, mesh.step.calls);
        m.set("pra.control_ns_per_cycle", control);
        if pra.announce.calls > 0 {
            m.set(
                "pra.announce_ns_per_call",
                per(pra.announce.total_ns, pra.announce.calls),
            );
        }
        m.set(
            "pra.ns_per_segment",
            control * pra.cycles as f64 / pra.segments as f64,
        );
        m.set("pra.ctrl_injected_llc", c.ctrl_llc as f64);
        m.set("pra.ctrl_injected_lsd", c.ctrl_lsd as f64);
        m.set("pra.refused_at_ni", c.refused_at_ni as f64);
        m.set("pra.segments_processed", c.segments as f64);
        m.set("pra.hops_preallocated", c.hops_preallocated as f64);
        for (reason, n) in DROP_REASONS.iter().zip(c.drops) {
            m.set(&format!("pra.drops.{reason}"), n as f64);
        }
        m.set(
            "pra.hops_per_segment",
            ratio(c.hops_preallocated, c.segments),
        );
        m.set(
            "pra.ctrl_per_data_packet",
            ratio(c.ctrl_llc + c.ctrl_lsd, c.delivered),
        );
        m.set("trace_overhead_frac", overhead);
        m.notes.push(format!(
            "{} traced runs per organisation; spans from the measured window through the drain",
            mesh.ops
        ));
        m
    }

    /// `sweep-grid`, from the traced sweeps.
    pub fn from_sweeps(a: &SweepAgg, overhead: f64) -> Metrics {
        let mut m = Metrics::new(&per_layer_names());
        m.set("runner.expand_ms", median(&a.expand_s) * 1e3);
        m.set("runner.point_ms_p50", pct(&a.point_ns, 0.50) / 1e6);
        m.set("runner.point_ms_p90", pct(&a.point_ns, 0.90) / 1e6);
        m.set(
            "runner.journal_append_us_p50",
            pct(&a.append.hist, 0.50) / 1e3,
        );
        m.set(
            "runner.journal_append_us_p99",
            pct(&a.append.hist, 0.99) / 1e3,
        );
        let pool_ns = a.pool_s.iter().sum::<f64>() * 1e9;
        m.set(
            "runner.pool_busy_frac",
            a.busy_ns as f64 / (THREADS as f64 * pool_ns),
        );
        m.set("runner.report_ms", median(&a.report_s) * 1e3);
        m.set("runner.points_retried", a.retried as f64);
        m.set("runner.points_not_ok", a.not_ok as f64);
        m.set("trace_overhead_frac", overhead);
        m.notes.push(format!("{} traced sweeps", a.pool_s.len()));
        m
    }
}

/// Totals of the traced sweeps.
#[derive(Debug, Default, Clone)]
pub struct SweepAgg {
    /// Pool wall time of each traced sweep.
    pub pool_s: Vec<f64>,
    expand_s: Vec<f64>,
    report_s: Vec<f64>,
    point_ns: SparseHistogram,
    busy_ns: u64,
    append: LayerTimes,
    retried: u64,
    not_ok: u64,
}

impl SweepAgg {
    /// Adds one traced sweep.
    pub fn add(&mut self, r: &SweepRun, spans: &[Span]) {
        self.pool_s.push(r.pool_s);
        self.expand_s.push(r.expand_s);
        self.report_s.push(r.report_s);
        for &ns in &r.point_ns {
            self.point_ns.record(ns);
            self.busy_ns += ns;
        }
        add_layer_times(&mut self.append, spans, "JournalWriter::append", 0);
        self.retried = r.records.iter().filter(|p| p.attempts > 1).count() as u64;
        self.not_ok = r.records.iter().filter(|p| p.status != "ok").count() as u64;
    }
}
