//! The benchmark's operations: one organisation's run of `noc-uniform`
//! (synthetic traffic on the bare NoC) or of `sys-media` (the full
//! system on Media Streaming).
//!
//! Each operation is generic over the network and the [`Tracer`], so the
//! untraced runs that give the end-to-end metrics drive the network
//! directly, and the traced runs drive the same code through [`Timed`].
//!
//! [`Timed`]: crate::trace::Timed

use std::time::Instant;

use niobs::SparseHistogram;
use nistats::Json;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::traffic::{Pattern, TrafficGen};
use noc::watchdog::{Watchdog, WatchdogConfig};
use pra::network::PraNetwork;
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

use crate::trace::{Probe, SharedTrace, Timed, Tracer, Untraced};

/// Warm-up cycles before the measured window.
pub const WARMUP: u64 = 2_000;
/// Measured-window cycles.
pub const MEASURE: u64 = 10_000;
/// Cycles the network may take to drain once injection stops.
pub const DRAIN_BUDGET: u64 = 100_000;
/// `noc-uniform` offered load, packets/node/cycle.
pub const NOC_RATE: f64 = 0.06;

/// The two organisations the single-network workloads compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Org {
    /// Baseline mesh.
    Mesh,
    /// Mesh + proactive resource allocation.
    MeshPra,
}

impl Org {
    /// Both, in reporting order.
    pub const BOTH: [Org; 2] = [Org::Mesh, Org::MeshPra];

    /// The organisation's key, as in sweep specs and metric names.
    pub fn key(self) -> &'static str {
        match self {
            Org::Mesh => "mesh",
            Org::MeshPra => "mesh_pra",
        }
    }
}

/// Which single-network workload an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uniform-random `TrafficGen` traffic on the bare NoC.
    NocUniform,
    /// The full system running Media Streaming.
    SysMedia,
}

impl Kind {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NocUniform => "noc-uniform",
            Kind::SysMedia => "sys-media",
        }
    }
}

/// Work counters read from public statistics, so that deltas over the
/// measured window give the per-layer counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// `NetStats::link_traversals`.
    pub flit_hops: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// `NetStats::reserved_moves`.
    pub reserved_moves: u64,
    /// `NetStats::wasted_reservations`.
    pub wasted_reservations: u64,
    /// Committed instructions (full system only).
    pub instructions: u64,
    /// `PraStats::injected_llc`.
    pub ctrl_llc: u64,
    /// `PraStats::injected_lsd`.
    pub ctrl_lsd: u64,
    /// `PraStats::refused_at_ni`.
    pub refused_at_ni: u64,
    /// `PraStats::segments_processed`.
    pub segments: u64,
    /// `PraStats::hops_preallocated`.
    pub hops_preallocated: u64,
    /// `PraStats::drops_by_reason`.
    pub drops: [u64; 6],
}

impl Counts {
    fn of<N: Probe>(net: &N, instructions: u64) -> Counts {
        let s = net.stats();
        let mut c = Counts {
            flit_hops: s.link_traversals,
            injected: s.injected(),
            delivered: s.delivered(),
            reserved_moves: s.reserved_moves,
            wasted_reservations: s.wasted_reservations,
            instructions,
            ..Counts::default()
        };
        if let Some(p) = net.pra_stats() {
            c.ctrl_llc = p.injected_llc;
            c.ctrl_lsd = p.injected_lsd;
            c.refused_at_ni = p.refused_at_ni;
            c.segments = p.segments_processed;
            c.hops_preallocated = p.hops_preallocated;
            c.drops = p.drops_by_reason;
        }
        c
    }

    fn minus(&self, earlier: &Counts) -> Counts {
        let mut drops = self.drops;
        for (d, e) in drops.iter_mut().zip(earlier.drops) {
            *d -= e;
        }
        Counts {
            flit_hops: self.flit_hops - earlier.flit_hops,
            injected: self.injected - earlier.injected,
            delivered: self.delivered - earlier.delivered,
            reserved_moves: self.reserved_moves - earlier.reserved_moves,
            wasted_reservations: self.wasted_reservations - earlier.wasted_reservations,
            instructions: self.instructions - earlier.instructions,
            ctrl_llc: self.ctrl_llc - earlier.ctrl_llc,
            ctrl_lsd: self.ctrl_lsd - earlier.ctrl_lsd,
            refused_at_ni: self.refused_at_ni - earlier.refused_at_ni,
            segments: self.segments - earlier.segments,
            hops_preallocated: self.hops_preallocated - earlier.hops_preallocated,
            drops,
        }
    }
}

/// One finished operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Workload the operation belongs to.
    pub kind: Kind,
    /// Organisation simulated.
    pub org: Org,
    /// Host seconds from the start of set-up to the first `step`.
    pub setup_s: f64,
    /// Host seconds from the first `step` to the last.
    pub host_s: f64,
    /// Simulated cycles, warm-up and drain included.
    pub sim_cycles: u64,
    /// First cycle of the measured window.
    pub window_start: u64,
    /// Latency histogram of the measured window (bucket = cycles).
    pub latency: Vec<u64>,
    /// Committed instructions per cycle over the window (full system).
    pub ipc: Option<f64>,
    /// Instructions committed by the end of the window (full system).
    pub committed: Option<u64>,
    /// Work counted over the measured window and the drain.
    pub counts: Counts,
    /// Architectural-state digest after the drain.
    pub digest: Option<u64>,
    /// Packets left in flight after the drain budget.
    pub undrained: u64,
    /// Watchdog violations, rendered.
    pub violations: Vec<String>,
    /// Outstanding transactions per cycle (traced full-system runs only).
    pub outstanding: SparseHistogram,
}

impl OpResult {
    /// The simulated outputs the committed reference pins: delivered
    /// count, latency histogram, final digest, simulated cycles and, for
    /// the full system, committed instructions.
    pub fn outputs(&self) -> Json {
        let latency = self
            .latency
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(lat, &n)| Json::Array(vec![Json::UInt(lat as u64), Json::UInt(n)]))
            .collect();
        let mut fields = vec![
            ("delivered".to_string(), Json::UInt(self.counts.delivered)),
            ("latency".to_string(), Json::Array(latency)),
            (
                "digest".to_string(),
                self.digest
                    .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
            ),
            ("sim_cycles".to_string(), Json::UInt(self.sim_cycles)),
        ];
        if let Some(i) = self.committed {
            fields.push(("instructions".to_string(), Json::UInt(i)));
        }
        Json::object(fields)
    }

    /// Invariant failures: watchdog violations and undrained packets.
    pub fn invariant_problems(&self) -> Vec<String> {
        let mut out = self.violations.clone();
        if self.undrained > 0 {
            out.push(format!("{} packet(s) left undrained", self.undrained));
        }
        out
    }
}

fn watch<N: Network>(net: &N, wd: &mut Watchdog) {
    if wd.due(net.now()) {
        if let Some(report) = net.audit() {
            wd.observe(&report);
        }
    }
}

fn drain<N: Network>(net: &mut N, wd: &mut Watchdog, buf: &mut Vec<Delivered>) {
    let deadline = net.now() + DRAIN_BUDGET;
    while net.in_flight() > 0 && net.now() < deadline {
        net.step();
        net.drain_delivered_into(buf);
        buf.clear();
        watch(net, wd);
    }
}

fn window_histogram(end: &[u64], start: &[u64]) -> Vec<u64> {
    end.iter()
        .enumerate()
        .map(|(i, &n)| n - start.get(i).copied().unwrap_or(0))
        .collect()
}

/// One organisation's `noc-uniform` run: warm-up, measured window, then
/// injection stops and the network drains.
pub fn noc_op<N: Probe, T: Tracer>(
    setup_start: Instant,
    org: Org,
    mut net: N,
    seed: u64,
    tracer: &T,
) -> OpResult {
    let mut gen = TrafficGen::new(net.config().clone(), Pattern::UniformRandom, NOC_RATE, seed);
    let mut wd = Watchdog::new(WatchdogConfig::default());
    let mut buf: Vec<Delivered> = Vec::new();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut cycle = |net: &mut N, gen: &mut TrafficGen, wd: &mut Watchdog| {
        tracer.span("TrafficGen::tick", net.now(), || gen.tick(net));
        net.step();
        net.drain_delivered_into(&mut buf);
        buf.clear();
        watch(net, wd);
    };
    for _ in 0..WARMUP {
        cycle(&mut net, &mut gen, &mut wd);
    }
    net.reset_stats();
    let window_start = net.now();
    let before = Counts::of(&net, 0);
    for _ in 0..MEASURE {
        cycle(&mut net, &mut gen, &mut wd);
    }
    gen.stop();
    drain(&mut net, &mut wd, &mut buf);
    let host_s = start.elapsed().as_secs_f64();
    OpResult {
        kind: Kind::NocUniform,
        org,
        setup_s,
        host_s,
        sim_cycles: net.now(),
        window_start,
        latency: net.stats().latency_histogram.clone(),
        ipc: None,
        committed: None,
        counts: Counts::of(&net, 0).minus(&before),
        digest: net.state_digest(),
        undrained: net.in_flight() as u64,
        violations: wd.violations().iter().map(ToString::to_string).collect(),
        outstanding: SparseHistogram::new(),
    }
}

/// One organisation's `sys-media` run: the full system for the warm-up
/// and the measured window, then the cores stop and the network drains.
pub fn sys_op<N: Probe, T: Tracer>(
    setup_start: Instant,
    org: Org,
    net: N,
    seed: u64,
    tracer: &T,
) -> OpResult {
    let mut sys = System::new(
        SystemParams::paper(),
        net,
        WorkloadKind::MediaStreaming,
        seed,
    );
    sys.attach_watchdog(Watchdog::new(WatchdogConfig::default()));
    let mut outstanding = SparseHistogram::new();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let cycle = |sys: &mut System<N>, outstanding: &mut SparseHistogram| {
        tracer.span("System::step", sys.cycles(), || sys.step());
        if T::ENABLED {
            outstanding.record(sys.outstanding_transactions() as u64);
        }
    };
    for _ in 0..WARMUP {
        cycle(&mut sys, &mut outstanding);
    }
    let window_start = sys.cycles();
    let hist_start = sys.network().stats().latency_histogram.clone();
    let before = Counts::of(sys.network(), sys.committed_instructions());
    outstanding = SparseHistogram::new();
    for _ in 0..MEASURE {
        cycle(&mut sys, &mut outstanding);
    }
    let instructions = sys.committed_instructions();
    let mut wd = sys
        .watchdog()
        .cloned()
        .expect("the watchdog was attached at set-up");
    let latency = window_histogram(&sys.network().stats().latency_histogram, &hist_start);
    let mut net = sys.into_network();
    let mut buf: Vec<Delivered> = Vec::new();
    drain(&mut net, &mut wd, &mut buf);
    let host_s = start.elapsed().as_secs_f64();
    let counts = Counts::of(&net, instructions).minus(&before);
    #[allow(clippy::cast_precision_loss)]
    let ipc = counts.instructions as f64 / MEASURE as f64;
    OpResult {
        kind: Kind::SysMedia,
        org,
        setup_s,
        host_s,
        sim_cycles: net.now(),
        window_start,
        latency,
        ipc: Some(ipc),
        committed: Some(instructions),
        counts,
        digest: net.state_digest(),
        undrained: net.in_flight() as u64,
        violations: wd.violations().iter().map(ToString::to_string).collect(),
        outstanding,
    }
}

/// Runs one operation. Set-up starts with `before_setup` (the caller's
/// share of set-up, e.g. loading the reference) and ends at the first
/// `step`. With `trace`, the network is wrapped in [`Timed`] and the
/// benchmark loop's own spans go to the same trace.
pub fn run_op(
    kind: Kind,
    org: Org,
    seed: u64,
    trace: Option<&SharedTrace>,
    before_setup: impl FnOnce(),
) -> OpResult {
    let start = Instant::now();
    before_setup();
    let cfg = SystemParams::paper().noc;
    macro_rules! go {
        ($net:expr) => {
            match (kind, trace) {
                (Kind::NocUniform, None) => noc_op(start, org, $net, seed, &Untraced),
                (Kind::SysMedia, None) => sys_op(start, org, $net, seed, &Untraced),
                (Kind::NocUniform, Some(t)) => {
                    noc_op(start, org, Timed::new($net, t.clone()), seed, t)
                }
                (Kind::SysMedia, Some(t)) => {
                    sys_op(start, org, Timed::new($net, t.clone()), seed, t)
                }
            }
        };
    }
    match org {
        Org::Mesh => go!(MeshNetwork::new(cfg)),
        Org::MeshPra => go!(PraNetwork::new(cfg)),
    }
}
