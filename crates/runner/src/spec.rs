//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a full experiment grid — organisation × traffic
//! pattern × injection rate × mesh radix × VC depth × hops-per-cycle ×
//! fault plan × sample — plus the measurement windows. A spec with a
//! `workloads` axis is a full-system grid instead: organisation ×
//! workload × system variant × sample (see [`crate::system`]). Specs are built
//! programmatically (builder style) or loaded from a small JSON file
//! (see `specs/smoke.json`); [`SweepSpec::points`] expands the grid into
//! [`crate::point::PointSpec`]s in a fixed, documented order, assigning
//! each point a deterministic seed via [`crate::seed::derive_seed`].

use nistats::Json;
use noc::digest::StateDigest as _;
use noc::traffic::{InjectionProcess, Pattern, TokenBucketCfg};
use noc::types::NodeId;

use crate::org::Organization;
use crate::point::PointSpec;
use crate::seed::derive_seed;
use crate::system::{parse_system_list, SystemSpec, WorkloadPoint};

/// A malformed sweep specification.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        message: message.into(),
    })
}

/// A scheduled (deterministic) fault event of a grid point (the JSON
/// `faults[].events[]` entries). Only permanent damage is expressible
/// here — transient faults come from `transient_ppb` — because scheduled
/// permanent faults are what the timeout/livelock scenarios need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventSpec {
    /// The link leaving `node` toward `dir` dies permanently at `at`.
    PermanentLink {
        /// First faulted cycle.
        at: u64,
        /// Router on one end of the link.
        node: u16,
        /// Direction of the link from `node`.
        dir: noc::types::Direction,
    },
    /// Router `node` hard-fails at `at`.
    RouterDown {
        /// First faulted cycle.
        at: u64,
        /// The dying router.
        node: u16,
    },
    /// One credit returning to `(node, dir, vc)` is destroyed at `at`.
    /// Unlike topology faults (whose doomed packets the mesh purges),
    /// a lost credit silently shrinks a lane forever — with a shallow
    /// VC this wedges any wormhole holding the lane mid-flight, the
    /// livelock the per-point cycle budget exists to catch.
    CreditLoss {
        /// Cycle of the loss.
        at: u64,
        /// Router whose output-port credit counter loses the credit.
        node: u16,
        /// Output direction of the affected port.
        dir: noc::types::Direction,
        /// Affected virtual channel.
        vc: u8,
    },
}

impl FaultEventSpec {
    /// The simulator event this spec entry describes.
    pub fn to_event(self) -> noc::faults::FaultEvent {
        match self {
            FaultEventSpec::PermanentLink { at, node, dir } => {
                noc::faults::FaultEvent::PermanentLink {
                    at,
                    node: NodeId::new(node),
                    dir,
                }
            }
            FaultEventSpec::RouterDown { at, node } => noc::faults::FaultEvent::RouterDown {
                at,
                node: NodeId::new(node),
            },
            FaultEventSpec::CreditLoss { at, node, dir, vc } => {
                noc::faults::FaultEvent::CreditLoss {
                    at,
                    node: NodeId::new(node),
                    dir,
                    vc,
                }
            }
        }
    }
}

/// One fault-injection configuration of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Row label (`"none"` for the fault-free point).
    pub label: String,
    /// Transient fault rate in events per billion cycle-resources
    /// (0 disables fault injection entirely).
    pub transient_ppb: u32,
    /// Seed of the fault plan's own RNG.
    pub seed: u64,
    /// Scheduled permanent fault events (empty for random-only plans).
    pub events: Vec<FaultEventSpec>,
}

impl FaultSpec {
    /// The fault-free configuration.
    pub fn none() -> Self {
        FaultSpec {
            label: "none".to_string(),
            transient_ppb: 0,
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Whether this spec configures any fault injection at all.
    pub fn is_active(&self) -> bool {
        self.transient_ppb > 0 || !self.events.is_empty()
    }
}

/// One reliability configuration of the grid: the disabled baseline, or
/// the end-to-end retransmission overlay (see [`noc::reliable`]) with
/// explicit knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliabilitySpec {
    /// Row label (`"off"` for the disabled baseline).
    pub label: String,
    /// Whether the overlay is enabled. A JSON entry enables it by
    /// carrying at least one knob; a bare `{"label": ...}` entry is the
    /// disabled baseline.
    pub enabled: bool,
    /// Retransmissions per packet before escalation (valid: 0..=32).
    pub retry_budget: u8,
    /// Base ack timeout in cycles (valid: ≥ 1; doubles per attempt).
    pub ack_timeout: u64,
    /// Upper bound (exclusive) of the deterministic per-retransmission
    /// jitter, in cycles.
    pub backoff_base: u64,
    /// Seed of the overlay's jitter RNG.
    pub seed: u64,
}

impl ReliabilitySpec {
    /// The disabled baseline — the default axis entry, which leaves
    /// every historical grid's indices, seeds and records bit-identical.
    pub fn off() -> Self {
        let d = noc::reliable::ReliabilityConfig::with_seed(0);
        ReliabilitySpec {
            label: "off".to_string(),
            enabled: false,
            retry_budget: d.retry_budget,
            ack_timeout: d.ack_timeout,
            backoff_base: d.backoff_base,
            seed: d.seed,
        }
    }

    /// An enabled entry with the production defaults and `seed`.
    pub fn on(label: &str, seed: u64) -> Self {
        ReliabilitySpec {
            label: label.to_string(),
            enabled: true,
            seed,
            ..ReliabilitySpec::off()
        }
    }

    /// The simulator configuration this entry describes (`None` when
    /// the overlay is off).
    pub fn config(&self) -> Option<noc::reliable::ReliabilityConfig> {
        self.enabled.then_some(noc::reliable::ReliabilityConfig {
            retry_budget: self.retry_budget,
            ack_timeout: self.ack_timeout,
            backoff_base: self.backoff_base,
            seed: self.seed,
        })
    }
}

/// Stable machine-readable key for a traffic pattern (`"uniform"`,
/// `"transpose"`, `"complement"`, `"core_to_llc"`, `"hotspot:<node>"`).
pub fn pattern_key(pattern: Pattern) -> String {
    match pattern {
        Pattern::UniformRandom => "uniform".to_string(),
        Pattern::Transpose => "transpose".to_string(),
        Pattern::Complement => "complement".to_string(),
        Pattern::CoreToLlc => "core_to_llc".to_string(),
        Pattern::Hotspot(node) => format!("hotspot:{}", node.index()),
    }
}

/// Parses a [`pattern_key`] string.
pub fn pattern_from_key(key: &str) -> Option<Pattern> {
    match key {
        "uniform" => Some(Pattern::UniformRandom),
        "transpose" => Some(Pattern::Transpose),
        "complement" => Some(Pattern::Complement),
        "core_to_llc" => Some(Pattern::CoreToLlc),
        _ => {
            let node = key.strip_prefix("hotspot:")?;
            let node: u16 = node.parse().ok()?;
            Some(Pattern::Hotspot(NodeId::new(node)))
        }
    }
}

/// The valid [`pattern_from_key`] forms, for error messages.
pub const PATTERN_KEYS: &str = "uniform, transpose, complement, core_to_llc, hotspot:<node>";

/// The valid [`Organization::from_key`] keys, for error messages.
pub const ORG_KEYS: &str = "mesh, smart, mesh_pra, ideal, frfc";

/// The valid [`injection_from_key`] forms, for error messages.
pub const INJECTION_KEYS: &str =
    "bernoulli, onoff:<on_len>:<off_len>, mmpp:<boost>:<mean_dwell_lo>:<mean_dwell_hi>:<max_dwell_hi>";

/// Stable machine-readable key for an injection process
/// (`"bernoulli"`, `"onoff:<on>:<off>"`,
/// `"mmpp:<boost>:<lo>:<hi>:<max>"` — boost at fixed 3-decimal
/// precision so keys are byte-stable).
pub fn injection_key(process: InjectionProcess) -> String {
    match process {
        InjectionProcess::Bernoulli => "bernoulli".to_string(),
        InjectionProcess::OnOff { on_len, off_len } => format!("onoff:{on_len}:{off_len}"),
        InjectionProcess::Mmpp {
            boost,
            mean_dwell_lo,
            mean_dwell_hi,
            max_dwell_hi,
        } => {
            // det:allow(no-lossy-float-format) — the dwell fields are u32
            // cycle counts despite the `mean_` name; only `boost` is a
            // float, and it prints at fixed precision.
            format!("mmpp:{boost:.3}:{mean_dwell_lo}:{mean_dwell_hi}:{max_dwell_hi}")
        }
    }
}

/// Parses an [`injection_key`] string, validating the parameters.
pub fn injection_from_key(key: &str) -> Option<InjectionProcess> {
    let process = if key == "bernoulli" {
        InjectionProcess::Bernoulli
    } else if let Some(rest) = key.strip_prefix("onoff:") {
        let (on, off) = rest.split_once(':')?;
        InjectionProcess::OnOff {
            on_len: on.parse().ok()?,
            off_len: off.parse().ok()?,
        }
    } else if let Some(rest) = key.strip_prefix("mmpp:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 4 {
            return None;
        }
        InjectionProcess::Mmpp {
            boost: parts[0].parse().ok()?,
            mean_dwell_lo: parts[1].parse().ok()?,
            mean_dwell_hi: parts[2].parse().ok()?,
            max_dwell_hi: parts[3].parse().ok()?,
        }
    } else {
        return None;
    };
    process.validate().ok()?;
    Some(process)
}

/// A full experiment grid plus measurement windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (artifact headers).
    pub name: String,
    /// Base seed every point seed is derived from.
    pub base_seed: u64,
    /// Warm-up cycles excluded from measured statistics.
    pub warmup: u64,
    /// Measured-window cycles.
    pub measure: u64,
    /// Fraction of injected packets that are multi-flit responses.
    pub response_fraction: f64,
    /// Network organisations to sweep.
    pub orgs: Vec<Organization>,
    /// Traffic patterns to sweep.
    pub patterns: Vec<Pattern>,
    /// Temporal injection processes to sweep (default: Bernoulli only,
    /// which keeps legacy grids, indices and seeds unchanged).
    pub injections: Vec<InjectionProcess>,
    /// Injection rates (packets/node/cycle) to sweep.
    pub rates: Vec<f64>,
    /// Mesh radices to sweep.
    pub radices: Vec<u16>,
    /// Per-VC buffer depths to sweep.
    pub vc_depths: Vec<u8>,
    /// Hops-per-cycle ceilings to sweep.
    pub hpcs: Vec<u8>,
    /// Fault-injection configurations to sweep.
    pub faults: Vec<FaultSpec>,
    /// Reliability configurations to sweep (default: a single disabled
    /// entry, which keeps legacy grids, indices and seeds unchanged).
    pub reliability: Vec<ReliabilitySpec>,
    /// Independent samples per grid cell (each with its own seed).
    pub samples: u32,
    /// Simulated-cycle budget per point attempt, counted from cycle 0
    /// of the attempt across warm-up, measurement and drain (0 = no
    /// budget). A point whose clock passes the budget is cancelled and
    /// recorded as `timeout(cycles>N)`.
    pub cycle_budget: u64,
    /// Wall-clock budget per point attempt in milliseconds (0 = no
    /// budget). Wall time is nondeterministic — leave this 0 for golden
    /// runs and use `cycle_budget` there instead.
    pub wall_budget_ms: u64,
    /// Retry attempts after a failed/timed-out first run (0 = fail
    /// immediately). Attempt `k` reruns the point with
    /// `derive_seed(base_seed, index, k)`.
    pub max_retries: u32,
    /// Base backoff between retry attempts in milliseconds (0 = retry
    /// immediately); attempt `k` sleeps `backoff_ms << (k-1)` plus a
    /// deterministic seed-derived jitter.
    pub backoff_ms: u64,
    /// Cycle interval between architectural-state digest samples
    /// (0 = digests off). Organisations without a digest implementation
    /// record an empty trail.
    pub digest_interval: u64,
    /// Per-class arbitration priority (`[request, coherence, response]`,
    /// higher wins; `None` = classic round-robin everywhere).
    pub class_priority: Option<[u8; 3]>,
    /// Per-class token-bucket shaping at the injection point
    /// (`[request, coherence, response]`; `None` = class unshaped).
    pub token_buckets: [Option<TokenBucketCfg>; 3],
    /// Full-system workloads to sweep. Empty (the default) makes a
    /// synthetic-traffic grid whose indices, seeds, hash and rows are
    /// those of a spec that predates the axis.
    pub workloads: Vec<workloads::WorkloadKind>,
    /// System variants of a workload grid (default: the paper's system
    /// alone); unused by synthetic grids.
    pub systems: Vec<SystemSpec>,
}

impl SweepSpec {
    /// A single-cell spec with paper-default parameters; extend the
    /// `Vec` fields (builder style) to open the grid.
    pub fn new(name: &str) -> Self {
        SweepSpec {
            name: name.to_string(),
            base_seed: 1,
            warmup: 2_000,
            measure: 10_000,
            response_fraction: 0.5,
            orgs: vec![Organization::Mesh],
            patterns: vec![Pattern::UniformRandom],
            injections: vec![InjectionProcess::Bernoulli],
            rates: vec![0.02],
            radices: vec![8],
            vc_depths: vec![5],
            hpcs: vec![2],
            faults: vec![FaultSpec::none()],
            reliability: vec![ReliabilitySpec::off()],
            samples: 1,
            cycle_budget: 0,
            wall_budget_ms: 0,
            max_retries: 0,
            backoff_ms: 0,
            digest_interval: 0,
            class_priority: None,
            token_buckets: [None, None, None],
            workloads: Vec::new(),
            systems: vec![SystemSpec::paper()],
        }
    }

    /// Sets the organisations (builder style).
    pub fn orgs(mut self, orgs: &[Organization]) -> Self {
        self.orgs = orgs.to_vec();
        self
    }

    /// Sets the injection rates (builder style).
    pub fn rates(mut self, rates: &[f64]) -> Self {
        self.rates = rates.to_vec();
        self
    }

    /// Sets the traffic patterns (builder style).
    pub fn patterns(mut self, patterns: &[Pattern]) -> Self {
        self.patterns = patterns.to_vec();
        self
    }

    /// Sets the injection processes (builder style).
    pub fn injections(mut self, injections: &[InjectionProcess]) -> Self {
        self.injections = injections.to_vec();
        self
    }

    /// Sets the per-class arbitration priority (builder style).
    pub fn class_priority(mut self, priority: [u8; 3]) -> Self {
        self.class_priority = Some(priority);
        self
    }

    /// Sets the per-class token-bucket shapers (builder style).
    pub fn token_buckets(mut self, buckets: [Option<TokenBucketCfg>; 3]) -> Self {
        self.token_buckets = buckets;
        self
    }

    /// Sets the reliability axis (builder style).
    pub fn reliability(mut self, axis: &[ReliabilitySpec]) -> Self {
        self.reliability = axis.to_vec();
        self
    }

    /// Sets the fault axis (builder style).
    pub fn faults(mut self, axis: &[FaultSpec]) -> Self {
        self.faults = axis.to_vec();
        self
    }

    /// Sets the measurement windows (builder style).
    pub fn windows(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Sets the per-point budgets (builder style); 0 disables either.
    pub fn budgets(mut self, cycle_budget: u64, wall_budget_ms: u64) -> Self {
        self.cycle_budget = cycle_budget;
        self.wall_budget_ms = wall_budget_ms;
        self
    }

    /// Sets the retry policy (builder style).
    pub fn retries(mut self, max_retries: u32, backoff_ms: u64) -> Self {
        self.max_retries = max_retries;
        self.backoff_ms = backoff_ms;
        self
    }

    /// Sets the digest sampling interval (builder style); 0 disables.
    pub fn digest_every(mut self, interval: u64) -> Self {
        self.digest_interval = interval;
        self
    }

    /// A stable hash of every grid-defining field, written into journal
    /// headers so `--resume` can refuse a checkpoint recorded for a
    /// different spec. Floats are hashed by bit pattern; list order
    /// matters (it defines point indices).
    pub fn spec_hash(&self) -> u64 {
        let mut h = noc::digest::StateHasher::new();
        h.write_bytes(self.name.as_bytes());
        h.write_u64(self.base_seed);
        h.write_u64(self.warmup);
        h.write_u64(self.measure);
        h.write_u64(self.response_fraction.to_bits());
        h.write_usize(self.orgs.len());
        for org in &self.orgs {
            h.write_bytes(org.key().as_bytes());
        }
        h.write_usize(self.patterns.len());
        for &p in &self.patterns {
            h.write_bytes(pattern_key(p).as_bytes());
        }
        h.write_usize(self.rates.len());
        for r in &self.rates {
            h.write_u64(r.to_bits());
        }
        h.write_usize(self.radices.len());
        for &r in &self.radices {
            h.write_u64(u64::from(r));
        }
        h.write_usize(self.vc_depths.len());
        for &d in &self.vc_depths {
            h.write_u8(d);
        }
        h.write_usize(self.hpcs.len());
        for &x in &self.hpcs {
            h.write_u8(x);
        }
        h.write_usize(self.faults.len());
        for f in &self.faults {
            h.write_bytes(f.label.as_bytes());
            h.write_u32(f.transient_ppb);
            h.write_u64(f.seed);
            h.write_usize(f.events.len());
            for ev in &f.events {
                ev.to_event().digest_state(&mut h);
            }
        }
        h.write_u64(u64::from(self.samples));
        h.write_u64(self.cycle_budget);
        h.write_u64(self.digest_interval);
        h.write_usize(self.injections.len());
        for &p in &self.injections {
            h.write_bytes(injection_key(p).as_bytes());
        }
        match self.class_priority {
            Some(p) => {
                h.write_u8(1);
                for x in p {
                    h.write_u8(x);
                }
            }
            None => h.write_u8(0),
        }
        for b in &self.token_buckets {
            match b {
                Some(cfg) => {
                    h.write_u8(1);
                    h.write_u64(cfg.rate.to_bits());
                    h.write_u32(cfg.burst);
                }
                None => h.write_u8(0),
            }
        }
        h.write_usize(self.reliability.len());
        for r in &self.reliability {
            h.write_bytes(r.label.as_bytes());
            h.write_u8(u8::from(r.enabled));
            h.write_u8(r.retry_budget);
            h.write_u64(r.ack_timeout);
            h.write_u64(r.backoff_base);
            h.write_u64(r.seed);
        }
        // Only workload grids hash the full-system axes, so every
        // synthetic spec keeps the hash it had before they existed.
        if !self.workloads.is_empty() {
            h.write_usize(self.workloads.len());
            for w in &self.workloads {
                h.write_bytes(w.key().as_bytes());
            }
            h.write_usize(self.systems.len());
            for s in &self.systems {
                s.digest(&mut h);
            }
        }
        // wall_budget_ms, max_retries and backoff_ms are deliberately
        // excluded: they change *how* points run, never *what* a
        // completed point's record means, so a resume may tighten or
        // relax them without invalidating the journal.
        h.finish()
    }

    /// Number of points in the expanded grid.
    pub fn len(&self) -> usize {
        if !self.workloads.is_empty() {
            return self.orgs.len()
                * self.workloads.len()
                * self.systems.len()
                * self.samples as usize;
        }
        self.orgs.len()
            * self.patterns.len()
            * self.injections.len()
            * self.rates.len()
            * self.radices.len()
            * self.vc_depths.len()
            * self.hpcs.len()
            * self.faults.len()
            * self.reliability.len()
            * self.samples as usize
    }

    /// Whether the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in its canonical order — organisation outermost,
    /// then pattern, injection process, rate, radix, VC depth,
    /// hops-per-cycle, fault plan, reliability, and sample innermost.
    /// The order (not the thread count) defines each point's index and
    /// therefore its derived seed. A spec with the default
    /// single-Bernoulli injection axis and the default single-disabled
    /// reliability axis expands to exactly the historical grid.
    ///
    /// A workload grid expands organisation × workload × system variant ×
    /// sample; its synthetic axes keep their single defaults. Its seed
    /// depends on the sample alone (`derive_seed(base_seed, sample, 0)`),
    /// so every organisation, workload and variant of a sample runs the
    /// same seed: a figure's ratios compare identical random streams, and
    /// two specs with one `base_seed` and equal windows reproduce each
    /// other's shared cells.
    pub fn points(&self) -> Vec<PointSpec> {
        if !self.workloads.is_empty() {
            return self.workload_points();
        }
        let mut out = Vec::with_capacity(self.len());
        for &org in &self.orgs {
            for &pattern in &self.patterns {
                for &injection in &self.injections {
                    for &rate in &self.rates {
                        for &radix in &self.radices {
                            for &vc_depth in &self.vc_depths {
                                for &hpc in &self.hpcs {
                                    for fault in &self.faults {
                                        for rel in &self.reliability {
                                            for sample in 0..self.samples {
                                                let index = out.len();
                                                out.push(PointSpec {
                                                    index,
                                                    org,
                                                    pattern,
                                                    injection,
                                                    rate,
                                                    radix,
                                                    vc_depth,
                                                    hpc,
                                                    fault: fault.clone(),
                                                    reliability: rel.clone(),
                                                    sample,
                                                    seed: derive_seed(
                                                        self.base_seed,
                                                        index as u64,
                                                        0,
                                                    ),
                                                    base_seed: self.base_seed,
                                                    warmup: self.warmup,
                                                    measure: self.measure,
                                                    response_fraction: self.response_fraction,
                                                    cycle_budget: self.cycle_budget,
                                                    wall_budget_ms: self.wall_budget_ms,
                                                    max_retries: self.max_retries,
                                                    backoff_ms: self.backoff_ms,
                                                    digest_interval: self.digest_interval,
                                                    class_priority: self.class_priority,
                                                    token_buckets: self.token_buckets,
                                                    skip_ahead: true,
                                                    workload: None,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn workload_points(&self) -> Vec<PointSpec> {
        // Every synthetic field comes from the synthetic grid's first cell.
        let synthetic = SweepSpec {
            workloads: Vec::new(),
            ..self.clone()
        };
        let Some(template) = synthetic.points().into_iter().next() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(self.len());
        for &org in &self.orgs {
            for &workload in &self.workloads {
                for system in &self.systems {
                    for sample in 0..self.samples {
                        let index = out.len();
                        let system = system.clone();
                        out.push(PointSpec {
                            index,
                            org,
                            sample,
                            seed: derive_seed(self.base_seed, u64::from(sample), 0),
                            workload: Some(WorkloadPoint { workload, system }),
                            ..template.clone()
                        });
                    }
                }
            }
        }
        out
    }

    /// Parses a spec from JSON text (see `specs/smoke.json` for the
    /// format; every field except `name` is optional and defaults to the
    /// [`SweepSpec::new`] value).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first malformed field.
    pub fn from_json_str(text: &str) -> Result<SweepSpec, SpecError> {
        let json = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => return err(format!("not valid JSON: {e}")),
        };
        let Some(name) = json.get("name").and_then(Json::as_str) else {
            return err("missing string field \"name\"");
        };
        let mut spec = SweepSpec::new(name);
        if let Some(v) = json.get("base_seed") {
            spec.base_seed = v.as_u64().map_or_else(|| err("base_seed"), Ok)?;
        }
        if let Some(v) = json.get("warmup") {
            spec.warmup = v.as_u64().map_or_else(|| err("warmup"), Ok)?;
        }
        if let Some(v) = json.get("measure") {
            spec.measure = v.as_u64().map_or_else(|| err("measure"), Ok)?;
        }
        if let Some(v) = json.get("response_fraction") {
            spec.response_fraction = v.as_f64().map_or_else(|| err("response_fraction"), Ok)?;
            if !(0.0..=1.0).contains(&spec.response_fraction) {
                return err("response_fraction outside [0, 1]");
            }
        }
        if let Some(v) = json.get("samples") {
            let n = v.as_u64().map_or_else(|| err("samples"), Ok)?;
            spec.samples = u32::try_from(n).map_or_else(|_| err("samples exceeds u32"), Ok)?;
        }
        if let Some(v) = json.get("orgs") {
            spec.orgs = parse_keyed_list(v, "orgs", ORG_KEYS, Organization::from_key)?;
        }
        if let Some(v) = json.get("patterns") {
            spec.patterns = parse_keyed_list(v, "patterns", PATTERN_KEYS, pattern_from_key)?;
        }
        if let Some(v) = json.get("injections") {
            spec.injections =
                parse_keyed_list(v, "injections", INJECTION_KEYS, injection_from_key)?;
        }
        if let Some(v) = json.get("class_priority") {
            spec.class_priority = Some(parse_class_priority(v)?);
        }
        if let Some(v) = json.get("token_buckets") {
            spec.token_buckets = parse_token_buckets(v)?;
        }
        if let Some(v) = json.get("rates") {
            spec.rates = parse_list(v, "rates", |item| {
                item.as_f64().filter(|r| (0.0..=1.0).contains(r))
            })?;
        }
        if let Some(v) = json.get("radices") {
            spec.radices = parse_list(v, "radices", |item| {
                item.as_u64().and_then(|r| u16::try_from(r).ok())
            })?;
        }
        if let Some(v) = json.get("vc_depths") {
            spec.vc_depths = parse_list(v, "vc_depths", |item| {
                item.as_u64().and_then(|d| u8::try_from(d).ok())
            })?;
        }
        if let Some(v) = json.get("hpcs") {
            spec.hpcs = parse_list(v, "hpcs", |item| {
                item.as_u64().and_then(|h| u8::try_from(h).ok())
            })?;
        }
        if let Some(v) = json.get("faults") {
            spec.faults = parse_list(v, "faults", parse_fault)?;
        }
        if let Some(v) = json.get("reliability") {
            spec.reliability = parse_reliability_list(v)?;
        }
        if let Some(v) = json.get("cycle_budget") {
            spec.cycle_budget = v.as_u64().map_or_else(|| err("cycle_budget"), Ok)?;
        }
        if let Some(v) = json.get("wall_budget_ms") {
            spec.wall_budget_ms = v.as_u64().map_or_else(|| err("wall_budget_ms"), Ok)?;
        }
        if let Some(v) = json.get("max_retries") {
            let n = v.as_u64().map_or_else(|| err("max_retries"), Ok)?;
            spec.max_retries =
                u32::try_from(n).map_or_else(|_| err("max_retries exceeds u32"), Ok)?;
        }
        if let Some(v) = json.get("backoff_ms") {
            spec.backoff_ms = v.as_u64().map_or_else(|| err("backoff_ms"), Ok)?;
        }
        if let Some(v) = json.get("digest_interval") {
            spec.digest_interval = v.as_u64().map_or_else(|| err("digest_interval"), Ok)?;
        }
        if let Some(v) = json.get("workloads") {
            spec.workloads = parse_keyed_list(
                v,
                "workloads",
                workloads::WORKLOAD_KEYS,
                workloads::WorkloadKind::from_key,
            )?;
            if spec.workloads.is_empty() {
                return err("expanded grid is empty (an axis has no values)");
            }
            if let Some(key) = SYNTHETIC_ONLY.split(' ').find(|k| json.get(k).is_some()) {
                return err(format!(
                    "field \"{key}\" applies only to synthetic grids, not to a \"workloads\" grid"
                ));
            }
        }
        if let Some(v) = json.get("system") {
            if spec.workloads.is_empty() {
                return err("field \"system\" needs a \"workloads\" axis");
            }
            spec.systems = parse_system_list(v)?;
        }
        if spec.is_empty() {
            return err("expanded grid is empty (an axis has no values)");
        }
        Ok(spec)
    }

    /// Loads a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the file cannot be read or parsed.
    pub fn load(path: &str) -> Result<SweepSpec, SpecError> {
        match std::fs::read_to_string(path) {
            Ok(text) => SweepSpec::from_json_str(&text),
            Err(e) => err(format!("cannot read {path}: {e}")),
        }
    }
}

/// Spec fields a full-system point has no use for: the traffic
/// generator's axes, per-cycle budgets and digests.
const SYNTHETIC_ONLY: &str = "response_fraction patterns injections rates radices vc_depths hpcs \
     faults reliability class_priority token_buckets cycle_budget digest_interval";

fn parse_list<T>(
    v: &Json,
    field: &str,
    item: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, SpecError> {
    let Some(items) = v.as_array() else {
        return err(format!("field \"{field}\" must be an array"));
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, x) in items.iter().enumerate() {
        match item(x) {
            Some(parsed) => out.push(parsed),
            None => return err(format!("field \"{field}\"[{i}] is malformed")),
        }
    }
    Ok(out)
}

/// Like [`parse_list`] for lists of string keys, but a rejected entry is
/// named verbatim and the error lists every valid form — so a typo'd
/// organisation or pattern in a spec reads as "unknown value" with the
/// menu, not a bare "malformed".
fn parse_keyed_list<T>(
    v: &Json,
    field: &str,
    valid: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, SpecError> {
    let Some(items) = v.as_array() else {
        return err(format!("field \"{field}\" must be an array"));
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, x) in items.iter().enumerate() {
        let Some(key) = x.as_str() else {
            return err(format!(
                "field \"{field}\"[{i}] must be a string (valid values: {valid})"
            ));
        };
        match parse(key) {
            Some(parsed) => out.push(parsed),
            None => {
                return err(format!(
                    "field \"{field}\"[{i}]: unknown value {key:?} (valid values: {valid})"
                ))
            }
        }
    }
    Ok(out)
}

/// Parses `"class_priority": [req, coh, rsp]` (three small integers,
/// higher wins).
fn parse_class_priority(v: &Json) -> Result<[u8; 3], SpecError> {
    let parsed = parse_list(v, "class_priority", |item| {
        item.as_u64().and_then(|p| u8::try_from(p).ok())
    })?;
    <[u8; 3]>::try_from(parsed).map_or_else(
        |_| err("field \"class_priority\" must have exactly 3 entries [request, coherence, response]"),
        Ok,
    )
}

/// Parses `"token_buckets": {"request": {"rate": R, "burst": B}, ...}`
/// (class names `request`/`coherence`/`response`; absent classes stay
/// unshaped).
fn parse_token_buckets(v: &Json) -> Result<[Option<TokenBucketCfg>; 3], SpecError> {
    let mut out = [None, None, None];
    for (vc, class) in ["request", "coherence", "response"].iter().enumerate() {
        let Some(entry) = v.get(class) else { continue };
        let rate = entry
            .get("rate")
            .and_then(Json::as_f64)
            .filter(|r| r.is_finite() && *r >= 0.0);
        let burst = entry
            .get("burst")
            .and_then(Json::as_u64)
            .and_then(|b| u32::try_from(b).ok());
        match (rate, burst) {
            (Some(rate), Some(burst)) => out[vc] = Some(TokenBucketCfg { rate, burst }),
            _ => {
                return err(format!(
                    "field \"token_buckets\".{class} needs a finite non-negative \
                     \"rate\" and a u32 \"burst\""
                ))
            }
        }
    }
    Ok(out)
}

fn parse_fault(v: &Json) -> Option<FaultSpec> {
    let label = v.get("label").and_then(Json::as_str)?.to_string();
    let transient_ppb = match v.get("transient_ppb") {
        Some(p) => u32::try_from(p.as_u64()?).ok()?,
        None => 0,
    };
    let seed = match v.get("seed") {
        Some(s) => s.as_u64()?,
        None => 0,
    };
    let events = match v.get("events") {
        Some(list) => list
            .as_array()?
            .iter()
            .map(parse_fault_event)
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    Some(FaultSpec {
        label,
        transient_ppb,
        seed,
        events,
    })
}

/// The valid `reliability[]` entry forms, for error messages.
pub const RELIABILITY_FORMS: &str = "{\"label\": L} (overlay off) or {\"label\": L, \
     \"retry_budget\": 0..=32, \"ack_timeout\": cycles >= 1, \"backoff_base\": cycles, \
     \"seed\": S} (overlay on; omitted knobs default to 3/256/32/0)";

fn parse_reliability_list(v: &Json) -> Result<Vec<ReliabilitySpec>, SpecError> {
    let Some(items) = v.as_array() else {
        return err(format!(
            "field \"reliability\" must be an array (valid values: {RELIABILITY_FORMS})"
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, x) in items.iter().enumerate() {
        out.push(parse_reliability(x, i)?);
    }
    Ok(out)
}

/// Parses one `reliability[]` entry. Presence of any knob enables the
/// overlay; the validity ranges mirror `NocConfig::validate` so a bad
/// spec dies here with the field name instead of at point-build time.
fn parse_reliability(v: &Json, i: usize) -> Result<ReliabilitySpec, SpecError> {
    let Some(label) = v.get("label").and_then(Json::as_str) else {
        return err(format!(
            "field \"reliability\"[{i}] needs a string \"label\" \
             (valid values: {RELIABILITY_FORMS})"
        ));
    };
    let mut spec = ReliabilitySpec {
        label: label.to_string(),
        ..ReliabilitySpec::off()
    };
    if let Some(x) = v.get("retry_budget") {
        match x
            .as_u64()
            .and_then(|b| u8::try_from(b).ok())
            .filter(|&b| b <= 32)
        {
            Some(b) => {
                spec.retry_budget = b;
                spec.enabled = true;
            }
            None => {
                return err(format!(
                    "field \"reliability\"[{i}].retry_budget is out of range \
                     (valid values: 0..=32 retransmissions before escalation)"
                ))
            }
        }
    }
    if let Some(x) = v.get("ack_timeout") {
        match x.as_u64().filter(|&t| t >= 1) {
            Some(t) => {
                spec.ack_timeout = t;
                spec.enabled = true;
            }
            None => {
                return err(format!(
                    "field \"reliability\"[{i}].ack_timeout is out of range \
                     (valid values: cycles >= 1)"
                ))
            }
        }
    }
    if let Some(x) = v.get("backoff_base") {
        match x.as_u64() {
            Some(b) => {
                spec.backoff_base = b;
                spec.enabled = true;
            }
            None => {
                return err(format!(
                    "field \"reliability\"[{i}].backoff_base is malformed \
                     (valid values: a cycle count)"
                ))
            }
        }
    }
    if let Some(x) = v.get("seed") {
        match x.as_u64() {
            Some(s) => {
                spec.seed = s;
                spec.enabled = true;
            }
            None => {
                return err(format!(
                    "field \"reliability\"[{i}].seed is malformed (valid values: a u64 seed)"
                ))
            }
        }
    }
    Ok(spec)
}

fn parse_direction(v: &Json) -> Option<noc::types::Direction> {
    match v.get("dir")?.as_str()? {
        "north" => Some(noc::types::Direction::North),
        "south" => Some(noc::types::Direction::South),
        "east" => Some(noc::types::Direction::East),
        "west" => Some(noc::types::Direction::West),
        _ => None,
    }
}

fn parse_fault_event(v: &Json) -> Option<FaultEventSpec> {
    let at = v.get("at")?.as_u64()?;
    let node = u16::try_from(v.get("node")?.as_u64()?).ok()?;
    match v.get("kind")?.as_str()? {
        "permanent_link" => {
            let dir = parse_direction(v)?;
            Some(FaultEventSpec::PermanentLink { at, node, dir })
        }
        "router_down" => Some(FaultEventSpec::RouterDown { at, node }),
        "credit_loss" => {
            let dir = parse_direction(v)?;
            let vc = u8::try_from(v.get("vc")?.as_u64()?).ok()?;
            Some(FaultEventSpec::CreditLoss { at, node, dir, vc })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_order_and_seeds() {
        let spec = SweepSpec::new("t")
            .orgs(&[Organization::Mesh, Organization::MeshPra])
            .rates(&[0.01, 0.02]);
        let pts = spec.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(spec.len(), 4);
        // org outermost, rate inner.
        assert_eq!(pts[0].org, Organization::Mesh);
        assert_eq!(pts[1].org, Organization::Mesh);
        assert_eq!(pts[2].org, Organization::MeshPra);
        assert!((pts[0].rate - 0.01).abs() < 1e-12);
        assert!((pts[1].rate - 0.02).abs() < 1e-12);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.seed, derive_seed(spec.base_seed, i as u64, 0));
        }
    }

    #[test]
    fn json_round_trip_of_the_documented_format() {
        let text = r#"{
            "name": "smoke",
            "base_seed": 42,
            "warmup": 500,
            "measure": 1500,
            "response_fraction": 0.5,
            "orgs": ["mesh", "mesh_pra"],
            "patterns": ["uniform", "hotspot:0"],
            "rates": [0.02, 0.05],
            "radices": [8],
            "vc_depths": [5],
            "hpcs": [2],
            "samples": 2,
            "faults": [{"label": "none"}, {"label": "t200", "transient_ppb": 200, "seed": 9}]
        }"#;
        let spec = SweepSpec::from_json_str(text).expect("valid spec");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.base_seed, 42);
        assert_eq!(spec.orgs.len(), 2);
        assert_eq!(spec.patterns[1], Pattern::Hotspot(NodeId::new(0)));
        assert_eq!(spec.faults[1].transient_ppb, 200);
        assert_eq!(spec.len(), 2 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn malformed_specs_are_rejected_with_field_names() {
        let missing = SweepSpec::from_json_str("{}").expect_err("no name");
        assert!(missing.to_string().contains("name"));
        let bad_org = SweepSpec::from_json_str(r#"{"name":"x","orgs":["warp"]}"#)
            .expect_err("unknown organisation");
        assert!(bad_org.to_string().contains("orgs"));
        let bad_rate =
            SweepSpec::from_json_str(r#"{"name":"x","rates":[1.5]}"#).expect_err("rate above 1");
        assert!(bad_rate.to_string().contains("rates"));
        let empty = SweepSpec::from_json_str(r#"{"name":"x","orgs":[]}"#).expect_err("empty axis");
        assert!(empty.to_string().contains("empty"));
        let garbage = SweepSpec::from_json_str("not json").expect_err("parse error");
        assert!(garbage.to_string().contains("JSON"));
    }

    #[test]
    fn unknown_keys_name_the_value_and_list_the_valid_ones() {
        let bad_org = SweepSpec::from_json_str(r#"{"name":"x","orgs":["warp"]}"#)
            .expect_err("unknown organisation")
            .to_string();
        assert!(bad_org.contains("\"warp\""), "{bad_org}");
        assert!(bad_org.contains("mesh_pra"), "{bad_org}");
        let bad_pattern = SweepSpec::from_json_str(r#"{"name":"x","patterns":["spiral"]}"#)
            .expect_err("unknown pattern")
            .to_string();
        assert!(bad_pattern.contains("\"spiral\""), "{bad_pattern}");
        assert!(bad_pattern.contains("hotspot:<node>"), "{bad_pattern}");
        let bad_inj = SweepSpec::from_json_str(r#"{"name":"x","injections":["poisson"]}"#)
            .expect_err("unknown injection process")
            .to_string();
        assert!(bad_inj.contains("\"poisson\""), "{bad_inj}");
        assert!(bad_inj.contains("onoff:<on_len>:<off_len>"), "{bad_inj}");
        // An invalid parameterisation (on_len 0) is rejected the same way.
        let bad_param = SweepSpec::from_json_str(r#"{"name":"x","injections":["onoff:0:7"]}"#)
            .expect_err("invalid on_len")
            .to_string();
        assert!(bad_param.contains("\"onoff:0:7\""), "{bad_param}");
    }

    #[test]
    fn injection_keys_round_trip() {
        for p in [
            InjectionProcess::Bernoulli,
            InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56,
            },
            InjectionProcess::Mmpp {
                boost: 6.5,
                mean_dwell_lo: 100,
                mean_dwell_hi: 8,
                max_dwell_hi: 12,
            },
        ] {
            assert_eq!(injection_from_key(&injection_key(p)), Some(p));
        }
        assert_eq!(injection_from_key("onoff:8"), None);
        assert_eq!(injection_from_key("mmpp:0.5:1:1:1"), None, "boost ≤ 1");
        assert_eq!(injection_from_key("poisson"), None);
    }

    #[test]
    fn qos_fields_parse_and_reshape_the_grid() {
        let text = r#"{
            "name": "qos",
            "injections": ["bernoulli", "onoff:8:56"],
            "class_priority": [0, 1, 2],
            "token_buckets": {"response": {"rate": 0.25, "burst": 10}}
        }"#;
        let spec = SweepSpec::from_json_str(text).expect("valid spec");
        assert_eq!(spec.injections.len(), 2);
        assert_eq!(spec.class_priority, Some([0, 1, 2]));
        assert_eq!(
            spec.token_buckets[2],
            Some(TokenBucketCfg {
                rate: 0.25,
                burst: 10
            })
        );
        assert_eq!(spec.token_buckets[0], None);
        // The injection axis multiplies the grid and sits between
        // pattern and rate.
        assert_eq!(spec.len(), 2);
        let pts = spec.points();
        assert_eq!(pts[0].injection, InjectionProcess::Bernoulli);
        assert_eq!(
            pts[1].injection,
            InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56
            }
        );
        // QoS fields change the spec hash (journals must refuse to mix).
        let plain = SweepSpec::from_json_str(r#"{"name":"qos"}"#).expect("valid");
        assert_ne!(spec.spec_hash(), plain.spec_hash());
    }

    #[test]
    fn reliability_axis_parses_validates_and_reshapes_the_grid() {
        let text = r#"{
            "name": "rel",
            "rates": [0.02, 0.05],
            "faults": [{"label": "none"}, {"label": "storm", "transient_ppb": 1000}],
            "reliability": [{"label": "off"}, {"label": "r2", "retry_budget": 2, "seed": 7}]
        }"#;
        let spec = SweepSpec::from_json_str(text).expect("valid spec");
        assert_eq!(spec.reliability.len(), 2);
        assert!(!spec.reliability[0].enabled, "bare label entry is off");
        assert_eq!(spec.reliability[0].config(), None);
        let on = &spec.reliability[1];
        assert!(on.enabled, "any knob enables the overlay");
        let cfg = on.config().expect("enabled entry yields a config");
        assert_eq!(cfg.retry_budget, 2);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.ack_timeout, 256, "omitted knobs take the defaults");
        // The axis multiplies the grid and sits between fault and
        // sample: for a fixed (rate, fault) cell the reliability
        // entries are adjacent.
        assert_eq!(spec.len(), 2 * 2 * 2);
        let pts = spec.points();
        assert_eq!(pts[0].fault.label, "none");
        assert!(!pts[0].reliability.enabled);
        assert_eq!(pts[1].fault.label, "none");
        assert!(pts[1].reliability.enabled);
        assert_eq!(pts[2].fault.label, "storm");
        // The axis changes the spec hash (journals must refuse to mix).
        let plain = SweepSpec::from_json_str(r#"{"name":"rel"}"#).expect("valid");
        assert_ne!(spec.spec_hash(), plain.spec_hash());
        // ... but spelling out the default single-off axis is
        // hash-identical to omitting it: old specs keep their hash.
        let explicit_off =
            SweepSpec::from_json_str(r#"{"name":"rel","reliability":[{"label":"off"}]}"#)
                .expect("valid");
        assert_eq!(explicit_off.spec_hash(), plain.spec_hash());
        assert_eq!(explicit_off.points()[0].seed, plain.points()[0].seed);
    }

    #[test]
    fn out_of_range_reliability_knobs_are_rejected_with_valid_values() {
        let bad_budget = SweepSpec::from_json_str(
            r#"{"name":"x","reliability":[{"label":"r","retry_budget":40}]}"#,
        )
        .expect_err("budget above 32")
        .to_string();
        assert!(bad_budget.contains("retry_budget"), "{bad_budget}");
        assert!(bad_budget.contains("0..=32"), "{bad_budget}");
        let bad_timeout = SweepSpec::from_json_str(
            r#"{"name":"x","reliability":[{"label":"r","ack_timeout":0}]}"#,
        )
        .expect_err("zero ack timeout")
        .to_string();
        assert!(bad_timeout.contains("ack_timeout"), "{bad_timeout}");
        assert!(bad_timeout.contains(">= 1"), "{bad_timeout}");
        let no_label =
            SweepSpec::from_json_str(r#"{"name":"x","reliability":[{"retry_budget":1}]}"#)
                .expect_err("missing label")
                .to_string();
        assert!(no_label.contains("label"), "{no_label}");
        assert!(no_label.contains("overlay on"), "{no_label}");
    }

    #[test]
    fn committed_synthetic_specs_keep_their_hash_seeds_and_columns() {
        // Pinned at the commit before the full-system axes existed: an
        // absent `workloads` axis must leave every input of the hash,
        // the point seeds and the record layout untouched.
        // name, spec hash, point count, first seed, last seed
        let pinned = "smoke 80fdb8eff46ed83f 12 7c247adefcc8b7d8 f11842242570544c
                      qos_smoke d3ddb2f529f6f6c7 4 4e33eab93279ff1a 3e3a3f267e98251e
                      fault_storm b709b6396a73a0bc 8 bc0b9ee132c42184 1221ec368d9f1a7f
                      load16 c2e840bb75f44660 16 4e33eab93279ff1a 8c116bda4310df48";
        for line in pinned.lines().map(str::trim) {
            let name = line.split(' ').next().unwrap_or_default();
            let path = format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let spec = SweepSpec::load(&path).expect("committed spec parses");
            let pts = spec.points();
            let (first, last) = (pts[0].seed, pts[pts.len() - 1].seed);
            let got = format!(
                "{name} {:016x} {} {first:016x} {last:016x}",
                spec.spec_hash(),
                pts.len()
            );
            assert_eq!(got, line, "hash, size or seeds moved");
            let rec = pts[0].failed_record("x");
            assert_eq!(
                rec.system, None,
                "{name}: synthetic rows carry no system columns"
            );
            let csv = crate::report::to_csv(std::slice::from_ref(&rec));
            assert!(!csv.contains("workload"), "{name}: {csv}");
            let line = crate::protocol::point_line(&crate::point::PointOutcome {
                record: rec,
                trail: Vec::new(),
            });
            assert_eq!(
                line.split('\t').count(),
                42,
                "{name}: journal line layout moved"
            );
        }
    }

    #[test]
    fn workload_grids_parse_validate_and_expand() {
        let spec = SweepSpec::from_json_str(
            r#"{"name": "w", "orgs": ["mesh", "mesh_pra"],
                "workloads": ["media_streaming", "web_search"],
                "system": [{"label": "paper"}, {"label": "lag2", "max_lag": 2},
                           {"label": "half", "miss_scale": 0.5, "lsd": false}],
                "samples": 2}"#,
        )
        .expect("valid workload spec");
        assert_eq!(spec.len(), 2 * 2 * 3 * 2);
        let pts = spec.points();
        assert_eq!(pts.len(), spec.len());
        // Organisation outermost, then workload, system, sample.
        let w = |i: usize| pts[i].workload.as_ref().expect("workload point");
        assert_eq!((w(0).system.label.as_str(), pts[0].sample), ("paper", 0));
        assert_eq!((w(1).system.label.as_str(), pts[1].sample), ("paper", 1));
        assert_eq!(w(2).system.max_lag, 2);
        assert!(!w(4).system.lsd && w(4).system.miss_scale == 0.5);
        assert_eq!(w(6).workload, workloads::WorkloadKind::WebSearch);
        assert_eq!(pts[12].org, Organization::MeshPra);
        for p in &pts {
            assert_eq!(p.seed, derive_seed(spec.base_seed, u64::from(p.sample), 0));
        }
        let plain = SweepSpec::from_json_str(r#"{"name": "w", "orgs": ["mesh", "mesh_pra"]}"#)
            .expect("valid");
        assert_ne!(spec.spec_hash(), plain.spec_hash());

        // Each malformed spec, after a word its error must name.
        let bad = r#"rates|{"name":"x","workloads":["mapreduce"],"rates":[0.1]}
            max_lag|{"name":"x","workloads":["mapreduce"],"system":[{"label":"a","max_lag":0}]}
            lsd|{"name":"x","workloads":["mapreduce"],"system":[{"label":"a","lsd":1}]}
            miss_scale|{"name":"x","workloads":["sat_solver"],"system":[{"label":"a","miss_scale":0}]}
            label|{"name":"x","workloads":["mapreduce"],"system":[{"label":""}]}
            label|{"name":"x","workloads":["mapreduce"],"system":[{"label":"a,b"}]}
            label|{"name":"x","workloads":["mapreduce"],"system":[{"label":"a\nb"}]}
            label|{"name":"x","workloads":["mapreduce"],"system":[{"label":"a"},{"label":"a"}]}
            needs a "workloads"|{"name":"x","system":[{"label":"a"}]}
            web_search|{"name":"x","workloads":["netflix"]}
            empty|{"name":"x","workloads":[]}"#;
        for (needle, text) in bad.lines().filter_map(|l| l.trim().split_once('|')) {
            let e = SweepSpec::from_json_str(text).expect_err(text).to_string();
            assert!(e.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn pattern_keys_round_trip() {
        for p in [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::Complement,
            Pattern::CoreToLlc,
            Pattern::Hotspot(NodeId::new(27)),
        ] {
            assert_eq!(pattern_from_key(&pattern_key(p)), Some(p));
        }
        assert_eq!(pattern_from_key("hotspot:x"), None);
        assert_eq!(pattern_from_key("warp"), None);
    }
}
