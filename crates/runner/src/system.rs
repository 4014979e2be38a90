//! Full-system sweep points: a CloudSuite workload on the 64-core server
//! model (`sysmodel`) over one network organisation.
//!
//! Each point runs `System::measure(warmup, measure)` with its derived
//! seed and reports IPC plus the measured-window network and PRA
//! control-plane counters the paper's full-system figures read, exactly
//! as a hand-built `System` would (`tests/system_points.rs`).

use nistats::Json;
use noc::cancel::CancelToken;
use noc::digest::StateHasher;
use noc::network::Network;
use noc::stats::NetStats;
use pra::network::PraNetwork;
use pra::{ControlConfig, PraStats};
use sysmodel::{System, SystemParams};
use workloads::{WorkloadKind, WorkloadProfile, WorkloadProfileBuilder};

use crate::org::{with_network, NetVisitor, Organization};
use crate::point::{PointOutcome, PointRecord, PointSpec, WallGuard};
use crate::spec::SpecError;

/// One system configuration of a workload grid (the JSON `system[]`
/// entries): the paper's system, or the deviation from it that an
/// ablation needs. Every switch defaults to the paper's value.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Row label (`"paper"` for the unmodified system).
    pub label: String,
    /// Mesh+PRA's maximum control-packet lag ([`ControlConfig::max_lag`]).
    pub max_lag: u8,
    /// Mesh+PRA launches control packets from the LLC window.
    pub llc_window: bool,
    /// Mesh+PRA launches control packets from Long Stall Detection.
    pub lsd: bool,
    /// L1 misses announce their requests ([`SystemParams::announce_requests`]).
    pub announce_requests: bool,
    /// Memory controllers announce fills ([`SystemParams::announce_fills`]).
    pub announce_fills: bool,
    /// Factor on both of the workload's miss rates (1 = the named profile).
    pub miss_scale: f64,
}

impl SystemSpec {
    /// The paper's system, labelled `"paper"` — the default axis entry.
    pub fn paper() -> Self {
        let (ctrl, params) = (ControlConfig::default(), SystemParams::paper());
        SystemSpec {
            label: "paper".to_string(),
            max_lag: ctrl.max_lag,
            llc_window: ctrl.llc_window,
            lsd: ctrl.lsd,
            announce_requests: params.announce_requests,
            announce_fills: params.announce_fills,
            miss_scale: 1.0,
        }
    }

    /// Mesh+PRA's control-plane configuration.
    pub fn control(&self) -> ControlConfig {
        ControlConfig {
            max_lag: self.max_lag,
            llc_window: self.llc_window,
            lsd: self.lsd,
        }
    }

    /// The system parameters.
    pub fn params(&self) -> SystemParams {
        SystemParams {
            announce_requests: self.announce_requests,
            announce_fills: self.announce_fills,
            ..SystemParams::paper()
        }
    }

    /// The workload's profile with the miss rates scaled.
    pub fn profile(&self, workload: WorkloadKind) -> WorkloadProfile {
        WorkloadProfileBuilder::from(workload)
            .scale_misses(self.miss_scale)
            .build()
    }

    pub(crate) fn digest(&self, h: &mut StateHasher) {
        h.write_bytes(self.label.as_bytes());
        h.write_u8(self.max_lag);
        for switch in [
            self.llc_window,
            self.lsd,
            self.announce_requests,
            self.announce_fills,
        ] {
            h.write_u8(u8::from(switch));
        }
        h.write_u64(self.miss_scale.to_bits());
    }
}

/// The workload half of a full-system [`PointSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPoint {
    /// The CloudSuite workload.
    pub workload: WorkloadKind,
    /// The system configuration.
    pub system: SystemSpec,
}

/// The columns a workload row appends to [`crate::report::CSV_HEADER`]:
/// its keys, IPC, then the names of [`SystemRecord::counters`].
pub const SYSTEM_CSV_HEADER: &str = "workload,system,ipc,total_latency,\
     blocked_by_reservation_cycles,reserved_moves,wasted_reservations,link_traversals,\
     local_grants,cycles,injected_llc,injected_lsd,lag0,lag1,lag2,lag3,lag4plus,\
     hops_preallocated";

/// The names of [`SystemRecord::counters`], in column order.
fn counter_names() -> impl Iterator<Item = &'static str> {
    SYSTEM_CSV_HEADER.split(',').skip(3)
}

/// The full-system columns of a workload point's row.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRecord {
    /// Workload key.
    pub workload: String,
    /// System-variant label.
    pub system: String,
    /// Committed instructions per cycle over the measured window, summed
    /// over the 64 cores (the paper's performance metric).
    pub ipc: f64,
    /// Measured-window counters, named by [`SYSTEM_CSV_HEADER`]: the data
    /// network's `NetStats` fields, then the PRA control plane's (zero
    /// for the other organisations). `lag0..lag4plus` is Figure 7's
    /// lag-at-drop histogram with lags 4 and above folded together.
    pub counters: [u64; 15],
}

impl SystemRecord {
    pub(crate) fn zeroed(w: &WorkloadPoint) -> SystemRecord {
        SystemRecord {
            workload: w.workload.key().to_string(),
            system: w.system.label.clone(),
            ipc: 0.0,
            counters: [0; 15],
        }
    }

    /// The counter named `name` (a [`SYSTEM_CSV_HEADER`] column).
    pub fn counter(&self, name: &str) -> Option<u64> {
        Some(self.counters[counter_names().position(|n| n == name)?])
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("system".to_string(), Json::from(self.system.as_str())),
            ("ipc".to_string(), Json::Float(self.ipc)),
        ];
        for (name, c) in counter_names().zip(self.counters) {
            fields.push((name.to_string(), Json::UInt(c)));
        }
        Json::object(fields)
    }
}

fn counters(net: &NetStats, pra: PraStats) -> [u64; 15] {
    let lag = &pra.lag_at_drop;
    [
        net.total_latency,
        net.blocked_by_reservation_cycles,
        net.reserved_moves,
        net.wasted_reservations,
        net.link_traversals,
        net.local_grants,
        net.cycles,
        pra.injected_llc,
        pra.injected_lsd,
        lag[0],
        lag[1],
        lag[2],
        lag[3],
        lag[4..].iter().sum(),
        pra.hops_preallocated,
    ]
}

/// One attempt's system run, generic over the concrete network type.
struct SystemRun<'a> {
    p: &'a PointSpec,
    w: &'a WorkloadPoint,
    seed: u64,
    token: &'a CancelToken,
}

impl SystemRun<'_> {
    fn measure<N: Network>(&self, mut net: N) -> (f64, System<N>) {
        net.install_cancel(self.token.clone());
        let (params, profile) = (
            self.w.system.params(),
            self.w.system.profile(self.w.workload),
        );
        let mut sys = System::with_profile(params, net, profile, self.seed);
        (sys.measure(self.p.warmup, self.p.measure), sys)
    }
}

impl NetVisitor for SystemRun<'_> {
    type Out = (f64, NetStats, Option<PraStats>);
    fn visit<N: Network>(self, net: N) -> Self::Out {
        let (ipc, sys) = self.measure(net);
        (ipc, sys.network().stats().clone(), None)
    }
}

/// Runs one attempt of a full-system point with `seed`. A wall-clock
/// budget cancels the network (the cores then idle out the window), and
/// a cancelled run's row is zeroed like a synthetic point's; an
/// external cancel is honoured when the attempt ends.
pub(crate) fn run_system_attempt(
    p: &PointSpec,
    w: &WorkloadPoint,
    seed: u64,
    external: Option<&CancelToken>,
) -> PointOutcome {
    let token = CancelToken::new();
    let _wall = WallGuard::arm(p.wall_budget_ms, token.clone());
    let noc = w.system.params().noc;
    let run = SystemRun {
        p,
        w,
        seed,
        token: &token,
    };
    // The variant's control switches apply to Mesh+PRA only, and only
    // it reports control-plane counters.
    let (ipc, stats, pra) = match p.org {
        Organization::MeshPra => {
            let net = PraNetwork::with_control(noc.clone(), w.system.control());
            let (ipc, sys) = run.measure(net);
            let net = sys.network();
            (ipc, net.stats().clone(), Some(net.pra_stats().clone()))
        }
        org => with_network(org, noc.clone(), run),
    };
    let mut rec = PointRecord::zeroed(p);
    rec.seed = seed;
    if external.is_some_and(CancelToken::is_cancelled) {
        rec.status = "timeout(cancelled)".to_string();
    } else if token.is_cancelled() {
        rec.status = format!("timeout(wall>{}ms)", p.wall_budget_ms);
    } else {
        rec.injected = stats.injected();
        rec.delivered = stats.delivered();
        rec.max_latency = stats.max_latency;
        rec.avg_hops = stats.avg_hops();
        #[allow(clippy::cast_precision_loss)]
        if rec.delivered > 0 {
            rec.avg_latency = stats.total_latency as f64 / rec.delivered as f64;
            rec.throughput = rec.delivered as f64 / (p.measure * noc.nodes() as u64) as f64;
        }
        rec.system = Some(Box::new(SystemRecord {
            ipc,
            counters: counters(&stats, pra.unwrap_or_default()),
            ..SystemRecord::zeroed(w)
        }));
    }
    PointOutcome {
        record: rec,
        trail: Vec::new(),
    }
}

/// The valid `system[]` entry forms, for error messages.
const SYSTEM_FORMS: &str = "{\"label\": L} (unique, non-empty, no commas) plus any of \
     \"max_lag\": 1..=8, \"llc_window\"/\"lsd\"/\"announce_requests\"/\"announce_fills\": bool, \
     \"miss_scale\": > 0 (omitted switches keep the paper's 4/true/true/true/true/1.0)";

/// Parses the JSON `system` axis.
pub(crate) fn parse_system_list(v: &Json) -> Result<Vec<SystemSpec>, SpecError> {
    let bad = |message: String| SpecError { message };
    let Some(items) = v.as_array() else {
        return Err(bad(format!(
            "field \"system\" must be an array (valid values: {SYSTEM_FORMS})"
        )));
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, x) in items.iter().enumerate() {
        let malformed = |key: &str| {
            bad(format!(
                "field \"system\"[{i}].{key} is malformed (valid values: {SYSTEM_FORMS})"
            ))
        };
        // A label is a CSV cell and names its variant's rows, so it must
        // be non-empty, free of commas and control characters, and unique.
        let label = x.get("label").and_then(Json::as_str).filter(|l| {
            !l.is_empty()
                && !l.contains(|c: char| c == ',' || c.is_control())
                && out.iter().all(|s: &SystemSpec| s.label != *l)
        });
        let Some(label) = label else {
            return Err(malformed("label"));
        };
        let mut spec = SystemSpec {
            label: label.to_string(),
            ..SystemSpec::paper()
        };
        if let Some(v) = x.get("max_lag") {
            spec.max_lag = v
                .as_u64()
                .and_then(|l| u8::try_from(l).ok())
                .filter(|l| (1..=8).contains(l))
                .ok_or_else(|| malformed("max_lag"))?;
        }
        for (key, switch) in [
            ("llc_window", &mut spec.llc_window),
            ("lsd", &mut spec.lsd),
            ("announce_requests", &mut spec.announce_requests),
            ("announce_fills", &mut spec.announce_fills),
        ] {
            match x.get(key) {
                None => {}
                Some(Json::Bool(b)) => *switch = *b,
                Some(_) => return Err(malformed(key)),
            }
        }
        if let Some(v) = x.get("miss_scale") {
            spec.miss_scale = v
                .as_f64()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| malformed("miss_scale"))?;
        }
        out.push(spec);
    }
    Ok(out)
}
