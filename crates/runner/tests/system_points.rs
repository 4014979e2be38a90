//! Full-system point equivalence: a workload point of a sweep must
//! report exactly what a hand-built `System` measures with the point's
//! seed — the IPC bit for bit, and the measured-window counters. This is
//! what lets the paper's figures be views of golden-gated sweep rows: a
//! figure number can change only through the point's derived seed.

use noc::mesh::MeshNetwork;
use noc::network::Network;
use pra::network::PraNetwork;
use pra::ControlConfig;
use runner::{
    parse_point_line, point_line, run_point, run_point_full, with_network, NetVisitor,
    Organization, PointSpec, SweepSpec,
};
use sysmodel::{System, SystemParams};
use workloads::{WorkloadKind, WorkloadProfileBuilder};

const WARMUP: u64 = 500;
const MEASURE: u64 = 1_500;

/// A workload grid with the test windows; `axes` are extra JSON fields.
fn grid(axes: &str) -> Vec<PointSpec> {
    let text =
        format!(r#"{{"name": "system-eq", "warmup": {WARMUP}, "measure": {MEASURE}, {axes}}}"#);
    SweepSpec::from_json_str(&text)
        .expect("valid spec")
        .points()
}

/// `System::new(paper params, net, workload, seed).measure(..)`, plus
/// the network's measured-window delivery count.
struct HandBuilt {
    workload: WorkloadKind,
    seed: u64,
}

impl NetVisitor for HandBuilt {
    type Out = (f64, u64);
    fn visit<N: Network>(self, net: N) -> (f64, u64) {
        let mut sys = System::new(SystemParams::paper(), net, self.workload, self.seed);
        let ipc = sys.measure(WARMUP, MEASURE);
        (ipc, sys.network().stats().delivered())
    }
}

#[test]
fn workload_points_match_a_hand_built_system_for_every_organization() {
    let axes = r#""orgs": ["mesh", "smart", "mesh_pra", "ideal", "frfc"],
                   "workloads": ["media_streaming", "sat_solver"]"#;
    for p in grid(axes) {
        let workload = p.workload.as_ref().expect("workload point").workload;
        let outcome = run_point_full(&p);
        assert_eq!(
            parse_point_line(&point_line(&outcome)).as_ref(),
            Some(&outcome),
            "workload rows round-trip through the journal line"
        );
        let rec = outcome.record;
        let sys = rec
            .system
            .as_ref()
            .expect("workload rows carry system columns");
        let seed = p.seed;
        let (ipc, delivered) = with_network(
            p.org,
            SystemParams::paper().noc,
            HandBuilt { workload, seed },
        );
        assert_eq!(
            (
                rec.status.as_str(),
                sys.ipc.to_bits(),
                rec.delivered,
                sys.counter("cycles")
            ),
            ("ok", ipc.to_bits(), delivered, Some(MEASURE)),
            "{} on {}: sweep IPC {} vs hand-built {ipc}",
            p.org.key(),
            workload.key(),
            sys.ipc
        );
    }
}

#[test]
fn system_variants_match_with_control_and_scale_misses() {
    let axes = r#""orgs": ["mesh_pra", "mesh"], "workloads": ["media_streaming"],
        "system": [{"label": "lag2", "max_lag": 2},
                   {"label": "paper_text", "lsd": false, "announce_requests": false,
                    "announce_fills": false},
                   {"label": "miss0.6", "miss_scale": 0.6}]"#;
    for p in grid(axes) {
        let w = p.workload.as_ref().expect("workload point");
        let s = &w.system;
        let params = SystemParams {
            announce_requests: s.announce_requests,
            announce_fills: s.announce_fills,
            ..SystemParams::paper()
        };
        let profile = WorkloadProfileBuilder::from(w.workload)
            .scale_misses(s.miss_scale)
            .build();
        let rec = run_point(&p);
        let sys = rec.system.as_ref().expect("system columns");
        let ipc = if p.org == Organization::MeshPra {
            let ctrl = ControlConfig {
                max_lag: s.max_lag,
                llc_window: s.llc_window,
                lsd: s.lsd,
            };
            let net = PraNetwork::with_control(params.noc.clone(), ctrl);
            let mut hand = System::with_profile(params, net, profile, p.seed);
            let ipc = hand.measure(WARMUP, MEASURE);
            let pra = hand.network().pra_stats();
            assert_eq!(sys.counter("injected_llc"), Some(pra.injected_llc));
            assert_eq!(sys.counter("injected_lsd"), Some(pra.injected_lsd));
            assert_eq!(
                sys.counter("hops_preallocated"),
                Some(pra.hops_preallocated)
            );
            ipc
        } else {
            let net = MeshNetwork::new(params.noc.clone());
            System::with_profile(params, net, profile, p.seed).measure(WARMUP, MEASURE)
        };
        assert_eq!(
            sys.ipc.to_bits(),
            ipc.to_bits(),
            "{} under {}: sweep IPC {} vs hand-built {ipc}",
            p.org.key(),
            s.label,
            sys.ipc
        );
    }
}
