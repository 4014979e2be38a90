//! The benchmark's own checks: the traced wrapper changes nothing the
//! simulator computes, a wrong output is counted as a failed operation,
//! and `BENCHMARK.json` names exactly the metrics this code prints.

use std::path::{Path, PathBuf};

use nistats::Json;
use noc::network::{Delivered, Network};
use noc::traffic::{Pattern, TrafficGen};
use runner::{with_network, NetVisitor, Organization};
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

use crate::metrics::{end_to_end_names, per_layer_names};
use crate::ops::{Kind, Org};
use crate::trace::{SharedTrace, Timed};
use crate::{manifest_dir, new_trace, out_dir, Session, DEFAULT_SEED, WORKLOADS};

const ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::Smart,
    Organization::MeshPra,
    Organization::Ideal,
    Organization::Frfc,
];

/// What a run computed: final digest, statistics (rendered, since
/// `NetStats` has no `PartialEq`), deliveries and committed instructions.
type Outputs = (Option<u64>, String, u64, u64);

/// Drives an organisation for a while, plain or wrapped in [`Timed`];
/// `system` selects the full system over `TrafficGen` traffic.
struct Drive {
    trace: Option<SharedTrace>,
    system: bool,
}

impl Drive {
    fn run<N: Network>(&self, net: N) -> Outputs {
        if self.system {
            let mut sys = System::new(SystemParams::paper(), net, WorkloadKind::MediaStreaming, 7);
            sys.run(3_000);
            let n = sys.network();
            (
                n.state_digest(),
                format!("{:?}", n.stats()),
                n.stats().delivered(),
                sys.committed_instructions(),
            )
        } else {
            let mut net = net;
            let mut gen = TrafficGen::new(net.config().clone(), Pattern::UniformRandom, 0.06, 7);
            let mut buf: Vec<Delivered> = Vec::new();
            let mut delivered = 0;
            for _ in 0..3_000 {
                gen.tick(&mut net);
                net.step();
                net.drain_delivered_into(&mut buf);
                delivered += buf.len() as u64;
                buf.clear();
            }
            (
                net.state_digest(),
                format!("{:?}", net.stats()),
                delivered,
                0,
            )
        }
    }
}

impl NetVisitor for Drive {
    type Out = Outputs;
    fn visit<N: Network>(self, net: N) -> Outputs {
        match &self.trace {
            Some(t) => self.run(Timed::new(net, t.clone())),
            None => self.run(net),
        }
    }
}

#[test]
fn timed_wrapper_perturbs_nothing() {
    let cfg = SystemParams::paper().noc;
    for system in [false, true] {
        for org in ORGS {
            let plain = with_network(
                org,
                cfg.clone(),
                Drive {
                    trace: None,
                    system,
                },
            );
            let trace = new_trace();
            let wrapped = with_network(
                org,
                cfg.clone(),
                Drive {
                    trace: Some(trace.clone()),
                    system,
                },
            );
            assert_eq!(plain, wrapped, "{org:?} (system: {system})");
            assert!(plain.2 > 0, "{org:?} delivered nothing");
            let spans = trace.borrow();
            assert!(spans.spans().iter().any(|s| s.name == "Network::step"));
            assert!(spans.spans().iter().any(|s| s.name == "Network::inject"));
        }
    }
}

/// A copy of the committed references in a fresh directory, with `edit`
/// applied to the file `name`.
fn edited_reference(tag: &str, name: &str, edit: impl FnOnce(String) -> String) -> PathBuf {
    let dir = out_dir().join(format!("test-reference-{tag}"));
    std::fs::create_dir_all(&dir).expect("create the test reference directory");
    let mut edit = Some(edit);
    for file in ["ops.json", "sweep-grid.csv"] {
        let text = std::fs::read_to_string(manifest_dir().join("reference").join(file))
            .expect("committed reference");
        let text = match edit.take_if(|_| file == name) {
            Some(edit) => edit(text),
            None => text,
        };
        std::fs::write(dir.join(file), text).expect("write the test reference");
    }
    dir
}

#[test]
fn committed_reference_passes_and_a_perturbed_one_fails() {
    let committed = manifest_dir().join("reference");
    let mut ok = Session::new(DEFAULT_SEED, &committed);
    assert!(ok.op(Kind::NocUniform, Org::Mesh, 0, None).is_some());
    assert_eq!(
        (ok.tally.attempted, ok.tally.failed),
        (1, 0),
        "{:?}",
        ok.tally.failures
    );

    // One field of the first noc-uniform entry (mesh, sub-seed 0) changed.
    let dir = edited_reference("ops", "ops.json", |text| {
        let at = text.find("\"delivered\": ").expect("a delivered field") + 13;
        let end = at
            + text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("digits end");
        let n: u64 = text[at..end].parse().expect("a count");
        format!("{}{}{}", &text[..at], n + 1, &text[end..])
    });
    let mut bad = Session::new(DEFAULT_SEED, &dir);
    assert!(bad.op(Kind::NocUniform, Org::Mesh, 0, None).is_some());
    assert_eq!((bad.tally.attempted, bad.tally.failed), (1, 1));
    assert!(
        bad.tally.failures[0].contains("delivered differs"),
        "{:?}",
        bad.tally.failures
    );

    // Off the default seed only invariants are checked.
    let mut other = Session::new(DEFAULT_SEED + 1, &dir);
    assert!(!other.compare);
    other.op(Kind::NocUniform, Org::Mesh, 0, None);
    assert_eq!(other.tally.failed, 0, "{:?}", other.tally.failures);
}

#[test]
fn perturbed_sweep_row_fails_that_point_only() {
    let spec = crate::spec_text().expect("committed spec");
    let dir = edited_reference("sweep", "sweep-grid.csv", |text| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[4].push('0');
        lines.join("\n") + "\n"
    });
    let mut session = Session::new(DEFAULT_SEED, &dir);
    let run = session.sweep(&spec, None).expect("the sweep runs");
    assert_eq!(session.tally.attempted, run.records.len() as u64);
    assert_eq!(session.tally.failed, 1, "{:?}", session.tally.failures);
    assert!(session.tally.failures[0].starts_with("FAILED sweep-grid point 3:"));
}

#[test]
fn traced_runs_reproduce_untraced_outputs() {
    let mut session = Session::new(DEFAULT_SEED, &manifest_dir().join("reference"));
    let trace = new_trace();
    session.op(Kind::SysMedia, Org::MeshPra, 1, None);
    session.op(Kind::SysMedia, Org::MeshPra, 1, Some(&trace));
    assert_eq!(session.tally.failed, 0, "{:?}", session.tally.failures);
    let spans = trace.borrow();
    for name in [
        "System::step",
        "Network::announce",
        "Network::drain_delivered",
    ] {
        assert!(
            spans.spans().iter().any(|s| s.name == name),
            "no {name} span"
        );
    }
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = Path::new(manifest_dir()).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let code = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(names(&doc, "end_to_end"), code(end_to_end_names()));
    assert_eq!(names(&doc, "per_layer"), code(per_layer_names()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
