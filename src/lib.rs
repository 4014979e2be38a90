//! # near-ideal-noc
//!
//! A from-scratch Rust reproduction of **“Near-Ideal Networks-on-Chip for
//! Servers”** (Lotfi-Kamran, Modarressi, Sarbazi-Azad — HPCA 2017): a
//! cycle-accurate NoC simulator (mesh, SMART, ideal), the paper's
//! proactive-resource-allocation (PRA) control plane, a 64-core tiled
//! server-processor model with synthetic CloudSuite workloads, and the
//! technology models behind the paper's area/power/density analyses.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`noc`] — the interconnect simulator substrate;
//! * [`pra`] — the paper's contribution (control network, LSD, Mesh+PRA);
//! * [`sysmodel`] — the full-system driver;
//! * [`workloads`] — deterministic server workload profiles;
//! * [`techmodel`] — 32 nm area/energy/timing models;
//! * [`nistats`] — sampling and summary statistics.
//!
//! ## Quick start
//!
//! ```
//! use near_ideal_noc::prelude::*;
//!
//! let params = SystemParams::paper();
//! let net = PraNetwork::new(params.noc.clone());
//! let mut sys = System::new(params, net, WorkloadKind::WebSearch, 1);
//! let perf = sys.measure(1_000, 2_000);
//! assert!(perf > 0.0);
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record, and `cargo run -p bench --bin figures` to
//! render every table and figure from the committed sweep goldens.

#![warn(missing_docs)]

pub use nistats;
pub use noc;
pub use pra;
pub use sysmodel;
pub use techmodel;
pub use workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use nistats::{geometric_mean, SampleSpec, Summary};
    pub use noc::config::{NocConfig, NocConfigBuilder};
    pub use noc::ideal::IdealNetwork;
    pub use noc::mesh::MeshNetwork;
    pub use noc::network::{Delivered, Network};
    pub use noc::smart::SmartNetwork;
    pub use noc::types::{Cycle, MessageClass, NodeId, PacketId};
    pub use pra::network::PraNetwork;
    pub use pra::{ControlConfig, PraStats};
    pub use sysmodel::{System, SystemParams};
    pub use techmodel::{NocAreaBreakdown, NocOrganization, NocPower};
    pub use workloads::{WorkloadKind, WorkloadProfile};
}
