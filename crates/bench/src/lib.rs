//! # bench — the figure renderer and simulator benchmarks
//!
//! `figures` renders the paper's tables from `runner --bin sweep` rows
//! (see DESIGN.md's experiment index); the other binaries are the
//! interactive simulator (`nocsim`), the simulator-throughput baseline
//! (`perf_baseline`), the fault-injection robustness gate
//! (`fault_sweep`) and a few diagnostics. This library holds what they
//! share: the organisation glue re-exported from `runner`, the
//! throughput gate, and the Chrome-trace writer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use runner::{build_network, with_network, BoxedNet, NetVisitor, Organization};

pub mod gate;

/// Writes a Chrome/Perfetto `trace_event` JSON file assembled from a
/// recorder's completed flights plus the control-plane instants still in
/// its ring log.
pub fn write_chrome_trace(rec: &niobs::Recorder, path: &str) -> std::io::Result<()> {
    let instants: Vec<niobs::TimedEvent> = rec.log.iter().cloned().collect();
    let doc = niobs::chrome_trace(rec.flights.completed(), &instants);
    std::fs::write(path, doc.to_string())
}
