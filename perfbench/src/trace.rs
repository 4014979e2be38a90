//! Outside-in tracing: spans recorded by the benchmark around the calls
//! its own loops make into the simulator's public functions.
//!
//! Untraced runs use [`Untraced`], whose `span` is a plain call, and
//! drive the networks unwrapped. A traced run records spans through a
//! [`SharedTrace`] and wraps the network in [`Timed`], so every
//! `Network::{step, inject, announce, drain_delivered(_into)}` call the
//! benchmark loop or `sysmodel::System` makes becomes a span whose
//! parent is the span open around it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use niobs::SparseHistogram;
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::stats::NetStats;
use noc::types::Cycle;
use pra::network::PraNetwork;
use pra::stats::PraStats;

/// One recorded call: `[start_ns, end_ns)` since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The function called, e.g. `"Network::step"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The simulated cycle of the call, or the sweep point index.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Appends a span measured elsewhere (another thread's call).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// A trace shared between the benchmark loop and the [`Timed`] network it drives.
pub type SharedTrace = Rc<RefCell<Trace>>;

/// Where the benchmark loop's own spans go.
pub trait Tracer {
    /// Whether spans are recorded (loops skip trace-only sampling when not).
    const ENABLED: bool;
    /// Runs `f` inside a span named `name` with identifier `id`.
    fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R;
}

/// Records nothing: `span` is the bare call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    const ENABLED: bool = false;
    #[inline(always)]
    fn span<R>(&self, _name: &'static str, _id: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Tracer for SharedTrace {
    const ENABLED: bool = true;
    fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.borrow_mut().open(name, id);
        let out = f();
        self.borrow_mut().close();
        out
    }
}

/// Read access to the Mesh+PRA control-plane counters, where the
/// organisation has them. `runner::NetVisitor` hands its visitor only a
/// `N: Network`, which cannot reach `PraNetwork::pra_stats`, so the
/// benchmark's two-organisation workloads dispatch on this trait instead.
pub trait Probe: Network {
    /// Control-plane statistics (`None` without a PRA control plane).
    fn pra_stats(&self) -> Option<&PraStats> {
        None
    }
}

impl Probe for MeshNetwork {}

impl Probe for PraNetwork {
    fn pra_stats(&self) -> Option<&PraStats> {
        Some(PraNetwork::pra_stats(self))
    }
}

/// A network that records a span around each data-path call and
/// otherwise forwards everything to the wrapped network unchanged.
#[derive(Debug)]
pub struct Timed<N> {
    inner: N,
    trace: SharedTrace,
}

impl<N: Network> Timed<N> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: N, trace: SharedTrace) -> Self {
        Timed { inner, trace }
    }
}

impl<N: Probe> Probe for Timed<N> {
    fn pra_stats(&self) -> Option<&PraStats> {
        self.inner.pra_stats()
    }
}

impl<N: Network> Network for Timed<N> {
    fn config(&self) -> &NocConfig {
        self.inner.config()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn inject(&mut self, packet: Packet) {
        let now = self.inner.now();
        self.trace
            .span("Network::inject", now, || self.inner.inject(packet));
    }
    fn step(&mut self) {
        let now = self.inner.now();
        self.trace.span("Network::step", now, || self.inner.step());
    }
    fn drain_delivered(&mut self) -> Vec<Delivered> {
        let now = self.inner.now();
        self.trace.span("Network::drain_delivered", now, || {
            self.inner.drain_delivered()
        })
    }
    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        let now = self.inner.now();
        self.trace.span("Network::drain_delivered", now, || {
            self.inner.drain_delivered_into(out);
        });
    }
    fn set_skip_ahead(&mut self, enabled: bool) {
        self.inner.set_skip_ahead(enabled);
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn announce(&mut self, packet: &Packet, lead: u32) {
        let now = self.inner.now();
        self.trace.span("Network::announce", now, || {
            self.inner.announce(packet, lead)
        });
    }
    fn install_cancel(&mut self, token: noc::cancel::CancelToken) {
        self.inner.install_cancel(token);
    }
    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
    fn audit(&self) -> Option<noc::watchdog::AuditReport> {
        self.inner.audit()
    }
    fn reliable_stats(&self) -> Option<noc::reliable::ReliableStats> {
        self.inner.reliable_stats()
    }
    fn install_obs(&mut self, sink: niobs::SharedSink) {
        self.inner.install_obs(sink);
    }
}

/// Per-name totals of a span log: call count, total and self time, and
/// an exact histogram of durations.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// Calls recorded.
    pub calls: u64,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Sum of span durations minus their child spans (ns).
    pub self_ns: u64,
    /// Exact distribution of span durations (ns).
    pub hist: SparseHistogram,
}

/// Adds the spans named `name` whose `id` is at least `from_id` to `acc`.
pub fn add_layer_times(acc: &mut LayerTimes, spans: &[Span], name: &str, from_id: u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.ns();
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if span.name == name && span.id >= from_id {
            acc.calls += 1;
            acc.total_ns += span.ns();
            acc.self_ns += span.ns().saturating_sub(child_ns[i]);
            acc.hist.record(span.ns());
        }
    }
}

/// Writes spans as tab-separated lines:
/// `index  name  start_ns  end_ns  parent(-1 = none)  id`.
pub fn write_spans(path: &std::path::Path, sections: &[(&str, &[Span])]) -> std::io::Result<()> {
    use std::io::Write as _;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "# section\tindex\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (section, spans) in sections {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            writeln!(
                out,
                "{section}\t{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 5,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 5,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                id: 5,
            },
        ];
        let times = |name, from| {
            let mut acc = LayerTimes::default();
            add_layer_times(&mut acc, &spans, name, from);
            acc
        };
        let outer = times("outer", 0);
        assert_eq!((outer.calls, outer.total_ns, outer.self_ns), (1, 100, 60));
        let inner = times("inner", 0);
        assert_eq!((inner.calls, inner.total_ns, inner.self_ns), (2, 40, 40));
        assert_eq!(times("outer", 6).calls, 0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let trace: SharedTrace = Rc::new(RefCell::new(Trace::new()));
        trace.span("a", 1, || trace.span("b", 1, || ()));
        let t = trace.borrow();
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
