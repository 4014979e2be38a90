//! Proof that the PRA control plane performs **zero heap allocations** in
//! steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The first
//! case drives a [`MeshNetwork`] and a [`ControlNetwork`] by hand under
//! loaded traffic: announced multi-flit responses launched through
//! [`ControlNetwork::launch_llc`] (the LLC window) and single-flit
//! requests that stall behind them and fire Long Stall Detection. After a
//! warm-up that grows every reusable buffer to its working capacity, the
//! counter is armed only around the control-plane calls —
//! [`lsd::scan_and_launch`], `launch_llc` and [`ControlNetwork::process`]
//! (which installs reservations in the mesh) — while the traffic goes on.
//! Injection, stepping and draining stay unmeasured: registering a new
//! packet legitimately allocates.
//!
//! The second case covers [`PraNetwork::step`] as a whole on an idle
//! fabric, with the quiescent fast path disabled so the full pipeline
//! (pending announces, LSD scan, control processing, mesh phases,
//! reservation calendar) runs every cycle.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests in one process, and a sibling test allocating on another
//! thread while the counter is armed would make the count flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nistats::rng::Rng;
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::types::{MessageClass, NodeId, PacketId};
use pra::control::{ControlConfig, ControlNetwork};
use pra::lsd;
use pra::network::PraNetwork;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the wrapper only
// increments an atomic counter and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    r
}

/// Hand-driven Mesh+PRA under announced-response and request traffic,
/// the announce protocol of [`PraNetwork`] spelled out: a response is
/// launched at `t` with its head due at `t + 4`, and injected four
/// cycles later.
struct LoadedFabric {
    mesh: MeshNetwork,
    ctrl: ControlNetwork,
    rng: Rng,
    /// `(inject_at, packet)` for announced responses.
    queue: Vec<(u64, Packet)>,
    delivered: Vec<Delivered>,
    next_id: u64,
}

impl LoadedFabric {
    fn new() -> Self {
        let cfg = NocConfig::paper();
        let ctrl_cfg = ControlConfig::default();
        let mut mesh = MeshNetwork::new(cfg.clone());
        mesh.set_reservation_lag(ctrl_cfg.max_lag);
        LoadedFabric {
            mesh,
            ctrl: ControlNetwork::new(cfg, ctrl_cfg),
            rng: Rng::new(2017),
            queue: Vec::with_capacity(1024),
            delivered: Vec::with_capacity(4096),
            next_id: 0,
        }
    }

    fn packet(&mut self, class: MessageClass, len: u8) -> Packet {
        let src = self.rng.gen_range_u16(0, 64);
        let dest = (src + self.rng.gen_range_u16(1, 64)) % 64;
        self.next_id += 1;
        Packet::new(
            PacketId(self.next_id),
            NodeId::new(src),
            NodeId::new(dest),
            class,
            len,
        )
    }

    /// One cycle; the control-plane calls run through `measure`.
    fn cycle(&mut self, measure: fn(&mut dyn FnMut())) {
        let t = self.mesh.now() + 1;
        if self.rng.gen_bool(0.35) {
            let p = self.packet(MessageClass::Response, 5);
            let (mesh, ctrl) = (&self.mesh, &mut self.ctrl);
            measure(&mut || {
                ctrl.launch_llc(mesh, p.src, p.dest, p.id, p.class, p.len_flits, t, t + 4);
            });
            self.queue.push((self.mesh.now() + 4, p));
        }
        if self.rng.gen_bool(0.6) {
            let p = self.packet(MessageClass::Request, 1);
            self.mesh.inject(p);
        }
        let (mesh, ctrl) = (&mut self.mesh, &mut self.ctrl);
        measure(&mut || {
            lsd::scan_and_launch(mesh, ctrl);
            ctrl.process(mesh);
        });
        self.mesh.step();
        let now = self.mesh.now();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].0 == now {
                let (_, p) = self.queue.swap_remove(i);
                self.mesh.inject(p.at(now));
            } else {
                i += 1;
            }
        }
        self.mesh.drain_delivered_into(&mut self.delivered);
        self.delivered.clear();
    }
}

fn unmeasured(f: &mut dyn FnMut()) {
    f();
}

fn measured(f: &mut dyn FnMut()) {
    counted(f);
}

#[test]
fn pra_control_plane_never_allocates_in_steady_state() {
    // Case 1: the control plane under load.
    let mut d = LoadedFabric::new();
    for _ in 0..30_000 {
        d.cycle(unmeasured);
    }
    ALLOCATIONS.store(0, Ordering::SeqCst);
    let (llc0, lsd0) = (d.ctrl.stats().injected_llc, d.ctrl.stats().injected_lsd);
    let segments0 = d.ctrl.stats().segments_processed;
    for _ in 0..5_000 {
        d.cycle(measured);
    }
    let count = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = d.ctrl.stats();
    assert!(
        stats.injected_llc > llc0 && stats.injected_lsd > lsd0,
        "the measured window must launch from both opportunity windows"
    );
    assert!(
        stats.segments_processed > segments0 + 5_000,
        "the control plane must be busy"
    );
    assert_eq!(
        count, 0,
        "the loaded control plane performed {count} heap allocations; \
         launches, LSD scans and segment processing must reuse their storage"
    );

    // Case 2: `PraNetwork::step` over an idle fabric, full pipeline.
    let cfg = NocConfig::paper();
    let mut net = PraNetwork::new(cfg);
    net.set_skip_ahead(false);
    let mut rng = Rng::new(7);
    let mut delivered = Vec::with_capacity(4096);
    let mut pending: Vec<(u64, Packet)> = Vec::with_capacity(1024);
    for id in 1..=3_000u64 {
        let src = rng.gen_range_u16(0, 64);
        let dest = (src + rng.gen_range_u16(1, 64)) % 64;
        if id % 2 == 0 {
            let p = Packet::new(
                PacketId(id),
                NodeId::new(src),
                NodeId::new(dest),
                MessageClass::Response,
                5,
            );
            net.announce(&p, 4);
            pending.push((net.now() + 4, p));
        } else {
            net.inject(Packet::new(
                PacketId(id),
                NodeId::new(src),
                NodeId::new(dest),
                MessageClass::Request,
                1,
            ));
        }
        net.step();
        let now = net.now();
        pending.retain(|&(at, p)| {
            if at == now {
                net.inject(p.at(now));
            }
            at != now
        });
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    for _ in 0..10_000 {
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
        if net.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(net.in_flight(), 0, "fabric must drain before measuring");
    assert!(net.pra_stats().injected_llc > 0, "the warm-up must use PRA");

    ALLOCATIONS.store(0, Ordering::SeqCst);
    counted(|| {
        for _ in 0..10_000 {
            net.step();
            net.drain_delivered_into(&mut delivered);
            delivered.clear();
        }
    });
    let count = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "idle PraNetwork stepping performed {count} heap allocations"
    );
}
