//! Per-output-port timeslot reservation tables.
//!
//! These tables are the software analogue of the paper's per-output-port
//! bit vectors (*Valid*, *Input Select*, *Local VC Select*, *Downstream VC
//! Select*, Figure 4). Hardware shifts the vectors left each cycle; the
//! simulator instead keeps each port's slots in a table sorted by absolute
//! cycle, files every slot in a fabric-wide calendar
//! ([`crate::calendar`]) so each cycle visits only the slots due, and
//! prunes expired entries — behaviourally identical and much cheaper to
//! model.
//!
//! The tables are pure mechanism: the PRA control network (in the `pra`
//! crate) decides *what* to reserve; the mesh datapath in this crate only
//! executes reservations and refuses to grant reactive traffic on reserved
//! timeslots.

use crate::types::{Cycle, Direction, PacketId, Port};

/// Where a reserved traversal reads its flit from at this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitSource {
    /// The front of the local input VC `(port, vc)` (the *Local VC Select*
    /// field of the paper's bit vectors).
    Vc {
        /// Input port holding the flit.
        port: Port,
        /// Virtual channel within that port.
        vc: usize,
    },
    /// The single-flit latch of input direction `from` (a flit parked here
    /// during the previous cycle of a multi-hop path).
    Latch {
        /// Direction the flit originally arrived from.
        from: Direction,
    },
    /// The flit arrives over the incoming link *this same cycle* and passes
    /// straight through the crossbar (single-cycle multi-hop bypass).
    Bypass {
        /// Direction the flit arrives from.
        from: Direction,
    },
}

/// What happens at the downstream end of a reserved traversal
/// (the *Downstream VC Select* field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// Enter the downstream VC buffer (end of the pre-allocated path, or
    /// arrival at the destination router).
    Vc(usize),
    /// Park in the downstream input latch for one cycle and continue the
    /// pre-allocated path next cycle.
    Latch,
    /// Continue through the downstream crossbar in the same cycle
    /// (the downstream router also holds a [`FlitSource::Bypass`]
    /// reservation for this flit at this cycle).
    Bypass,
}

/// One reserved timeslot on an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Packet the slot belongs to.
    pub packet: PacketId,
    /// Flit sequence number expected to use the slot.
    pub seq: u8,
    /// Where the flit is read from at this router.
    pub source: FlitSource,
    /// What happens at the downstream router.
    pub landing: Landing,
}

/// One slot as stored: a cycle and a [`Reservation`] packed into 24
/// bytes, well under half the size of the pair (the per-port tables are
/// the bulk of the PRA state the hot loop walks).
#[derive(Debug, Clone, Copy)]
struct Slot {
    cycle: Cycle,
    packet: PacketId,
    /// VC of a [`FlitSource::Vc`] source.
    source_vc: u16,
    /// VC of a [`Landing::Vc`] landing.
    landing_vc: u16,
    seq: u8,
    /// [`FlitSource`] variant: 0 `Vc`, 1 `Latch`, 2 `Bypass`.
    source_kind: u8,
    /// The source's port index (`Vc`) or direction (`Latch`, `Bypass`).
    source_at: u8,
    /// [`Landing`] variant: 0 `Vc`, 1 `Latch`, 2 `Bypass`.
    landing_kind: u8,
}

impl Slot {
    fn pack(cycle: Cycle, r: Reservation) -> Slot {
        let (source_kind, source_at, source_vc) = match r.source {
            FlitSource::Vc { port, vc } => (0, port.index() as u8, Slot::pack_vc(vc)),
            FlitSource::Latch { from } => (1, from as u8, 0),
            FlitSource::Bypass { from } => (2, from as u8, 0),
        };
        let (landing_kind, landing_vc) = Slot::pack_landing(r.landing);
        Slot {
            cycle,
            packet: r.packet,
            source_vc,
            landing_vc,
            seq: r.seq,
            source_kind,
            source_at,
            landing_kind,
        }
    }

    fn pack_vc(vc: usize) -> u16 {
        u16::try_from(vc).expect("VC index fits in u16")
    }

    fn pack_landing(landing: Landing) -> (u8, u16) {
        match landing {
            Landing::Vc(vc) => (0, Slot::pack_vc(vc)),
            Landing::Latch => (1, 0),
            Landing::Bypass => (2, 0),
        }
    }

    fn reservation(&self) -> Reservation {
        let dir = Direction::ALL[usize::from(self.source_at) % 4];
        let source = match self.source_kind {
            0 => FlitSource::Vc {
                port: Port::from_index(usize::from(self.source_at)),
                vc: usize::from(self.source_vc),
            },
            1 => FlitSource::Latch { from: dir },
            _ => FlitSource::Bypass { from: dir },
        };
        let landing = match self.landing_kind {
            0 => Landing::Vc(usize::from(self.landing_vc)),
            1 => Landing::Latch,
            _ => Landing::Bypass,
        };
        Reservation {
            packet: self.packet,
            seq: self.seq,
            source,
            landing,
        }
    }
}

/// Timeslot reservation table for a single output port.
///
/// Held as a cycle-sorted vector of packed slots: a port rarely holds
/// more than a few packets' slots, so binary search plus a short shift
/// beats a tree, and the vector's capacity is recycled instead of
/// allocating a node per install the way a `BTreeMap` does.
///
/// # Examples
///
/// ```
/// use noc::reserve::{FlitSource, Landing, OutputSchedule, Reservation};
/// use noc::types::{PacketId, Port};
///
/// let mut sched = OutputSchedule::new();
/// let r = Reservation {
///     packet: PacketId(9),
///     seq: 0,
///     source: FlitSource::Vc { port: Port::Local, vc: 2 },
///     landing: Landing::Vc(2),
/// };
/// assert!(sched.try_insert(100, r));
/// assert!(sched.is_reserved(100));
/// assert!(!sched.is_reserved(101));
/// assert_eq!(sched.get(100), Some(r));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OutputSchedule {
    /// Slots in strictly ascending cycle order.
    slots: Vec<Slot>,
}

impl OutputSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        OutputSchedule::default()
    }

    /// Makes room for `n` slots in total, so inserts up to that many
    /// never allocate.
    pub fn reserve_total(&mut self, n: usize) {
        self.slots.reserve(n.saturating_sub(self.slots.len()));
    }

    /// Index of `cycle`'s slot, or where it would be inserted.
    #[inline]
    fn search(&self, cycle: Cycle) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&cycle, |s| s.cycle)
    }

    /// Index of the first slot at or after `cycle`.
    #[inline]
    fn lower_bound(&self, cycle: Cycle) -> usize {
        self.slots.partition_point(|s| s.cycle < cycle)
    }

    /// The slots at cycles within `cycles`, in cycle order.
    fn slots_in(&self, cycles: std::ops::Range<Cycle>) -> &[Slot] {
        let lo = self.lower_bound(cycles.start);
        let hi = lo + self.slots[lo..].partition_point(|s| s.cycle < cycles.end);
        &self.slots[lo..hi]
    }

    /// Whether any packet holds `cycle`.
    pub fn is_reserved(&self, cycle: Cycle) -> bool {
        self.search(cycle).is_ok()
    }

    /// The reservation at `cycle`, if any.
    pub fn get(&self, cycle: Cycle) -> Option<Reservation> {
        self.search(cycle).ok().map(|i| self.slots[i].reservation())
    }

    /// Whether every cycle in `cycles` is free (or already held by
    /// `packet`, which never conflicts with itself).
    pub fn range_free(&self, cycles: std::ops::Range<Cycle>, packet: PacketId) -> bool {
        self.slots_in(cycles).iter().all(|s| s.packet == packet)
    }

    /// How many of `packet`'s slots lie within `cycles`.
    pub fn count_in(&self, cycles: std::ops::Range<Cycle>, packet: PacketId) -> usize {
        self.slots_in(cycles)
            .iter()
            .filter(|s| s.packet == packet)
            .count()
    }

    /// Inserts a reservation; fails (returning `false`) if the slot is held
    /// by a different packet.
    pub fn try_insert(&mut self, cycle: Cycle, r: Reservation) -> bool {
        match self.search(cycle) {
            Ok(i) if self.slots[i].packet != r.packet => false,
            Ok(i) => {
                self.slots[i] = Slot::pack(cycle, r);
                true
            }
            Err(i) => {
                self.slots.insert(i, Slot::pack(cycle, r));
                true
            }
        }
    }

    /// Removes and returns the reservation at `cycle`.
    pub fn take(&mut self, cycle: Cycle) -> Option<Reservation> {
        self.search(cycle)
            .ok()
            .map(|i| self.slots.remove(i).reservation())
    }

    /// Updates the landing of `packet`'s reservations at every cycle in
    /// `cycles` (the ACK signal converting a conservative full-buffer
    /// landing into a latch/bypass pass-through). Returns the number of
    /// slots updated.
    pub fn update_landing(
        &mut self,
        cycles: std::ops::Range<Cycle>,
        packet: PacketId,
        landing: Landing,
    ) -> usize {
        let (kind, vc) = Slot::pack_landing(landing);
        let mut n = 0;
        let lo = self.lower_bound(cycles.start);
        for s in &mut self.slots[lo..] {
            if s.cycle >= cycles.end {
                break;
            }
            if s.packet == packet {
                s.landing_kind = kind;
                s.landing_vc = vc;
                n += 1;
            }
        }
        n
    }

    /// Removes all reservations of `packet` for flits with sequence number
    /// `>= from_seq` at cycles `>= from_cycle`, appending the removed
    /// entries to `out` in cycle order. Used when a forced move finds its
    /// flit missing: earlier flits already in the pre-allocated path keep
    /// their slots so they can drain, later flits fall back to reactive
    /// routing.
    pub fn cancel_packet_into(
        &mut self,
        packet: PacketId,
        from_seq: u8,
        from_cycle: Cycle,
        out: &mut Vec<(Cycle, Reservation)>,
    ) {
        let lo = self.lower_bound(from_cycle);
        let mut keep = lo;
        for i in lo..self.slots.len() {
            let s = self.slots[i];
            if s.packet == packet && s.seq >= from_seq {
                out.push((s.cycle, s.reservation()));
            } else {
                self.slots[keep] = s;
                keep += 1;
            }
        }
        self.slots.truncate(keep);
    }

    /// Drops reservations strictly before `now` (already in the past),
    /// appending the expired entries to `out` in cycle order. Executed
    /// slots are removed by [`OutputSchedule::take`], so anything left to
    /// expire was wasted.
    pub fn expire_into(&mut self, now: Cycle, out: &mut Vec<(Cycle, Reservation)>) {
        let n = self.lower_bound(now);
        out.extend(self.slots.drain(..n).map(|s| (s.cycle, s.reservation())));
    }

    /// The earliest reserved cycle, if any.
    pub fn first_cycle(&self) -> Option<Cycle> {
        self.slots.first().map(|s| s.cycle)
    }

    /// Whether `packet` holds any outstanding slot in this schedule.
    pub fn has_packet(&self, packet: PacketId) -> bool {
        self.slots.iter().any(|s| s.packet == packet)
    }

    /// Number of outstanding reserved slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule holds no reservations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(cycle, reservation)` pairs in cycle order.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, Reservation)> + '_ {
        self.slots.iter().map(|s| (s.cycle, s.reservation()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PacketId = PacketId(1);
    const Q: PacketId = PacketId(2);

    fn resv(packet: PacketId, seq: u8) -> Reservation {
        Reservation {
            packet,
            seq,
            source: FlitSource::Vc {
                port: Port::Local,
                vc: 2,
            },
            landing: Landing::Vc(2),
        }
    }

    #[test]
    fn slots_pack_every_reservation_losslessly() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        let sources = [
            FlitSource::Vc {
                port: Port::Dir(Direction::West),
                vc: 2,
            },
            FlitSource::Latch {
                from: Direction::North,
            },
            FlitSource::Bypass {
                from: Direction::East,
            },
        ];
        let landings = [Landing::Vc(1), Landing::Latch, Landing::Bypass];
        for source in sources {
            for landing in landings {
                let r = Reservation {
                    packet: Q,
                    seq: 3,
                    source,
                    landing,
                };
                assert_eq!(Slot::pack(9, r).reservation(), r);
            }
        }
    }

    #[test]
    fn insert_and_conflict() {
        let mut s = OutputSchedule::new();
        assert!(s.try_insert(5, resv(P, 0)));
        assert!(!s.try_insert(5, resv(Q, 0)), "other packet conflicts");
        assert!(s.try_insert(5, resv(P, 1)), "same packet may overwrite");
        assert_eq!(s.get(5).unwrap().seq, 1);
    }

    #[test]
    fn range_free_semantics() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        assert!(s.range_free(0..5, Q));
        assert!(!s.range_free(3..6, Q));
        assert!(s.range_free(3..6, P), "own slots do not conflict");
        assert!(s.range_free(6..10, Q));
    }

    #[test]
    fn cancel_respects_seq_and_cycle_floor() {
        let mut s = OutputSchedule::new();
        for (c, seq) in [(10, 0u8), (11, 1), (12, 2), (13, 3)] {
            s.try_insert(c, resv(P, seq));
        }
        // Cancel flits >= seq 2 from cycle 11 on: removes (12,2), (13,3).
        let mut removed = Vec::new();
        s.cancel_packet_into(P, 2, 11, &mut removed);
        assert_eq!(removed.len(), 2);
        assert!(s.is_reserved(10));
        assert!(s.is_reserved(11));
        assert!(!s.is_reserved(12));
    }

    #[test]
    fn expire_counts_wasted_slots() {
        let mut s = OutputSchedule::new();
        s.try_insert(3, resv(P, 0));
        s.try_insert(7, resv(P, 1));
        let mut expired = Vec::new();
        s.expire_into(5, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, 3);
        assert_eq!(s.len(), 1);
        assert!(s.is_reserved(7));
    }

    #[test]
    fn update_landing_only_touches_own_slots() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        s.try_insert(6, resv(Q, 0));
        let n = s.update_landing(0..10, P, Landing::Latch);
        assert_eq!(n, 1);
        assert_eq!(s.get(5).unwrap().landing, Landing::Latch);
        assert_eq!(s.get(6).unwrap().landing, Landing::Vc(2));
    }

    #[test]
    fn take_removes_slot() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        assert_eq!(s.take(5).unwrap().packet, P);
        assert!(s.is_empty());
        assert!(s.take(5).is_none());
    }
}

mod digest_impls {
    use super::OutputSchedule;
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for OutputSchedule {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.slots.len());
            for (cycle, r) in self.iter() {
                h.write_u64(cycle);
                r.digest_state(h);
            }
        }
    }
}
