//! The discrete-event queue.
//!
//! Events are closures scheduled at an absolute [`SimTime`]. Ties are broken
//! by insertion order so that the simulation is fully deterministic.
//!
//! The queue is backed by the hierarchical [`TimerWheel`]
//! (`O(1)` insertion instead of a `BinaryHeap`'s `O(log n)`), and pops in
//! exact `(time, seq)` order — property-tested against a heap oracle in
//! `tests/properties.rs`.
//!
//! Callbacks live in a slab next to the wheel: each wheel entry carries
//! the index of its slot, and a slot holds the entry's sequence number and
//! its callback until the event fires or is cancelled. Cancellation is
//! therefore exact: [`EventQueue::cancel`] takes the callback out of its
//! slot (freeing whatever it captured at once) and returns `true` only for
//! an event that is still pending. The wheel entry stays behind as a
//! tombstone until it is popped (and skipped), or until tombstones
//! outnumber half the live entries and the queue *compacts* them away;
//! either way its slot goes back to a free list. The queue's memory is
//! O(peak pending), whatever a run schedules or cancels in total, and the
//! [`EventQueue::cancelled_pending`] stat exposes the current tombstone
//! count.

use crate::time::SimTime;
use crate::wheel::TimerWheel;
use crate::world::SimWorld;

/// Identifier of a scheduled event, usable to cancel it before it fires:
/// the queue's insertion sequence number and the slab slot holding the
/// event's callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// The callback type executed when an event fires.
pub type EventFn = Box<dyn FnOnce(&mut SimWorld)>;

/// Don't bother compacting tiny queues: the sweep is O(pending) and only
/// pays off once a meaningful number of tombstones can be reclaimed.
const COMPACT_FLOOR: usize = 64;

/// One slab entry, owned by exactly one wheel entry from push until that
/// entry is popped, skipped or compacted away.
struct Slot {
    /// Sequence number of the event occupying (or last occupying) the slot.
    seq: u64,
    /// The pending callback; `None` once the event fired or was cancelled.
    callback: Option<EventFn>,
}

/// Priority queue of pending events ordered by (time, insertion sequence).
#[derive(Default)]
pub struct EventQueue {
    wheel: TimerWheel<u32>,
    slots: Vec<Slot>,
    /// Slots no wheel entry refers to, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    compactions: u64,
}

impl EventQueue {
    /// Creates an empty queue. It allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of cancelled entries still occupying the wheel (tombstones
    /// awaiting pop-skip or compaction).
    pub fn cancelled_pending(&self) -> usize {
        self.wheel.len() - self.live
    }

    /// How many times the queue has compacted tombstones away.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Schedules `callback` to run at `time`. Returns an id for cancellation.
    pub fn push(&mut self, time: SimTime, callback: EventFn) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot {
            seq,
            callback: Some(callback),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.wheel.push(time.as_nanos(), seq, slot);
        self.live += 1;
        EventId { seq, slot }
    }

    /// Cancels a pending event and drops its callback at once. Returns
    /// `true` only if the event was still pending: an id whose event
    /// already fired, an id already cancelled and an id this queue never
    /// issued all return `false` and change nothing.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if slot.seq != id.seq || slot.callback.take().is_none() {
            return false;
        }
        // The wheel entry stays behind as a tombstone and is skipped when
        // popped — unless tombstones pile up, in which case we compact.
        self.live -= 1;
        self.maybe_compact();
        true
    }

    /// Time of the next live event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.wheel.peek().map(|(t, _, _)| SimTime::from_nanos(t))
    }

    /// Pops the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, EventFn)> {
        loop {
            let (t, _seq, slot) = self.wheel.pop()?;
            let callback = self.slots[slot as usize].callback.take();
            self.free.push(slot);
            if let Some(f) = callback {
                self.live -= 1;
                return Some((SimTime::from_nanos(t), f));
            }
        }
    }

    fn skip_cancelled(&mut self) {
        while let Some((_, _, &slot)) = self.wheel.peek() {
            if self.slots[slot as usize].callback.is_some() {
                break;
            }
            self.wheel.pop();
            self.free.push(slot);
        }
    }

    /// Sweeps tombstones out of the wheel once they exceed half the live
    /// entries, returning their slots to the free list. Cancel already
    /// dropped the callbacks; this reclaims the wheel entries and slots.
    fn maybe_compact(&mut self) {
        let tombstones = self.cancelled_pending();
        if tombstones < COMPACT_FLOOR || tombstones * 2 <= self.live {
            return;
        }
        let (slots, free) = (&self.slots, &mut self.free);
        self.wheel.retain(|&slot| {
            let live = slots[slot as usize].callback.is_some();
            if !live {
                free.push(slot);
            }
            live
        });
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn record(log: &Rc<RefCell<Vec<u32>>>, v: u32) -> EventFn {
        let log = log.clone();
        Box::new(move |_w| log.borrow_mut().push(v))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        q.push(SimTime::from_nanos(30), record(&log, 3));
        q.push(SimTime::from_nanos(10), record(&log, 1));
        q.push(SimTime::from_nanos(20), record(&log, 2));
        let mut times = Vec::new();
        while let Some((t, _f)) = q.pop() {
            times.push(t.as_nanos());
        }
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_nanos(5);
        let ids: Vec<_> = (0..10).map(|i| q.push(t, record(&log, i))).collect();
        // Ids are strictly increasing.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let mut world = SimWorld::new(0);
        while let Some((_t, f)) = q.pop() {
            f(&mut world);
        }
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = q.push(SimTime::from_nanos(1), record(&log, 1));
        let b = q.push(SimTime::from_nanos(2), record(&log, 2));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        let unknown = EventId {
            seq: 999,
            slot: 999,
        };
        assert!(!q.cancel(unknown), "unknown id is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_pending(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(2)));
        assert_eq!(q.cancelled_pending(), 0, "skipped at peek");
        let mut world = SimWorld::new(0);
        while let Some((_t, f)) = q.pop() {
            f(&mut world);
        }
        assert_eq!(*log.borrow(), vec![2]);
        let _ = b;
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tombstones_compact_when_they_outnumber_live() {
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        // 300 events far in the future; cancel 2 of every 3.
        let ids: Vec<_> = (0..300)
            .map(|i| q.push(SimTime::from_micros(1000 + i), record(&log, i as u32)))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                assert!(q.cancel(*id));
            }
        }
        assert_eq!(q.len(), 100);
        assert!(q.compactions() >= 1, "compaction must have triggered");
        assert!(
            q.cancelled_pending() <= q.len(),
            "tombstones were swept: {} pending vs {} live",
            q.cancelled_pending(),
            q.len()
        );
        // Survivors still pop in exact order.
        let mut world = SimWorld::new(0);
        while let Some((_t, f)) = q.pop() {
            f(&mut world);
        }
        let want: Vec<u32> = (0..300).filter(|i| i % 3 == 0).collect();
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        // A fired id is not pending: cancel refuses it and the live count
        // stays exact, even once its slot holds a newer event.
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = q.push(SimTime::from_nanos(1), record(&log, 1));
        let mut world = SimWorld::new(0);
        let (_t, f) = q.pop().unwrap();
        f(&mut world);
        assert!(!q.cancel(a));
        let b = q.push(SimTime::from_nanos(2), record(&log, 2));
        assert_eq!(b.slot, a.slot, "the fired event's slot is reused");
        assert!(!q.cancel(a), "a reused slot does not revive the old id");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "second cancel");
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(*log.borrow(), vec![1]);
    }

    #[test]
    fn cancel_frees_the_callback_at_once() {
        let mut q = EventQueue::new();
        let held = Rc::new(());
        let h = held.clone();
        let id = q.push(SimTime::from_micros(5), Box::new(move |_w| drop(h)));
        assert_eq!(Rc::strong_count(&held), 2);
        assert!(q.cancel(id));
        assert_eq!(Rc::strong_count(&held), 1, "captured state is dropped");
        assert_eq!(q.cancelled_pending(), 1, "the wheel entry remains");
    }

    #[test]
    fn slab_stays_at_peak_pending() {
        // Many more events than are ever pending at once: the slab is
        // bounded by the peak, not by the number of events scheduled.
        let mut q = EventQueue::new();
        let mut world = SimWorld::new(0);
        for round in 0..1000u64 {
            let keep = q.push(SimTime::from_nanos(round * 10), Box::new(|_w| {}));
            let drop_me = q.push(SimTime::from_nanos(round * 10 + 5), Box::new(|_w| {}));
            assert!(q.cancel(drop_me));
            let (_t, f) = q.pop().unwrap();
            f(&mut world);
            assert!(!q.cancel(keep));
        }
        assert!(q.is_empty());
        assert!(q.slots.len() <= 3, "slab grew to {}", q.slots.len());
    }
}
