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
//! Cancellation is tombstone-based: a cancelled entry stays in the wheel
//! until popped (and skipped) — but the queue now *compacts* itself when
//! tombstones outnumber half the live entries, so a workload that
//! schedules and cancels many timers (retransmit timers, stall probes,
//! heartbeats) no longer accumulates dead entries without bound. The
//! [`EventQueue::cancelled_pending`] stat exposes the current tombstone
//! count.

use std::collections::HashSet;

use crate::time::SimTime;
use crate::wheel::TimerWheel;
use crate::world::SimWorld;

/// Identifier of a scheduled event, usable to cancel it before it fires:
/// the queue's insertion sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// The callback type executed when an event fires.
pub type EventFn = Box<dyn FnOnce(&mut SimWorld)>;

/// Don't bother compacting tiny queues: the sweep is O(pending) and only
/// pays off once a meaningful number of tombstones can be reclaimed.
const COMPACT_FLOOR: usize = 64;

/// Priority queue of pending events ordered by (time, insertion sequence).
#[derive(Default)]
pub struct EventQueue {
    wheel: TimerWheel<EventFn>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    live: usize,
    compactions: u64,
}

impl EventQueue {
    /// Creates an empty queue.
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
        self.wheel.len().saturating_sub(self.live)
    }

    /// How many times the queue has compacted tombstones away.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Schedules `callback` to run at `time`. Returns an id for cancellation.
    pub fn push(&mut self, time: SimTime, callback: EventFn) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(time.as_nanos(), seq, callback);
        self.live += 1;
        EventId(seq)
    }

    /// Cancels a pending event. Returns `true` the first time it is
    /// called with an id this queue issued, `false` for an id already
    /// cancelled or never issued.
    ///
    /// The queue keeps no per-id record of what has fired, so the first
    /// `cancel` of an id whose event *already ran* also returns `true`
    /// and takes one off [`len`](Self::len) although nothing was
    /// pending. Callers must drop an id once its event has fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        if self.cancelled.insert(id.0) {
            // The entry stays in the wheel but will be skipped when popped
            // — unless tombstones pile up, in which case we compact below.
            self.live = self.live.saturating_sub(1);
            self.maybe_compact();
            true
        } else {
            false
        }
    }

    /// Time of the next live event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.wheel.peek().map(|(t, _)| SimTime::from_nanos(t))
    }

    /// Pops the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, EventFn)> {
        self.skip_cancelled();
        let (t, _seq, f) = self.wheel.pop()?;
        self.live = self.live.saturating_sub(1);
        Some((SimTime::from_nanos(t), f))
    }

    fn skip_cancelled(&mut self) {
        while let Some((_, seq)) = self.wheel.peek() {
            if self.cancelled.contains(&seq) {
                self.wheel.pop();
            } else {
                break;
            }
        }
    }

    /// Sweeps tombstones out of the wheel once they exceed half the live
    /// entries. The purged ids *stay* in the tombstone set — that is what
    /// makes double-cancel detection exact: if compaction (or pop-skip)
    /// forgot an id, a second `cancel` of the same handle would read as a
    /// fresh cancellation and corrupt the live count. The set therefore
    /// holds one bare id per cancellation for the rest of the run, while
    /// the compacted closures (the part worth reclaiming) are freed.
    fn maybe_compact(&mut self) {
        let tombstones = self.cancelled_pending();
        if tombstones < COMPACT_FLOOR || tombstones * 2 <= self.live {
            return;
        }
        let cancelled = &self.cancelled;
        self.wheel.retain(|seq| !cancelled.contains(&seq));
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
        assert!(!q.cancel(EventId(999)), "unknown id is a no-op");
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
    fn cancel_after_fire_still_reports_cancelled_once() {
        // The documented contract of `cancel`: the queue cannot tell
        // "fired" from "pending" by id alone, so the first cancel of a
        // fired id returns true and the second false.
        let mut q = EventQueue::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = q.push(SimTime::from_nanos(1), record(&log, 1));
        let mut world = SimWorld::new(0);
        let (_t, f) = q.pop().unwrap();
        f(&mut world);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }
}
