//! Hierarchical timer wheel — the hot-path replacement for the global
//! `BinaryHeap` event queue.
//!
//! Simulated grids at 10⁵ nodes push tens of millions of events through
//! the queue; a binary heap pays `O(log n)` comparisons *per push and per
//! pop* on a working set that blows the cache. The classic alternative
//! (Varghese & Lauck) is a hierarchy of timing wheels: insertion hashes
//! an event into a slot by its expiry tick (`O(1)`), and the clock cursor
//! cascades entries down one level at a time as it advances.
//!
//! This implementation keeps the simulator's determinism contract intact:
//! entries pop in exact `(time, seq)` order — including the FIFO
//! tie-break at equal timestamps — byte-for-byte identical to the
//! `BinaryHeap` it replaces (property-tested against that oracle in
//! `tests/properties.rs`).
//!
//! Shape: 4 levels × 64 slots over a 4096 ns tick, covering ~68.7 s of
//! virtual time; anything farther out parks in a sorted overflow map and
//! is re-placed when the cursor reaches its window. Slots within the
//! current tick drain into a small `ready` min-heap which provides the
//! exact ordering; per-level occupancy bitmaps make cursor advancement a
//! couple of `trailing_zeros` calls rather than a slot-by-slot scan.

use std::collections::{BTreeMap, BinaryHeap};

/// Nanoseconds per tick (2^12 = 4.096 µs). Events inside the same tick
/// are ordered exactly by `(time, seq)` via the ready heap, so the tick
/// size trades memory for cascade frequency without affecting order.
const TICK_SHIFT: u32 = 12;
/// log2(slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels; beyond `64^4` ticks entries go to overflow.
const LEVELS: usize = 4;
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// Min-heap wrapper: `BinaryHeap` is a max-heap, so invert the ordering.
struct Ready<T>(Entry<T>);

impl<T> PartialEq for Ready<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Ready<T> {}
impl<T> PartialOrd for Ready<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Ready<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A hierarchical timer wheel holding `(time, seq, item)` entries and
/// popping them in exact `(time, seq)` order.
///
/// `seq` values are assigned by the caller (the event queue's insertion
/// counter) and must be unique; they provide the deterministic FIFO
/// tie-break at equal times.
pub struct TimerWheel<T> {
    /// Current tick. Entries with `tick <= cursor` live in `ready`.
    cursor: u64,
    /// Entries whose tick the cursor has reached, in exact pop order.
    ready: BinaryHeap<Ready<T>>,
    /// `LEVELS × SLOTS` slot vectors, flattened.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmaps (bit i = slot i non-empty).
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel horizon, keyed by `tick >> WHEEL_BITS`.
    overflow: BTreeMap<u64, Vec<Entry<T>>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with the cursor at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            ready: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// Total entries stored (including any not yet cascaded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the wheel holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Entries at or before the cursor's tick (e.g. an
    /// event scheduled for "now" by a running handler) go straight to the
    /// ready heap, which keeps them in exact `(time, seq)` order relative
    /// to everything else in the current tick.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.len += 1;
        self.place(Entry { time, seq, item });
    }

    /// `(time, seq, item)` of the earliest entry, advancing the cursor
    /// as needed to find it.
    pub fn peek(&mut self) -> Option<(u64, u64, &T)> {
        self.advance();
        self.ready.peek().map(|r| (r.0.time, r.0.seq, &r.0.item))
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.advance();
        let r = self.ready.pop()?;
        self.len -= 1;
        Some((r.0.time, r.0.seq, r.0.item))
    }

    /// Drops every entry for which `keep(item)` returns false, calling it
    /// exactly once per entry. Used by the event queue to compact
    /// cancelled tombstones in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut removed = 0usize;
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let v = &mut self.slots[level * SLOTS + slot];
                let before = v.len();
                v.retain(|e| keep(&e.item));
                removed += before - v.len();
                if v.is_empty() {
                    self.occupied[level] &= !(1u64 << slot);
                } else {
                    self.occupied[level] |= 1u64 << slot;
                }
            }
        }
        self.overflow.retain(|_, v| {
            let before = v.len();
            v.retain(|e| keep(&e.item));
            removed += before - v.len();
            !v.is_empty()
        });
        // BinaryHeap has no retain on stable paths we target; rebuild.
        let drained = std::mem::take(&mut self.ready).into_vec();
        let before = drained.len();
        let kept: Vec<Ready<T>> = drained.into_iter().filter(|r| keep(&r.0.item)).collect();
        removed += before - kept.len();
        self.ready = BinaryHeap::from(kept);
        self.len -= removed;
    }

    fn place(&mut self, entry: Entry<T>) {
        let tick = entry.time >> TICK_SHIFT;
        if tick <= self.cursor {
            self.ready.push(Ready(entry));
            return;
        }
        // Aligned-window placement: the entry goes to the lowest level
        // whose parent window still contains the cursor. This avoids the
        // circular-wrap ambiguity of offset-based wheels and makes "is
        // this slot current-or-future" a plain integer comparison.
        for level in 0..LEVELS {
            let parent_shift = SLOT_BITS * (level as u32 + 1);
            if tick >> parent_shift == self.cursor >> parent_shift {
                let idx = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
                self.slots[level * SLOTS + idx].push(entry);
                self.occupied[level] |= 1u64 << idx;
                return;
            }
        }
        self.overflow
            .entry(tick >> WHEEL_BITS)
            .or_default()
            .push(entry);
    }

    /// Moves the cursor forward until the ready heap is non-empty or the
    /// wheel is exhausted. Jumps directly to occupied slots via the
    /// bitmaps, cascading higher-level slots down as it goes.
    fn advance(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            self.advance_once();
        }
    }

    fn advance_once(&mut self) {
        // Level 0: every entry in this block's L0 slots sits at a single
        // tick > cursor; jump to the first occupied one and drain it.
        let base = (self.cursor & SLOT_MASK) as u32;
        let mask = (!0u64).checked_shl(base + 1).unwrap_or(0);
        let avail = self.occupied[0] & mask;
        if avail != 0 {
            let idx = avail.trailing_zeros() as usize;
            self.cursor = (self.cursor & !SLOT_MASK) + idx as u64;
            self.occupied[0] &= !(1u64 << idx);
            for e in std::mem::take(&mut self.slots[idx]) {
                self.ready.push(Ready(e));
            }
            return;
        }
        // Higher levels: jump the cursor to the start of the first
        // occupied slot after the current one and re-place its entries
        // (they land one level down, or in ready if at the new cursor).
        // The slot holding the cursor itself is always empty at level
        // >= 1: entries in the cursor's own window were placed lower.
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let cur_idx = ((self.cursor >> shift) & SLOT_MASK) as u32;
            let mask = (!0u64).checked_shl(cur_idx + 1).unwrap_or(0);
            let avail = self.occupied[level] & mask;
            if avail != 0 {
                let idx = avail.trailing_zeros() as usize;
                let parent_shift = SLOT_BITS * (level as u32 + 1);
                let window = self.cursor >> parent_shift << parent_shift;
                self.cursor = window + ((idx as u64) << shift);
                self.occupied[level] &= !(1u64 << idx);
                for e in std::mem::take(&mut self.slots[level * SLOTS + idx]) {
                    self.place(e);
                }
                return;
            }
        }
        // Overflow: jump to the earliest parked window.
        if let Some((&window, _)) = self.overflow.iter().next() {
            let entries = self.overflow.remove(&window).expect("window present");
            self.cursor = window << WHEEL_BITS;
            for e in entries {
                self.place(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = w.pop() {
            out.push((t, s));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        // Mixed magnitudes: same tick, same level-0 block, cross-level,
        // and overflow (~100 s out).
        let times = [
            5u64,
            7,
            5,
            4_000,
            4_100,
            1 << 20,
            (1 << 20) + 1,
            1 << 30,
            100_000_000_000,
            3,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, 0);
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn push_into_the_past_pops_immediately_in_order() {
        let mut w = TimerWheel::new();
        w.push(10_000_000, 0, 0);
        assert_eq!(w.pop().map(|(t, s, _)| (t, s)), Some((10_000_000, 0)));
        // Cursor is now deep in; a push at an earlier time still pops
        // next (the simulator clamps times, but the wheel must not lose
        // or reorder entries regardless).
        w.push(5, 1, 0);
        w.push(10_000_001, 2, 0);
        assert_eq!(drain(&mut w), vec![(5, 1), (10_000_001, 2)]);
    }

    #[test]
    fn fifo_tie_break_at_equal_times() {
        let mut w = TimerWheel::new();
        for seq in 0..100u64 {
            w.push(999_999, seq, 0);
        }
        let got = drain(&mut w);
        assert_eq!(got, (0..100).map(|s| (999_999, s)).collect::<Vec<_>>());
    }

    #[test]
    fn retain_drops_and_rebuilds_bitmaps() {
        let mut w = TimerWheel::new();
        for seq in 0..1000u64 {
            w.push(seq * 77_777, seq, seq as u32);
        }
        w.retain(|&seq| seq % 3 != 0);
        assert_eq!(w.len(), (0..1000).filter(|s| s % 3 != 0).count());
        let got = drain(&mut w);
        let want: Vec<(u64, u64)> = (0..1000u64)
            .filter(|s| s % 3 != 0)
            .map(|s| (s * 77_777, s))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Pop half, push more (some before the cursor), pop the rest.
        let mut w = TimerWheel::new();
        for seq in 0..50u64 {
            w.push(seq * 10_000, seq, 0);
        }
        let mut got = Vec::new();
        for _ in 0..25 {
            let (t, s, _) = w.pop().unwrap();
            got.push((t, s));
        }
        for seq in 50..80u64 {
            // Straddles the cursor position (~24 * 10_000 ns).
            w.push((seq - 50) * 17_000, seq, 0);
        }
        got.extend(drain(&mut w));
        // Everything popped after the cursor passed a time may interleave,
        // but each pop must be >= in (time, seq) order among remaining
        // entries; verify by re-sorting the tail and comparing.
        let tail = &got[25..];
        let mut sorted = tail.to_vec();
        sorted.sort();
        assert_eq!(tail, &sorted[..], "tail must already be sorted");
        assert_eq!(got.len(), 80);
    }

    #[test]
    fn empty_wheel() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert!(w.is_empty());
        assert!(w.peek().is_none());
        assert!(w.pop().is_none());
    }
}
