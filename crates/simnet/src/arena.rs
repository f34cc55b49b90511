//! Freelist allocation for frame payloads.
//!
//! At 10⁵ nodes the simulator materializes millions of payload buffers;
//! allocating and freeing each one individually is pure overhead since
//! frames are immutable and short-lived. [`FramePool`] keeps a freelist
//! of retired `Vec<u8>` buffers: the hot path takes a buffer, fills it,
//! freezes it into [`Bytes`], and the receive handler gives the buffer
//! back via [`FramePool::reclaim`] — possible at zero cost because the
//! vendored [`Bytes`] exposes [`Bytes::try_into_vec`] for uniquely-owned
//! full buffers.
//!
//! The pool is deliberately not wired into [`SimWorld`](crate::world::SimWorld)
//! itself: payload lifecycle belongs to the workload, and each shard of a
//! partitioned run owns a private pool (the pool is plain data, no
//! interior sharing).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use crate::telemetry::MetricsRegistry;

/// A bounded freelist of payload buffers.
#[derive(Debug)]
pub struct FramePool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    stats: PoolStats,
}

/// Allocation counters of a [`FramePool`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out from the freelist.
    pub reused: u64,
    /// Buffers that had to be freshly allocated (freelist empty).
    pub allocated: u64,
    /// Buffers returned to the freelist.
    pub reclaimed: u64,
    /// Reclaim attempts that failed (shared or sliced payloads) or found
    /// the freelist full.
    pub missed: u64,
}

impl FramePool {
    /// Creates a pool retaining at most `max_buffers` retired buffers.
    pub fn new(max_buffers: usize) -> Self {
        FramePool {
            free: Vec::new(),
            max_buffers,
            stats: PoolStats::default(),
        }
    }

    /// Takes a zero-filled buffer of exactly `len` bytes, reusing a
    /// retired allocation when one is available.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        let buf = match self.free.pop() {
            Some(mut buf) => {
                self.stats.reused += 1;
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.stats.allocated += 1;
                vec![0u8; len]
            }
        };
        self.debug_assert_conserved();
        buf
    }

    /// Tries to recover `payload`'s backing buffer into the freelist.
    /// Returns `true` on success; shared, sliced or surplus buffers are
    /// simply dropped (`false`).
    pub fn reclaim(&mut self, payload: Bytes) -> bool {
        let kept = match payload.try_into_vec() {
            Ok(buf) if self.free.len() < self.max_buffers => {
                self.stats.reclaimed += 1;
                self.free.push(buf);
                true
            }
            _ => {
                self.stats.missed += 1;
                false
            }
        };
        self.debug_assert_conserved();
        kept
    }

    /// Returns a buffer obtained via [`FramePool::take`] without it ever
    /// having become a payload.
    pub fn give(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_buffers {
            self.stats.reclaimed += 1;
            self.free.push(buf);
        } else {
            self.stats.missed += 1;
        }
        self.debug_assert_conserved();
    }

    /// Runtime twin of the simlint C1 conservation rule: every buffer in
    /// the freelist arrived through a counted reclaim and left through a
    /// counted reuse, so `free == reclaimed - reused` at every step.
    /// Compiled out of release builds.
    fn debug_assert_conserved(&self) {
        debug_assert_eq!(
            self.free.len() as u64,
            self.stats.reclaimed - self.stats.reused,
            "frame-pool leak: freelist {} != reclaimed {} - reused {}",
            self.free.len(),
            self.stats.reclaimed,
            self.stats.reused,
        );
    }

    /// Buffers currently parked in the freelist.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Allocation counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Registers a shared pool into a [`MetricsRegistry`] under
    /// `sim.executor.pool.*` (hit/miss counters plus a freelist gauge),
    /// so [`MetricsSnapshot`](crate::telemetry::MetricsSnapshot) covers
    /// payload recycling wherever the partitioned executor uses it.
    /// Holds only a weak reference — a dropped pool scrapes nothing.
    pub fn register_metrics(pool: &Rc<RefCell<FramePool>>, registry: &MetricsRegistry) {
        let weak = Rc::downgrade(pool);
        registry.register_collector(move |b| {
            let Some(pool) = weak.upgrade() else { return };
            let pool = pool.borrow();
            let s = pool.stats();
            b.counter("sim.executor.pool.reused", &[], s.reused);
            b.counter("sim.executor.pool.allocated", &[], s.allocated);
            b.counter("sim.executor.pool.reclaimed", &[], s.reclaimed);
            b.counter("sim.executor.pool.missed", &[], s.missed);
            b.gauge(
                "sim.executor.pool.free_buffers",
                &[],
                pool.free_buffers() as i64,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        let mut pool = FramePool::new(8);
        let buf = pool.take(256);
        assert_eq!(buf.len(), 256);
        let payload = Bytes::from(buf);
        assert!(pool.reclaim(payload));
        assert_eq!(pool.free_buffers(), 1);
        let again = pool.take(64);
        assert_eq!(again.len(), 64);
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused, s.reclaimed), (1, 1, 1));
    }

    #[test]
    fn shared_payloads_are_not_reclaimed() {
        let mut pool = FramePool::new(8);
        let payload = Bytes::from(pool.take(16));
        let clone = payload.clone();
        assert!(!pool.reclaim(payload));
        drop(clone);
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.stats().missed, 1);
    }

    #[test]
    fn freelist_is_bounded() {
        let mut pool = FramePool::new(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take(8)).collect();
        for b in bufs {
            pool.give(b);
        }
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.stats().missed, 3);
    }
}
