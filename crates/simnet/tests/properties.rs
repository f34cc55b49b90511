//! Property tests for the hierarchical timer wheel and the event queue
//! built on it: random schedule/cancel/reschedule sequences must pop in
//! exactly the order a `BinaryHeap` oracle produces, including the FIFO
//! tie-break at equal timestamps — and that must keep holding beyond the
//! wheel's direct horizon (the overflow level) and through heavy cancel
//! churn (tombstone compaction). Cancel is exact: ids that fired or were
//! replaced are refused.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use simnet::{SimTime, SimWorld, TimerWheel};

/// Deterministic splitmix64 — the only randomness source here, so every
/// failing case is reproducible from its printed seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A timestamp spread across magnitudes: same-tick collisions and
    /// all four in-wheel levels get exercised (10^8 ns stays inside the
    /// wheel's ~68.7 s direct horizon).
    fn time(&mut self) -> u64 {
        let magnitude = self.next() % 9; // 10^0 .. 10^8 ns spans
        let span = 10u64.pow(magnitude as u32);
        self.next() % span
    }

    /// A timestamp strictly beyond the wheel's direct horizon (2^36 ns
    /// with a 4096 ns tick and 24 tick bits), spread across many
    /// overflow buckets: with the cursor anywhere below the horizon,
    /// placement is guaranteed to land in the overflow `BTreeMap`, and
    /// popping has to cascade it back through the levels.
    fn far_time(&mut self) -> u64 {
        (1u64 << 36) + self.next() % (1u64 << 40)
    }
}

/// Runs `check` over `cases` independent seeds derived from `seed`.
fn for_random_cases(seed: u64, cases: u64, check: impl Fn(u64)) {
    for case in 0..cases {
        let case_seed = seed ^ (case.wrapping_mul(0x9E3779B97F4A7C15));
        check(case_seed);
    }
}

#[test]
fn wheel_pops_in_heap_oracle_order() {
    for_random_cases(0x57EE1, 40, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let ops = 400 + (rng.next() % 400);
        for _ in 0..ops {
            if rng.next().is_multiple_of(3) && !oracle.is_empty() {
                // Interleaved pop: both structures must agree mid-run.
                let Reverse(want) = oracle.pop().unwrap();
                let (t, s, item) = wheel.pop().expect("wheel has entries");
                assert_eq!((t, s), want, "seed {case_seed:#x}");
                assert_eq!(item, s, "payload follows its entry");
                expected.push(want);
                popped.push((t, s));
            } else {
                let t = rng.time();
                wheel.push(t, seq, seq);
                oracle.push(Reverse((t, seq)));
                seq += 1;
            }
        }
        while let Some(Reverse(want)) = oracle.pop() {
            let (t, s, _) = wheel.pop().expect("wheel drains with oracle");
            assert_eq!((t, s), want, "seed {case_seed:#x}");
        }
        assert!(wheel.pop().is_none(), "wheel empty when oracle is");
    });
}

#[test]
fn wheel_fifo_tie_break_at_equal_timestamps() {
    for_random_cases(0x71E8EAC, 20, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // Few distinct timestamps, many entries: ties dominate.
        let times: Vec<u64> = (0..4).map(|_| rng.time()).collect();
        for seq in 0..200u64 {
            let t = times[(rng.next() % 4) as usize];
            wheel.push(t, seq, seq);
        }
        let mut last: Option<(u64, u64)> = None;
        while let Some((t, s, _)) = wheel.pop() {
            if let Some((lt, ls)) = last {
                assert!(
                    (t, s) > (lt, ls),
                    "equal times must pop in insertion order: \
                     ({t},{s}) after ({lt},{ls}), seed {case_seed:#x}"
                );
            }
            last = Some((t, s));
        }
    });
}

#[test]
fn wheel_retain_matches_oracle_cancellation() {
    for_random_cases(0xCA2CE1, 30, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for seq in 0..300u64 {
            let t = rng.time();
            wheel.push(t, seq, seq);
            live.push((t, seq));
        }
        // Cancel a random third via retain; the oracle drops the same.
        let keep_mask: Vec<bool> = (0..300).map(|_| !rng.next().is_multiple_of(3)).collect();
        wheel.retain(|&seq| keep_mask[seq as usize]);
        live.retain(|&(_, seq)| keep_mask[seq as usize]);
        live.sort_unstable();
        for want in live {
            let (t, s, _) = wheel.pop().expect("survivors pop");
            assert_eq!((t, s), want, "seed {case_seed:#x}");
        }
        assert!(wheel.pop().is_none());
    });
}

/// The overflow level against the heap oracle: pushes mix in-horizon and
/// far-future timestamps, and interleaved pops drag the cursor across
/// level and overflow-bucket boundaries, so entries parked in the
/// `BTreeMap` must cascade back through the wheel levels in exactly the
/// oracle's `(time, seq)` order.
#[test]
fn wheel_overflow_level_matches_heap_oracle() {
    for_random_cases(0x0F10D, 30, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let ops = 300 + (rng.next() % 300);
        for _ in 0..ops {
            if rng.next().is_multiple_of(4) && !oracle.is_empty() {
                let Reverse(want) = oracle.pop().unwrap();
                let (t, s, item) = wheel.pop().expect("wheel has entries");
                assert_eq!((t, s), want, "seed {case_seed:#x}");
                assert_eq!(item, s, "payload follows its entry");
            } else {
                let t = if rng.next().is_multiple_of(2) {
                    rng.far_time()
                } else {
                    rng.time()
                };
                wheel.push(t, seq, seq);
                oracle.push(Reverse((t, seq)));
                seq += 1;
            }
        }
        assert_eq!(wheel.len(), oracle.len(), "seed {case_seed:#x}");
        while let Some(Reverse(want)) = oracle.pop() {
            let (t, s, _) = wheel.pop().expect("wheel drains with oracle");
            assert_eq!((t, s), want, "seed {case_seed:#x}");
        }
        assert!(wheel.pop().is_none(), "wheel empty when oracle is");
    });
}

/// `retain` over the overflow level: cancelling entries that live in
/// far-future overflow buckets must drop exactly the same set as the
/// oracle, keep the length bookkeeping exact, and leave the survivors
/// popping in oracle order.
#[test]
fn wheel_retain_reaches_the_overflow_level() {
    for_random_cases(0xCA2FA2, 20, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for seq in 0..300u64 {
            let t = if seq % 3 == 0 {
                rng.time()
            } else {
                rng.far_time()
            };
            wheel.push(t, seq, seq);
            live.push((t, seq));
        }
        let keep_mask: Vec<bool> = (0..300).map(|_| !rng.next().is_multiple_of(3)).collect();
        wheel.retain(|&seq| keep_mask[seq as usize]);
        live.retain(|&(_, seq)| keep_mask[seq as usize]);
        assert_eq!(wheel.len(), live.len(), "seed {case_seed:#x}");
        live.sort_unstable();
        for want in live {
            let (t, s, _) = wheel.pop().expect("survivors pop");
            assert_eq!((t, s), want, "seed {case_seed:#x}");
        }
        assert!(wheel.pop().is_none());
    });
}

#[test]
fn event_queue_schedule_cancel_reschedule_matches_model() {
    for_random_cases(0x5C8ED, 25, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut world = SimWorld::new(case_seed);
        let log: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();

        // Model: (time, schedule-order, payload) of every live event.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut order = 0u64;
        let mut handles = Vec::new();
        let n = 150 + (rng.next() % 150);
        for payload in 0..n {
            let t = rng.time();
            let l2 = log.clone();
            let id = world.schedule_at(SimTime::from_nanos(t), move |_w| {
                l2.borrow_mut().push(payload);
            });
            handles.push(id);
            model.push((t, order, payload));
            order += 1;
        }
        // Cancel a random subset; double-cancels must report false.
        for _ in 0..n / 3 {
            let pick = (rng.next() % n) as usize;
            let was_live = model.iter().any(|&(_, _, p)| p == pick as u64);
            assert_eq!(
                world.cancel(handles[pick]),
                was_live,
                "cancel verdict mismatch, seed {case_seed:#x}"
            );
            model.retain(|&(_, _, p)| p != pick as u64);
        }
        // Reschedule a random subset: cancel + fresh schedule, new order.
        // The replaced ids may see their slots reused by the fresh events.
        let mut stale = Vec::new();
        for _ in 0..n / 4 {
            let pick = (rng.next() % n) as usize;
            if !world.cancel(handles[pick]) {
                continue;
            }
            stale.push(handles[pick]);
            model.retain(|&(_, _, p)| p != pick as u64);
            let t = rng.time();
            let l2 = log.clone();
            handles[pick] = world.schedule_at(SimTime::from_nanos(t), move |_w| {
                l2.borrow_mut().push(pick as u64);
            });
            model.push((t, order, pick as u64));
            order += 1;
        }
        let pending = world.pending_events();
        for id in stale {
            assert!(
                !world.cancel(id),
                "replaced id cancelled, seed {case_seed:#x}"
            );
        }
        assert_eq!(world.pending_events(), pending, "seed {case_seed:#x}");

        // Run part of the way: every id whose event fired is refused.
        world.run_until(SimTime::from_nanos(rng.time()));
        let fired: Vec<u64> = log.borrow().clone();
        let pending = world.pending_events();
        for &p in &fired {
            assert!(
                !world.cancel(handles[p as usize]),
                "fired id cancelled, seed {case_seed:#x}"
            );
        }
        assert_eq!(world.pending_events(), pending, "seed {case_seed:#x}");

        world.run();
        model.sort_unstable();
        let want: Vec<u64> = model.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(*log.borrow(), want, "seed {case_seed:#x}");
        let s = world.stats;
        assert_eq!(
            s.events_executed + s.events_cancelled,
            s.events_scheduled,
            "seed {case_seed:#x}"
        );
    });
}

/// Heavy cancel/reschedule churn pinned to far-future timestamps: every
/// tombstone lives in an overflow bucket the pop path will not reach for
/// tens of simulated seconds, so only compaction can reclaim it. The
/// queue must (a) actually compact, (b) keep the tombstone population
/// under its floor-or-half-of-live bound after every cancel, and (c)
/// still execute exactly the surviving model in `(time, order)` order.
#[test]
fn event_queue_compacts_far_future_cancel_churn() {
    for_random_cases(0xFA2C0DE, 10, |case_seed| {
        let mut rng = Lcg(case_seed);
        let mut world = SimWorld::new(case_seed);
        let log: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();

        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut handles = Vec::new();
        let mut order = 0u64;
        let n = 400u64;
        for payload in 0..n {
            let t = rng.far_time();
            let l2 = log.clone();
            handles.push(world.schedule_at(SimTime::from_nanos(t), move |_w| {
                l2.borrow_mut().push(payload);
            }));
            model.push((t, order, payload));
            order += 1;
        }

        for _wave in 0..6 {
            // A cancel storm: most of the population tombstones...
            for _ in 0..n / 2 {
                let pick = (rng.next() % n) as usize;
                if world.cancel(handles[pick]) {
                    model.retain(|&(_, _, p)| p != pick as u64);
                    let tombstones = world.cancelled_pending();
                    assert!(
                        tombstones < 64 || tombstones * 2 <= world.pending_events(),
                        "tombstones unbounded: {tombstones} vs {} live, seed {case_seed:#x}",
                        world.pending_events()
                    );
                }
            }
            // ...and a reschedule wave repopulates at fresh far times.
            for _ in 0..n / 4 {
                let pick = (rng.next() % n) as usize;
                if !world.cancel(handles[pick]) {
                    continue;
                }
                model.retain(|&(_, _, p)| p != pick as u64);
                let t = rng.far_time();
                let l2 = log.clone();
                handles[pick] = world.schedule_at(SimTime::from_nanos(t), move |_w| {
                    l2.borrow_mut().push(pick as u64);
                });
                model.push((t, order, pick as u64));
                order += 1;
            }
        }
        assert!(
            world.queue_compactions() > 0,
            "the churn never triggered a compaction sweep, seed {case_seed:#x}"
        );

        world.run();
        model.sort_unstable();
        let want: Vec<u64> = model.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(*log.borrow(), want, "seed {case_seed:#x}");
    });
}
