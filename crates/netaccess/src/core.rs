//! The NetAccess core: a single, fair, reentrant dispatch loop per node.
//!
//! The paper's position is that arbitration must sit at the lowest level:
//! the arbitration layer is *the only client* of the raw networking
//! resources, everything above it is callback-based, and one cooperative
//! loop interleaves the polling of parallel-oriented hardware (`MadIO`) and
//! of system sockets (`SysIO`) with a user-tunable fairness policy — no
//! signal-driven I/O, no competing busy-pollers starving each other.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use simnet::{NodeId, SimDuration, SimWorld};

/// Which subsystem an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Parallel-oriented hardware access (Madeleine-based).
    MadIO,
    /// Distributed-oriented system-socket access.
    SysIO,
}

/// Interleaving policy between MadIO and SysIO dispatching.
///
/// Weights express how many consecutive events of each subsystem the loop
/// is willing to dispatch before yielding to the other when both have work
/// pending. The paper calls this the "dynamically user-tunable" priority
/// between system sockets and the high-performance network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollPolicy {
    /// Consecutive MadIO events dispatched per round.
    pub madio_weight: u32,
    /// Consecutive SysIO events dispatched per round.
    pub sysio_weight: u32,
}

impl PollPolicy {
    /// Equal priority.
    pub fn balanced() -> PollPolicy {
        PollPolicy {
            madio_weight: 1,
            sysio_weight: 1,
        }
    }

    /// Favour the high-performance network (typical for an MPI-dominated
    /// application with occasional control traffic).
    pub fn favour_madio(ratio: u32) -> PollPolicy {
        PollPolicy {
            madio_weight: ratio.max(1),
            sysio_weight: 1,
        }
    }

    /// Favour system sockets (typical when interactive monitoring must stay
    /// responsive under heavy parallel traffic).
    pub fn favour_sysio(ratio: u32) -> PollPolicy {
        PollPolicy {
            madio_weight: 1,
            sysio_weight: ratio.max(1),
        }
    }
}

impl Default for PollPolicy {
    fn default() -> Self {
        PollPolicy::balanced()
    }
}

/// Cost model of the arbitration layer itself.
#[derive(Debug, Clone)]
pub struct NetAccessConfig {
    /// Cost of dispatching one MadIO event (demultiplexing a combined
    /// header and calling the registered callback). The paper measures this
    /// overhead at under 0.1 µs.
    pub madio_dispatch_overhead: SimDuration,
    /// Cost of dispatching one SysIO event (scanning the ready set and
    /// calling the callback).
    pub sysio_dispatch_overhead: SimDuration,
    /// Initial interleaving policy.
    pub policy: PollPolicy,
    /// Whether MadIO combines its multiplexing header with the payload
    /// message (the paper's "header combining" optimization). Disabling it
    /// sends the header as a separate Madeleine message; the ablation is
    /// measured by `madio::tests::disabling_header_combining_costs_more`.
    pub header_combining: bool,
}

impl Default for NetAccessConfig {
    fn default() -> Self {
        NetAccessConfig {
            madio_dispatch_overhead: SimDuration::from_nanos(40),
            sysio_dispatch_overhead: SimDuration::from_nanos(400),
            policy: PollPolicy::default(),
            header_combining: true,
        }
    }
}

/// Counters of the dispatch loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetAccessStats {
    /// MadIO events dispatched.
    pub madio_events: u64,
    /// SysIO events dispatched.
    pub sysio_events: u64,
    /// Times the loop went idle (both queues empty).
    pub idle_transitions: u64,
}

type PendingEvent = Box<dyn FnOnce(&mut SimWorld)>;

pub(crate) struct CoreInner {
    pub(crate) node: NodeId,
    pub(crate) config: NetAccessConfig,
    madio_queue: VecDeque<PendingEvent>,
    sysio_queue: VecDeque<PendingEvent>,
    /// Remaining budget of the subsystem currently being favoured within a
    /// round (deficit round robin with two classes).
    round_budget: (u32, u32),
    loop_running: bool,
    stats: NetAccessStats,
}

/// The per-node arbitration core shared by [`crate::MadIO`] and
/// [`crate::SysIO`].
#[derive(Clone)]
pub struct NetAccessCore {
    pub(crate) inner: Rc<RefCell<CoreInner>>,
}

impl NetAccessCore {
    /// Creates the core for `node`.
    pub fn new(node: NodeId, config: NetAccessConfig) -> NetAccessCore {
        let budget = (config.policy.madio_weight, config.policy.sysio_weight);
        NetAccessCore {
            inner: Rc::new(RefCell::new(CoreInner {
                node,
                config,
                madio_queue: VecDeque::new(),
                sysio_queue: VecDeque::new(),
                round_budget: budget,
                loop_running: false,
                stats: NetAccessStats::default(),
            })),
        }
    }

    /// The node this core arbitrates for.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Current dispatch statistics.
    pub fn stats(&self) -> NetAccessStats {
        self.inner.borrow().stats
    }

    /// Changes the interleaving policy at runtime (the paper's
    /// configuration API).
    pub fn set_policy(&self, policy: PollPolicy) {
        let mut inner = self.inner.borrow_mut();
        inner.config.policy = policy;
        inner.round_budget = (policy.madio_weight, policy.sysio_weight);
    }

    /// Current policy.
    pub fn policy(&self) -> PollPolicy {
        self.inner.borrow().config.policy
    }

    /// Whether MadIO header combining is enabled.
    pub fn header_combining(&self) -> bool {
        self.inner.borrow().config.header_combining
    }

    /// Enables or disables MadIO header combining (ablation knob).
    pub fn set_header_combining(&self, enabled: bool) {
        self.inner.borrow_mut().config.header_combining = enabled;
    }

    /// Number of events waiting in both queues.
    pub fn pending(&self) -> (usize, usize) {
        let inner = self.inner.borrow();
        (inner.madio_queue.len(), inner.sysio_queue.len())
    }

    /// Enqueues a dispatch for `subsystem` and makes sure the loop runs.
    pub(crate) fn enqueue(&self, world: &mut SimWorld, subsystem: Subsystem, event: PendingEvent) {
        {
            let mut inner = self.inner.borrow_mut();
            match subsystem {
                Subsystem::MadIO => inner.madio_queue.push_back(event),
                Subsystem::SysIO => inner.sysio_queue.push_back(event),
            }
        }
        self.kick(world);
    }

    fn kick(&self, world: &mut SimWorld) {
        let should_start = {
            let mut inner = self.inner.borrow_mut();
            if inner.loop_running {
                false
            } else {
                inner.loop_running = true;
                true
            }
        };
        if should_start {
            let core = self.clone();
            world.schedule_after(SimDuration::ZERO, move |world| core.iterate(world));
        }
    }

    /// One iteration of the dispatch loop: pick the next event according to
    /// the fairness policy, charge its dispatch overhead, run it, schedule
    /// the next iteration.
    fn iterate(&self, world: &mut SimWorld) {
        let (event, overhead) = {
            let mut inner = self.inner.borrow_mut();
            let policy = inner.config.policy;
            let madio_empty = inner.madio_queue.is_empty();
            let sysio_empty = inner.sysio_queue.is_empty();
            if madio_empty && sysio_empty {
                inner.loop_running = false;
                inner.stats.idle_transitions += 1;
                return;
            }
            // Weighted round robin: consume budget of the class we pick;
            // when both budgets are exhausted, start a new round.
            if inner.round_budget.0 == 0 && inner.round_budget.1 == 0 {
                inner.round_budget = (policy.madio_weight, policy.sysio_weight);
            }
            let pick_madio = if madio_empty {
                false
            } else if sysio_empty {
                true
            } else {
                inner.round_budget.0 > 0
            };
            if pick_madio {
                inner.round_budget.0 = inner.round_budget.0.saturating_sub(1);
                inner.stats.madio_events += 1;
                (
                    inner.madio_queue.pop_front().expect("checked non-empty"),
                    inner.config.madio_dispatch_overhead,
                )
            } else {
                inner.round_budget.1 = inner.round_budget.1.saturating_sub(1);
                inner.stats.sysio_events += 1;
                (
                    inner.sysio_queue.pop_front().expect("checked non-empty"),
                    inner.config.sysio_dispatch_overhead,
                )
            }
        };
        // Charge the dispatch overhead, run the callback, then continue.
        let core = self.clone();
        world.schedule_after(overhead, move |world| {
            event(world);
            core.iterate(world);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    fn make_core() -> (SimWorld, NetAccessCore) {
        let mut world = SimWorld::new(0);
        let node = world.add_node("n");
        let core = NetAccessCore::new(node, NetAccessConfig::default());
        (world, core)
    }

    #[test]
    fn events_are_dispatched_in_order_within_a_subsystem() {
        let (mut world, core) = make_core();
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for i in 0..5 {
            let l = log.clone();
            core.enqueue(
                &mut world,
                Subsystem::MadIO,
                Box::new(move |_w| l.borrow_mut().push(i)),
            );
        }
        world.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(core.stats().madio_events, 5);
    }

    #[test]
    fn balanced_policy_interleaves_fairly() {
        let (mut world, core) = make_core();
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for _ in 0..10 {
            let l = log.clone();
            core.enqueue(
                &mut world,
                Subsystem::MadIO,
                Box::new(move |_w| l.borrow_mut().push('m')),
            );
            let l = log.clone();
            core.enqueue(
                &mut world,
                Subsystem::SysIO,
                Box::new(move |_w| l.borrow_mut().push('s')),
            );
        }
        world.run();
        let log = log.borrow();
        assert_eq!(log.len(), 20);
        // With balanced weights, no subsystem runs more than twice in a row.
        let mut max_run = 1;
        let mut run = 1;
        for w in log.windows(2) {
            if w[0] == w[1] {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(max_run <= 2, "interleaving too bursty: {log:?}");
    }

    #[test]
    fn weighted_policy_biases_dispatch_order() {
        let (mut world, core) = make_core();
        core.set_policy(PollPolicy::favour_madio(4));
        let log = Rc::new(StdRefCell::new(Vec::new()));
        for _ in 0..8 {
            let l = log.clone();
            core.enqueue(
                &mut world,
                Subsystem::MadIO,
                Box::new(move |_w| l.borrow_mut().push('m')),
            );
            let l = log.clone();
            core.enqueue(
                &mut world,
                Subsystem::SysIO,
                Box::new(move |_w| l.borrow_mut().push('s')),
            );
        }
        world.run();
        let log = log.borrow();
        // The first 5 dispatches should be dominated by MadIO (4 m's then an s).
        let first: String = log.iter().take(5).collect();
        assert_eq!(first, "mmmms");
        assert_eq!(core.stats().madio_events, 8);
        assert_eq!(core.stats().sysio_events, 8);
    }

    #[test]
    fn dispatch_overhead_is_charged() {
        let (mut world, core) = make_core();
        for _ in 0..100 {
            core.enqueue(&mut world, Subsystem::MadIO, Box::new(|_w| {}));
        }
        world.run();
        // 100 events at 40 ns each: at least 4 µs of virtual time.
        assert!(world.now().as_micros_f64() >= 4.0);
    }

    #[test]
    fn policy_can_change_at_runtime() {
        let (_world, core) = make_core();
        assert_eq!(core.policy(), PollPolicy::balanced());
        core.set_policy(PollPolicy::favour_sysio(7));
        assert_eq!(core.policy().sysio_weight, 7);
        assert!(core.header_combining());
        core.set_header_combining(false);
        assert!(!core.header_combining());
    }

    #[test]
    fn loop_goes_idle_and_wakes_up_again() {
        let (mut world, core) = make_core();
        let hits = Rc::new(StdRefCell::new(0));
        let h = hits.clone();
        core.enqueue(
            &mut world,
            Subsystem::SysIO,
            Box::new(move |_w| *h.borrow_mut() += 1),
        );
        world.run();
        assert_eq!(*hits.borrow(), 1);
        assert!(core.stats().idle_transitions >= 1);
        let h = hits.clone();
        core.enqueue(
            &mut world,
            Subsystem::SysIO,
            Box::new(move |_w| *h.borrow_mut() += 1),
        );
        world.run();
        assert_eq!(*hits.borrow(), 2);
    }
}
