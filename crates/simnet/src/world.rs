//! The simulation world: virtual clock, event queue, nodes, networks and
//! frame delivery.
//!
//! The world is single-threaded and fully deterministic for a given seed.
//! Protocol stacks (transports, Madeleine, NetAccess, the PadicoTM
//! abstractions and middleware) live *outside* the world, typically behind
//! `Rc<RefCell<…>>`, and interact with it in two ways:
//!
//! * they schedule events and send frames through `&mut SimWorld`;
//! * they register per-`(node, protocol)` receive handlers that the world
//!   invokes when a frame is delivered — the callback-based "Active
//!   Message" style the paper argues for at the arbitration level.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::event::{EventFn, EventId, EventQueue};
use crate::frame::{Frame, ProtoId};
use crate::network::{Network, NetworkId, SendError};
use crate::node::{Node, NodeId};
use crate::rng::SimRng;
use crate::shard::{PartitionStats, RemoteFrame, REMOTE_NET};
use crate::spec::{HostProfile, NetworkSpec};
use crate::stats::WorldStats;
use crate::telemetry::{EventRing, MetricsRegistry, MetricsSnapshot, SnapshotBuilder, TraceEvent};
use crate::time::{SimDuration, SimTime};

/// Receive handler invoked when a frame is delivered to a node.
pub type FrameHandler = Rc<RefCell<dyn FnMut(&mut SimWorld, NetworkId, Frame)>>;

/// Partitioned executor state (see [`SimWorld::enable_partition`]).
struct PartitionState {
    shard: u16,
    lookahead: SimDuration,
    /// Per-destination-shard lookahead (this shard's trunk out-edges);
    /// empty when the run uses the single global window.
    trunk_out: Vec<Option<SimDuration>>,
    /// Mirror ownership: node index → owning shard. When non-empty, the
    /// world was built as a full mirror of the grid and
    /// [`SimWorld::send_frame`] intercepts frames whose destination is
    /// owned by another shard at the trunk boundary (full local wire
    /// timing, then ship). Empty = no mirror, only explicit
    /// [`SimWorld::send_remote`] crosses shards.
    owner_of: Vec<u16>,
    out_seq: u64,
    outbox: Vec<RemoteFrame>,
    stats: PartitionStats,
}

/// The discrete-event simulation world.
pub struct SimWorld {
    clock: SimTime,
    queue: EventQueue,
    partition: Option<Box<PartitionState>>,
    rng: SimRng,
    nodes: Vec<Node>,
    networks: Vec<Network>,
    handlers: HashMap<(NodeId, ProtoId), FrameHandler>,
    /// Typed event ring (disabled by default, allocation-free while off).
    pub events: EventRing,
    /// The unified metrics registry every layer of the stack registers
    /// into; scrape it with [`SimWorld::metrics_snapshot`].
    pub metrics: MetricsRegistry,
    /// Global counters.
    pub stats: WorldStats,
    /// Safety cap on the number of events executed by a single `run*` call;
    /// prevents accidental infinite simulations in tests. `None` = no cap.
    pub max_events_per_run: Option<u64>,
}

impl SimWorld {
    /// Creates an empty world with the given random seed.
    pub fn new(seed: u64) -> Self {
        SimWorld {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            partition: None,
            rng: SimRng::seeded(seed),
            nodes: Vec::new(),
            networks: Vec::new(),
            handlers: HashMap::new(),
            events: EventRing::new(),
            metrics: MetricsRegistry::new(),
            stats: WorldStats::default(),
            max_events_per_run: Some(200_000_000),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Access to the deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    // ----------------------------------------------------------------- //
    // Scheduling
    // ----------------------------------------------------------------- //

    /// Schedules `f` to run at absolute time `t` (clamped to now if in the
    /// past).
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut SimWorld) + 'static) -> EventId {
        let t = t.max(self.clock);
        self.stats.events_scheduled += 1;
        self.queue.push(t, Box::new(f) as EventFn)
    }

    /// Schedules `f` to run after the duration `d`.
    pub fn schedule_after(
        &mut self,
        d: SimDuration,
        f: impl FnOnce(&mut SimWorld) + 'static,
    ) -> EventId {
        self.schedule_at(self.clock + d, f)
    }

    /// Cancels a pending event and drops its callback at once. Returns
    /// `true` only if the event was still pending; only then does it bump
    /// `stats.events_cancelled` and take one off
    /// [`pending_events`](Self::pending_events).
    ///
    /// Any other id is refused with `false` and changes nothing: an id
    /// whose event already ran, an id already cancelled, or an id this
    /// world never issued. Holding on to a fired id is therefore harmless,
    /// and `events_executed + events_cancelled <= events_scheduled` holds
    /// on every run.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.queue.cancel(id);
        if cancelled {
            self.stats.events_cancelled += 1;
        }
        cancelled
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Cancelled events still occupying queue slots (tombstones awaiting
    /// pop-skip or compaction).
    pub fn cancelled_pending(&self) -> usize {
        self.queue.cancelled_pending()
    }

    /// How many tombstone compaction sweeps the queue has performed.
    pub fn queue_compactions(&self) -> u64 {
        self.queue.compactions()
    }

    /// Time of the earliest pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    // ----------------------------------------------------------------- //
    // Execution
    // ----------------------------------------------------------------- //

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, f)) => {
                debug_assert!(t >= self.clock, "time must be monotonic");
                self.clock = t;
                self.stats.events_executed += 1;
                f(self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        let mut executed = 0u64;
        while self.step() {
            executed += 1;
            if let Some(cap) = self.max_events_per_run {
                assert!(
                    executed <= cap,
                    "simulation exceeded the safety cap of {cap} events"
                );
            }
        }
    }

    /// Runs until the virtual clock reaches `t` (events at exactly `t` are
    /// executed) or the queue empties. The clock is advanced to `t` even if
    /// the queue empties earlier.
    pub fn run_until(&mut self, t: SimTime) {
        let mut executed = 0u64;
        loop {
            match self.queue.next_time() {
                Some(next) if next <= t => {
                    self.step();
                    executed += 1;
                    if let Some(cap) = self.max_events_per_run {
                        assert!(
                            executed <= cap,
                            "simulation exceeded the safety cap of {cap} events"
                        );
                    }
                }
                _ => break,
            }
        }
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Runs for the duration `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.clock + d;
        self.run_until(target);
    }

    /// Runs while `keep_going()` returns true and events remain. The
    /// predicate typically checks completion flags held outside the world.
    pub fn run_while(&mut self, mut keep_going: impl FnMut() -> bool) {
        let mut executed = 0u64;
        while keep_going() && self.step() {
            executed += 1;
            if let Some(cap) = self.max_events_per_run {
                assert!(
                    executed <= cap,
                    "simulation exceeded the safety cap of {cap} events"
                );
            }
        }
    }

    /// Runs every event with time *strictly before* `t`, leaving the
    /// clock at the last executed event (it is not advanced to `t`).
    /// This is the window primitive of the partitioned executor: a shard
    /// executes its safe window `[now, horizon)` and stops.
    pub fn run_before(&mut self, t: SimTime) {
        let mut executed = 0u64;
        while let Some(next) = self.queue.next_time() {
            if next >= t {
                break;
            }
            self.step();
            executed += 1;
            if let Some(cap) = self.max_events_per_run {
                assert!(
                    executed <= cap,
                    "simulation exceeded the safety cap of {cap} events"
                );
            }
        }
    }

    // ----------------------------------------------------------------- //
    // Topology
    // ----------------------------------------------------------------- //

    /// Adds a node with the default (Pentium III era) host profile.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.add_node_with_profile(name, HostProfile::default())
    }

    /// Adds a node with an explicit host profile.
    pub fn add_node_with_profile(&mut self, name: &str, host: HostProfile) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name, host));
        id
    }

    /// Looks a node up.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Creates a network fabric from a spec.
    pub fn add_network(&mut self, spec: NetworkSpec) -> NetworkId {
        let id = NetworkId(self.networks.len() as u32);
        self.networks.push(Network::new(id, spec));
        id
    }

    /// Attaches a node to a network fabric.
    pub fn attach(&mut self, node: NodeId, network: NetworkId) {
        assert!(node.index() < self.nodes.len(), "unknown node");
        self.networks[network.index()].attach(node);
    }

    /// Looks a network up.
    pub fn network(&self, id: NetworkId) -> &Network {
        &self.networks[id.index()]
    }

    /// Number of networks.
    pub fn network_count(&self) -> usize {
        self.networks.len()
    }

    /// All network ids, in creation order.
    pub fn network_ids(&self) -> Vec<NetworkId> {
        self.networks.iter().map(|n| n.id).collect()
    }

    /// All networks to which both `a` and `b` are attached, in creation
    /// order. This is what the PadicoTM selector inspects to choose an
    /// adapter for a link.
    pub fn networks_between(&self, a: NodeId, b: NodeId) -> Vec<NetworkId> {
        self.networks
            .iter()
            .filter(|n| n.is_attached(a) && n.is_attached(b))
            .map(|n| n.id)
            .collect()
    }

    /// All networks `node` is attached to, in creation order. Together with
    /// [`Network::members`] this exposes the full attachment graph, which
    /// is what the `gridtopo` routing layer walks to compute multi-hop
    /// routes.
    pub fn networks_of(&self, node: NodeId) -> Vec<NetworkId> {
        self.networks
            .iter()
            .filter(|n| n.is_attached(node))
            .map(|n| n.id)
            .collect()
    }

    /// Virtual-time cost of one memory copy of `bytes` on `node`.
    pub fn copy_cost(&self, node: NodeId, bytes: u64) -> SimDuration {
        self.node(node).host.copy_cost(bytes)
    }

    // ----------------------------------------------------------------- //
    // Frame transmission and delivery
    // ----------------------------------------------------------------- //

    /// Registers the receive handler for `(node, proto)`. Replaces any
    /// previous handler for the same key (the arbitration layer is expected
    /// to be the single registrant per protocol).
    pub fn register_handler(
        &mut self,
        node: NodeId,
        proto: ProtoId,
        handler: impl FnMut(&mut SimWorld, NetworkId, Frame) + 'static,
    ) {
        self.handlers
            .insert((node, proto), Rc::new(RefCell::new(handler)));
    }

    /// Removes the receive handler for `(node, proto)`.
    pub fn unregister_handler(&mut self, node: NodeId, proto: ProtoId) {
        self.handlers.remove(&(node, proto));
    }

    /// Whether a handler is registered for `(node, proto)`.
    pub fn has_handler(&self, node: NodeId, proto: ProtoId) -> bool {
        self.handlers.contains_key(&(node, proto))
    }

    /// Submits a frame for transmission on `network`.
    ///
    /// The frame occupies the sender's TX port for its serialization time,
    /// propagates for the network latency, may be dropped by the loss
    /// model, and is finally delivered to the handler registered for
    /// `(frame.dst, frame.proto)` — or silently counted as unclaimed if no
    /// handler exists.
    pub fn send_frame(&mut self, network: NetworkId, frame: Frame) -> Result<(), SendError> {
        if network.index() >= self.networks.len() {
            return Err(SendError::NoSuchNetwork);
        }
        let now = self.clock;
        let (delivery_time, dropped) = {
            let rng = &mut self.rng;
            let net = &mut self.networks[network.index()];
            if !net.is_attached(frame.src) {
                return Err(SendError::SourceNotAttached);
            }
            if !net.is_attached(frame.dst) {
                return Err(SendError::DestinationNotAttached);
            }
            if frame.payload.len() > net.spec.mtu {
                return Err(SendError::FrameTooLarge {
                    size: frame.payload.len(),
                    mtu: net.spec.mtu,
                });
            }

            let wire_bytes = frame.wire_bytes();
            let ser = net.spec.serialization(wire_bytes);

            // Sender-side: fixed per-frame cost, then the TX port.
            let tx_start = (now + net.spec.per_frame_overhead).max(net.tx_free_at(frame.src));
            let tx_done = tx_start + ser;
            net.set_tx_busy_until(frame.src, tx_done);

            // Loss is decided at transmit time (the frame still burned wire
            // time, as a real lost packet does).
            let dropped = net.spec.loss.should_drop(rng);

            // Receiver-side: propagation, then the RX port (incast model).
            let arrival = tx_done + net.spec.latency;
            let delivery = arrival.max(net.rx_free_at(frame.dst));
            net.set_rx_busy_until(frame.dst, delivery + ser);

            net.stats.frames_sent += 1;
            net.stats.payload_bytes_sent += frame.payload.len() as u64;
            net.stats.wire_bytes_sent += wire_bytes + net.spec.link_header_bytes as u64;
            if dropped {
                net.stats.frames_dropped += 1;
            }
            (delivery, dropped)
        };

        if self.events.is_enabled() {
            let (net, src, dst, proto, bytes) = (
                network,
                frame.src,
                frame.dst,
                frame.proto,
                frame.payload.len() as u32,
            );
            self.events.record(
                now,
                if dropped {
                    TraceEvent::FrameLost {
                        net,
                        src,
                        dst,
                        proto,
                        bytes,
                    }
                } else {
                    TraceEvent::FrameSent {
                        net,
                        src,
                        dst,
                        proto,
                        bytes,
                    }
                },
            );
        }

        if dropped {
            return Ok(());
        }

        // Partition-mirror trunk boundary: the wire timing above ran
        // against this world's mirror of the network (ports, stats,
        // serialization — byte-identical to the single-world run), but
        // the destination node executes in another shard's world. Ship
        // the frame at its true delivery time; the destination world
        // re-enters through its normal per-network delivery path. The
        // delivery event is *not* scheduled (or counted) here — the
        // destination world schedules it at injection.
        if let Some(p) = self.partition.as_deref_mut() {
            if let Some(&owner) = p.owner_of.get(frame.dst.index()) {
                if owner != p.shard {
                    let declared = p.trunk_out.get(owner as usize).copied().flatten();
                    if !p.trunk_out.is_empty() && declared.is_none() {
                        // Per-trunk windows promise nothing about an
                        // undeclared pair — crossing one is unsafe.
                        p.stats.lookahead_violations += 1;
                    }
                    if delivery_time < now + declared.unwrap_or(p.lookahead) {
                        // Never floored: ship at the true time so
                        // equivalence runs surface the bad lookahead
                        // instead of masking it with skewed clocks.
                        p.stats.lookahead_violations += 1;
                    }
                    let seq = p.out_seq;
                    p.out_seq += 1;
                    p.stats.cross_out += 1;
                    p.outbox.push(RemoteFrame {
                        to: owner,
                        from: p.shard,
                        seq,
                        deliver_at: delivery_time,
                        net: network,
                        frame,
                    });
                    return Ok(());
                }
            }
        }

        self.stats.events_scheduled += 1;
        self.queue.push(
            delivery_time,
            Box::new(move |world: &mut SimWorld| {
                world.deliver(network, frame);
            }),
        );
        Ok(())
    }

    // ----------------------------------------------------------------- //
    // The partitioned executor
    // ----------------------------------------------------------------- //

    /// Which executor this world runs on: `"single"` or `"partitioned"`.
    pub fn executor_kind(&self) -> &'static str {
        if self.partition.is_some() {
            "partitioned"
        } else {
            "single"
        }
    }

    /// Marks this world as shard `shard` of a partitioned run with the
    /// given conservative lookahead. Normally called by
    /// [`run_partitioned`](crate::shard::run_partitioned), not directly.
    pub fn enable_partition(&mut self, shard: u16, lookahead: SimDuration) {
        assert!(self.partition.is_none(), "partition already enabled");
        self.partition = Some(Box::new(PartitionState {
            shard,
            lookahead,
            trunk_out: Vec::new(),
            owner_of: Vec::new(),
            out_seq: 0,
            outbox: Vec::new(),
            stats: PartitionStats {
                shard,
                ..PartitionStats::default()
            },
        }));
    }

    /// Installs this shard's per-trunk lookahead out-edges
    /// (`out[to_shard]`), replacing the single global floor for declared
    /// destinations. Normally called by
    /// [`run_partitioned`](crate::shard::run_partitioned) from
    /// [`Partition::trunks`](crate::shard::Partition::trunks).
    pub fn set_trunk_lookaheads(&mut self, out: Vec<Option<SimDuration>>) {
        let p = self
            .partition
            .as_deref_mut()
            .expect("set_trunk_lookaheads requires enable_partition");
        p.trunk_out = out;
    }

    /// Declares this world a full *mirror* of the grid: every shard
    /// builds identical nodes/networks (same ids, same seed-independent
    /// construction order), and `owner_of[node.index()]` names the shard
    /// whose world actually executes that node. From then on,
    /// [`SimWorld::send_frame`] computes full local wire timing for every
    /// frame — TX/RX port occupancy, serialization, latency — and frames
    /// whose destination is foreign-owned are shipped across the shard
    /// boundary at their true delivery time instead of being scheduled
    /// locally. Nodes beyond the map are treated as local.
    pub fn set_mirror_owners(&mut self, owner_of: Vec<u16>) {
        let p = self
            .partition
            .as_deref_mut()
            .expect("set_mirror_owners requires enable_partition");
        p.owner_of = owner_of;
    }

    /// Emits `frame` towards another shard world. Delivery happens at
    /// `now + max(extra_delay, lookahead)` — the lookahead floor is what
    /// keeps conservative window synchronization safe. The frame reaches
    /// the destination world's `(frame.dst, frame.proto)` handler with
    /// [`REMOTE_NET`] as the network id.
    pub fn send_remote(&mut self, to_shard: u16, frame: Frame, extra_delay: SimDuration) {
        let now = self.clock;
        let p = self
            .partition
            .as_deref_mut()
            .expect("send_remote requires enable_partition");
        let declared = p.trunk_out.get(to_shard as usize).copied().flatten();
        if !p.trunk_out.is_empty() && declared.is_none() {
            p.stats.lookahead_violations += 1;
        }
        let deliver_at = now + extra_delay.max(declared.unwrap_or(p.lookahead));
        let seq = p.out_seq;
        p.out_seq += 1;
        p.stats.cross_out += 1;
        p.outbox.push(RemoteFrame {
            to: to_shard,
            from: p.shard,
            seq,
            deliver_at,
            net: REMOTE_NET,
            frame,
        });
    }

    /// Drains the frames queued by [`SimWorld::send_remote`] since the
    /// last call (the window-barrier exchange).
    pub fn take_remote_outbox(&mut self) -> Vec<RemoteFrame> {
        self.partition
            .as_deref_mut()
            .map(|p| std::mem::take(&mut p.outbox))
            .unwrap_or_default()
    }

    /// Schedules an in-transit remote frame for delivery in this world.
    pub fn inject_remote(&mut self, rf: RemoteFrame) {
        let p = self
            .partition
            .as_deref_mut()
            .expect("inject_remote requires enable_partition");
        p.stats.cross_in += 1;
        let frame = rf.frame;
        let net = rf.net;
        self.schedule_at(rf.deliver_at, move |world| {
            world.deliver_remote(net, frame);
        });
    }

    /// Cross-shard traffic counters, if this world is a partition shard.
    pub fn partition_stats(&self) -> Option<&PartitionStats> {
        self.partition.as_ref().map(|p| &p.stats)
    }

    fn deliver_remote(&mut self, net: NetworkId, frame: Frame) {
        // A mirrored-trunk frame carries its real network id; deliver
        // through the normal per-network path so handler dispatch and
        // unclaimed accounting match the single-world run byte-for-byte.
        if net != REMOTE_NET && net.index() < self.networks.len() {
            self.deliver(net, frame);
            return;
        }
        let key = (frame.dst, frame.proto);
        match self.handlers.get(&key).cloned() {
            Some(handler) => {
                handler.borrow_mut()(self, REMOTE_NET, frame);
            }
            None => {
                if let Some(p) = self.partition.as_deref_mut() {
                    p.stats.remote_unclaimed += 1;
                }
            }
        }
    }

    // ----------------------------------------------------------------- //
    // Telemetry
    // ----------------------------------------------------------------- //

    /// Scrapes one deterministic snapshot of the whole telemetry
    /// namespace: the world and per-network counters under `sim.*`, the
    /// event-ring health counter, plus everything every layer registered
    /// into [`SimWorld::metrics`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut b = SnapshotBuilder::new();
        b.counter("sim.world.events_executed", &[], self.stats.events_executed);
        b.counter(
            "sim.world.events_scheduled",
            &[],
            self.stats.events_scheduled,
        );
        b.counter(
            "sim.world.events_cancelled",
            &[],
            self.stats.events_cancelled,
        );
        b.gauge("sim.world.nodes", &[], self.nodes.len() as i64);
        b.gauge("sim.world.networks", &[], self.networks.len() as i64);
        b.counter("sim.events.dropped", &[], self.events.dropped());
        for net in &self.networks {
            let id = net.id.index().to_string();
            let labels: &[(&str, &str)] = &[("net", id.as_str())];
            b.counter("sim.net.frames_sent", labels, net.stats.frames_sent);
            b.counter("sim.net.frames_dropped", labels, net.stats.frames_dropped);
            b.counter(
                "sim.net.frames_unclaimed",
                labels,
                net.stats.frames_unclaimed,
            );
            b.counter(
                "sim.net.payload_bytes_sent",
                labels,
                net.stats.payload_bytes_sent,
            );
            b.counter("sim.net.wire_bytes_sent", labels, net.stats.wire_bytes_sent);
        }
        // Executor-level bookkeeping lives under `sim.executor.*` — only
        // emitted by a partition shard, and stripped by the equivalence
        // suite (via `to_json_excluding`) because a single-queue world
        // has no cut to account for.
        if let Some(p) = self.partition.as_deref() {
            b.gauge("sim.executor.shard", &[], p.stats.shard as i64);
            b.counter("sim.executor.cross_in", &[], p.stats.cross_in);
            b.counter("sim.executor.cross_out", &[], p.stats.cross_out);
            b.counter(
                "sim.executor.remote_unclaimed",
                &[],
                p.stats.remote_unclaimed,
            );
            b.counter(
                "sim.executor.lookahead_violations",
                &[],
                p.stats.lookahead_violations,
            );
            b.gauge(
                "sim.executor.cancelled_pending",
                &[],
                self.queue.cancelled_pending() as i64,
            );
            b.counter("sim.executor.compactions", &[], self.queue.compactions());
        }
        self.metrics.collect_into(&mut b);
        b.finish()
    }

    fn deliver(&mut self, network: NetworkId, frame: Frame) {
        let key = (frame.dst, frame.proto);
        match self.handlers.get(&key).cloned() {
            Some(handler) => {
                handler.borrow_mut()(self, network, frame);
            }
            None => {
                self.networks[network.index()].stats.frames_unclaimed += 1;
                if self.events.is_enabled() {
                    self.events.record(
                        self.clock,
                        TraceEvent::FrameUnclaimed {
                            net: network,
                            dst: frame.dst,
                            proto: frame.proto,
                        },
                    );
                }
            }
        }
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.clock)
            .field("pending_events", &self.queue.len())
            .field("nodes", &self.nodes.len())
            .field("networks", &self.networks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;
    use std::cell::Cell;

    fn two_node_world(spec: NetworkSpec) -> (SimWorld, NodeId, NodeId, NetworkId) {
        let mut w = SimWorld::new(42);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let net = w.add_network(spec);
        w.attach(a, net);
        w.attach(b, net);
        (w, a, b, net)
    }

    #[test]
    fn clock_advances_with_events() {
        let mut w = SimWorld::new(0);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        w.schedule_after(SimDuration::from_micros(5), move |_| f.set(true));
        assert_eq!(w.now(), SimTime::ZERO);
        w.run();
        assert!(fired.get());
        assert_eq!(w.now(), SimTime::from_micros(5));
    }

    #[test]
    fn run_until_stops_at_target_and_advances_clock() {
        let mut w = SimWorld::new(0);
        let count = Rc::new(Cell::new(0));
        for i in 1..=10u64 {
            let c = count.clone();
            w.schedule_at(SimTime::from_micros(i), move |_| c.set(c.get() + 1));
        }
        w.run_until(SimTime::from_micros(4));
        assert_eq!(count.get(), 4);
        assert_eq!(w.now(), SimTime::from_micros(4));
        w.run();
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn run_for_advances_clock_even_without_events() {
        let mut w = SimWorld::new(0);
        w.run_for(SimDuration::from_millis(3));
        assert_eq!(w.now(), SimTime::from_millis(3));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut w = SimWorld::new(0);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let id = w.schedule_after(SimDuration::from_micros(1), move |_| f.set(true));
        assert!(w.cancel(id));
        w.run();
        assert!(!fired.get());
        assert_eq!(w.stats.events_cancelled, 1);
    }

    #[test]
    fn frame_delivery_latency_matches_model() {
        let (mut w, a, b, net) = two_node_world(NetworkSpec::myrinet_2000());
        let delivered_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = delivered_at.clone();
        w.register_handler(b, ProtoId::user(0), move |world, _net, _frame| {
            d.set(world.now());
        });
        let frame = Frame::new(a, b, ProtoId::user(0), vec![0u8; 1000]);
        w.send_frame(net, frame).unwrap();
        w.run();
        let spec = NetworkSpec::myrinet_2000();
        let expected =
            SimTime::ZERO + spec.per_frame_overhead + spec.serialization(1000) + spec.latency;
        assert_eq!(delivered_at.get(), expected);
    }

    #[test]
    fn back_to_back_frames_pipeline_at_link_rate() {
        let (mut w, a, b, net) = two_node_world(NetworkSpec::myrinet_2000());
        let received = Rc::new(Cell::new(0u64));
        let last = Rc::new(Cell::new(SimTime::ZERO));
        let (r, l) = (received.clone(), last.clone());
        w.register_handler(b, ProtoId::user(0), move |world, _net, frame| {
            r.set(r.get() + frame.payload_len() as u64);
            l.set(world.now());
        });
        let n_frames = 100u64;
        let frame_size = 100_000u64;
        for _ in 0..n_frames {
            let frame = Frame::new(a, b, ProtoId::user(0), vec![0u8; frame_size as usize]);
            w.send_frame(net, frame).unwrap();
        }
        w.run();
        assert_eq!(received.get(), n_frames * frame_size);
        // Sustained bandwidth should be close to the 250 MB/s wire rate
        // (within 5%, accounting for per-frame overheads and latency).
        let secs = last.get().as_secs_f64();
        let bw = received.get() as f64 / secs;
        assert!(bw > 0.95 * 250.0e6 * 0.95, "bandwidth was {bw}");
        assert!(bw <= 250.0e6 * 1.01, "bandwidth was {bw}");
    }

    #[test]
    fn mtu_is_enforced() {
        let (mut w, a, b, net) = two_node_world(NetworkSpec::ethernet_100());
        let frame = Frame::new(a, b, ProtoId::user(0), vec![0u8; 2000]);
        let err = w.send_frame(net, frame).unwrap_err();
        assert!(matches!(err, SendError::FrameTooLarge { mtu: 1500, .. }));
    }

    #[test]
    fn unattached_nodes_are_rejected() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let c = w.add_node("c");
        let net = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, net);
        w.attach(b, net);
        let err = w
            .send_frame(net, Frame::new(c, b, ProtoId::user(0), vec![1]))
            .unwrap_err();
        assert_eq!(err, SendError::SourceNotAttached);
        let err = w
            .send_frame(net, Frame::new(a, c, ProtoId::user(0), vec![1]))
            .unwrap_err();
        assert_eq!(err, SendError::DestinationNotAttached);
    }

    #[test]
    fn frames_without_handler_are_counted_unclaimed() {
        let (mut w, a, b, net) = two_node_world(NetworkSpec::ethernet_100());
        w.send_frame(net, Frame::new(a, b, ProtoId::user(7), vec![1, 2, 3]))
            .unwrap();
        w.run();
        assert_eq!(w.network(net).stats.frames_unclaimed, 1);
    }

    #[test]
    fn lossy_network_drops_roughly_the_configured_fraction() {
        let mut spec = NetworkSpec::ethernet_100();
        spec.loss = LossModel::bernoulli(0.2);
        let (mut w, a, b, net) = two_node_world(spec);
        let received = Rc::new(Cell::new(0u32));
        let r = received.clone();
        w.register_handler(b, ProtoId::user(0), move |_w, _n, _f| r.set(r.get() + 1));
        let sent = 5000;
        for _ in 0..sent {
            w.send_frame(net, Frame::new(a, b, ProtoId::user(0), vec![0u8; 100]))
                .unwrap();
        }
        w.run();
        let stats = w.network(net).stats;
        assert_eq!(stats.frames_sent, sent as u64);
        let loss = stats.drop_rate();
        assert!((loss - 0.2).abs() < 0.03, "observed loss {loss}");
        assert_eq!(received.get() as u64, stats.frames_delivered());
    }

    #[test]
    fn networks_between_lists_shared_fabrics() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let c = w.add_node("c");
        let san = w.add_network(NetworkSpec::myrinet_2000());
        let lan = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, san);
        w.attach(b, san);
        w.attach(a, lan);
        w.attach(b, lan);
        w.attach(c, lan);
        assert_eq!(w.networks_between(a, b), vec![san, lan]);
        assert_eq!(w.networks_between(a, c), vec![lan]);
        assert!(w.networks_between(c, c).contains(&lan));
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let run = |seed: u64| -> (u64, u64) {
            let mut spec = NetworkSpec::lossy_internet();
            spec.loss = LossModel::bernoulli(0.1);
            let mut w = SimWorld::new(seed);
            let a = w.add_node("a");
            let b = w.add_node("b");
            let net = w.add_network(spec);
            w.attach(a, net);
            w.attach(b, net);
            let received = Rc::new(Cell::new(0u64));
            let r = received.clone();
            w.register_handler(b, ProtoId::user(0), move |_w, _n, _f| r.set(r.get() + 1));
            for _ in 0..1000 {
                w.send_frame(net, Frame::new(a, b, ProtoId::user(0), vec![0u8; 200]))
                    .unwrap();
            }
            w.run();
            (received.get(), w.now().as_nanos())
        };
        let mut w1 = run(5);
        let w2 = run(5);
        assert_eq!(w1, w2);
        w1 = run(6);
        assert_ne!(w1.0, 0);
        let _ = w1;
    }

    #[test]
    fn handler_can_send_replies() {
        // A ping/pong exchange implemented purely with handlers.
        let (mut w, a, b, net) = two_node_world(NetworkSpec::myrinet_2000());
        let pong_at = Rc::new(Cell::new(SimTime::ZERO));
        let p = pong_at.clone();
        w.register_handler(b, ProtoId::user(0), move |world, netid, frame| {
            let reply = Frame::new(
                frame.dst,
                frame.src,
                ProtoId::user(1),
                frame.payload.clone(),
            );
            world.send_frame(netid, reply).unwrap();
        });
        w.register_handler(a, ProtoId::user(1), move |world, _netid, _frame| {
            p.set(world.now());
        });
        w.send_frame(net, Frame::new(a, b, ProtoId::user(0), vec![0u8; 4]))
            .unwrap();
        w.run();
        assert!(pong_at.get() > SimTime::ZERO);
        // Round trip should be roughly twice the one-way latency.
        let spec = NetworkSpec::myrinet_2000();
        let one_way = (spec.per_frame_overhead + spec.serialization(4) + spec.latency).as_nanos();
        let rtt = pong_at.get().as_nanos();
        assert!(rtt >= 2 * one_way);
        assert!(rtt < 2 * one_way + 2_000);
    }
}
