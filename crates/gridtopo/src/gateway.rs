//! Gateway store-and-forward relaying of frames along multi-hop routes.
//!
//! A [`RelayFabric`] attaches a relay agent to every participating node.
//! Frames addressed to a node with which the sender shares no network are
//! encapsulated (final destination, origin, port, TTL) and sent hop by hop
//! along the [`RouteTable`](crate::route::RouteTable) route: each gateway receives the frame, pays a
//! per-hop relay latency (the store-and-forward cost of the gateway's CPU
//! and memory), and retransmits it on the next network.
//!
//! Congestion at a gateway is resolved by one of two [`BackpressureMode`]s:
//!
//! * [`BackpressureMode::Drop`] — the distributed-world answer: arrivals
//!   beyond the bounded relay queue are dropped and accounted, like a
//!   best-effort router.
//! * [`BackpressureMode::Credit`] — the parallel-world answer: each
//!   gateway's queue capacity is advertised upstream as a pool of credits.
//!   A sender (the origin, or an upstream gateway forwarding towards the
//!   next hop) must hold a credit before transmitting; with the pool
//!   exhausted the frame *parks* instead of being dropped, and resumes in
//!   FIFO order when the gateway forwards a queued frame and the freed
//!   credit travels back upstream ([`RelayConfig::credit_return_latency`]).
//!   Backpressure cascades: a parked frame inside a gateway keeps occupying
//!   that gateway's queue, which withholds *its* upstream credits, until
//!   the stall reaches the origins — lossless, exactly-once relaying.
//!
//! The fabric also supports deterministic *fault injection* (see
//! [`RelayFabric::inject_gateway_faults`]): a seeded fraction of in-transit
//! frames is discarded at the gateways, with exact accounting, so recovery
//! logic can be tested reproducibly.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use simnet::{
    CauseId, DropCause, Frame, NetworkId, NodeId, ProtoId, SimDuration, SimRng, SimTime, SimWorld,
    TraceEvent,
};

use crate::route::{GridRoutes, Hop};

/// Encapsulation header: dst(4) + src(4) + port(2) + ttl(1) + cause(8).
/// The cause id correlates every hop of one frame's journey in the typed
/// event trace (`simnet::telemetry`), like a trace id on a real wire.
const RELAY_HEADER_BYTES: usize = 19;

/// How a gateway resolves relay-queue congestion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackpressureMode {
    /// Arrivals beyond the bounded queue are dropped and accounted.
    #[default]
    Drop,
    /// Senders hold per-gateway credits and park (stall) instead of
    /// dropping when the pool is exhausted; no frame is ever lost to a
    /// full queue.
    Credit,
}

impl BackpressureMode {
    /// Lowercase label used in reports ("drop" / "credit").
    pub fn label(self) -> &'static str {
        match self {
            BackpressureMode::Drop => "drop",
            BackpressureMode::Credit => "credit",
        }
    }
}

/// Configuration of the relay agents.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Store-and-forward latency paid by a gateway per relayed frame.
    pub per_hop_latency: SimDuration,
    /// Maximum frames a gateway may hold queued. In [`BackpressureMode::Drop`]
    /// arrivals beyond this are dropped (and counted); in
    /// [`BackpressureMode::Credit`] it is the size of the credit pool the
    /// gateway advertises upstream.
    pub queue_capacity: usize,
    /// Initial time-to-live: a frame traversing more than this many relay
    /// hops is discarded (routing-loop guard).
    pub ttl: u8,
    /// How congestion is resolved at the gateways.
    pub backpressure: BackpressureMode,
    /// Time for a freed credit to travel back upstream and re-enter the
    /// pool (the credit-advertisement latency). Only meaningful in
    /// [`BackpressureMode::Credit`].
    pub credit_return_latency: SimDuration,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            per_hop_latency: SimDuration::from_micros(10),
            queue_capacity: 64,
            ttl: 16,
            backpressure: BackpressureMode::Drop,
            credit_return_latency: SimDuration::from_micros(10),
        }
    }
}

/// Per-gateway relay accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames this node forwarded onwards.
    pub frames_relayed: u64,
    /// Payload bytes forwarded onwards.
    pub bytes_relayed: u64,
    /// Frames dropped because the relay queue was full (never in credit
    /// mode).
    pub frames_dropped_queue_full: u64,
    /// Frames dropped because the TTL expired.
    pub frames_dropped_ttl: u64,
    /// Frames dropped because no onward route existed.
    pub frames_dropped_no_route: u64,
    /// Frames discarded by the fault injector (see
    /// [`RelayFabric::inject_gateway_faults`]).
    pub frames_dropped_fault: u64,
    /// High-water mark of the relay queue depth.
    pub max_queue_depth: usize,
    /// Credits consumed towards this gateway (frames admitted into its
    /// queue space), credit mode only.
    pub credits_consumed: u64,
    /// Credits returned to this gateway's pool, credit mode only. At
    /// quiescence `credits_consumed == credits_returned`.
    pub credits_returned: u64,
}

impl GatewayStats {
    /// Total frames dropped at this gateway for any reason.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped_queue_full
            + self.frames_dropped_ttl
            + self.frames_dropped_no_route
            + self.frames_dropped_fault
    }
}

/// A message delivered by the relay fabric to a bound endpoint.
#[derive(Debug, Clone)]
pub struct RelayedMessage {
    /// The origin node.
    pub src: NodeId,
    /// The endpoint port it was addressed to.
    pub port: u16,
    /// The payload.
    pub payload: Bytes,
    /// Relay hops the frame had left when it arrived (ttl at origin minus
    /// gateways traversed).
    pub ttl_remaining: u8,
    /// Journey id correlating this frame's hops in the typed event trace.
    pub cause: CauseId,
}

/// Errors surfaced when submitting a frame for routed delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayError {
    /// No route exists between the endpoints.
    NoRoute,
    /// The payload (plus relay header) exceeds the smallest MTU on the
    /// route; the caller must segment.
    TooLarge {
        /// Bytes submitted.
        size: usize,
        /// Largest payload the route can carry.
        max: usize,
    },
    /// The underlying network refused the frame.
    Send(simnet::SendError),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::NoRoute => write!(f, "no route between the endpoints"),
            RelayError::TooLarge { size, max } => {
                write!(
                    f,
                    "payload of {size} bytes exceeds the route maximum of {max}"
                )
            }
            RelayError::Send(e) => write!(f, "network send failed: {e}"),
        }
    }
}

impl std::error::Error for RelayError {}

type EndpointCallback = Rc<RefCell<dyn FnMut(&mut SimWorld, RelayedMessage)>>;

/// Where a consumed credit must travel to be returned: `None` for the
/// classic in-memory return (same-site consumer, modelled as a fixed
/// [`RelayConfig::credit_return_latency`]), `Some((node, net))` when the
/// wire credit plane is enabled and the consumer sits across a site
/// boundary — the return then rides a real [`ProtoId::RELAY_CREDIT`]
/// frame over `net` back to `node`, paying true wire timing.
type Upstream = Option<(NodeId, NetworkId)>;

#[derive(Default)]
struct GatewayState {
    queue_depth: usize,
    /// Credits currently held by senders towards this gateway (credit
    /// mode). Invariant: `credits_outstanding <= config.queue_capacity`.
    credits_outstanding: usize,
    stats: GatewayStats,
}

/// A frame waiting for a credit of the gateway it is keyed under.
struct ParkedFrame {
    /// `None`: an origin send not yet transmitted. `Some(gw)`: a frame
    /// occupying gateway `gw`'s queue, waiting for the *next* hop's credit.
    from: Option<NodeId>,
    /// The hop to transmit on once a credit frees.
    hop: Hop,
    final_dst: NodeId,
    orig_src: NodeId,
    port: u16,
    /// TTL to encode: the origin value for origin frames, the arriving
    /// (pre-decrement) value for in-transit frames.
    ttl: u8,
    payload: Bytes,
    parked_at: SimTime,
    cause: CauseId,
    /// Reverse path for the *holding* gateway's own credit once the frame
    /// finally leaves its queue (wire credit plane; see [`Upstream`]).
    upstream: Upstream,
}

/// Deterministic in-transit frame discarder (crash/corruption model).
struct FaultInjector {
    drop_fraction: f64,
    rng: SimRng,
}

struct FabricInner {
    routes: GridRoutes,
    config: RelayConfig,
    gateways: BTreeMap<NodeId, GatewayState>,
    endpoints: HashMap<(NodeId, u16), EndpointCallback>,
    /// Frames accepted by [`RelayFabric::send`] (parked ones included).
    frames_sent: u64,
    delivered_frames: u64,
    delivered_bytes: u64,
    unclaimed_frames: u64,
    /// Frames waiting for a credit, keyed by the gateway whose pool is
    /// exhausted. FIFO per gateway, so resumption is deterministic.
    parked: BTreeMap<NodeId, VecDeque<ParkedFrame>>,
    /// Times a send had to park for want of a credit.
    credit_stalls: u64,
    /// Total virtual time frames spent parked, in nanoseconds.
    credit_stall_ns: u64,
    /// Parked frames whose transmission failed once unparked (topology
    /// changed under the fabric).
    parked_send_failures: u64,
    fault: Option<FaultInjector>,
    /// Whether this fabric already registered its metrics collector.
    metrics_registered: bool,
    /// Wire credit plane (see [`RelayFabric::enable_wire_credit_returns`]):
    /// node index → site id. When set, a credit consumed by a sender in a
    /// *different* site than the gateway is returned as a real
    /// [`ProtoId::RELAY_CREDIT`] frame on the reverse trunk instead of the
    /// fixed-latency in-memory return. `None` (the default) keeps the
    /// fabric byte-identical to the classic behaviour.
    wire_credit_sites: Option<Vec<u16>>,
}

impl FabricInner {
    /// With the wire credit plane enabled: the reverse path the credit a
    /// frame from `src` consumed towards `here` must ride home, when the
    /// two sit in different sites. `None` otherwise (plane off, same
    /// site, or unknown nodes) — the in-memory return applies.
    fn credit_upstream(&self, src: NodeId, here: NodeId, net: NetworkId) -> Upstream {
        let sites = self.wire_credit_sites.as_ref()?;
        let site = |n: NodeId| sites.get(n.0 as usize).copied();
        match (site(src), site(here)) {
            (Some(a), Some(b)) if a != b => Some((src, net)),
            _ => None,
        }
    }

    /// Takes one credit towards `gw` if the pool allows it.
    fn try_consume_credit(&mut self, gw: NodeId) -> bool {
        let capacity = self.config.queue_capacity;
        let state = self.gateways.entry(gw).or_default();
        if state.credits_outstanding >= capacity {
            false
        } else {
            state.credits_outstanding += 1;
            state.stats.credits_consumed += 1;
            true
        }
    }

    /// Returns one credit to `gw`'s pool immediately (no travel latency);
    /// used when a consumed credit is undone in the same instant.
    fn release_credit_now(&mut self, gw: NodeId) {
        let state = self.gateways.entry(gw).or_default();
        debug_assert!(state.credits_outstanding > 0, "credit pool underflow");
        state.credits_outstanding = state.credits_outstanding.saturating_sub(1);
        state.stats.credits_returned += 1;
    }

    /// Mirrors the fabric's accounting into a metrics snapshot under
    /// `relay.fabric.*` and `relay.gateway.*{gw=N}`. Gateways are walked
    /// in id order so the snapshot is deterministic.
    fn collect_metrics(&self, b: &mut simnet::SnapshotBuilder) {
        b.counter("relay.fabric.frames_sent", &[], self.frames_sent);
        b.counter("relay.fabric.frames_delivered", &[], self.delivered_frames);
        b.counter("relay.fabric.delivered_bytes", &[], self.delivered_bytes);
        b.counter("relay.fabric.frames_unclaimed", &[], self.unclaimed_frames);
        b.counter("relay.fabric.credit_stalls", &[], self.credit_stalls);
        b.counter("relay.fabric.credit_stall_ns", &[], self.credit_stall_ns);
        b.counter(
            "relay.fabric.parked_send_failures",
            &[],
            self.parked_send_failures,
        );
        let parked: usize = self.parked.values().map(|q| q.len()).sum();
        b.gauge("relay.fabric.parked_frames", &[], parked as i64);

        // BTreeMap keys iterate in NodeId order already.
        let ids: Vec<NodeId> = self.gateways.keys().copied().collect();
        for id in ids {
            let g = &self.gateways[&id];
            let gw = id.0.to_string();
            let labels: &[(&str, &str)] = &[("gw", gw.as_str())];
            let s = &g.stats;
            b.counter("relay.gateway.frames_relayed", labels, s.frames_relayed);
            b.counter("relay.gateway.bytes_relayed", labels, s.bytes_relayed);
            b.counter(
                "relay.gateway.frames_dropped_queue_full",
                labels,
                s.frames_dropped_queue_full,
            );
            b.counter(
                "relay.gateway.frames_dropped_ttl",
                labels,
                s.frames_dropped_ttl,
            );
            b.counter(
                "relay.gateway.frames_dropped_no_route",
                labels,
                s.frames_dropped_no_route,
            );
            b.counter(
                "relay.gateway.frames_dropped_fault",
                labels,
                s.frames_dropped_fault,
            );
            b.counter("relay.gateway.credits_consumed", labels, s.credits_consumed);
            b.counter("relay.gateway.credits_returned", labels, s.credits_returned);
            b.gauge(
                "relay.gateway.max_queue_depth",
                labels,
                s.max_queue_depth as i64,
            );
            b.gauge("relay.gateway.queue_depth", labels, g.queue_depth as i64);
            b.gauge(
                "relay.gateway.credits_outstanding",
                labels,
                g.credits_outstanding as i64,
            );
        }
    }
}

/// The relay fabric: shared routing state plus the per-node relay agents.
#[derive(Clone)]
pub struct RelayFabric {
    inner: Rc<RefCell<FabricInner>>,
}

impl RelayFabric {
    /// Creates a relay fabric over the given routing table (flat or
    /// hierarchical; both [`RouteTable`](crate::route::RouteTable) and
    /// [`crate::hier::HierRouteTable`] convert into [`GridRoutes`]).
    pub fn new(routes: impl Into<GridRoutes>, config: RelayConfig) -> RelayFabric {
        RelayFabric {
            inner: Rc::new(RefCell::new(FabricInner {
                routes: routes.into(),
                config,
                gateways: BTreeMap::new(),
                endpoints: HashMap::new(),
                frames_sent: 0,
                delivered_frames: 0,
                delivered_bytes: 0,
                unclaimed_frames: 0,
                parked: BTreeMap::new(),
                credit_stalls: 0,
                credit_stall_ns: 0,
                parked_send_failures: 0,
                fault: None,
                metrics_registered: false,
                wire_credit_sites: None,
            })),
        }
    }

    /// Enables the wire credit plane: `site_of[node]` maps every node to
    /// its site, and from now on a credit consumed towards a gateway by a
    /// sender in a *different* site is returned as a real
    /// [`ProtoId::RELAY_CREDIT`] frame transmitted on the reverse trunk
    /// (true serialization + propagation timing) instead of the fixed
    /// [`RelayConfig::credit_return_latency`] in-memory return. Intra-site
    /// returns are unchanged.
    ///
    /// This makes inter-site credit traffic observable on the wire — the
    /// property the partitioned executor needs: with site-per-shard
    /// ownership, *every* inter-world interaction (data and credits) is a
    /// frame crossing the shard boundary, so mirror worlds stay exact.
    ///
    /// Requirement: any node that can be the inter-site upstream of a
    /// relay hop (in practice the gateways, which forward across trunks)
    /// must be [`RelayFabric::attach`]ed so the returning credit frame
    /// finds its handler. Origin senders should share a site with their
    /// first-hop gateway.
    pub fn enable_wire_credit_returns(&self, site_of: Vec<u16>) {
        self.inner.borrow_mut().wire_credit_sites = Some(site_of);
    }

    /// Replaces the routing table (after a topology change).
    pub fn set_routes(&self, routes: impl Into<GridRoutes>) {
        self.inner.borrow_mut().routes = routes.into();
    }

    /// Runs `f` with a borrow of the routing table.
    pub fn with_routes<R>(&self, f: impl FnOnce(&GridRoutes) -> R) -> R {
        f(&self.inner.borrow().routes)
    }

    /// Arms the deterministic fault injector: from now on each in-transit
    /// frame arriving at a gateway is discarded with probability
    /// `drop_fraction`, drawn from a [`SimRng`] seeded with `seed` (so the
    /// exact drop pattern reproduces run to run). Discards are accounted in
    /// [`GatewayStats::frames_dropped_fault`]; in credit mode the upstream
    /// credit is still returned, so faults never leak credits.
    pub fn inject_gateway_faults(&self, drop_fraction: f64, seed: u64) {
        self.inner.borrow_mut().fault = Some(FaultInjector {
            drop_fraction: drop_fraction.clamp(0.0, 1.0),
            rng: SimRng::seeded(seed),
        });
    }

    /// Attaches the relay agent to `node`: the node can now receive
    /// relayed frames, and will store-and-forward frames in transit that
    /// are routed through it. Must be called once for every gateway and
    /// every endpoint node participating in relayed traffic.
    pub fn attach(&self, world: &mut SimWorld, node: NodeId) {
        let register_metrics = {
            let mut inner = self.inner.borrow_mut();
            inner.gateways.entry(node).or_default();
            !std::mem::replace(&mut inner.metrics_registered, true)
        };
        if register_metrics {
            let inner = Rc::downgrade(&self.inner);
            world.metrics.register_collector(move |b| {
                let Some(inner) = inner.upgrade() else { return };
                let inner = inner.borrow();
                inner.collect_metrics(b);
            });
        }
        let fabric = self.clone();
        world.register_handler(node, ProtoId::RELAY, move |world, net, frame| {
            fabric.on_relay_frame(world, net, frame);
        });
        let fabric = self.clone();
        world.register_handler(node, ProtoId::RELAY_CREDIT, move |world, _net, frame| {
            let Some(gw) = decode_credit(&frame.payload) else {
                return; // malformed; drop silently
            };
            fabric.on_credit_returned(world, gw);
        });
    }

    /// Binds an endpoint callback for `(node, port)`; the node is attached
    /// if it was not already.
    pub fn bind(
        &self,
        world: &mut SimWorld,
        node: NodeId,
        port: u16,
        callback: impl FnMut(&mut SimWorld, RelayedMessage) + 'static,
    ) {
        self.attach(world, node);
        self.inner
            .borrow_mut()
            .endpoints
            .insert((node, port), Rc::new(RefCell::new(callback)));
    }

    /// Largest payload deliverable from `src` to `dst` (smallest MTU along
    /// the route minus the relay header), if a route exists.
    pub fn max_payload(&self, world: &SimWorld, src: NodeId, dst: NodeId) -> Option<usize> {
        let inner = self.inner.borrow();
        let info = inner.routes.path_info(world, src, dst)?;
        Some(info.min_mtu.saturating_sub(RELAY_HEADER_BYTES))
    }

    /// Sends `payload` from `src` to `(dst, port)` along the routed path,
    /// relaying through gateways as needed.
    ///
    /// In [`BackpressureMode::Credit`], a send towards a gateway whose
    /// credit pool is exhausted *parks* (the frame is accepted and
    /// transmitted later, when a credit returns) instead of risking a
    /// queue-full drop downstream; parking time is accounted in
    /// [`RelayFabric::credit_stall_ns`].
    pub fn send(
        &self,
        world: &mut SimWorld,
        src: NodeId,
        dst: NodeId,
        port: u16,
        payload: impl Into<Bytes>,
    ) -> Result<(), RelayError> {
        let payload = payload.into();
        let (first_hop, ttl) = {
            let inner = self.inner.borrow();
            if !inner.routes.reachable(src, dst) {
                return Err(RelayError::NoRoute);
            }
            let info = inner
                .routes
                .path_info(world, src, dst)
                .ok_or(RelayError::NoRoute)?;
            let max = info.min_mtu.saturating_sub(RELAY_HEADER_BYTES);
            if payload.len() > max {
                return Err(RelayError::TooLarge {
                    size: payload.len(),
                    max,
                });
            }
            let hop = if src == dst {
                None
            } else {
                Some(inner.routes.next_hop(src, dst).ok_or(RelayError::NoRoute)?)
            };
            (hop, inner.config.ttl)
        };
        // The journey id travels in the relay header; allocated whether or
        // not the ring records, so tracing never perturbs the schedule.
        let cause = world.events.next_cause();

        match first_hop {
            None => {
                // src == dst: local delivery through the event queue.
                self.inner.borrow_mut().frames_sent += 1;
                if world.events.is_enabled() {
                    let now = world.now();
                    world
                        .events
                        .record(now, TraceEvent::RelayAccepted { node: src, cause });
                }
                let fabric = self.clone();
                let msg = RelayedMessage {
                    src,
                    port,
                    payload,
                    ttl_remaining: ttl,
                    cause,
                };
                world.schedule_after(SimDuration::ZERO, move |world| {
                    fabric.deliver(world, dst, msg);
                });
                Ok(())
            }
            Some(hop) => {
                if world.events.is_enabled() {
                    let now = world.now();
                    world
                        .events
                        .record(now, TraceEvent::RelayAccepted { node: src, cause });
                }
                // A first hop that is not the destination is a gateway
                // that will queue the frame: in credit mode its queue
                // space must be reserved before transmitting.
                let mut consumed = false;
                if hop.node != dst {
                    let mut inner = self.inner.borrow_mut();
                    if inner.config.backpressure == BackpressureMode::Credit {
                        if !inner.try_consume_credit(hop.node) {
                            inner
                                .parked
                                .entry(hop.node)
                                .or_default()
                                .push_back(ParkedFrame {
                                    from: None,
                                    hop,
                                    final_dst: dst,
                                    orig_src: src,
                                    port,
                                    ttl,
                                    payload,
                                    parked_at: world.now(),
                                    cause,
                                    upstream: None,
                                });
                            inner.credit_stalls += 1;
                            inner.frames_sent += 1;
                            drop(inner);
                            if world.events.is_enabled() {
                                let now = world.now();
                                world
                                    .events
                                    .record(now, TraceEvent::RelayParked { node: src, cause });
                            }
                            return Ok(());
                        }
                        consumed = true;
                    }
                }
                let wire = encode(dst, src, port, ttl, cause, &payload);
                let sent = world
                    .send_frame(hop.network, Frame::new(src, hop.node, ProtoId::RELAY, wire))
                    .map_err(RelayError::Send);
                match sent {
                    Ok(()) => self.inner.borrow_mut().frames_sent += 1,
                    Err(_) if consumed => self.inner.borrow_mut().release_credit_now(hop.node),
                    Err(_) => {}
                }
                sent
            }
        }
    }

    /// Relay agent: a `ProtoId::RELAY` frame arrived at `frame.dst` on
    /// network `net`.
    fn on_relay_frame(&self, world: &mut SimWorld, net: NetworkId, frame: Frame) {
        let here = frame.dst;
        let Some((final_dst, orig_src, port, ttl, cause)) = decode(&frame.payload) else {
            return; // malformed; drop silently
        };
        // The hop sender (`frame.src`) holds one of our credits; with the
        // wire credit plane on and the sender across a site boundary, the
        // return must ride the reverse trunk back to it.
        let upstream = self.inner.borrow().credit_upstream(frame.src, here, net);

        if final_dst == here {
            let msg = RelayedMessage {
                src: orig_src,
                port,
                payload: frame.payload.slice(RELAY_HEADER_BYTES..),
                ttl_remaining: ttl,
                cause,
            };
            self.deliver(world, here, msg);
            return;
        }

        // In transit: store-and-forward towards the destination. The
        // upstream sender held one of our credits (credit mode), which we
        // return once the frame leaves our queue — or right away if it is
        // discarded on arrival.
        let (enqueued, drop_cause, credit_mode, per_hop_latency) = {
            let mut inner = self.inner.borrow_mut();
            let credit_mode = inner.config.backpressure == BackpressureMode::Credit;
            let config_latency = inner.config.per_hop_latency;
            let capacity = inner.config.queue_capacity;
            let fault_drop = match inner.fault.as_mut() {
                Some(f) => f.rng.gen_bool(f.drop_fraction),
                None => false,
            };
            let next = inner.routes.next_hop(here, final_dst);
            let state = inner.gateways.entry(here).or_default();
            let (enqueued, drop_cause) = if fault_drop {
                state.stats.frames_dropped_fault += 1;
                (None, Some(DropCause::Fault))
            } else if ttl == 0 {
                state.stats.frames_dropped_ttl += 1;
                (None, Some(DropCause::Ttl))
            } else if next.is_none() {
                state.stats.frames_dropped_no_route += 1;
                (None, Some(DropCause::NoRoute))
            } else if !credit_mode && state.queue_depth >= capacity {
                state.stats.frames_dropped_queue_full += 1;
                (None, Some(DropCause::QueueFull))
            } else {
                // In credit mode the upstream credit guarantees space.
                debug_assert!(
                    !credit_mode || state.queue_depth < capacity,
                    "credit-mode queue overflow at {here}"
                );
                state.queue_depth += 1;
                state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queue_depth);
                (next, None)
            };
            (enqueued, drop_cause, credit_mode, config_latency)
        };

        let Some(hop) = enqueued else {
            // Discarded on arrival: the credit the upstream consumed for
            // this gateway travels straight back (faults must not leak
            // credits, or the fabric would deadlock).
            if world.events.is_enabled() {
                let now = world.now();
                world.events.record(
                    now,
                    TraceEvent::RelayDropped {
                        gateway: here,
                        cause,
                        drop_cause: drop_cause.unwrap_or(DropCause::NoRoute),
                    },
                );
            }
            if credit_mode {
                self.schedule_credit_return_from(world, here, upstream);
            }
            return;
        };
        let fabric = self.clone();
        let payload = frame.payload.slice(RELAY_HEADER_BYTES..);
        world.schedule_after(per_hop_latency, move |world| {
            fabric.forward_from_gateway(
                world, here, hop, final_dst, orig_src, port, ttl, payload, cause, upstream,
            );
        });
    }

    /// The store-and-forward hold of a queued frame elapsed: acquire the
    /// next hop's credit if one is needed, then transmit — or park inside
    /// this gateway's queue until the downstream pool frees.
    #[allow(clippy::too_many_arguments)]
    fn forward_from_gateway(
        &self,
        world: &mut SimWorld,
        here: NodeId,
        hop: Hop,
        final_dst: NodeId,
        orig_src: NodeId,
        port: u16,
        ttl: u8,
        payload: Bytes,
        cause: CauseId,
        upstream: Upstream,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let credit_mode = inner.config.backpressure == BackpressureMode::Credit;
            let needs_credit = credit_mode && hop.node != final_dst;
            if needs_credit && !inner.try_consume_credit(hop.node) {
                inner
                    .parked
                    .entry(hop.node)
                    .or_default()
                    .push_back(ParkedFrame {
                        from: Some(here),
                        hop,
                        final_dst,
                        orig_src,
                        port,
                        ttl,
                        payload,
                        parked_at: world.now(),
                        cause,
                        upstream,
                    });
                inner.credit_stalls += 1;
                drop(inner);
                if world.events.is_enabled() {
                    let now = world.now();
                    world
                        .events
                        .record(now, TraceEvent::RelayParked { node: here, cause });
                }
                // The frame stays in `here`'s queue, so `here`'s own
                // upstream credit stays withheld: the stall cascades.
                return;
            }
        }
        self.complete_forward(
            world, here, hop, final_dst, orig_src, port, ttl, payload, cause, upstream,
        );
    }

    /// Dequeues the frame at `here` and transmits it on `hop` (the next
    /// hop's credit, when one was needed, is already held). Returns
    /// `here`'s own credit to its pool after the advertisement latency.
    #[allow(clippy::too_many_arguments)]
    fn complete_forward(
        &self,
        world: &mut SimWorld,
        here: NodeId,
        hop: Hop,
        final_dst: NodeId,
        orig_src: NodeId,
        port: u16,
        ttl: u8,
        payload: Bytes,
        cause: CauseId,
        upstream: Upstream,
    ) {
        let credit_mode = {
            let mut inner = self.inner.borrow_mut();
            let state = inner.gateways.entry(here).or_default();
            state.queue_depth = state.queue_depth.saturating_sub(1);
            state.stats.frames_relayed += 1;
            state.stats.bytes_relayed += payload.len() as u64;
            inner.config.backpressure == BackpressureMode::Credit
        };
        let wire = encode(final_dst, orig_src, port, ttl - 1, cause, &payload);
        // A send failure here means the topology changed under the
        // fabric; account it as a no-route drop.
        match world.send_frame(
            hop.network,
            Frame::new(here, hop.node, ProtoId::RELAY, wire),
        ) {
            Ok(()) => {
                if world.events.is_enabled() {
                    let now = world.now();
                    world.events.record(
                        now,
                        TraceEvent::RelayForwarded {
                            gateway: here,
                            cause,
                        },
                    );
                }
            }
            Err(_) => {
                let mut inner = self.inner.borrow_mut();
                let state = inner.gateways.entry(here).or_default();
                state.stats.frames_relayed -= 1;
                state.stats.bytes_relayed -= payload.len() as u64;
                state.stats.frames_dropped_no_route += 1;
                if credit_mode && hop.node != final_dst {
                    // The next hop's reserved space will never be used.
                    inner.release_credit_now(hop.node);
                }
                drop(inner);
                if world.events.is_enabled() {
                    let now = world.now();
                    world.events.record(
                        now,
                        TraceEvent::RelayDropped {
                            gateway: here,
                            cause,
                            drop_cause: DropCause::NoRoute,
                        },
                    );
                }
            }
        }
        if credit_mode {
            self.schedule_credit_return_from(world, here, upstream);
        }
    }

    /// Schedules the return of one of `gw`'s credits after the
    /// advertisement latency; on arrival the freed credit immediately
    /// un-parks the oldest frame waiting on `gw`, if any.
    fn schedule_credit_return(&self, world: &mut SimWorld, gw: NodeId) {
        let delay = self.inner.borrow().config.credit_return_latency;
        let fabric = self.clone();
        world.schedule_after(delay, move |world| {
            fabric.on_credit_returned(world, gw);
        });
    }

    /// Returns one of `gw`'s credits along `upstream`: the in-memory
    /// fixed-latency return when `None`, a real [`ProtoId::RELAY_CREDIT`]
    /// frame on the reverse trunk when the wire credit plane routed the
    /// consumption across sites. A refused wire send (topology changed)
    /// falls back to the in-memory return so credits never leak.
    fn schedule_credit_return_from(&self, world: &mut SimWorld, gw: NodeId, upstream: Upstream) {
        match upstream {
            None => self.schedule_credit_return(world, gw),
            Some((up_node, up_net)) => {
                let frame = Frame::new(gw, up_node, ProtoId::RELAY_CREDIT, encode_credit(gw));
                if world.send_frame(up_net, frame).is_err() {
                    self.schedule_credit_return(world, gw);
                }
            }
        }
    }

    fn on_credit_returned(&self, world: &mut SimWorld, gw: NodeId) {
        let unparked = {
            let mut inner = self.inner.borrow_mut();
            inner.release_credit_now(gw);
            match inner.parked.get_mut(&gw).and_then(|q| q.pop_front()) {
                Some(pf) => {
                    // Hand the freed credit straight to the oldest waiter.
                    let took = inner.try_consume_credit(gw);
                    debug_assert!(took, "freed credit must be consumable");
                    inner.credit_stall_ns += world.now().since(pf.parked_at).as_nanos();
                    Some(pf)
                }
                None => None,
            }
        };
        let Some(pf) = unparked else { return };
        if world.events.is_enabled() {
            let now = world.now();
            world.events.record(
                now,
                TraceEvent::RelayResumed {
                    node: pf.from.unwrap_or(pf.orig_src),
                    cause: pf.cause,
                },
            );
        }
        match pf.from {
            None => {
                // A parked origin send: transmit it now.
                let wire = encode(
                    pf.final_dst,
                    pf.orig_src,
                    pf.port,
                    pf.ttl,
                    pf.cause,
                    &pf.payload,
                );
                if world
                    .send_frame(
                        pf.hop.network,
                        Frame::new(pf.orig_src, pf.hop.node, ProtoId::RELAY, wire),
                    )
                    .is_err()
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.parked_send_failures += 1;
                    inner.release_credit_now(pf.hop.node);
                }
            }
            Some(from_gw) => {
                // A frame held inside `from_gw`'s queue: forward it (this
                // in turn frees one of `from_gw`'s credits — the cascade
                // unwinds upstream hop by hop).
                self.complete_forward(
                    world,
                    from_gw,
                    pf.hop,
                    pf.final_dst,
                    pf.orig_src,
                    pf.port,
                    pf.ttl,
                    pf.payload,
                    pf.cause,
                    pf.upstream,
                );
            }
        }
    }

    fn deliver(&self, world: &mut SimWorld, node: NodeId, msg: RelayedMessage) {
        let callback = {
            let mut inner = self.inner.borrow_mut();
            match inner.endpoints.get(&(node, msg.port)).cloned() {
                Some(cb) => {
                    inner.delivered_frames += 1;
                    inner.delivered_bytes += msg.payload.len() as u64;
                    Some(cb)
                }
                None => {
                    inner.unclaimed_frames += 1;
                    None
                }
            }
        };
        if world.events.is_enabled() {
            let now = world.now();
            world.events.record(
                now,
                TraceEvent::RelayDelivered {
                    node,
                    cause: msg.cause,
                },
            );
        }
        if let Some(cb) = callback {
            cb.borrow_mut()(world, msg);
        }
    }

    /// Relay accounting for one gateway node.
    pub fn gateway_stats(&self, node: NodeId) -> GatewayStats {
        self.inner
            .borrow()
            .gateways
            .get(&node)
            .map(|g| g.stats)
            .unwrap_or_default()
    }

    /// Credits currently held by senders towards `node` (credit mode).
    pub fn outstanding_credits(&self, node: NodeId) -> usize {
        self.inner
            .borrow()
            .gateways
            .get(&node)
            .map(|g| g.credits_outstanding)
            .unwrap_or(0)
    }

    /// Credits available in `node`'s pool (credit mode): the queue
    /// capacity minus the outstanding credits.
    pub fn available_credits(&self, node: NodeId) -> usize {
        let inner = self.inner.borrow();
        let outstanding = inner
            .gateways
            .get(&node)
            .map(|g| g.credits_outstanding)
            .unwrap_or(0);
        inner.config.queue_capacity.saturating_sub(outstanding)
    }

    /// Frames currently parked waiting for any gateway's credits.
    pub fn parked_frames(&self) -> usize {
        self.inner.borrow().parked.values().map(|q| q.len()).sum()
    }

    /// Times a send had to park for want of a credit.
    pub fn credit_stalls(&self) -> u64 {
        self.inner.borrow().credit_stalls
    }

    /// Total virtual time frames spent parked waiting for credits, in
    /// nanoseconds.
    pub fn credit_stall_ns(&self) -> u64 {
        self.inner.borrow().credit_stall_ns
    }

    /// Frames accepted by [`RelayFabric::send`] (parked sends included;
    /// rejected sends — no route, too large, link down — are not).
    pub fn frames_sent(&self) -> u64 {
        self.inner.borrow().frames_sent
    }

    /// Total frames delivered to bound endpoints.
    pub fn delivered_frames(&self) -> u64 {
        self.inner.borrow().delivered_frames
    }

    /// Total payload bytes delivered to bound endpoints.
    pub fn delivered_bytes(&self) -> u64 {
        self.inner.borrow().delivered_bytes
    }

    /// Frames that reached a node with no endpoint bound on the port.
    pub fn unclaimed_frames(&self) -> u64 {
        self.inner.borrow().unclaimed_frames
    }

    /// Sum of `frames_relayed` across every gateway.
    pub fn total_relayed(&self) -> u64 {
        self.inner
            .borrow()
            .gateways
            .values()
            .map(|g| g.stats.frames_relayed)
            .sum()
    }

    /// Sum of dropped frames across every gateway.
    pub fn total_dropped(&self) -> u64 {
        self.inner
            .borrow()
            .gateways
            .values()
            .map(|g| g.stats.frames_dropped())
            .sum()
    }
}

fn encode(dst: NodeId, src: NodeId, port: u16, ttl: u8, cause: CauseId, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(RELAY_HEADER_BYTES + payload.len());
    buf.put_u32(dst.0);
    buf.put_u32(src.0);
    buf.put_u16(port);
    buf.put_u8(ttl);
    buf.put_u64(cause.0);
    buf.extend_from_slice(payload);
    buf.freeze()
}

/// Wire form of a credit-return advertisement: the 4-byte id of the
/// gateway whose pool the credit re-enters.
fn encode_credit(gw: NodeId) -> Bytes {
    let mut buf = BytesMut::with_capacity(4);
    buf.put_u32(gw.0);
    buf.freeze()
}

fn decode_credit(wire: &Bytes) -> Option<NodeId> {
    if wire.len() < 4 {
        return None;
    }
    Some(NodeId(wire.slice(..4).get_u32()))
}

fn decode(wire: &Bytes) -> Option<(NodeId, NodeId, u16, u8, CauseId)> {
    if wire.len() < RELAY_HEADER_BYTES {
        return None;
    }
    let mut head = wire.slice(..RELAY_HEADER_BYTES);
    let dst = NodeId(head.get_u32());
    let src = NodeId(head.get_u32());
    let port = head.get_u16();
    let ttl = head.get_u8();
    let cause = CauseId(head.get_u64());
    Some((dst, src, port, ttl, cause))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteTable;
    use simnet::NetworkSpec;
    use std::cell::Cell;

    /// a —eth— g —wan— h —eth— b with relay agents everywhere.
    fn relay_world(config: RelayConfig) -> (SimWorld, RelayFabric, [NodeId; 4]) {
        let mut w = SimWorld::new(3);
        let a = w.add_node("a");
        let g = w.add_node("g");
        let h = w.add_node("h");
        let b = w.add_node("b");
        let lan1 = w.add_network(NetworkSpec::ethernet_100());
        let wan = w.add_network(NetworkSpec::vthd_wan());
        let lan2 = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, lan1);
        w.attach(g, lan1);
        w.attach(g, wan);
        w.attach(h, wan);
        w.attach(h, lan2);
        w.attach(b, lan2);
        let routes = RouteTable::compute(&w);
        let fabric = RelayFabric::new(routes, config);
        for n in [a, g, h, b] {
            fabric.attach(&mut w, n);
        }
        (w, fabric, [a, g, h, b])
    }

    #[test]
    fn frame_crosses_two_gateways_and_is_accounted() {
        let (mut w, fabric, [a, g, h, b]) = relay_world(RelayConfig::default());
        let got: Rc<RefCell<Option<RelayedMessage>>> = Rc::new(RefCell::new(None));
        let g2 = got.clone();
        fabric.bind(&mut w, b, 9, move |_w, m| *g2.borrow_mut() = Some(m));
        fabric.send(&mut w, a, b, 9, vec![7u8; 600]).unwrap();
        w.run();
        let msg = got.borrow().clone().expect("delivered");
        assert_eq!(msg.src, a);
        assert_eq!(msg.payload, vec![7u8; 600]);
        assert_eq!(fabric.gateway_stats(g).frames_relayed, 1);
        assert_eq!(fabric.gateway_stats(h).frames_relayed, 1);
        assert_eq!(fabric.gateway_stats(g).bytes_relayed, 600);
        assert_eq!(fabric.delivered_frames(), 1);
        assert_eq!(fabric.total_dropped(), 0);
        // TTL decremented once per gateway.
        assert_eq!(msg.ttl_remaining, RelayConfig::default().ttl - 2);
    }

    #[test]
    fn relay_latency_is_charged_per_hop() {
        let (mut w, fabric, [a, _, _, b]) = relay_world(RelayConfig {
            per_hop_latency: SimDuration::from_millis(5),
            ..Default::default()
        });
        let at = Rc::new(Cell::new(simnet::SimTime::ZERO));
        let a2 = at.clone();
        fabric.bind(&mut w, b, 1, move |world, _m| a2.set(world.now()));
        fabric.send(&mut w, a, b, 1, vec![0u8; 100]).unwrap();
        w.run();
        // Two gateways, 5 ms each, plus the 8 ms WAN latency at minimum.
        assert!(
            at.get() >= simnet::SimTime::from_millis(18),
            "at {:?}",
            at.get()
        );
    }

    #[test]
    fn bounded_queue_drops_overload() {
        // Hold each frame for 1 ms at the gateway while arrivals are spaced
        // ~18 µs apart on the access LAN, so the bounded queue overflows.
        let (mut w, fabric, [a, g, _, b]) = relay_world(RelayConfig {
            per_hop_latency: SimDuration::from_millis(1),
            queue_capacity: 4,
            ..Default::default()
        });
        let received = Rc::new(Cell::new(0u32));
        let r = received.clone();
        fabric.bind(&mut w, b, 2, move |_w, _m| r.set(r.get() + 1));
        for _ in 0..32 {
            fabric.send(&mut w, a, b, 2, vec![0u8; 200]).unwrap();
        }
        w.run();
        let gs = fabric.gateway_stats(g);
        assert!(
            gs.frames_dropped_queue_full > 0,
            "expected queue drops: {gs:?}"
        );
        assert_eq!(
            gs.frames_relayed + gs.frames_dropped_queue_full,
            32,
            "every frame either relayed or dropped: {gs:?}"
        );
        assert_eq!(received.get() as u64, fabric.delivered_frames());
        assert!(gs.max_queue_depth <= 4);
    }

    #[test]
    fn credit_mode_parks_instead_of_dropping() {
        // Same overload as `bounded_queue_drops_overload`, but with the
        // credit pool: every frame must arrive, with stalls accounted.
        let (mut w, fabric, [a, g, h, b]) = relay_world(RelayConfig {
            per_hop_latency: SimDuration::from_millis(1),
            queue_capacity: 4,
            backpressure: BackpressureMode::Credit,
            ..Default::default()
        });
        let received = Rc::new(Cell::new(0u32));
        let r = received.clone();
        fabric.bind(&mut w, b, 2, move |_w, _m| r.set(r.get() + 1));
        for _ in 0..32 {
            fabric.send(&mut w, a, b, 2, vec![0u8; 200]).unwrap();
        }
        w.run();
        let gs = fabric.gateway_stats(g);
        assert_eq!(received.get(), 32, "credit mode must be lossless: {gs:?}");
        assert_eq!(fabric.total_dropped(), 0, "{gs:?}");
        assert_eq!(gs.frames_relayed, 32);
        assert!(gs.max_queue_depth <= 4, "{gs:?}");
        assert!(fabric.credit_stalls() > 0, "overload must stall senders");
        assert!(fabric.credit_stall_ns() > 0);
        assert_eq!(fabric.parked_frames(), 0, "nothing left parked");
        // Every consumed credit came back, for both gateways.
        for gw in [g, h] {
            let s = fabric.gateway_stats(gw);
            assert_eq!(s.credits_consumed, s.credits_returned, "{s:?}");
            assert_eq!(fabric.outstanding_credits(gw), 0);
            assert_eq!(fabric.available_credits(gw), 4);
        }
    }

    #[test]
    fn wire_credit_plane_returns_inter_site_credits_on_the_trunk() {
        let mut w = SimWorld::new(7);
        let a = w.add_node("a");
        let g = w.add_node("g");
        let h = w.add_node("h");
        let b = w.add_node("b");
        let lan1 = w.add_network(NetworkSpec::ethernet_100());
        let trunk = w.add_network(NetworkSpec::ethernet_100());
        let lan2 = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, lan1);
        w.attach(g, lan1);
        w.attach(g, trunk);
        w.attach(h, trunk);
        w.attach(h, lan2);
        w.attach(b, lan2);
        let fabric = RelayFabric::new(
            RouteTable::compute(&w),
            RelayConfig {
                per_hop_latency: SimDuration::from_millis(1),
                queue_capacity: 4,
                backpressure: BackpressureMode::Credit,
                ..Default::default()
            },
        );
        for n in [a, g, h, b] {
            fabric.attach(&mut w, n);
        }
        // a,g in site 0; h,b in site 1: only the g→h hop crosses sites,
        // so only h's credits ride the trunk home.
        fabric.enable_wire_credit_returns(vec![0, 0, 1, 1]);
        let received = Rc::new(Cell::new(0u32));
        let r = received.clone();
        fabric.bind(&mut w, b, 2, move |_w, _m| r.set(r.get() + 1));
        for _ in 0..32 {
            fabric.send(&mut w, a, b, 2, vec![0u8; 200]).unwrap();
        }
        w.run();
        assert_eq!(received.get(), 32, "wire credit plane must stay lossless");
        assert_eq!(fabric.parked_frames(), 0);
        assert_eq!(fabric.total_dropped(), 0);
        for gw in [g, h] {
            let s = fabric.gateway_stats(gw);
            assert_eq!(s.credits_consumed, s.credits_returned, "{s:?}");
            assert_eq!(fabric.outstanding_credits(gw), 0);
        }
        // The trunk carried every data frame g→h plus one RELAY_CREDIT
        // frame h→g per credit g consumed towards h; the intra-site
        // returns (g's pool, consumed by a) stayed in memory.
        let consumed_at_h = fabric.gateway_stats(h).credits_consumed;
        assert_eq!(consumed_at_h, 32);
        assert_eq!(w.network(trunk).stats.frames_sent, 32 + consumed_at_h);
        assert_eq!(w.network(lan1).stats.frames_sent, 32);
        assert_eq!(w.network(lan2).stats.frames_sent, 32);
    }

    #[test]
    fn credit_mode_is_deterministic() {
        let run = || {
            let (mut w, fabric, [a, _, _, b]) = relay_world(RelayConfig {
                per_hop_latency: SimDuration::from_millis(1),
                queue_capacity: 4,
                backpressure: BackpressureMode::Credit,
                ..Default::default()
            });
            let received = Rc::new(Cell::new(0u32));
            let r = received.clone();
            fabric.bind(&mut w, b, 2, move |_w, _m| r.set(r.get() + 1));
            for _ in 0..24 {
                fabric.send(&mut w, a, b, 2, vec![0u8; 200]).unwrap();
            }
            w.run();
            (received.get(), fabric.credit_stall_ns(), w.now().as_nanos())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_injection_is_exactly_accounted_and_returns_credits() {
        let run = |mode: BackpressureMode| {
            let (mut w, fabric, [a, g, h, b]) = relay_world(RelayConfig {
                backpressure: mode,
                ..Default::default()
            });
            fabric.inject_gateway_faults(0.4, 0xFA11);
            let received = Rc::new(Cell::new(0u64));
            let r = received.clone();
            fabric.bind(&mut w, b, 2, move |_w, _m| r.set(r.get() + 1));
            let sent = 60u64;
            for _ in 0..sent {
                fabric.send(&mut w, a, b, 2, vec![0u8; 200]).unwrap();
            }
            w.run();
            let (sg, sh) = (fabric.gateway_stats(g), fabric.gateway_stats(h));
            // Exact conservation at each gateway: everything that arrived
            // was forwarded or fault-dropped.
            assert_eq!(sg.frames_relayed + sg.frames_dropped(), sent);
            assert_eq!(sh.frames_relayed + sh.frames_dropped(), sg.frames_relayed);
            assert_eq!(received.get(), sh.frames_relayed);
            assert!(sg.frames_dropped_fault + sh.frames_dropped_fault > 0);
            if mode == BackpressureMode::Credit {
                assert_eq!(sg.frames_dropped_queue_full, 0);
                for gw in [g, h] {
                    let s = fabric.gateway_stats(gw);
                    assert_eq!(s.credits_consumed, s.credits_returned, "{s:?}");
                    assert_eq!(fabric.outstanding_credits(gw), 0);
                }
            }
            received.get()
        };
        // Deterministic in both modes, and the seeded drop pattern is
        // identical run to run.
        assert_eq!(run(BackpressureMode::Drop), run(BackpressureMode::Drop));
        assert_eq!(run(BackpressureMode::Credit), run(BackpressureMode::Credit));
    }

    #[test]
    fn no_route_is_reported() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let lan = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, lan);
        let routes = RouteTable::compute(&w);
        let fabric = RelayFabric::new(routes, RelayConfig::default());
        fabric.attach(&mut w, a);
        assert_eq!(
            fabric.send(&mut w, a, b, 1, vec![1u8]),
            Err(RelayError::NoRoute)
        );
    }

    #[test]
    fn oversized_payload_is_rejected_with_route_mtu() {
        let (mut w, fabric, [a, _, _, b]) = relay_world(RelayConfig::default());
        let max = fabric.max_payload(&w, a, b).unwrap();
        assert_eq!(max, 1500 - RELAY_HEADER_BYTES);
        let err = fabric
            .send(&mut w, a, b, 1, vec![0u8; max + 1])
            .unwrap_err();
        assert_eq!(err, RelayError::TooLarge { size: max + 1, max });
        // At the limit it goes through.
        fabric.send(&mut w, a, b, 1, vec![0u8; max]).unwrap();
    }

    #[test]
    fn local_send_delivers_without_networks() {
        let (mut w, fabric, [a, ..]) = relay_world(RelayConfig::default());
        let hits = Rc::new(Cell::new(0u32));
        let h2 = hits.clone();
        fabric.bind(&mut w, a, 5, move |_w, _m| h2.set(h2.get() + 1));
        fabric.send(&mut w, a, a, 5, vec![0u8; 10]).unwrap();
        w.run();
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn unbound_port_counts_unclaimed() {
        let (mut w, fabric, [a, _, _, b]) = relay_world(RelayConfig::default());
        fabric.send(&mut w, a, b, 42, vec![0u8; 10]).unwrap();
        w.run();
        assert_eq!(fabric.unclaimed_frames(), 1);
        assert_eq!(fabric.delivered_frames(), 0);
    }
}
