//! The PadicoTM runtime: one instance per node, tying together the
//! arbitration layer, the abstract interfaces, the selector and the
//! personalities.
//!
//! Middleware systems never talk to the network directly: they ask the
//! runtime for VLinks (distributed paradigm) or Circuits (parallel
//! paradigm) and the runtime wires the appropriate adapters underneath,
//! according to the topology knowledge base and the user preferences.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use gridtopo::{GridRoutes, GridTopology};
use netaccess::{MadIOTag, NetAccess, NetAccessConfig};
use simnet::{FlightRecorder, NetworkId, NodeId, SimDuration, SimWorld, TraceEvent};
use transport::{
    adoc_over, loopback_pair, secure_over, AdocConfig, ByteStream, ParallelStream,
    ParallelStreamConfig, SecureConfig,
};

use crate::circuit::{Circuit, CircuitLinkKind, MadIoCircuitLink, StreamCircuitLink};
use crate::madio_stream::MadStreamDriver;
use crate::relay::{self, GatewayProxy};
use crate::selector::{LinkDecision, SelectorPreferences, TopologyKb};
use crate::trunk::{TrunkMux, TrunkStream};
use crate::vlink::{VLink, VLinkMethod};

/// Port offset used for Parallel Streams bundles.
const PSTREAM_PORT_OFFSET: u16 = 10_000;
/// Port offset used for AdOC-wrapped connections.
const ADOC_PORT_OFFSET: u16 = 20_000;
/// Port offset used for secured connections.
const SECURE_PORT_OFFSET: u16 = 30_000;
/// MadIO tag base used by Circuits (one tag per circuit port).
const CIRCUIT_TAG_BASE: u16 = 2_000;

type VLinkAcceptCallback = Rc<RefCell<Box<dyn FnMut(&mut SimWorld, VLink)>>>;

struct RuntimeInner {
    node: NodeId,
    netaccess: NetAccess,
    madstream: Option<MadStreamDriver>,
    san_group: Vec<NodeId>,
    kb: TopologyKb,
    /// Fail-stopped by [`PadicoRuntime::kill`]: splices consume nothing
    /// more, trunks are severed, nothing new is accepted.
    dead: bool,
    /// Accept callbacks per service, used for intra-node (loopback) connects.
    local_services: HashMap<u16, VLinkAcceptCallback>,
    /// Persistent trunks towards gateway proxies, keyed by
    /// (gateway, network). Established once, shared by every relayed
    /// stream this node opens through that gateway.
    trunks: BTreeMap<(NodeId, NetworkId), TrunkMux>,
    /// Trunk demultiplexers accepted by this node's proxy listener, kept
    /// alive here (their carrier callbacks hold only weak references).
    accepted_trunks: Vec<TrunkMux>,
    /// Flight recorders of every failover stream this node originated,
    /// retained so fault tests can dump a forensic timeline post mortem.
    flight_recorders: Vec<Rc<RefCell<FlightRecorder>>>,
}

/// A node's PadicoTM runtime.
#[derive(Clone)]
pub struct PadicoRuntime {
    inner: Rc<RefCell<RuntimeInner>>,
}

impl PadicoRuntime {
    /// Brings up the runtime on `node`. If the node is attached to a SAN,
    /// pass it along with the SAN group so MadIO can be set up.
    pub fn new(
        world: &mut SimWorld,
        node: NodeId,
        san: Option<(NetworkId, Vec<NodeId>)>,
        prefs: SelectorPreferences,
    ) -> PadicoRuntime {
        Self::with_netaccess_config(world, node, san, prefs, NetAccessConfig::default())
    }

    /// Brings up the runtime with an explicit arbitration-layer config.
    pub fn with_netaccess_config(
        world: &mut SimWorld,
        node: NodeId,
        san: Option<(NetworkId, Vec<NodeId>)>,
        prefs: SelectorPreferences,
        na_config: NetAccessConfig,
    ) -> PadicoRuntime {
        let san_group = san.as_ref().map(|(_, g)| g.clone()).unwrap_or_default();
        let netaccess = NetAccess::with_config(world, node, san.clone(), na_config);
        let madstream = san
            .as_ref()
            .map(|_| MadStreamDriver::new(world, netaccess.madio()));
        let rt = PadicoRuntime {
            inner: Rc::new(RefCell::new(RuntimeInner {
                node,
                netaccess,
                madstream,
                san_group,
                kb: TopologyKb::new(prefs),
                dead: false,
                local_services: HashMap::new(),
                trunks: BTreeMap::new(),
                accepted_trunks: Vec::new(),
                flight_recorders: Vec::new(),
            })),
        };
        rt.register_metrics(world);
        rt
    }

    /// Registers this runtime's metrics collector: aggregate trunk
    /// credit/memory accounting under `trunk.credit.*{node=N}` /
    /// `trunk.memory.*{node=N}`.
    fn register_metrics(&self, world: &mut SimWorld) {
        let weak = Rc::downgrade(&self.inner);
        world.metrics.register_collector(move |b| {
            let Some(inner) = weak.upgrade() else { return };
            let inner = inner.borrow();
            let node = inner.node.0.to_string();
            let labels: &[(&str, &str)] = &[("node", node.as_str())];

            // Aggregate over every trunk this node holds (outgoing and
            // accepted): sums for flows/occupancy, maxima for high water.
            let mut budget = 0usize;
            let mut budget_available = 0usize;
            let mut recv_occupancy = 0usize;
            let mut recv_high_water = 0usize;
            let mut parked_streams = 0usize;
            let mut max_stream_high_water = 0usize;
            let muxes = inner.trunks.values().chain(inner.accepted_trunks.iter());
            let mut n_trunks = 0i64;
            for mux in muxes {
                let m = mux.memory_stats();
                budget += m.budget;
                budget_available += m.budget_available;
                recv_occupancy += m.recv_occupancy;
                recv_high_water = recv_high_water.max(m.recv_high_water);
                parked_streams += m.parked_streams;
                max_stream_high_water = max_stream_high_water.max(m.max_stream_high_water);
                n_trunks += 1;
            }
            b.gauge("trunk.memory.trunks", labels, n_trunks);
            b.gauge("trunk.memory.budget", labels, budget as i64);
            b.gauge(
                "trunk.memory.budget_available",
                labels,
                budget_available as i64,
            );
            b.gauge("trunk.memory.recv_occupancy", labels, recv_occupancy as i64);
            b.gauge(
                "trunk.memory.recv_high_water",
                labels,
                recv_high_water as i64,
            );
            b.gauge("trunk.memory.parked_streams", labels, parked_streams as i64);
            b.gauge(
                "trunk.memory.max_stream_high_water",
                labels,
                max_stream_high_water as i64,
            );

            // Credit conservation over this node's failover streams is
            // asserted from TrunkCreditStats directly in tests; here we
            // surface the per-node stall totals recorded by the recorders.
            b.gauge(
                "trunk.credit.flight_recorders",
                labels,
                inner.flight_recorders.len() as i64,
            );
            let transitions: u64 = inner
                .flight_recorders
                .iter()
                .map(|r| {
                    let r = r.borrow();
                    r.entries().count() as u64 + r.dropped()
                })
                .sum();
            b.counter("trunk.credit.stream_transitions", labels, transitions);
        });
    }

    /// Keeps a failover stream's flight recorder reachable for post-run
    /// forensics.
    pub(crate) fn register_flight_recorder(&self, rec: Rc<RefCell<FlightRecorder>>) {
        self.inner.borrow_mut().flight_recorders.push(rec);
    }

    /// Flight recorders of every failover stream this node originated,
    /// in open order.
    pub fn flight_recorders(&self) -> Vec<Rc<RefCell<FlightRecorder>>> {
        self.inner.borrow().flight_recorders.clone()
    }

    /// Rendered forensic timelines of this node's failover streams —
    /// what a fault-injection test prints when an assertion fails.
    pub fn flight_dumps(&self) -> Vec<String> {
        self.inner
            .borrow()
            .flight_recorders
            .iter()
            .map(|r| r.borrow().dump())
            .collect()
    }

    /// The node this runtime runs on.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// The arbitration layer of this node.
    pub fn netaccess(&self) -> NetAccess {
        self.inner.borrow().netaccess.clone()
    }

    /// The topology knowledge base / selector preferences.
    pub fn preferences(&self) -> SelectorPreferences {
        self.inner.borrow().kb.prefs.clone()
    }

    /// Replaces the selector preferences (the route table and accumulated
    /// selector statistics are preserved).
    pub fn set_preferences(&self, prefs: SelectorPreferences) {
        self.inner.borrow_mut().kb.set_prefs(prefs);
    }

    /// Times this node's selector resolved a relayed decision while
    /// `secure_inter_site` was set (see
    /// [`TopologyKb::plaintext_relay_events`]).
    pub fn plaintext_relay_events(&self) -> u64 {
        self.inner.borrow().kb.plaintext_relay_events()
    }

    /// Installs the multi-hop route table (hierarchical or flat), making
    /// the selector route-aware: links towards nodes with which this node
    /// shares no network resolve to [`LinkDecision::Relayed`] instead of
    /// failing. The next decision already uses the new table.
    pub fn set_route_table(&self, routes: Rc<GridRoutes>) {
        self.inner.borrow_mut().kb.set_routes(routes);
    }

    /// The route towards `remote`, if a route table is installed and a
    /// route exists (see [`TopologyKb::route`]).
    pub fn resolved_route(&self, remote: NodeId) -> Option<gridtopo::Route> {
        let inner = self.inner.borrow();
        inner.kb.route(inner.node, remote)
    }

    /// Marks `gateway` dead in this node's knowledge base (see
    /// [`TopologyKb::mark_gateway_down`]). Learned automatically from
    /// trunk liveness; exposed for tests and operators.
    pub fn mark_gateway_down(&self, gateway: NodeId) {
        self.inner.borrow().kb.mark_gateway_down(gateway);
    }

    /// Marks a previously down gateway live again.
    pub fn mark_gateway_up(&self, gateway: NodeId) {
        self.inner.borrow().kb.mark_gateway_up(gateway);
    }

    /// The gateways this node currently believes dead.
    pub fn down_gateways(&self) -> Vec<NodeId> {
        self.inner.borrow().kb.down_gateways()
    }

    /// The method the selector would pick for a VLink towards `remote`.
    pub fn vlink_decision(&self, world: &SimWorld, remote: NodeId) -> LinkDecision {
        let inner = self.inner.borrow();
        inner.kb.select_vlink(world, inner.node, remote)
    }

    /// The method the selector would pick for a Circuit link towards `remote`.
    pub fn circuit_decision(&self, world: &SimWorld, remote: NodeId) -> LinkDecision {
        let inner = self.inner.borrow();
        inner.kb.select_circuit(world, inner.node, remote)
    }

    // ------------------------------------------------------------------ //
    // Gateway trunks
    // ------------------------------------------------------------------ //

    /// Returns (establishing it on first use) the persistent trunk towards
    /// the gateway proxy on `via` over `network`. The carrier is a
    /// Parallel Streams bundle — the selector's own answer to WAN-class
    /// links — sized by the `gateway_trunk_width` preference.
    pub(crate) fn ensure_trunk(
        &self,
        world: &mut SimWorld,
        network: NetworkId,
        via: NodeId,
    ) -> TrunkMux {
        if let Some(mux) = self.inner.borrow().trunks.get(&(via, network)).cloned() {
            if !mux.is_dead() {
                return mux;
            }
            // A dead trunk never serves a stream again: purge the entry
            // and re-dial a fresh carrier below.
            self.inner.borrow_mut().trunks.remove(&(via, network));
        }
        let prefs = self.preferences();
        let wan_class = matches!(
            world.network(network).spec.class,
            simnet::NetworkClass::Wan | simnet::NetworkClass::Internet
        );
        // WAN trunks stripe wide; intra-site trunks (SAN/LAN legs in
        // failover mode) need no striping — one member carries them.
        let width = if wan_class { prefs.trunk_width() } else { 1 };
        let tcp = self.inner.borrow().netaccess.sysio().tcp();
        let carrier = ParallelStream::connect(
            world,
            &tcp,
            network,
            via,
            relay::GATEWAY_PROXY_TRUNK_SERVICE,
            ParallelStreamConfig {
                n_streams: width,
                chunk_size: relay::TRUNK_STRIPE_CHUNK,
            },
        );
        let mux = TrunkMux::connector(Rc::new(carrier), relay::trunk_flow(&prefs));
        if prefs.gateway_failover {
            // Liveness: orderly closes are detected immediately, silent
            // deaths by heartbeat timeout. When this trunk dies, purge it
            // and mark the gateway down *before* any per-stream failover
            // hook runs (hooks fire in registration order), so migrating
            // streams re-resolve around the corpse.
            mux.enable_health(world, crate::trunk::TrunkHealthConfig::default());
            let weak_rt = Rc::downgrade(&self.inner);
            let key = (via, network);
            mux.on_dead(move |_world, locally_severed| {
                let Some(rt_inner) = weak_rt.upgrade() else {
                    return;
                };
                let mut inner = rt_inner.borrow_mut();
                if inner.dead {
                    return; // our own node died; nothing to learn
                }
                if inner.trunks.get(&key).is_some_and(|m| m.is_dead()) {
                    inner.trunks.remove(&key);
                }
                // A carrier *we* severed (`drop_trunks`, the local-restart
                // fault model) says nothing about the peer's health: only
                // a death the peer caused marks its gateway down.
                if !locally_severed {
                    inner.kb.mark_gateway_down(key.0);
                }
            });
        }
        if wan_class {
            // Drive the fresh carrier's congestion windows to steady state
            // once, so every relayed stream finds a hot trunk (the
            // simulated TCP keeps congestion state for the connection's
            // lifetime, like a cached GridFTP data channel). The padding
            // is sized from the PathInfo towards the gateway — two
            // bandwidth-delay products of the actual path — instead of one
            // hard-wired constant for every WAN class. A route's additive
            // cost is the sum of its per-hop link costs.
            let warmup = self
                .resolved_route(via)
                .map(|route| {
                    let cost = route
                        .hops
                        .iter()
                        .map(|h| gridtopo::link_cost(world, h.network))
                        .sum();
                    relay::warmup_bytes_for(&gridtopo::PathInfo::for_route(world, &route, cost))
                })
                .unwrap_or(relay::TRUNK_WARMUP_BYTES);
            mux.warm_up(world, warmup);
        }
        self.inner
            .borrow_mut()
            .trunks
            .insert((via, network), mux.clone());
        mux
    }

    /// Whether this runtime has been fail-stopped by
    /// [`PadicoRuntime::kill`].
    pub fn is_dead(&self) -> bool {
        self.inner.borrow().dead
    }

    /// Fail-stops this node — the gateway-death fault model of the
    /// failover experiments. From this instant the node consumes nothing
    /// more: its splices stop pulling, its trunk carriers are severed and
    /// incoming connections are refused. Everything it had *already*
    /// consumed keeps draining in an orderly way, and each trunk's
    /// consumed-credit batches are flushed first — so in credit mode a
    /// peer's "acknowledged" ledger matches exactly what this gateway
    /// forwarded before dying, which is what makes failover resume
    /// byte-exact. Idempotent.
    pub fn kill(&self, world: &mut SimWorld) {
        let (outgoing, accepted) = {
            let mut inner = self.inner.borrow_mut();
            if inner.dead {
                return;
            }
            inner.dead = true;
            if world.events.is_enabled() {
                let now = world.now();
                world
                    .events
                    .record(now, TraceEvent::GatewayDown { node: inner.node });
            }
            // BTreeMap::into_iter is (gateway, network) key order.
            let outgoing: Vec<TrunkMux> = std::mem::take(&mut inner.trunks).into_values().collect();
            let accepted: Vec<TrunkMux> = inner.accepted_trunks.drain(..).collect();
            (outgoing, accepted)
        };
        // Flush every consumed-but-unreturned credit batch while the
        // carriers still deliver: after this instant, a peer's
        // "acknowledged" equals exactly what this node consumed.
        for mux in outgoing.iter().chain(accepted.iter()) {
            mux.flush_consumed_credits(world);
        }
        // Sever the ingress side only. Closing an accepted carrier wakes
        // every stream on it, and each woken splice pump — seeing the dead
        // flag — closes its onward leg *gracefully*: bytes this node
        // consumed (and therefore acknowledged) before dying were already
        // posted onwards, and the graceful close drains them, including
        // credit-parked window excess, before the CLOSE goes out. The
        // outgoing carriers therefore stay open until that drain finishes
        // and then simply idle; peers still detect the death immediately
        // through their own severed ingress trunks.
        for mux in &accepted {
            mux.close_carrier(world);
        }
    }

    /// Severs every outgoing gateway trunk this runtime holds (closing the
    /// carriers) and forgets them — the fault model for a crashed or
    /// restarted gateway. Streams riding a severed trunk end; bytes posted
    /// afterwards are lost and accounted (`TrunkMux::lost_bytes`,
    /// `VLink::bytes_refused`). The next relayed stream re-establishes a
    /// fresh trunk lazily. Returns how many trunks were severed.
    pub fn drop_trunks(&self, world: &mut SimWorld) -> usize {
        // BTreeMap::into_iter closes in (gateway, network) key order, so
        // runs stay bit-for-bit reproducible by construction.
        let severed: Vec<TrunkMux> = std::mem::take(&mut self.inner.borrow_mut().trunks)
            .into_values()
            .collect();
        let n = severed.len();
        for mux in severed {
            mux.close_carrier(world);
        }
        n
    }

    /// Gracefully retires the outgoing trunks towards the given peers —
    /// the drain-side counterpart of [`PadicoRuntime::drop_trunks`]: each
    /// trunk's consumed-but-unreturned credit batches are flushed while
    /// the carrier still delivers (so in credit mode the peer's ledger
    /// balances exactly), then the carrier closes and the entry is
    /// forgotten. Peers not in the list are untouched. Returns how many
    /// trunks were retired.
    pub fn retire_trunks_to(&self, world: &mut SimWorld, peers: &[NodeId]) -> usize {
        let retired: Vec<((NodeId, NetworkId), TrunkMux)> = {
            let mut inner = self.inner.borrow_mut();
            let keys: Vec<(NodeId, NetworkId)> = inner
                .trunks
                .keys()
                .filter(|(peer, _)| peers.contains(peer))
                .copied()
                .collect();
            keys.into_iter()
                .filter_map(|k| inner.trunks.remove(&k).map(|m| (k, m)))
                .collect()
        };
        // `keys` came from a BTreeMap, so the close order is already the
        // deterministic (gateway, network) order `drop_trunks` uses.
        let n = retired.len();
        for (_, mux) in retired {
            mux.flush_consumed_credits(world);
            mux.close_carrier(world);
        }
        n
    }

    /// Opens one multiplexed stream over the trunk towards `via`.
    pub(crate) fn trunk_stream(
        &self,
        world: &mut SimWorld,
        network: NetworkId,
        via: NodeId,
    ) -> TrunkStream {
        self.ensure_trunk(world, network, via).open()
    }

    /// Keeps an accepted trunk demultiplexer alive for the lifetime of
    /// this runtime (its carrier callback only holds a weak reference).
    /// Dead muxes are purged as new carriers arrive, so a gateway under
    /// peer churn (every failover re-dial lands a fresh carrier here)
    /// holds O(live peers) trunk state, not O(history).
    pub(crate) fn register_accepted_trunk(&self, mux: TrunkMux) {
        let mut inner = self.inner.borrow_mut();
        inner.accepted_trunks.retain(|m| !m.is_dead());
        inner.accepted_trunks.push(mux);
    }

    /// Memory accounting of every trunk this runtime holds — outgoing
    /// trunks first (in deterministic `(gateway, network)` key order),
    /// then accepted ones (in accept order). The trunk-wide budget bound
    /// (`gateway_trunk_budget`) is observable here: with the budget set,
    /// no entry's `recv_high_water` ever exceeds it.
    pub fn trunk_memory_stats(&self) -> Vec<crate::trunk::TrunkMemoryStats> {
        let inner = self.inner.borrow();
        inner
            .trunks
            .values()
            .map(|mux| mux.memory_stats())
            .chain(inner.accepted_trunks.iter().map(|m| m.memory_stats()))
            .collect()
    }

    // ------------------------------------------------------------------ //
    // VLink: distributed-oriented links
    // ------------------------------------------------------------------ //

    /// Starts accepting VLinks on `service`, on every substrate this node
    /// can be reached through (SAN, TCP, Parallel Streams, AdOC, secure).
    ///
    /// `service` must be below 10 000: the higher port space is reserved
    /// for the per-substrate offset listeners and the gateway proxy, so an
    /// out-of-range service would silently collide with them.
    pub fn vlink_listen(
        &self,
        world: &mut SimWorld,
        service: u16,
        on_accept: impl FnMut(&mut SimWorld, VLink) + 'static,
    ) {
        assert!(
            service < PSTREAM_PORT_OFFSET,
            "service {service} is in the reserved port space (must be < {PSTREAM_PORT_OFFSET})"
        );
        let cb: VLinkAcceptCallback = Rc::new(RefCell::new(Box::new(on_accept)));
        self.inner
            .borrow_mut()
            .local_services
            .insert(service, cb.clone());

        // SAN substrate (stream-over-MadIO).
        let madstream = self.inner.borrow().madstream.clone();
        if let Some(driver) = madstream {
            let cb2 = cb.clone();
            driver.listen(service, move |world, stream| {
                let vlink = VLink::from_stream(Rc::new(stream), VLinkMethod::MadIo);
                (cb2.borrow_mut())(world, vlink);
            });
        }

        let sysio = self.inner.borrow().netaccess.sysio();

        // Plain TCP substrate.
        let cb2 = cb.clone();
        sysio.listen(service, move |world, conn| {
            let vlink = VLink::from_stream(Rc::new(conn), VLinkMethod::SysIoTcp);
            (cb2.borrow_mut())(world, vlink);
        });

        // Parallel Streams substrate.
        let cb2 = cb.clone();
        let width = self.preferences().parallel_stream_width;
        ParallelStream::listen(
            world,
            &sysio.tcp(),
            service + PSTREAM_PORT_OFFSET,
            ParallelStreamConfig {
                n_streams: width,
                ..Default::default()
            },
            move |world, ps| {
                let w = ps.width();
                let vlink =
                    VLink::from_stream(Rc::new(ps), VLinkMethod::ParallelStreams { width: w });
                (cb2.borrow_mut())(world, vlink);
            },
        );

        // AdOC substrate (compressed TCP).
        let cb2 = cb.clone();
        sysio.listen(service + ADOC_PORT_OFFSET, move |world, conn| {
            let adoc = adoc_over(world, Box::new(conn), AdocConfig::default());
            let vlink = VLink::from_stream(Rc::new(adoc), VLinkMethod::Adoc);
            (cb2.borrow_mut())(world, vlink);
        });

        // Secure substrate (ciphered TCP).
        let cb2 = cb.clone();
        sysio.listen(service + SECURE_PORT_OFFSET, move |world, conn| {
            let sec = secure_over(world, Box::new(conn), SecureConfig::default());
            let vlink = VLink::from_stream(Rc::new(sec), VLinkMethod::Secure);
            (cb2.borrow_mut())(world, vlink);
        });
    }

    /// Opens a VLink to `remote:service`; the carrying method is chosen by
    /// the selector.
    pub fn vlink_connect(&self, world: &mut SimWorld, remote: NodeId, service: u16) -> VLink {
        let decision = self.vlink_decision(world, remote);
        self.vlink_connect_with(world, remote, service, decision)
    }

    /// Opens a VLink forcing a specific method (used by experiments that
    /// compare methods explicitly).
    pub fn vlink_connect_with(
        &self,
        world: &mut SimWorld,
        remote: NodeId,
        service: u16,
        decision: LinkDecision,
    ) -> VLink {
        self.vlink_connect_internal(world, remote, service, decision, relay::PROXY_TTL)
    }

    fn vlink_connect_internal(
        &self,
        world: &mut SimWorld,
        remote: NodeId,
        service: u16,
        decision: LinkDecision,
        relay_ttl: u8,
    ) -> VLink {
        let node = self.node();
        match decision {
            LinkDecision::Loopback => {
                assert_eq!(remote, node, "loopback decision for distinct nodes");
                let (local, peer) = loopback_pair(world, node);
                let cb = self
                    .inner
                    .borrow()
                    .local_services
                    .get(&service)
                    .cloned()
                    .unwrap_or_else(|| panic!("no local service {service} to loop back to"));
                let peer_vlink = VLink::from_stream(Rc::new(peer), VLinkMethod::Loopback);
                world.schedule_after(SimDuration::ZERO, move |world| {
                    (cb.borrow_mut())(world, peer_vlink);
                });
                VLink::from_stream(Rc::new(local), VLinkMethod::Loopback)
            }
            LinkDecision::San(_) => {
                let (driver, rank) = {
                    let inner = self.inner.borrow();
                    let driver = inner
                        .madstream
                        .clone()
                        .expect("SAN decision on a node without MadIO");
                    let rank = inner
                        .san_group
                        .iter()
                        .position(|&n| n == remote)
                        .expect("remote outside the SAN group");
                    (driver, rank)
                };
                let stream = driver.connect(world, rank, service);
                VLink::from_stream(Rc::new(stream), VLinkMethod::MadIo)
            }
            LinkDecision::Tcp(net) => {
                let conn = self
                    .inner
                    .borrow()
                    .netaccess
                    .sysio()
                    .connect(world, net, remote, service);
                VLink::from_stream(Rc::new(conn), VLinkMethod::SysIoTcp)
            }
            LinkDecision::ParallelStreams(net, width) => {
                let tcp = self.inner.borrow().netaccess.sysio().tcp();
                let ps = ParallelStream::connect(
                    world,
                    &tcp,
                    net,
                    remote,
                    service + PSTREAM_PORT_OFFSET,
                    ParallelStreamConfig {
                        n_streams: width,
                        ..Default::default()
                    },
                );
                VLink::from_stream(Rc::new(ps), VLinkMethod::ParallelStreams { width })
            }
            LinkDecision::Adoc(net) => {
                let conn = self.inner.borrow().netaccess.sysio().connect(
                    world,
                    net,
                    remote,
                    service + ADOC_PORT_OFFSET,
                );
                let adoc = adoc_over(world, Box::new(conn), AdocConfig::default());
                VLink::from_stream(Rc::new(adoc), VLinkMethod::Adoc)
            }
            LinkDecision::Secure(net) => {
                let conn = self.inner.borrow().netaccess.sysio().connect(
                    world,
                    net,
                    remote,
                    service + SECURE_PORT_OFFSET,
                );
                let sec = secure_over(world, Box::new(conn), SecureConfig::default());
                VLink::from_stream(Rc::new(sec), VLinkMethod::Secure)
            }
            LinkDecision::Relayed { via, network, hops } => {
                let stream = relay::connect_through_gateway_with_ttl(
                    world, self, network, via, remote, service, false, relay_ttl,
                );
                VLink::from_stream(stream, VLinkMethod::Relayed { hops })
            }
        }
    }

    /// Opens the onward leg of a proxied connection towards
    /// `(dst, service)`, as chosen by this gateway's own selector. With
    /// `circuit_stream` the leg follows Circuit port conventions (plain
    /// streams only); otherwise it is a full VLink connect (which may ride
    /// the destination SAN). Used by the gateway stream proxy.
    pub(crate) fn open_onward_leg(
        &self,
        world: &mut SimWorld,
        dst: NodeId,
        service: u16,
        circuit_stream: bool,
        relay_ttl: u8,
    ) -> VLink {
        if !circuit_stream {
            let decision = self.vlink_decision(world, dst);
            return self.vlink_connect_internal(world, dst, service, decision, relay_ttl);
        }
        // Circuit conventions: mirror the port mapping of `circuit_create`,
        // but never MadIO (a proxy splices byte streams). A shared SAN is
        // still used — as a fabric for TCP frames.
        let decision = self.circuit_decision(world, dst);
        let (stream, method) = self.open_circuit_stream(world, dst, service, decision, relay_ttl);
        VLink::from_stream(stream, method)
    }

    /// Opens the plain byte stream carrying one Circuit link towards
    /// `dst`, following the Circuit port conventions (`circuit_port` for
    /// TCP, `+PSTREAM_PORT_OFFSET` for Parallel Streams,
    /// `+ADOC_PORT_OFFSET` for AdOC, `+SECURE_PORT_OFFSET` for
    /// secure). Shared by `circuit_create`'s
    /// outgoing links and the gateway proxy's onward circuit legs so the
    /// two can never diverge. A `San` decision rides TCP over the SAN
    /// fabric (byte-stream contexts cannot use MadIO directly).
    fn open_circuit_stream(
        &self,
        world: &mut SimWorld,
        dst: NodeId,
        circuit_port: u16,
        decision: LinkDecision,
        relay_ttl: u8,
    ) -> (Rc<dyn ByteStream>, VLinkMethod) {
        let sysio = self.inner.borrow().netaccess.sysio();
        match decision {
            LinkDecision::Loopback => {
                panic!("no byte stream carries a loopback circuit leg")
            }
            LinkDecision::San(net) | LinkDecision::Tcp(net) => {
                let conn = sysio.connect(world, net, dst, circuit_port);
                (Rc::new(conn), VLinkMethod::SysIoTcp)
            }
            LinkDecision::ParallelStreams(net, width) => {
                let ps = ParallelStream::connect(
                    world,
                    &sysio.tcp(),
                    net,
                    dst,
                    circuit_port + PSTREAM_PORT_OFFSET,
                    ParallelStreamConfig {
                        n_streams: width,
                        ..Default::default()
                    },
                );
                (Rc::new(ps), VLinkMethod::ParallelStreams { width })
            }
            LinkDecision::Adoc(net) => {
                let conn = sysio.connect(world, net, dst, circuit_port + ADOC_PORT_OFFSET);
                (
                    Rc::new(adoc_over(world, Box::new(conn), AdocConfig::default())),
                    VLinkMethod::Adoc,
                )
            }
            LinkDecision::Secure(net) => {
                // Secure legs get their own port family: the seed dialed
                // the AdOC port, so one listener had to guess which
                // transform an accepted connection carried.
                let conn = sysio.connect(world, net, dst, circuit_port + SECURE_PORT_OFFSET);
                (
                    Rc::new(secure_over(world, Box::new(conn), SecureConfig::default())),
                    VLinkMethod::Secure,
                )
            }
            LinkDecision::Relayed { via, network, hops } => {
                let stream = relay::connect_through_gateway_with_ttl(
                    world,
                    self,
                    network,
                    via,
                    dst,
                    circuit_port,
                    true,
                    relay_ttl,
                );
                (stream, VLinkMethod::Relayed { hops })
            }
        }
    }

    // ------------------------------------------------------------------ //
    // Circuit: parallel-oriented groups
    // ------------------------------------------------------------------ //

    /// Creates a Circuit over `group` (this node must be a member), using
    /// `circuit_port` as the rendezvous identifier. Every member must call
    /// this with the same group and port before the simulation runs the
    /// exchanged traffic (SPMD style).
    pub fn circuit_create(
        &self,
        world: &mut SimWorld,
        group: Vec<NodeId>,
        circuit_port: u16,
    ) -> Circuit {
        assert!(
            circuit_port < PSTREAM_PORT_OFFSET,
            "circuit port {circuit_port} is in the reserved port space (must be < {PSTREAM_PORT_OFFSET})"
        );
        let node = self.node();
        let my_rank = group
            .iter()
            .position(|&n| n == node)
            .expect("this node is not in the Circuit group");
        let circuit = Circuit::new(group.clone(), my_rank);
        let tag = MadIOTag(CIRCUIT_TAG_BASE + circuit_port);

        // Incoming: MadIO tag and framed streams on the circuit port
        // family. Each listener mirrors the outgoing transform of
        // `open_circuit_stream` exactly: plain TCP attaches raw, the AdOC
        // and secure ports wrap the accepted connection in the matching
        // transform stream before the Circuit framing is parsed (the seed
        // attached them raw, which silently broke Circuit links whose
        // selector decision was AdOC or Secure — the transform block
        // framing is not Circuit framing).
        let has_san = self.inner.borrow().madstream.is_some();
        if has_san {
            let madio = self.inner.borrow().netaccess.madio();
            circuit.attach_madio_incoming(world, &madio, tag);
        }
        let sysio = self.inner.borrow().netaccess.sysio();
        let c = circuit.clone();
        sysio.listen(circuit_port, move |world, conn| {
            c.attach_incoming_stream(world, Rc::new(conn));
        });
        let c = circuit.clone();
        let width = self.preferences().parallel_stream_width;
        ParallelStream::listen(
            world,
            &sysio.tcp(),
            circuit_port + PSTREAM_PORT_OFFSET,
            ParallelStreamConfig {
                n_streams: width,
                ..Default::default()
            },
            move |world, ps| {
                c.attach_incoming_stream(world, Rc::new(ps));
            },
        );
        let c = circuit.clone();
        sysio.listen(circuit_port + ADOC_PORT_OFFSET, move |world, conn| {
            let adoc = adoc_over(world, Box::new(conn), AdocConfig::default());
            c.attach_incoming_stream(world, Rc::new(adoc));
        });
        let c = circuit.clone();
        sysio.listen(circuit_port + SECURE_PORT_OFFSET, move |world, conn| {
            let sec = secure_over(world, Box::new(conn), SecureConfig::default());
            c.attach_incoming_stream(world, Rc::new(sec));
        });

        // Outgoing links, one per remote rank, chosen by the selector.
        for (rank, &dst) in group.iter().enumerate() {
            if rank == my_rank {
                continue;
            }
            let decision = self.circuit_decision(world, dst);
            match decision {
                LinkDecision::Loopback => {}
                LinkDecision::San(_) => {
                    let inner = self.inner.borrow();
                    let madio = inner.netaccess.madio();
                    let mad_rank = madio
                        .group()
                        .iter()
                        .position(|&n| n == dst)
                        .expect("SAN decision for a node outside the MadIO group");
                    circuit.set_link(
                        rank,
                        Box::new(MadIoCircuitLink::new(madio.clone(), tag, mad_rank)),
                    );
                }
                decision => {
                    // Every other method rides a plain byte stream on the
                    // Circuit port conventions (a relayed decision splices
                    // it through the gateway chain; the far end's plain
                    // listener attaches it as an incoming stream).
                    let (stream, method) = self.open_circuit_stream(
                        world,
                        dst,
                        circuit_port,
                        decision,
                        relay::PROXY_TTL,
                    );
                    let kind = match method {
                        VLinkMethod::SysIoTcp => CircuitLinkKind::SysIoStream,
                        _ => CircuitLinkKind::VLinkStream,
                    };
                    circuit.set_link(rank, Box::new(StreamCircuitLink::new(stream, kind)));
                }
            }
        }
        circuit
    }
}

/// Builds runtimes for every node of a SAN cluster (the common case in the
/// experiments): each node gets MadIO over the cluster's SAN.
pub fn runtimes_for_cluster(
    world: &mut SimWorld,
    san: NetworkId,
    nodes: &[NodeId],
    prefs: SelectorPreferences,
) -> Vec<PadicoRuntime> {
    nodes
        .iter()
        .map(|&n| PadicoRuntime::new(world, n, Some((san, nodes.to_vec())), prefs.clone()))
        .collect()
}

/// Builds runtimes for nodes that only have distributed networks (no SAN).
pub fn runtimes_for_lan(
    world: &mut SimWorld,
    nodes: &[NodeId],
    prefs: SelectorPreferences,
) -> Vec<PadicoRuntime> {
    nodes
        .iter()
        .map(|&n| PadicoRuntime::new(world, n, None, prefs.clone()))
        .collect()
}

/// Brings up a full multi-site grid: one runtime per node (with MadIO on
/// the site SAN where present), the grid's route table installed
/// everywhere, and a stream proxy on every gateway. Runtimes are returned
/// in [`GridTopology::all_nodes`] order; proxies in site order.
pub fn runtimes_for_grid(
    world: &mut SimWorld,
    grid: &GridTopology,
    prefs: SelectorPreferences,
) -> (Vec<PadicoRuntime>, Vec<GatewayProxy>) {
    let routes = Rc::new(grid.routes.clone());
    let mut runtimes = Vec::new();
    let mut proxies = Vec::new();
    let mut gateway_rts = Vec::new();
    for site in &grid.sites {
        for &node in &site.nodes {
            let san = site.san.map(|san| (san, site.nodes.clone()));
            let rt = PadicoRuntime::new(world, node, san, prefs.clone());
            rt.set_route_table(routes.clone());
            // Every gateway — redundant secondaries included — runs a
            // proxy, so failover has a live ingress point to shift to.
            if site.gateways.contains(&node) {
                proxies.push(relay::install_gateway_proxy(world, &rt));
                gateway_rts.push(rt.clone());
            }
            runtimes.push(rt);
        }
    }
    // Pre-warm the gateway-to-gateway trunks now that every proxy
    // listener exists: the first relayed stream then rides a hot carrier.
    let gateways: Vec<NodeId> = gateway_rts.iter().map(|rt| rt.node()).collect();
    for rt in &gateway_rts {
        relay::establish_gateway_trunks(world, rt, &gateways);
    }
    (runtimes, proxies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology;
    use std::cell::Cell;

    fn san_runtimes() -> (SimWorld, Vec<PadicoRuntime>, Vec<NodeId>) {
        let p = topology::san_pair(61);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
        (world, rts, nodes)
    }

    #[test]
    fn vlink_over_san_connects_and_exchanges() {
        let (mut world, rts, nodes) = san_runtimes();
        let accepted: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        rts[1].vlink_listen(&mut world, 100, move |_w, v| *a.borrow_mut() = Some(v));
        let client = rts[0].vlink_connect(&mut world, nodes[1], 100);
        assert_eq!(
            client.method(),
            VLinkMethod::MadIo,
            "SAN should be selected"
        );
        world.run();
        let server = accepted.borrow().clone().unwrap();
        assert_eq!(server.method(), VLinkMethod::MadIo);
        let bulk: Vec<u8> = (0..256 * 1024usize).map(|i| (i % 251) as u8).collect();
        for payload in [&b"over the SAN"[..], &bulk] {
            client.post_write(&mut world, payload);
            let op = server.post_read(&mut world, payload.len());
            world.run();
            assert_eq!(server.complete_read(op).unwrap(), payload);
        }
    }

    #[test]
    fn vlink_over_wan_uses_parallel_streams() {
        let wanp = topology::wan_pair(3);
        let mut world = wanp.world;
        let rts = runtimes_for_lan(
            &mut world,
            &[wanp.a, wanp.b],
            SelectorPreferences::default(),
        );
        let accepted: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        rts[1].vlink_listen(&mut world, 200, move |_w, v| *a.borrow_mut() = Some(v));
        let client = rts[0].vlink_connect(&mut world, wanp.b, 200);
        assert!(matches!(
            client.method(),
            VLinkMethod::ParallelStreams { width: 4 }
        ));
        world.run();
        let server = accepted.borrow().clone().unwrap();
        client.post_write(&mut world, b"wide area");
        let op = server.post_read(&mut world, 9);
        world.run();
        assert_eq!(server.complete_read(op).unwrap(), b"wide area");
    }

    #[test]
    fn vlink_to_self_uses_loopback() {
        let (mut world, rts, nodes) = san_runtimes();
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        rts[0].vlink_listen(&mut world, 7, move |_w, _v| h.set(h.get() + 1));
        let v = rts[0].vlink_connect(&mut world, nodes[0], 7);
        assert_eq!(v.method(), VLinkMethod::Loopback);
        world.run();
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn forced_method_overrides_selector() {
        let (mut world, rts, nodes) = san_runtimes();
        let accepted: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        rts[1].vlink_listen(&mut world, 300, move |_w, v| *a.borrow_mut() = Some(v));
        // Force plain TCP on the Ethernet even though Myrinet is available.
        let lan = world.networks_between(nodes[0], nodes[1])[1];
        let client = rts[0].vlink_connect_with(&mut world, nodes[1], 300, LinkDecision::Tcp(lan));
        assert_eq!(client.method(), VLinkMethod::SysIoTcp);
        world.run();
        assert_eq!(
            accepted.borrow().as_ref().unwrap().method(),
            VLinkMethod::SysIoTcp
        );
    }

    #[test]
    fn circuit_inside_a_cluster_uses_the_san() {
        let (mut world, rts, nodes) = san_runtimes();
        let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 50);
        let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 50);
        assert_eq!(
            c0.link_kind(1),
            Some(crate::circuit::CircuitLinkKind::MadIo)
        );
        c0.send_bytes(&mut world, 1, &b"rank0->rank1"[..]);
        c1.send_bytes(&mut world, 0, &b"rank1->rank0"[..]);
        world.run();
        assert_eq!(c1.poll_message().unwrap().concat(), b"rank0->rank1");
        assert_eq!(c0.poll_message().unwrap().concat(), b"rank1->rank0");
    }

    #[test]
    fn circuit_across_a_grid_mixes_adapters() {
        let g = topology::two_clusters_over_wan(5, 2);
        let mut world = g.world;
        let all: Vec<NodeId> = g
            .cluster_a
            .nodes
            .iter()
            .chain(g.cluster_b.nodes.iter())
            .copied()
            .collect();
        let san_a = g.cluster_a.san.unwrap();
        let san_b = g.cluster_b.san.unwrap();
        let mut rts = Vec::new();
        for &n in &g.cluster_a.nodes {
            rts.push(PadicoRuntime::new(
                &mut world,
                n,
                Some((san_a, g.cluster_a.nodes.clone())),
                SelectorPreferences::default(),
            ));
        }
        for &n in &g.cluster_b.nodes {
            rts.push(PadicoRuntime::new(
                &mut world,
                n,
                Some((san_b, g.cluster_b.nodes.clone())),
                SelectorPreferences::default(),
            ));
        }
        let circuits: Vec<Circuit> = rts
            .iter()
            .map(|rt| rt.circuit_create(&mut world, all.clone(), 60))
            .collect();
        // Link 0 -> 1 stays inside cluster A (straight MadIO); 0 -> 2 spans
        // the WAN (cross-paradigm stream).
        assert_eq!(
            circuits[0].link_kind(1),
            Some(crate::circuit::CircuitLinkKind::MadIo)
        );
        assert_eq!(
            circuits[0].link_kind(2),
            Some(crate::circuit::CircuitLinkKind::VLinkStream)
        );
        circuits[0].send_bytes(&mut world, 1, &b"intra"[..]);
        circuits[0].send_bytes(&mut world, 2, &b"inter"[..]);
        world.run();
        assert_eq!(circuits[1].poll_message().unwrap().concat(), b"intra");
        assert_eq!(circuits[2].poll_message().unwrap().concat(), b"inter");
    }

    #[test]
    fn circuit_over_adoc_link_roundtrips() {
        // An Internet-class pair resolves Circuit links to AdOC; the seed
        // attached the incoming side raw (transform framing fed straight
        // to the Circuit parser), so this exchange silently never arrived.
        let p = topology::lossy_internet_pair(9);
        let mut world = p.world;
        let rts = runtimes_for_lan(&mut world, &[p.a, p.b], SelectorPreferences::default());
        assert_eq!(
            rts[0].circuit_decision(&world, p.b),
            LinkDecision::Adoc(p.network)
        );
        let c0 = rts[0].circuit_create(&mut world, vec![p.a, p.b], 70);
        let c1 = rts[1].circuit_create(&mut world, vec![p.a, p.b], 70);
        assert_eq!(
            c0.link_kind(1),
            Some(crate::circuit::CircuitLinkKind::VLinkStream)
        );
        let payload: Vec<u8> = (0..40_000usize).map(|i| (i % 13) as u8).collect();
        c0.send_bytes(&mut world, 1, payload.clone());
        c1.send_bytes(&mut world, 0, &b"compressed reply"[..]);
        world.run();
        assert_eq!(
            c1.poll_message().expect("AdOC circuit delivers").concat(),
            payload
        );
        assert_eq!(c0.poll_message().unwrap().concat(), b"compressed reply");
    }

    #[test]
    fn circuit_over_secure_link_roundtrips() {
        // With secure_inter_site, WAN Circuit links ride the secure
        // transform; the listener must unwrap it symmetrically (the seed
        // also collided secure onto the AdOC port).
        let wanp = topology::wan_pair(10);
        let mut world = wanp.world;
        let prefs = SelectorPreferences {
            secure_inter_site: true,
            ..Default::default()
        };
        let rts = runtimes_for_lan(&mut world, &[wanp.a, wanp.b], prefs);
        assert_eq!(
            rts[0].circuit_decision(&world, wanp.b),
            LinkDecision::Secure(wanp.network)
        );
        let c0 = rts[0].circuit_create(&mut world, vec![wanp.a, wanp.b], 71);
        let c1 = rts[1].circuit_create(&mut world, vec![wanp.a, wanp.b], 71);
        c0.send_bytes(&mut world, 1, &b"ciphered hello"[..]);
        c1.send_bytes(&mut world, 0, &b"ciphered back"[..]);
        world.run();
        assert_eq!(
            c1.poll_message().expect("secure circuit delivers").concat(),
            b"ciphered hello"
        );
        assert_eq!(c0.poll_message().unwrap().concat(), b"ciphered back");
    }

    /// Two gateway-isolated sites: only the gateways touch the backbone.
    fn grid_world(
        seed: u64,
        nodes_per_site: usize,
    ) -> (
        SimWorld,
        gridtopo::GridTopology,
        Vec<PadicoRuntime>,
        Vec<crate::relay::GatewayProxy>,
    ) {
        let mut world = SimWorld::new(seed);
        let grid = gridtopo::GridTopology::two_sites(&mut world, nodes_per_site);
        let (rts, proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        (world, grid, rts, proxies)
    }

    #[test]
    fn vlink_across_sites_is_relayed_through_gateways() {
        let (mut world, grid, rts, proxies) = grid_world(71, 3);
        let src = grid.site(0).node(1);
        let dst = grid.site(1).node(2);
        let src_rt = rts[1].clone(); // site 0, rank 1
        let dst_rt = rts[grid.site(0).len() + 2].clone(); // site 1, rank 2
        assert_eq!(src_rt.node(), src);
        assert_eq!(dst_rt.node(), dst);

        // The selector resolves the no-shared-network pair to a relay.
        let decision = src_rt.vlink_decision(&world, dst);
        assert!(decision.is_relayed(), "got {decision:?}");
        assert_eq!(
            decision,
            LinkDecision::Relayed {
                via: grid.site(0).gateway,
                network: grid.site(0).san.unwrap(),
                hops: 3,
            }
        );

        let accepted: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        dst_rt.vlink_listen(&mut world, 600, move |_w, v| *a.borrow_mut() = Some(v));
        let client = src_rt.vlink_connect(&mut world, dst, 600);
        assert_eq!(client.method(), VLinkMethod::Relayed { hops: 3 });
        world.run();
        let server = accepted.borrow().clone().expect("relayed accept");

        client.post_write(&mut world, b"across the grid");
        let op = server.post_read(&mut world, 15);
        world.run();
        assert_eq!(server.complete_read(op).unwrap(), b"across the grid");

        // And back.
        server.post_write(&mut world, b"pong");
        let op = client.post_read(&mut world, 4);
        world.run();
        assert_eq!(client.complete_read(op).unwrap(), b"pong");

        // Both gateways spliced the connection and forwarded the bytes.
        let s0 = proxies[0].stats();
        let s1 = proxies[1].stats();
        assert_eq!(s0.connections_relayed, 1);
        assert_eq!(s1.connections_relayed, 1);
        assert!(s0.bytes_forward >= 15, "{s0:?}");
        assert!(s1.bytes_backward >= 4, "{s1:?}");
    }

    #[test]
    fn intra_site_links_still_use_the_straight_san() {
        let (mut world, grid, rts, _proxies) = grid_world(72, 3);
        let a1 = grid.site(0).node(1);
        let a2 = grid.site(0).node(2);
        let rt = rts[1].clone();
        assert_eq!(rt.node(), a1);
        assert_eq!(
            rt.vlink_decision(&world, a2),
            LinkDecision::San(grid.site(0).san.unwrap())
        );
        assert!(rt.circuit_decision(&world, a2).is_straight_for_parallel());
        let _ = &mut world;
    }

    #[test]
    fn circuit_across_sites_relays_streams() {
        let (mut world, grid, rts, proxies) = grid_world(73, 2);
        let all = grid.all_nodes();
        let circuits: Vec<Circuit> = rts
            .iter()
            .map(|rt| rt.circuit_create(&mut world, all.clone(), 90))
            .collect();
        // Rank 0 (site 0) -> rank 2 (site 1 gateway? no: all_nodes order is
        // [gw_a, a1, gw_b, b1]); rank 0 -> rank 3 crosses sites.
        assert_eq!(
            circuits[1].link_kind(3),
            Some(crate::circuit::CircuitLinkKind::VLinkStream)
        );
        circuits[1].send_bytes(&mut world, 3, &b"routed circuit"[..]);
        world.run();
        assert_eq!(
            circuits[3].poll_message().unwrap().concat(),
            b"routed circuit"
        );
        // The connection went through at least one gateway proxy. (Rank 1
        // is a plain site node, so its stream to rank 3 must be spliced.)
        let relayed: u64 = proxies.iter().map(|p| p.stats().connections_relayed).sum();
        assert!(relayed >= 1, "no proxy saw the circuit stream");
    }

    #[test]
    fn relayed_vlink_works_with_credit_backpressure() {
        // Same relayed exchange as above, but with relay_backpressure =
        // Credit: both trunk ends window every multiplexed stream.
        let mut world = SimWorld::new(74);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let prefs = SelectorPreferences {
            relay_backpressure: crate::selector::BackpressureMode::Credit,
            ..Default::default()
        };
        let (rts, proxies) = runtimes_for_grid(&mut world, &grid, prefs);
        let dst = grid.site(1).node(2);
        let dst_rt = rts[grid.site(0).len() + 2].clone();
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        dst_rt.vlink_listen(&mut world, 620, move |_world, v| {
            let v2 = v.clone();
            let g = g.clone();
            v.set_handler(move |world, ev| {
                if ev == crate::vlink::VLinkEvent::Readable {
                    g.borrow_mut().extend(v2.read_now(world, usize::MAX));
                }
            });
        });
        let client = rts[1].vlink_connect(&mut world, dst, 620);
        // Push well past the trunk window so credits must cycle.
        let payload: Vec<u8> = (0..600_000usize).map(|i| (i % 251) as u8).collect();
        client.post_write(&mut world, &payload);
        world.run();
        assert_eq!(got.borrow().len(), payload.len(), "lossless under credits");
        assert_eq!(*got.borrow(), payload, "no corruption under credits");
        assert_eq!(client.bytes_refused(), 0);
        let relayed: u64 = proxies.iter().map(|p| p.stats().connections_relayed).sum();
        assert!(relayed >= 2);
    }

    #[test]
    fn relayed_runs_are_deterministic() {
        let run = |seed: u64| -> (Vec<u8>, u64) {
            let (mut world, grid, rts, _p) = grid_world(seed, 2);
            let dst = grid.site(1).node(1);
            let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            let dst_rt = rts[3].clone();
            dst_rt.vlink_listen(&mut world, 610, move |_world, v| {
                let v2 = v.clone();
                let g = g.clone();
                v.set_handler(move |world, ev| {
                    if ev == crate::vlink::VLinkEvent::Readable {
                        g.borrow_mut().extend(v2.read_now(world, usize::MAX));
                    }
                });
            });
            let client = rts[1].vlink_connect(&mut world, dst, 610);
            client.post_write(&mut world, &[9u8; 4000]);
            world.run();
            let data = got.borrow().clone();
            (data, world.now().as_nanos())
        };
        let (d1, t1) = run(5);
        let (d2, t2) = run(5);
        assert_eq!(d1.len(), 4000);
        assert_eq!(d1, d2);
        assert_eq!(t1, t2, "virtual end time must be bit-identical");
    }

    /// Entries of every per-stream table on the grid: MadIO stream
    /// drivers, then the trunk demultiplexers (outgoing and accepted).
    fn stream_tables(rts: &[PadicoRuntime]) -> (usize, usize) {
        let mut madio = 0;
        let mut trunk = 0;
        for rt in rts {
            let inner = rt.inner.borrow();
            madio += inner.madstream.as_ref().map_or(0, |d| d.stream_count());
            let muxes = inner.trunks.values().chain(inner.accepted_trunks.iter());
            trunk += muxes.map(|m| m.stream_count()).sum::<usize>();
        }
        (madio, trunk)
    }

    #[test]
    fn finished_relayed_flows_leave_nothing_behind() {
        // 200 short relayed flows (connect, request, one-byte ack, close)
        // on a 3-site grid: once the world is quiet again, no per-stream
        // table holds an entry the flows added, and no VLink, driver or
        // TCP connection they created is still alive.
        let mut world = SimWorld::new(31);
        let specs: Vec<gridtopo::SiteSpec> = (0..3)
            .map(|i| gridtopo::SiteSpec::san_cluster(format!("s{i}"), 3))
            .collect();
        let grid = GridTopology::star(&mut world, &specs, simnet::NetworkSpec::vthd_wan());
        let prefs = SelectorPreferences {
            relay_backpressure: crate::selector::BackpressureMode::Credit,
            ..Default::default()
        };
        let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
        type Probes = Vec<(
            std::rc::Weak<dyn std::any::Any>,
            std::rc::Weak<dyn ByteStream>,
        )>;
        let probes: Rc<RefCell<Probes>> = Rc::default();
        let workers: Vec<usize> = (0..rts.len())
            .filter(|&i| {
                grid.sites
                    .iter()
                    .all(|s| !s.gateways.contains(&rts[i].node()))
            })
            .collect();
        for &i in &workers {
            let p = probes.clone();
            rts[i].vlink_listen(&mut world, 700, move |_w, v| {
                p.borrow_mut()
                    .push((v.state_probe(), Rc::downgrade(&v.stream())));
                let v2 = v.clone();
                let mut got = 0;
                v.set_handler(move |w, ev| match ev {
                    crate::vlink::VLinkEvent::Readable => {
                        got += v2.read_now(w, usize::MAX).len();
                        if got == 7 {
                            v2.post_write(w, &[1]);
                        }
                    }
                    crate::vlink::VLinkEvent::Finished => v2.close(w),
                    crate::vlink::VLinkEvent::Connected => {}
                });
            });
        }
        world.run();
        let site_of = |n: NodeId| grid.sites.iter().position(|s| s.nodes.contains(&n));
        let before = stream_tables(&rts);
        let mut clients = Vec::new();
        for flow in 0.. {
            if clients.len() == 200 {
                break;
            }
            let src = workers[flow % workers.len()];
            let dst = workers[(flow * 5 + 2) % workers.len()];
            let (src_rt, dst_node) = (&rts[src], rts[dst].node());
            if site_of(src_rt.node()) == site_of(dst_node) {
                continue;
            }
            let link = src_rt.vlink_connect(&mut world, dst_node, 700);
            assert!(matches!(link.method(), VLinkMethod::Relayed { .. }));
            link.post_write(&mut world, b"request");
            let l2 = link.clone();
            link.set_handler(move |w, ev| {
                if ev == crate::vlink::VLinkEvent::Readable && !l2.read_now(w, 1).is_empty() {
                    l2.close(w);
                }
            });
            probes
                .borrow_mut()
                .push((link.state_probe(), Rc::downgrade(&link.stream())));
            clients.push(link);
            world.run();
        }
        assert_eq!(
            probes.borrow().len(),
            2 * clients.len(),
            "every flow accepted"
        );
        assert_eq!(
            stream_tables(&rts),
            before,
            "(MadIO streams, trunk streams)"
        );
        // The client legs ride TCP: a token in each connection's callback
        // outlives the handles below only if its stack still holds it.
        let tokens: Vec<std::rc::Weak<()>> = clients
            .drain(..)
            .map(|link| {
                assert!(link.is_finished());
                let token = Rc::new(());
                let weak = Rc::downgrade(&token);
                link.stream().set_readable_callback(Box::new(move |_| {
                    let _keep = &token;
                }));
                weak
            })
            .collect();
        assert!(
            tokens.iter().all(|t| t.upgrade().is_none()),
            "TCP connections reaped"
        );
        for (link, driver) in probes.borrow().iter() {
            assert!(link.upgrade().is_none(), "a finished VLink is still alive");
            assert!(
                driver.upgrade().is_none(),
                "a finished driver is still alive"
            );
        }
    }
}
