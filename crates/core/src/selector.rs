//! The adapter selector and its topology knowledge base.
//!
//! VLink and Circuit "automatically choose which protocol to use according
//! to a knowledge base of the network topology managed by PadicoTM and
//! user-defined preferences" (§4.2). This module implements that choice:
//! given two nodes, the networks they share, and the user's preferences, it
//! decides which adapter/method carries the link — straight adapters where
//! possible, cross-paradigm or WAN-specific methods where required.
//!
//! With a [`gridtopo::GridRoutes`] table installed (hierarchical by
//! default, flat as the oracle), the knowledge base is *route-aware*:
//! endpoints that share no network no longer fail — the selector resolves
//! them to a [`LinkDecision::Relayed`] through the first gateway of the
//! multi-hop route, memoizing the resolved [`Route`]/[`PathInfo`] in a
//! bounded cache so the hot path never re-derives hop vectors.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use gridtopo::{GridRoutes, PathInfo, Route};
use simnet::{NetworkClass, NetworkId, NodeId, SimWorld};

pub use gridtopo::BackpressureMode;

/// User-defined preferences consulted by the selector.
#[derive(Debug, Clone)]
pub struct SelectorPreferences {
    /// Use Parallel Streams on WAN-class networks.
    pub parallel_streams_on_wan: bool,
    /// Number of member streams for Parallel Streams.
    pub parallel_stream_width: usize,
    /// Width of the persistent gateway-to-gateway trunk bundles that carry
    /// relayed streams. Trunks aggregate every relayed stream crossing a
    /// gateway pair, so they are sized wider than a single-transfer bundle
    /// (GridFTP deployments of the era used up to 8 streams). Ignored when
    /// `parallel_streams_on_wan` is off (trunks then use one connection).
    pub gateway_trunk_width: usize,
    /// Use AdOC adaptive compression on slow Internet-class links.
    pub compression_on_slow_links: bool,
    /// Cipher and authenticate traffic that crosses site boundaries
    /// (WAN/Internet). Intra-site networks are considered secure, so this
    /// never applies to SAN/LAN/loopback ("if the network is secure, it is
    /// useless to cipher data").
    ///
    /// **Caveat:** this does not yet cover *relayed* paths — the
    /// gateway-to-gateway legs are opened by the gateways' own runtimes
    /// and stay plaintext. The selector warns loudly and counts every
    /// such decision in [`TopologyKb::plaintext_relay_events`]; set
    /// [`SelectorPreferences::refuse_plaintext_relay`] to refuse instead.
    pub secure_inter_site: bool,
    /// With `secure_inter_site` set, refuse (panic on) relayed link
    /// decisions instead of warning: no plaintext ever leaves the site,
    /// at the price of cross-site connectivity through gateways.
    pub refuse_plaintext_relay: bool,
    /// How relay-layer congestion is resolved: `Drop` (bounded gateway
    /// queues discard overload, the seed behaviour) or `Credit`
    /// (credit-based backpressure — senders park instead, gateway trunks
    /// run per-stream credit windows, nothing is dropped). Must be set
    /// uniformly across a grid: the two ends of a gateway trunk have to
    /// agree on windowing.
    pub relay_backpressure: BackpressureMode,
    /// Aggregate byte budget shared by *all* multiplexed streams of one
    /// gateway trunk, layered on the per-stream credit windows: the sum of
    /// unconsumed bytes in flight across the trunk never exceeds it, so
    /// one gateway pair's total store-and-forward memory is bounded — not
    /// just each stream's. `0` disables the shared budget (per-stream
    /// windows only). Only effective with `relay_backpressure = Credit`,
    /// which the budget rides on.
    pub gateway_trunk_budget: usize,
    /// Entries kept in the selector's route cache (resolved
    /// [`Route`]/[`PathInfo`] pairs, memoized on the link-decision hot
    /// path; evicted by LRU recency beyond this bound — a hot gateway
    /// destination survives any number of one-shot lookups — and
    /// invalidated whenever a route table is installed or a gateway is
    /// marked down).
    pub route_cache_capacity: usize,
    /// Gateway failover: relayed streams ride liveness-monitored trunks
    /// (heartbeats + dead-carrier detection) on *every* leg, a dead trunk
    /// marks its gateway down in the knowledge base, routes re-resolve
    /// through any surviving gateway of the site, and in-flight relayed
    /// streams re-dial and resume automatically — in credit mode with
    /// zero acknowledged bytes lost. Off by default: the seed behaviour
    /// (manual `drop_trunks` recovery) is preserved exactly.
    pub gateway_failover: bool,
    /// Never use the SAN even when available (ablation / debugging knob).
    pub forbid_san: bool,
}

impl SelectorPreferences {
    /// Member count of a gateway trunk carrier bundle. The connecting and
    /// accepting ends of a trunk must agree on this, so both derive it
    /// here: `gateway_trunk_width` when Parallel Streams are enabled on
    /// WANs, a single connection otherwise.
    pub fn trunk_width(&self) -> usize {
        if self.parallel_streams_on_wan {
            self.gateway_trunk_width.max(1)
        } else {
            1
        }
    }
}

impl Default for SelectorPreferences {
    fn default() -> Self {
        SelectorPreferences {
            parallel_streams_on_wan: true,
            parallel_stream_width: 4,
            gateway_trunk_width: 8,
            compression_on_slow_links: true,
            secure_inter_site: false,
            refuse_plaintext_relay: false,
            relay_backpressure: BackpressureMode::Drop,
            gateway_trunk_budget: 0,
            route_cache_capacity: 4096,
            gateway_failover: false,
            forbid_san: false,
        }
    }
}

/// The method selected for one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Both endpoints are the same node.
    Loopback,
    /// Straight parallel adapter (MadIO) over the given SAN.
    San(NetworkId),
    /// Plain TCP through SysIO over the given network.
    Tcp(NetworkId),
    /// Parallel TCP streams over the given WAN.
    ParallelStreams(NetworkId, usize),
    /// AdOC-compressed TCP over the given slow link.
    Adoc(NetworkId),
    /// Authenticated/encrypted TCP over the given inter-site link.
    Secure(NetworkId),
    /// The endpoints share no network: the link is carried hop by hop
    /// through gateway relays along the routed path.
    Relayed {
        /// The first-hop gateway to connect through.
        via: NodeId,
        /// The network shared with that gateway.
        network: NetworkId,
        /// Total number of networks the full route crosses.
        hops: u32,
    },
}

impl LinkDecision {
    /// The network the decision uses, if any. For a relayed decision this
    /// is the *first-hop* network.
    pub fn network(&self) -> Option<NetworkId> {
        match self {
            LinkDecision::Loopback => None,
            LinkDecision::San(n)
            | LinkDecision::Tcp(n)
            | LinkDecision::ParallelStreams(n, _)
            | LinkDecision::Adoc(n)
            | LinkDecision::Secure(n)
            | LinkDecision::Relayed { network: n, .. } => Some(*n),
        }
    }

    /// Whether the decision is a straight adapter for a parallel middleware
    /// (no paradigm translation).
    pub fn is_straight_for_parallel(&self) -> bool {
        matches!(self, LinkDecision::Loopback | LinkDecision::San(_))
    }

    /// Whether the decision crosses at least one gateway relay.
    pub fn is_relayed(&self) -> bool {
        matches!(self, LinkDecision::Relayed { .. })
    }
}

/// A fully resolved route with its aggregate path characteristics — what
/// the route cache memoizes, behind an `Rc` so hot-path consumers share
/// one materialization instead of re-deriving hop vectors per lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedRoute {
    /// The materialized multi-hop route.
    pub route: Route,
    /// Aggregate characteristics of the route.
    pub info: PathInfo,
}

/// Cache statistics, for tests and the routing bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that resolved and inserted a fresh entry.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Invalidation sweeps. Route-table installs clear everything;
    /// gateway-state changes sweep *selectively* — down drops only the
    /// entries relaying through the affected gateway, up drops only the
    /// detours resolved while some gateway was down.
    pub invalidations: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// Bounded LRU memo of resolved routes, keyed by ordered node pair.
/// Hierarchical tables materialize `Route`/`PathInfo` lazily, so the cache
/// is what keeps repeated link decisions (and the gateway proxies'
/// per-stream lookups) allocation-free.
///
/// Eviction is by *recency*, not insertion order: each entry carries a
/// monotonically stamped last-use tick, and the `order` queue holds
/// (stamp, key) records — stale records (an entry re-stamped since) are
/// skipped on pop, so a hit costs O(1) (one push, no search) and eviction
/// is amortized O(1). A hot gateway destination therefore survives any
/// number of one-shot lookups streaming past it, which FIFO eviction —
/// the previous policy — did not guarantee.
#[derive(Debug, Default)]
struct RouteCache {
    entries: HashMap<(NodeId, NodeId), CacheEntry>,
    /// (stamp, key) in stamp order; records whose stamp no longer matches
    /// the entry's are stale and skipped.
    order: VecDeque<(u64, (NodeId, NodeId))>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// One memoized resolution: the shared materialization, its last-use
/// recency stamp, and whether it was resolved while some gateway was
/// marked down (such detours are swept when a gateway returns).
#[derive(Debug)]
struct CacheEntry {
    value: Rc<ResolvedRoute>,
    stamp: u64,
    avoidance: bool,
}

impl RouteCache {
    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: (NodeId, NodeId)) -> Option<Rc<ResolvedRoute>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&key)?;
        entry.stamp = tick;
        let value = entry.value.clone();
        self.order.push_back((tick, key));
        // Hits stamp a fresh record each: hit-dominated workloads must
        // compact here too or the lazy-deletion queue grows one record
        // per lookup forever.
        self.compact_if_bloated();
        Some(value)
    }

    /// Drops stale order records once they outnumber the live entries,
    /// keeping the queue O(resident entries) amortized-O(1) per call.
    fn compact_if_bloated(&mut self) {
        if self.order.len() > 2 * self.entries.len().max(16) {
            let entries = &self.entries;
            self.order
                .retain(|(stamp, key)| entries.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }

    fn insert(
        &mut self,
        key: (NodeId, NodeId),
        value: Rc<ResolvedRoute>,
        avoidance: bool,
        capacity: usize,
    ) {
        let capacity = capacity.max(1);
        while self.entries.len() >= capacity && !self.entries.contains_key(&key) {
            let Some((stamp, oldest)) = self.order.pop_front() else {
                break;
            };
            match self.entries.get(&oldest) {
                // Live record: this is genuinely the least recently used.
                Some(e) if e.stamp == stamp => {
                    self.entries.remove(&oldest);
                    self.evictions += 1;
                }
                // Stale record (the entry was touched again later, or is
                // already gone): skip, its newer record is further back.
                _ => {}
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(
            key,
            CacheEntry {
                value,
                stamp: tick,
                avoidance,
            },
        );
        self.order.push_back((tick, key));
        self.compact_if_bloated();
    }

    /// Selective invalidation for a gateway going down: only the entries
    /// whose resolved route relays *through* it are dropped — every other
    /// entry keeps serving hits. Stale order records are skipped lazily.
    fn invalidate_through(&mut self, gateway: NodeId) {
        // simlint: allow(D1, reason = "pure per-entry predicate; the survivor set is visit-order independent and eviction order comes from the stamped recency queue, not map order")
        self.entries
            .retain(|_, e| !e.value.info.relays.contains(&gateway));
        self.invalidations += 1;
    }

    /// Selective invalidation for a gateway coming back: only the entries
    /// resolved while some gateway was down are dropped. Those routes
    /// detour around a gateway that may now be live again — still correct,
    /// but possibly no longer optimal, so they must re-resolve.
    fn invalidate_avoidance(&mut self) {
        // simlint: allow(D1, reason = "pure per-entry predicate; the survivor set is visit-order independent and eviction order comes from the stamped recency queue, not map order")
        self.entries.retain(|_, e| !e.avoidance);
        self.invalidations += 1;
    }
}

/// The topology knowledge base: what the runtime knows about reachable
/// networks and multi-hop routes, plus the user preferences.
#[derive(Debug, Clone, Default)]
pub struct TopologyKb {
    /// User preferences applied by the selector.
    pub prefs: SelectorPreferences,
    /// Multi-hop routes, when a grid topology has been registered. Without
    /// routes the selector only resolves direct (shared-network) links.
    routes: Option<Rc<GridRoutes>>,
    /// Gateways currently known dead (learned from trunk liveness, or
    /// marked by hand). With `gateway_failover` set, route resolution
    /// avoids them; shared across clones of this knowledge base.
    down_gateways: Rc<RefCell<BTreeSet<NodeId>>>,
    /// Memoized resolved routes (shared across clones of this knowledge
    /// base, invalidated whenever `routes` is replaced).
    cache: Rc<RefCell<RouteCache>>,
    /// Times the selector resolved a pair to a relayed decision while
    /// `secure_inter_site` was set: that traffic crosses the WAN legs in
    /// plaintext (shared across clones of this knowledge base).
    plaintext_relay_events: Rc<Cell<u64>>,
    /// The loud warning is printed once per knowledge base.
    plaintext_relay_warned: Rc<Cell<bool>>,
}

impl TopologyKb {
    /// Creates a knowledge base with the given preferences.
    pub fn new(prefs: SelectorPreferences) -> TopologyKb {
        TopologyKb {
            prefs,
            ..Default::default()
        }
    }

    /// Creates a route-aware knowledge base.
    pub fn with_routes(prefs: SelectorPreferences, routes: Rc<GridRoutes>) -> TopologyKb {
        TopologyKb {
            prefs,
            routes: Some(routes),
            ..Default::default()
        }
    }

    /// Installs (or replaces) the multi-hop route table. Every cached
    /// resolved route is invalidated: entries derived from the previous
    /// table must never serve lookups against the new one. This instance
    /// gets a *fresh* cache rather than clearing the shared one: clones
    /// of this knowledge base still hold the previous table, and through
    /// a shared cleared cache they would repopulate old-table routes
    /// right back into this instance's lookups. Counters carry over so
    /// the statistics stay monotonic.
    pub fn set_routes(&mut self, routes: Rc<GridRoutes>) {
        self.routes = Some(routes);
        let prev = self.cache.borrow();
        let fresh = RouteCache {
            hits: prev.hits,
            misses: prev.misses,
            evictions: prev.evictions,
            invalidations: prev.invalidations + 1,
            ..Default::default()
        };
        drop(prev);
        self.cache = Rc::new(RefCell::new(fresh));
    }

    /// Replaces the preferences in place, preserving the route table and
    /// the accumulated statistics.
    pub fn set_prefs(&mut self, prefs: SelectorPreferences) {
        self.prefs = prefs;
    }

    /// The installed route table, if any.
    pub fn routes(&self) -> Option<Rc<GridRoutes>> {
        self.routes.clone()
    }

    /// Resolves (and memoizes) the full route and its [`PathInfo`] from
    /// `a` to `b`. This is the selector hot path: a hit costs one hash
    /// lookup and an `Rc` clone; a miss materializes the route lazily
    /// from the installed table — for a hierarchical table that is the
    /// only time hop vectors are ever built.
    pub fn resolve_route(
        &self,
        world: &SimWorld,
        a: NodeId,
        b: NodeId,
    ) -> Option<Rc<ResolvedRoute>> {
        let routes = self.routes.as_ref()?;
        {
            let mut cache = self.cache.borrow_mut();
            if let Some(hit) = cache.get((a, b)) {
                cache.hits += 1;
                return Some(hit);
            }
        }
        let down = self.down_gateways.borrow();
        let (route, cost) = if self.prefs.gateway_failover && !down.is_empty() {
            let route = routes.route_avoiding(a, b, &down)?;
            // The additive cost of any materialized route is the sum of
            // its per-hop link costs (the hier tests assert this), so sum
            // them here instead of paying a second composition through
            // `cost_avoiding` on the failover path.
            let cost = route
                .hops
                .iter()
                .map(|h| gridtopo::link_cost(world, h.network))
                .sum();
            (route, cost)
        } else {
            (routes.route(a, b)?, routes.cost(a, b).unwrap_or(0))
        };
        let avoidance = self.prefs.gateway_failover && !down.is_empty();
        drop(down);
        let info = PathInfo::for_route(world, &route, cost);
        let resolved = Rc::new(ResolvedRoute { route, info });
        let mut cache = self.cache.borrow_mut();
        cache.misses += 1;
        cache.insert(
            (a, b),
            resolved.clone(),
            avoidance,
            self.prefs.route_cache_capacity,
        );
        Some(resolved)
    }

    /// Marks `gateway` dead: with `gateway_failover` set, subsequent
    /// resolutions avoid it (re-composing routes through any surviving
    /// gateway of its site). Invalidation is *selective*: only the cached
    /// entries whose route relays through the dead gateway are dropped —
    /// routes that never touch it keep serving hits, so one gateway death
    /// does not cold-start every other destination this node talks to.
    /// Learned automatically from trunk liveness by the runtime; also
    /// available to tests and operators. Acts on the *shared* cache, so
    /// the sweep reaches every knowledge base sharing it.
    pub fn mark_gateway_down(&self, gateway: NodeId) {
        if self.down_gateways.borrow_mut().insert(gateway) {
            self.cache.borrow_mut().invalidate_through(gateway);
        }
    }

    /// Marks a previously down gateway live again (restarted process).
    /// Selectively drops the detour entries — routes resolved while some
    /// gateway was down — so traffic re-optimizes through the returned
    /// gateway; entries resolved on a clean table are untouched.
    pub fn mark_gateway_up(&self, gateway: NodeId) {
        if self.down_gateways.borrow_mut().remove(&gateway) {
            self.cache.borrow_mut().invalidate_avoidance();
        }
    }

    /// The gateways currently marked down.
    pub fn down_gateways(&self) -> Vec<NodeId> {
        self.down_gateways.borrow().iter().copied().collect()
    }

    /// Adopts `other`'s route cache, pooling both knowledge bases'
    /// memoized resolutions in one shared LRU. Entries are keyed by the
    /// *(source, destination)* pair, so knowledge bases of different nodes
    /// never serve each other's routes — sharing only pools the memory
    /// bound and lets a gateway-state sweep reach every sharer at once.
    /// Gateway runtimes resolve a route per relayed stream, so the grid
    /// bring-up shares one cache across them instead of one per runtime.
    /// Sharers should hold the same route table (re-share after
    /// republishing routes: [`TopologyKb::set_routes`] detaches into a
    /// fresh cache by design).
    pub fn share_cache_with(&mut self, other: &TopologyKb) {
        self.cache = Rc::clone(&other.cache);
    }

    /// A snapshot of the route-cache counters.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        let c = self.cache.borrow();
        RouteCacheStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            invalidations: c.invalidations,
            len: c.entries.len(),
        }
    }

    /// Times the selector resolved a relayed decision while
    /// `secure_inter_site` was set (plaintext crossed — or would have
    /// crossed — the WAN legs).
    pub fn plaintext_relay_events(&self) -> u64 {
        self.plaintext_relay_events.get()
    }

    /// Resolves a no-shared-network pair through the route table.
    ///
    /// `forbid_san` is honoured for the leg this node opens itself: if the
    /// route's first hop rides a SAN the user forbade, another network
    /// shared with the same gateway is substituted when one exists. Other
    /// preferences (notably `secure_inter_site`) do **not** yet propagate
    /// to the gateway-to-gateway legs, which are opened by the gateways'
    /// own runtimes — so a relayed decision under `secure_inter_site`
    /// means plaintext on the WAN: it is never silent (a loud warning plus
    /// [`TopologyKb::plaintext_relay_events`]) and is refused outright
    /// under `refuse_plaintext_relay`. Full secure trunks are the ROADMAP
    /// follow-up.
    fn relayed(&self, world: &SimWorld, a: NodeId, b: NodeId) -> Option<LinkDecision> {
        let resolved = self.resolve_route(world, a, b)?;
        let first = resolved.route.first_hop()?;
        if self.prefs.secure_inter_site {
            self.plaintext_relay_events
                .set(self.plaintext_relay_events.get() + 1);
            assert!(
                !self.prefs.refuse_plaintext_relay,
                "secure_inter_site is set and refuse_plaintext_relay refuses the relayed link \
                 {a} -> {b}: gateway-to-gateway legs are not yet ciphered"
            );
            if !self.plaintext_relay_warned.replace(true) {
                eprintln!(
                    "warning: secure_inter_site is set but the link {a} -> {b} is relayed \
                     through gateways whose WAN legs are plaintext; occurrences are counted \
                     in TopologyKb::plaintext_relay_events() \
                     (set refuse_plaintext_relay to refuse instead)"
                );
            }
        }
        let mut network = first.network;
        if self.prefs.forbid_san && world.network(network).spec.class == NetworkClass::San {
            if let Some(alt) = world
                .networks_between(a, first.node)
                .into_iter()
                .find(|&n| world.network(n).spec.class != NetworkClass::San)
            {
                network = alt;
            }
        }
        Some(LinkDecision::Relayed {
            via: first.node,
            network,
            hops: resolved.info.hop_count as u32,
        })
    }

    /// Classifies the best network of each class shared by `a` and `b`.
    fn shared(
        &self,
        world: &SimWorld,
        a: NodeId,
        b: NodeId,
    ) -> Vec<(NetworkClass, NetworkId, f64)> {
        let mut v: Vec<(NetworkClass, NetworkId, f64)> = world
            .networks_between(a, b)
            .into_iter()
            .map(|id| {
                let spec = &world.network(id).spec;
                (spec.class, id, spec.bytes_per_sec)
            })
            .collect();
        // Fastest first within the list.
        v.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    fn best_of(
        &self,
        shared: &[(NetworkClass, NetworkId, f64)],
        class: NetworkClass,
    ) -> Option<NetworkId> {
        shared
            .iter()
            .find(|(c, _, _)| *c == class)
            .map(|(_, id, _)| *id)
    }

    /// Selects the method for a link used by a *distributed-oriented*
    /// middleware (through VLink).
    pub fn select_vlink(&self, world: &SimWorld, a: NodeId, b: NodeId) -> LinkDecision {
        if a == b {
            return LinkDecision::Loopback;
        }
        let shared = self.shared(world, a, b);
        if shared.is_empty() {
            return self.relayed(world, a, b).unwrap_or_else(|| {
                panic!("no network between {a} and {b}, and no route to relay through")
            });
        }
        if !self.prefs.forbid_san {
            if let Some(san) = self.best_of(&shared, NetworkClass::San) {
                // Cross-paradigm adapter: the distributed middleware rides
                // the SAN through the stream-over-MadIO driver.
                return LinkDecision::San(san);
            }
        }
        if let Some(lan) = self.best_of(&shared, NetworkClass::Lan) {
            return LinkDecision::Tcp(lan);
        }
        if let Some(wan) = self.best_of(&shared, NetworkClass::Wan) {
            if self.prefs.secure_inter_site {
                return LinkDecision::Secure(wan);
            }
            if self.prefs.parallel_streams_on_wan {
                return LinkDecision::ParallelStreams(wan, self.prefs.parallel_stream_width);
            }
            return LinkDecision::Tcp(wan);
        }
        if let Some(inet) = self.best_of(&shared, NetworkClass::Internet) {
            if self.prefs.secure_inter_site {
                return LinkDecision::Secure(inet);
            }
            if self.prefs.compression_on_slow_links {
                return LinkDecision::Adoc(inet);
            }
            return LinkDecision::Tcp(inet);
        }
        // Only loopback-class networks left.
        LinkDecision::Tcp(shared[0].1)
    }

    /// Selects the method for a link used by a *parallel-oriented*
    /// middleware (through Circuit).
    pub fn select_circuit(&self, world: &SimWorld, a: NodeId, b: NodeId) -> LinkDecision {
        if a == b {
            return LinkDecision::Loopback;
        }
        let shared = self.shared(world, a, b);
        if shared.is_empty() {
            // No shared network: the parallel middleware crosses the grid
            // through gateway relays (maximally cross-paradigm).
            return self.relayed(world, a, b).unwrap_or_else(|| {
                panic!("no network between {a} and {b}, and no route to relay through")
            });
        }
        if !self.prefs.forbid_san {
            if let Some(san) = self.best_of(&shared, NetworkClass::San) {
                // Straight adapter: parallel middleware on parallel hardware.
                return LinkDecision::San(san);
            }
        }
        // Cross-paradigm: the parallel middleware must ride a distributed
        // network; reuse the distributed-side method selection (which may
        // itself pick WAN-specific methods).
        match self.select_vlink(world, a, b) {
            LinkDecision::San(n) => LinkDecision::Tcp(n),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology;
    use simnet::NetworkSpec;

    #[test]
    fn same_node_is_loopback() {
        let p = topology::san_pair(1);
        let kb = TopologyKb::default();
        assert_eq!(kb.select_vlink(&p.world, p.a, p.a), LinkDecision::Loopback);
        assert_eq!(
            kb.select_circuit(&p.world, p.b, p.b),
            LinkDecision::Loopback
        );
    }

    #[test]
    fn san_preferred_for_both_paradigms_when_available() {
        let p = topology::san_pair(1);
        let kb = TopologyKb::default();
        assert_eq!(
            kb.select_vlink(&p.world, p.a, p.b),
            LinkDecision::San(p.san)
        );
        assert_eq!(
            kb.select_circuit(&p.world, p.a, p.b),
            LinkDecision::San(p.san)
        );
        assert!(kb
            .select_circuit(&p.world, p.a, p.b)
            .is_straight_for_parallel());
    }

    #[test]
    fn forbidding_san_falls_back_to_lan() {
        let p = topology::san_pair(1);
        let kb = TopologyKb::new(SelectorPreferences {
            forbid_san: true,
            ..Default::default()
        });
        assert_eq!(
            kb.select_vlink(&p.world, p.a, p.b),
            LinkDecision::Tcp(p.lan)
        );
    }

    #[test]
    fn wan_gets_parallel_streams_and_internet_gets_adoc() {
        let wan = topology::wan_pair(1);
        let kb = TopologyKb::default();
        assert_eq!(
            kb.select_vlink(&wan.world, wan.a, wan.b),
            LinkDecision::ParallelStreams(wan.network, 4)
        );
        let inet = topology::lossy_internet_pair(1);
        assert_eq!(
            kb.select_vlink(&inet.world, inet.a, inet.b),
            LinkDecision::Adoc(inet.network)
        );
    }

    #[test]
    fn secure_preference_overrides_wan_methods() {
        let wan = topology::wan_pair(1);
        let kb = TopologyKb::new(SelectorPreferences {
            secure_inter_site: true,
            ..Default::default()
        });
        assert_eq!(
            kb.select_vlink(&wan.world, wan.a, wan.b),
            LinkDecision::Secure(wan.network)
        );
        // But never on an intra-site network.
        let lanp = topology::pair_over(1, NetworkSpec::ethernet_100());
        assert_eq!(
            kb.select_vlink(&lanp.world, lanp.a, lanp.b),
            LinkDecision::Tcp(lanp.network)
        );
    }

    #[test]
    fn circuit_on_wan_is_cross_paradigm() {
        let g = topology::two_clusters_over_wan(1, 2);
        let kb = TopologyKb::default();
        let a0 = g.cluster_a.node(0);
        let b0 = g.cluster_b.node(0);
        let d = kb.select_circuit(&g.world, a0, b0);
        assert!(!d.is_straight_for_parallel());
        assert_eq!(d, LinkDecision::ParallelStreams(g.wan, 4));
        // Within a cluster the straight SAN adapter is used.
        let a1 = g.cluster_a.node(1);
        assert!(kb
            .select_circuit(&g.world, a0, a1)
            .is_straight_for_parallel());
    }

    #[test]
    fn decision_network_accessor() {
        let p = topology::san_pair(1);
        let kb = TopologyKb::default();
        let d = kb.select_vlink(&p.world, p.a, p.b);
        assert_eq!(d.network(), Some(p.san));
        assert_eq!(LinkDecision::Loopback.network(), None);
    }

    #[test]
    fn no_shared_network_resolves_to_relayed_with_routes() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let routes = Rc::new(grid.routes.clone());
        let kb = TopologyKb::with_routes(SelectorPreferences::default(), routes);
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        assert!(world.networks_between(a1, b1).is_empty());
        let d = kb.select_vlink(&world, a1, b1);
        assert_eq!(
            d,
            LinkDecision::Relayed {
                via: grid.site(0).gateway,
                network: grid.site(0).san.unwrap(),
                hops: 3,
            }
        );
        assert!(d.is_relayed());
        assert!(!d.is_straight_for_parallel());
        assert_eq!(d.network(), grid.site(0).san);
        // The parallel paradigm relays the same way.
        assert_eq!(kb.select_circuit(&world, a1, b1), d);
        // Direct pairs are still resolved directly, never relayed.
        let a2 = grid.site(0).node(2);
        assert!(!kb.select_vlink(&world, a1, a2).is_relayed());
    }

    #[test]
    fn secure_relayed_pair_is_counted_and_still_resolves() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 2);
        let routes = Rc::new(grid.routes.clone());
        let kb = TopologyKb::with_routes(
            SelectorPreferences {
                secure_inter_site: true,
                ..Default::default()
            },
            routes,
        );
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        assert_eq!(kb.plaintext_relay_events(), 0);
        let d = kb.select_vlink(&world, a1, b1);
        assert!(d.is_relayed(), "the link still resolves, loudly: {d:?}");
        assert_eq!(kb.plaintext_relay_events(), 1);
        let _ = kb.select_circuit(&world, a1, b1);
        assert_eq!(kb.plaintext_relay_events(), 2);
        // Direct secure pairs do not count.
        let _ = kb.select_vlink(&world, grid.site(0).gateway, grid.site(1).gateway);
        assert_eq!(kb.plaintext_relay_events(), 2);
    }

    #[test]
    #[should_panic(expected = "refuse_plaintext_relay refuses the relayed link")]
    fn strict_secure_refuses_relayed_pairs() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 2);
        let routes = Rc::new(grid.routes.clone());
        let kb = TopologyKb::with_routes(
            SelectorPreferences {
                secure_inter_site: true,
                refuse_plaintext_relay: true,
                ..Default::default()
            },
            routes,
        );
        let _ = kb.select_vlink(&world, grid.site(0).node(1), grid.site(1).node(1));
    }

    #[test]
    fn route_cache_hits_after_first_resolution() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let kb =
            TopologyKb::with_routes(SelectorPreferences::default(), Rc::new(grid.routes.clone()));
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        let first = kb.resolve_route(&world, a1, b1).unwrap();
        let stats = kb.route_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 1));
        let second = kb.resolve_route(&world, a1, b1).unwrap();
        assert!(
            Rc::ptr_eq(&first, &second),
            "hit shares the materialization"
        );
        assert_eq!(kb.route_cache_stats().hits, 1);
        // The selector's relayed decisions ride the same cache.
        let _ = kb.select_vlink(&world, a1, b1);
        assert_eq!(kb.route_cache_stats().hits, 2);
        assert_eq!(first.info.hop_count, 3);
        assert_eq!(first.route.relays().count(), 2);
    }

    #[test]
    fn route_cache_evicts_least_recent_beyond_capacity() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 4);
        let kb = TopologyKb::with_routes(
            SelectorPreferences {
                route_cache_capacity: 2,
                ..Default::default()
            },
            Rc::new(grid.routes.clone()),
        );
        let targets: Vec<_> = (1..4).map(|i| grid.site(1).node(i)).collect();
        let src = grid.site(0).node(1);
        for &t in &targets {
            kb.resolve_route(&world, src, t).unwrap();
        }
        let stats = kb.route_cache_stats();
        assert_eq!(stats.len, 2, "bounded at the configured capacity");
        assert_eq!(stats.evictions, 1, "the least-recent entry left");
        // The evicted (least recently used) pair resolves again as a miss.
        kb.resolve_route(&world, src, targets[0]).unwrap();
        assert_eq!(kb.route_cache_stats().misses, 4);
    }

    #[test]
    fn route_cache_recency_keeps_hot_entries_over_one_shot_lookups() {
        // The FIFO policy this replaces evicted the *oldest inserted*
        // entry — a hot gateway destination resolved early died as soon
        // as a few one-shot lookups streamed past. LRU must keep it.
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 6);
        let kb = TopologyKb::with_routes(
            SelectorPreferences {
                route_cache_capacity: 3,
                ..Default::default()
            },
            Rc::new(grid.routes.clone()),
        );
        let src = grid.site(0).node(1);
        let hot = grid.site(1).node(1);
        let one_shots: Vec<_> = (2..6).map(|i| grid.site(1).node(i)).collect();
        kb.resolve_route(&world, src, hot).unwrap();
        for &cold in &one_shots {
            // Touch the hot pair between every one-shot lookup, like a
            // gateway resolving the same destination per relayed stream.
            assert!(kb.resolve_route(&world, src, hot).is_some());
            kb.resolve_route(&world, src, cold).unwrap();
        }
        let stats = kb.route_cache_stats();
        assert_eq!(stats.misses, 1 + one_shots.len() as u64);
        assert_eq!(stats.hits, one_shots.len() as u64);
        assert!(stats.evictions >= 2, "the one-shots evicted each other");
        // The hot entry is still resident: another touch is a hit, and
        // the hit shares the same materialization.
        let before = kb.route_cache_stats().hits;
        let again = kb.resolve_route(&world, src, hot).unwrap();
        assert_eq!(kb.route_cache_stats().hits, before + 1, "hot stays hot");
        assert_eq!(again.info.hop_count, 3);
        // Under FIFO the hot pair (inserted first) would have been the
        // first casualty; under LRU the evictions all hit cold pairs.
        assert_eq!(kb.route_cache_stats().len, 3);
    }

    #[test]
    fn marking_a_gateway_down_resolves_around_it_and_invalidates() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::star(
            &mut world,
            &[
                gridtopo::SiteSpec::san_cluster("a", 3).with_gateways(2),
                gridtopo::SiteSpec::san_cluster("b", 3).with_gateways(2),
            ],
            simnet::NetworkSpec::vthd_wan(),
        );
        let kb = TopologyKb::with_routes(
            SelectorPreferences {
                gateway_failover: true,
                ..Default::default()
            },
            Rc::new(grid.routes.clone()),
        );
        let src = grid.site(0).node(2);
        let dst = grid.site(1).node(2);
        let healthy = kb.resolve_route(&world, src, dst).unwrap();
        assert!(healthy.info.relays.contains(&grid.site(1).gateway));
        // A second entry that never touches the victim: an intra-site
        // pair, relayed through nothing.
        let local = kb.resolve_route(&world, src, grid.site(0).node(1)).unwrap();
        assert!(local.info.relays.is_empty());
        assert_eq!(kb.route_cache_stats().len, 2);
        // The far primary dies: invalidation is selective — only the
        // entry relaying through the corpse is dropped.
        kb.mark_gateway_down(grid.site(1).gateway);
        let stats = kb.route_cache_stats();
        assert_eq!(stats.len, 1, "the untouched local entry survives");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(kb.down_gateways(), vec![grid.site(1).gateway]);
        let hits = stats.hits;
        assert!(kb
            .resolve_route(&world, src, grid.site(0).node(1))
            .is_some());
        assert_eq!(
            kb.route_cache_stats().hits,
            hits + 1,
            "the surviving entry still serves hits"
        );
        let rerouted = kb.resolve_route(&world, src, dst).unwrap();
        assert!(
            rerouted.info.relays.contains(&grid.site(1).gateways[1]),
            "the surviving secondary carries the route: {:?}",
            rerouted.info.relays
        );
        assert!(!rerouted.info.relays.contains(&grid.site(1).gateway));
        // Selector decisions follow the rerouted resolution.
        let d = kb.select_vlink(&world, src, dst);
        assert!(d.is_relayed());
        // Recovery: marking it up sweeps only the detour entry (resolved
        // under avoidance); the local entry stays and the primary returns.
        kb.mark_gateway_up(grid.site(1).gateway);
        let stats = kb.route_cache_stats();
        assert_eq!(stats.len, 1, "the detour left, the local entry stayed");
        assert_eq!(stats.invalidations, 2);
        let back = kb.resolve_route(&world, src, dst).unwrap();
        assert!(back.info.relays.contains(&grid.site(1).gateway));
    }

    #[test]
    fn shared_cache_pools_entries_and_sweeps_reach_every_sharer() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::star(
            &mut world,
            &[
                gridtopo::SiteSpec::san_cluster("a", 3).with_gateways(2),
                gridtopo::SiteSpec::san_cluster("b", 3).with_gateways(2),
            ],
            simnet::NetworkSpec::vthd_wan(),
        );
        let prefs = SelectorPreferences {
            gateway_failover: true,
            ..Default::default()
        };
        let routes = Rc::new(grid.routes.clone());
        let kb_a = TopologyKb::with_routes(prefs.clone(), routes.clone());
        let mut kb_b = TopologyKb::with_routes(prefs, routes);
        kb_b.share_cache_with(&kb_a);
        // Each knowledge base resolves from its own source node; entries
        // are source-keyed, so they pool without ever cross-serving.
        let a_src = grid.site(0).gateway;
        let b_src = grid.site(0).gateways[1];
        let dst = grid.site(1).node(2);
        kb_a.resolve_route(&world, a_src, dst).unwrap();
        kb_b.resolve_route(&world, b_src, dst).unwrap();
        assert_eq!(kb_a.route_cache_stats().len, 2, "one pooled cache");
        assert_eq!(kb_a.route_cache_stats().misses, 2);
        // Both routes relay through the far primary; one sharer learning
        // of its death sweeps the affected entries of every sharer.
        kb_a.mark_gateway_down(grid.site(1).gateway);
        assert_eq!(kb_a.route_cache_stats().len, 0);
        assert_eq!(kb_b.route_cache_stats().invalidations, 1);
    }

    #[test]
    fn stale_cache_is_invalidated_when_routes_are_recomputed() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let mut kb =
            TopologyKb::with_routes(SelectorPreferences::default(), Rc::new(grid.routes.clone()));
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        // Cached while the pair is gateway-relayed: 3 hops.
        assert_eq!(kb.resolve_route(&world, a1, b1).unwrap().info.hop_count, 3);
        assert!(kb.select_vlink(&world, a1, b1).is_relayed());
        // The topology changes: a new LAN joins the two nodes directly.
        let lan = world.add_network(simnet::NetworkSpec::ethernet_100());
        world.attach(a1, lan);
        world.attach(b1, lan);
        // (The shortcut breaks gateway isolation, so the recomputed table
        // is the flat oracle.) Installing it must invalidate the cache:
        // a stale 3-hop entry would keep relaying a now-direct pair.
        kb.set_routes(Rc::new(gridtopo::GridRoutes::Flat(
            gridtopo::RouteTable::compute(&world),
        )));
        let stats = kb.route_cache_stats();
        assert_eq!(stats.len, 0, "installation clears every entry");
        assert_eq!(stats.invalidations, 1);
        let fresh = kb.resolve_route(&world, a1, b1).unwrap();
        assert_eq!(fresh.info.hop_count, 1, "resolved against the new table");
        // And the link decision is now direct, not relayed.
        assert_eq!(kb.select_vlink(&world, a1, b1), LinkDecision::Tcp(lan));
    }

    #[test]
    fn clones_with_the_old_table_cannot_repopulate_a_new_tables_cache() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let mut kb =
            TopologyKb::with_routes(SelectorPreferences::default(), Rc::new(grid.routes.clone()));
        let old_kb = kb.clone();
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        assert_eq!(kb.resolve_route(&world, a1, b1).unwrap().info.hop_count, 3);
        // New direct LAN; the original installs a recomputed table.
        let lan = world.add_network(simnet::NetworkSpec::ethernet_100());
        world.attach(a1, lan);
        world.attach(b1, lan);
        kb.set_routes(Rc::new(gridtopo::GridRoutes::Flat(
            gridtopo::RouteTable::compute(&world),
        )));
        // The clone still resolves against the old table (its own cache)…
        assert_eq!(
            old_kb.resolve_route(&world, a1, b1).unwrap().info.hop_count,
            3
        );
        // …but must not leak that stale entry into the updated instance.
        assert_eq!(kb.resolve_route(&world, a1, b1).unwrap().info.hop_count, 1);
    }

    #[test]
    fn backpressure_preference_defaults_to_drop() {
        let prefs = SelectorPreferences::default();
        assert_eq!(prefs.relay_backpressure, BackpressureMode::Drop);
        assert!(!prefs.refuse_plaintext_relay);
    }

    #[test]
    #[should_panic(expected = "no route to relay through")]
    fn no_shared_network_without_routes_panics() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 2);
        let kb = TopologyKb::default();
        let _ = kb.select_vlink(&world, grid.site(0).node(1), grid.site(1).node(1));
    }

    #[test]
    #[should_panic(expected = "no route to relay through")]
    fn unreachable_node_panics_even_with_routes() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 2);
        let island = world.add_node("island");
        let routes = Rc::new(GridRoutes::from(gridtopo::RouteTable::compute(&world)));
        let kb = TopologyKb::with_routes(SelectorPreferences::default(), routes);
        let _ = kb.select_vlink(&world, grid.site(0).node(1), island);
    }
}
