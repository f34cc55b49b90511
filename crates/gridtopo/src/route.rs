//! Multi-hop route computation over the attachment graph of a
//! [`SimWorld`].
//!
//! The seed simulator could only connect nodes that share a network
//! fabric. Real grids are federations of clusters joined by WAN backbones,
//! where most node pairs share *no* network and traffic must be relayed by
//! gateway nodes that straddle several fabrics. This module computes, for
//! every ordered node pair, the cheapest multi-hop route by Dijkstra over
//! per-link costs, with fully deterministic tie-breaking so a given
//! topology always yields bit-identical routing tables.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use simnet::{NetworkClass, NetworkId, NodeId, SimDuration, SimWorld};

use crate::hier::SiteLayout;

/// Reference transfer size used to fold bandwidth into the link cost: the
/// cost of a link is its latency plus the serialization time of this many
/// bytes, plus a fixed per-hop relay penalty.
const REFERENCE_BYTES: u64 = 1024;

/// Fixed per-hop penalty (nanoseconds) so that, all else equal, routes
/// with fewer store-and-forward hops win.
const HOP_PENALTY_NS: u64 = 1_000;

/// One step of a route: cross `network` to reach `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The network fabric this step crosses.
    pub network: NetworkId,
    /// The node reached by this step (a gateway, or the final
    /// destination on the last hop).
    pub node: NodeId,
}

/// A complete route between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The hops, in order; the last hop's node is `dst`. Empty only when
    /// `src == dst`.
    pub hops: Vec<Hop>,
}

impl Route {
    /// Number of networks the route crosses.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route needs at least one store-and-forward relay.
    pub fn is_relayed(&self) -> bool {
        self.hops.len() > 1
    }

    /// The first hop, if any.
    pub fn first_hop(&self) -> Option<Hop> {
        self.hops.first().copied()
    }

    /// The intermediate relay (gateway) nodes, excluding the endpoints.
    ///
    /// Borrows from the route instead of allocating: routing hot paths
    /// (the selector) call this per decision, so it must
    /// not build a fresh `Vec` each time. Collect only when ownership is
    /// actually needed.
    pub fn relays(&self) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.hops.len().saturating_sub(1);
        self.hops[..end].iter().map(|h| h.node)
    }
}

/// Aggregate characteristics of a route, for route-aware adapter
/// selection.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInfo {
    /// Number of networks crossed.
    pub hop_count: usize,
    /// Gateway nodes that store-and-forward along the way.
    pub relays: Vec<NodeId>,
    /// The networks crossed, in order.
    pub networks: Vec<NetworkId>,
    /// Sum of one-way link latencies along the path.
    pub total_latency: SimDuration,
    /// The narrowest link bandwidth along the path, bytes/second.
    pub bottleneck_bytes_per_sec: f64,
    /// The smallest MTU along the path.
    pub min_mtu: usize,
    /// The "most distributed" network class crossed (SAN < LAN < WAN <
    /// Internet); selector policies for the whole path key off this.
    pub worst_class: NetworkClass,
    /// The additive route cost used by Dijkstra (nanosecond scale).
    pub cost: u64,
}

impl PathInfo {
    /// Aggregates the characteristics of `route` over `world`'s network
    /// specs; `cost` is the route's additive Dijkstra cost. Shared by
    /// every route-table implementation so a given route always yields the
    /// same `PathInfo` no matter which resolver produced it.
    pub fn for_route(world: &SimWorld, route: &Route, cost: u64) -> PathInfo {
        let mut total_latency = SimDuration::ZERO;
        let mut bottleneck = f64::INFINITY;
        let mut min_mtu = usize::MAX;
        let mut worst = NetworkClass::Loopback;
        let mut networks = Vec::with_capacity(route.hops.len());
        for hop in &route.hops {
            let spec = &world.network(hop.network).spec;
            total_latency += spec.latency;
            bottleneck = bottleneck.min(spec.bytes_per_sec);
            min_mtu = min_mtu.min(spec.mtu);
            worst = worst.max(spec.class);
            networks.push(hop.network);
        }
        PathInfo {
            hop_count: route.hop_count(),
            relays: route.relays().collect(),
            networks,
            total_latency,
            bottleneck_bytes_per_sec: bottleneck,
            min_mtu,
            worst_class: worst,
            cost,
        }
    }
}

/// Per-source shortest-path state used for deterministic tie-breaking:
/// lower cost wins, then fewer hops, then the smaller (network, node)
/// pair discovered the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    cost: u64,
    hops: u32,
    network: u32,
    node: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest entry pops
        // first.
        (other.cost, other.hops, other.network, other.node).cmp(&(
            self.cost,
            self.hops,
            self.network,
            self.node,
        ))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// All-pairs next-hop routing tables for a world, computed by Dijkstra
/// over per-link costs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteTable {
    /// `(src, dst) -> next hop` for every reachable ordered pair with
    /// `src != dst`.
    next: HashMap<(NodeId, NodeId), Hop>,
    /// Total path cost per ordered pair.
    cost: HashMap<(NodeId, NodeId), u64>,
}

/// Cost of crossing one network fabric, in nanoseconds.
pub fn link_cost(world: &SimWorld, network: NetworkId) -> u64 {
    let spec = &world.network(network).spec;
    let latency_ns = spec.latency.as_nanos();
    let ser_ns = spec.serialization(REFERENCE_BYTES).as_nanos();
    latency_ns + ser_ns + HOP_PENALTY_NS
}

/// All-pairs Dijkstra restricted to a subgraph: only `nodes` are routable,
/// only `networks` contribute edges (members outside `nodes` are ignored),
/// and only `sources` are expanded. Next hops and path costs land in the
/// two maps. This is the single Dijkstra core shared by the flat
/// [`RouteTable`] (whole world, every source) and the hierarchical
/// [`crate::hier::HierRouteTable`] (one call per site subgraph plus one for
/// the gateway backbone), with identical deterministic tie-breaking.
pub(crate) fn dijkstra_subgraph(
    world: &SimWorld,
    nodes: &[NodeId],
    networks: &[NetworkId],
    sources: &[NodeId],
    next: &mut HashMap<(NodeId, NodeId), Hop>,
    cost: &mut HashMap<(NodeId, NodeId), u64>,
) {
    let n = nodes.len();
    // Dense node index. NodeIds are allocated contiguously from 0 in
    // practice, but the map keeps this correct for any id scheme (and for
    // site subgraphs, whose node ids are not contiguous).
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    // Clique expansion of every network, built once and shared by all
    // sources: node index -> [(neighbour index, network, link cost)],
    // in (network, neighbour) creation order for determinism.
    let mut adj: Vec<Vec<(usize, NetworkId, u64)>> = vec![Vec::new(); n];
    for &net in networks {
        let c = link_cost(world, net);
        let members = world.network(net).members();
        for &u in members {
            let Some(&ui) = index.get(&u) else { continue };
            for &v in members {
                if u != v {
                    if let Some(&vi) = index.get(&v) {
                        adj[ui].push((vi, net, c));
                    }
                }
            }
        }
    }

    // Per-source scratch, reallocated once per source (flat vectors, no
    // hashing on the hot relaxation path).
    for &src in sources {
        let si = index[&src];
        let mut best: Vec<Option<Entry>> = vec![None; n];
        // Predecessor hop on the best path: index -> (prev index, hop).
        let mut prev: Vec<Option<(usize, Hop)>> = vec![None; n];
        let mut heap: BinaryHeap<(Entry, usize)> = BinaryHeap::new();
        let start = Entry {
            cost: 0,
            hops: 0,
            network: 0,
            node: src.0,
        };
        best[si] = Some(start);
        heap.push((start, si));

        while let Some((entry, ui)) = heap.pop() {
            if best[ui] != Some(entry) {
                continue; // stale heap entry
            }
            for &(vi, net, link) in &adj[ui] {
                let cand = Entry {
                    cost: entry.cost + link,
                    hops: entry.hops + 1,
                    network: net.0,
                    node: nodes[ui].0,
                };
                let better = match best[vi] {
                    None => true,
                    Some(cur) => {
                        (cand.cost, cand.hops, cand.network, cand.node)
                            < (cur.cost, cur.hops, cur.network, cur.node)
                    }
                };
                if better {
                    best[vi] = Some(cand);
                    prev[vi] = Some((
                        ui,
                        Hop {
                            network: net,
                            node: nodes[vi],
                        },
                    ));
                    heap.push((cand, vi));
                }
            }
        }

        for (di, entry) in best.iter().enumerate() {
            let Some(entry) = entry else { continue };
            if di == si {
                continue;
            }
            let dst = nodes[di];
            cost.insert((src, dst), entry.cost);
            // Walk predecessors back to the first hop out of `src`.
            let mut at = di;
            let mut first = None;
            while at != si {
                let (p, hop) = prev[at].expect("non-src node has a predecessor");
                first = Some(hop);
                at = p;
            }
            next.insert((src, dst), first.expect("non-src node has a predecessor"));
        }
    }
}

/// Estimated resident bytes of hash maps holding `entries` (key, value)
/// pairs: payload plus one control byte per slot, over the table's maximum
/// load factor. An estimate of the *payload* footprint, deliberately
/// ignoring allocator slack, so flat/hierarchical comparisons are
/// apples-to-apples.
pub(crate) fn map_bytes(entries: usize, key_val_bytes: usize) -> usize {
    ((entries as f64) * ((key_val_bytes + 1) as f64) / 0.875) as usize
}

impl RouteTable {
    /// Computes routes between every pair of nodes in `world`.
    ///
    /// Deterministic: the same topology (same creation order of nodes and
    /// networks) always produces the same table, regardless of seed.
    ///
    /// The clique-expanded adjacency list is built once, with dense node
    /// indices, and reused across every Dijkstra source; the per-source
    /// state lives in flat vectors instead of hash maps. On an `S`-site
    /// grid this turns the `O(sites × nodes × edges × hash)` seed
    /// computation into one adjacency pass plus index-addressed relaxation.
    pub fn compute(world: &SimWorld) -> RouteTable {
        let nodes = world.node_ids();
        let networks = world.network_ids();
        let mut table = RouteTable::default();
        dijkstra_subgraph(
            world,
            &nodes,
            &networks,
            &nodes,
            &mut table.next,
            &mut table.cost,
        );
        table
    }

    /// Computes routes from the given `sources` only (to every node of the
    /// world), with the exact same algorithm and tie-breaking as
    /// [`RouteTable::compute`]. Restricting the source set makes the flat
    /// table usable as a *sampled oracle* at node counts where the full
    /// all-pairs table would not fit in memory: the per-source work is
    /// identical, so build time extrapolates linearly and per-pair costs
    /// are exact for every sampled source.
    pub fn compute_from_sources(world: &SimWorld, sources: &[NodeId]) -> RouteTable {
        let nodes = world.node_ids();
        let networks = world.network_ids();
        let mut table = RouteTable::default();
        dijkstra_subgraph(
            world,
            &nodes,
            &networks,
            sources,
            &mut table.next,
            &mut table.cost,
        );
        table
    }

    /// The seed's per-source hash-map implementation, kept as the
    /// reference model: [`RouteTable::compute`] must match it bit for bit.
    #[cfg(test)]
    fn compute_reference(world: &SimWorld) -> RouteTable {
        let nodes = world.node_ids();
        let mut adj: HashMap<NodeId, Vec<(NodeId, NetworkId, u64)>> = HashMap::new();
        for net in world.network_ids() {
            let cost = link_cost(world, net);
            let members = world.network(net).members();
            for &u in members {
                for &v in members {
                    if u != v {
                        adj.entry(u).or_default().push((v, net, cost));
                    }
                }
            }
        }

        let mut table = RouteTable::default();
        for &src in &nodes {
            let mut best: HashMap<NodeId, Entry> = HashMap::new();
            let mut prev: HashMap<NodeId, (NodeId, Hop)> = HashMap::new();
            let mut heap: BinaryHeap<(Entry, NodeId)> = BinaryHeap::new();
            let start = Entry {
                cost: 0,
                hops: 0,
                network: 0,
                node: src.0,
            };
            best.insert(src, start);
            heap.push((start, src));

            while let Some((entry, u)) = heap.pop() {
                if best.get(&u) != Some(&entry) {
                    continue; // stale heap entry
                }
                let Some(edges) = adj.get(&u) else { continue };
                for &(v, net, link) in edges {
                    let cand = Entry {
                        cost: entry.cost + link,
                        hops: entry.hops + 1,
                        network: net.0,
                        node: u.0,
                    };
                    let better = match best.get(&v) {
                        None => true,
                        Some(cur) => {
                            (cand.cost, cand.hops, cand.network, cand.node)
                                < (cur.cost, cur.hops, cur.network, cur.node)
                        }
                    };
                    if better {
                        best.insert(v, cand);
                        prev.insert(
                            v,
                            (
                                u,
                                Hop {
                                    network: net,
                                    node: v,
                                },
                            ),
                        );
                        heap.push((cand, v));
                    }
                }
            }

            for (&dst, entry) in &best {
                if dst == src {
                    continue;
                }
                table.cost.insert((src, dst), entry.cost);
                let mut at = dst;
                let mut first = None;
                while at != src {
                    let (p, hop) = prev[&at];
                    first = Some(hop);
                    at = p;
                }
                table
                    .next
                    .insert((src, dst), first.expect("non-src node has a predecessor"));
            }
        }
        table
    }

    /// The next hop from `src` towards `dst`, if a route exists.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<Hop> {
        if src == dst {
            return None;
        }
        self.next.get(&(src, dst)).copied()
    }

    /// Whether any route (direct or relayed) exists from `src` to `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.next.contains_key(&(src, dst))
    }

    /// The full route from `src` to `dst`, if reachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        if src == dst {
            return Some(Route {
                src,
                dst,
                hops: Vec::new(),
            });
        }
        let mut hops = Vec::new();
        let mut at = src;
        while at != dst {
            let hop = self.next.get(&(at, dst)).copied()?;
            hops.push(hop);
            at = hop.node;
            assert!(
                hops.len() <= self.next.len() + 1,
                "routing loop from {src} to {dst}"
            );
        }
        Some(Route { src, dst, hops })
    }

    /// Aggregate path characteristics for the route from `src` to `dst`.
    pub fn path_info(&self, world: &SimWorld, src: NodeId, dst: NodeId) -> Option<PathInfo> {
        let route = self.route(src, dst)?;
        let cost = self.cost.get(&(src, dst)).copied().unwrap_or(0);
        Some(PathInfo::for_route(world, &route, cost))
    }

    /// The additive path cost from `src` to `dst` (0 for `src == dst`),
    /// if a route exists.
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        if src == dst {
            return Some(0);
        }
        self.cost.get(&(src, dst)).copied()
    }

    /// Number of ordered, distinct reachable pairs in the table.
    pub fn reachable_pairs(&self) -> usize {
        self.next.len()
    }

    /// Estimated resident bytes of the table (next-hop map + cost map).
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        map_bytes(
            self.next.len(),
            size_of::<(NodeId, NodeId)>() + size_of::<Hop>(),
        ) + map_bytes(
            self.cost.len(),
            size_of::<(NodeId, NodeId)>() + size_of::<u64>(),
        )
    }
}

/// The routing table installed on a grid: either the flat all-pairs
/// [`RouteTable`] (the seed behaviour, kept as the correctness oracle) or
/// the two-level [`HierRouteTable`](crate::hier::HierRouteTable). The two
/// are *cost-equal* on every reachable pair of a gateway-isolated grid —
/// paths may differ where ties allow, but never their additive cost — so
/// callers can treat the enum as one resolver.
///
/// The equivalence covers the grid's own nodes: a hierarchical table only
/// knows the nodes of its [`SiteLayout`] (a node
/// outside it is unreachable, even from itself), while a flat table
/// computed over the same world also answers for world nodes outside the
/// grid (and reports every node self-reachable at cost 0).
#[derive(Debug, Clone, PartialEq)]
// One GridRoutes exists per grid (shared behind an Rc by every runtime);
// boxing the larger variant would buy nothing and break every matcher.
#[allow(clippy::large_enum_variant)]
pub enum GridRoutes {
    /// Flat all-pairs Dijkstra over the clique-expanded world graph:
    /// O(N·E log N) build, O(N²) storage. Exact oracle, infeasible at
    /// production scale.
    Flat(RouteTable),
    /// Two-level hierarchy: per-site tables + a gateway backbone table,
    /// composed lazily per lookup. O(Σ site work + G·E_wan log G) build,
    /// O(Σ site² + G²) storage.
    Hier(crate::hier::HierRouteTable),
}

impl GridRoutes {
    /// Computes routes for `world` under `layout`: hierarchical two-level
    /// tables when the world is gateway-isolated, otherwise — instead of
    /// panicking, which older revisions did — the flat all-pairs oracle,
    /// with a warning; [`GridRoutes::kind`] then reports `"flat"`. Every
    /// builder and recomputation path goes through here, so a
    /// site-bridging direct link degrades routing performance, never
    /// correctness.
    pub fn compute_auto(world: &SimWorld, layout: &SiteLayout) -> GridRoutes {
        match crate::hier::HierRouteTable::try_compute(world, layout) {
            Ok(hier) => GridRoutes::Hier(hier),
            Err(violation) => {
                eprintln!(
                    "warning: world is not gateway-isolated ({violation}); falling back \
                     to the flat O(N²) route oracle (GridRoutes::kind() is \"flat\")"
                );
                GridRoutes::Flat(RouteTable::compute(world))
            }
        }
    }

    /// Short label for logs and bench output.
    pub fn kind(&self) -> &'static str {
        match self {
            GridRoutes::Flat(_) => "flat",
            GridRoutes::Hier(_) => "hier",
        }
    }

    /// Whether any route (direct or relayed) exists from `src` to `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        match self {
            GridRoutes::Flat(t) => t.reachable(src, dst),
            GridRoutes::Hier(t) => t.reachable(src, dst),
        }
    }

    /// The next hop from `src` towards `dst`, if a route exists.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<Hop> {
        match self {
            GridRoutes::Flat(t) => t.next_hop(src, dst),
            GridRoutes::Hier(t) => t.next_hop(src, dst),
        }
    }

    /// The full route from `src` to `dst`, if reachable.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        match self {
            GridRoutes::Flat(t) => t.route(src, dst),
            GridRoutes::Hier(t) => t.route(src, dst),
        }
    }

    /// The additive path cost from `src` to `dst`, if reachable.
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        match self {
            GridRoutes::Flat(t) => t.cost(src, dst),
            GridRoutes::Hier(t) => t.cost(src, dst),
        }
    }

    /// Aggregate path characteristics for the route from `src` to `dst`.
    pub fn path_info(&self, world: &SimWorld, src: NodeId, dst: NodeId) -> Option<PathInfo> {
        match self {
            GridRoutes::Flat(t) => t.path_info(world, src, dst),
            GridRoutes::Hier(t) => t.path_info(world, src, dst),
        }
    }

    /// The full route from `src` to `dst` that avoids every gateway in
    /// `down` — the failover lookup. A hierarchical table re-composes the
    /// route through any surviving gateway of each site; the flat oracle
    /// has no alternative paths precomputed, so it returns its normal
    /// route when clean and `None` when that route crosses a down node
    /// (honest failure instead of routing into a dead gateway).
    pub fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &BTreeSet<NodeId>,
    ) -> Option<Route> {
        match self {
            GridRoutes::Hier(t) => t.route_avoiding(src, dst, down),
            GridRoutes::Flat(t) => {
                let route = t.route(src, dst)?;
                let blocked = route.hops[..route.hops.len().saturating_sub(1)]
                    .iter()
                    .any(|h| down.contains(&h.node));
                (!blocked).then_some(route)
            }
        }
    }

    /// Estimated resident bytes of the installed tables.
    pub fn table_bytes(&self) -> usize {
        match self {
            GridRoutes::Flat(t) => t.table_bytes(),
            GridRoutes::Hier(t) => t.table_bytes(),
        }
    }
}

impl From<RouteTable> for GridRoutes {
    fn from(t: RouteTable) -> GridRoutes {
        GridRoutes::Flat(t)
    }
}

impl From<crate::hier::HierRouteTable> for GridRoutes {
    fn from(t: crate::hier::HierRouteTable) -> GridRoutes {
        GridRoutes::Hier(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NetworkSpec;

    /// a —eth— g —wan— h —eth— b : classic two-gateway chain.
    fn chain_world() -> (SimWorld, [NodeId; 4], [NetworkId; 3]) {
        let mut w = SimWorld::new(1);
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
        (w, [a, g, h, b], [lan1, wan, lan2])
    }

    #[test]
    fn direct_pair_routes_in_one_hop() {
        let (w, [a, g, ..], [lan1, ..]) = chain_world();
        let t = RouteTable::compute(&w);
        let r = t.route(a, g).unwrap();
        assert_eq!(
            r.hops,
            vec![Hop {
                network: lan1,
                node: g
            }]
        );
        assert!(!r.is_relayed());
    }

    #[test]
    fn disjoint_endpoints_route_through_both_gateways() {
        let (w, [a, g, h, b], [lan1, wan, lan2]) = chain_world();
        let t = RouteTable::compute(&w);
        let r = t.route(a, b).unwrap();
        assert_eq!(
            r.hops,
            vec![
                Hop {
                    network: lan1,
                    node: g
                },
                Hop {
                    network: wan,
                    node: h
                },
                Hop {
                    network: lan2,
                    node: b
                },
            ]
        );
        assert!(r.is_relayed());
        assert_eq!(r.relays().collect::<Vec<_>>(), vec![g, h]);
        let info = t.path_info(&w, a, b).unwrap();
        assert_eq!(info.hop_count, 3);
        assert_eq!(info.worst_class, NetworkClass::Wan);
        assert_eq!(info.min_mtu, 1500);
        assert_eq!(info.bottleneck_bytes_per_sec, 12.5e6);
    }

    #[test]
    fn flat_route_avoiding_keeps_a_clean_route_and_refuses_a_down_relay() {
        let (w, [a, g, h, b], _) = chain_world();
        let routes = GridRoutes::Flat(RouteTable::compute(&w));
        let route = routes.route(a, b).unwrap();
        assert_eq!(routes.route_avoiding(a, b, &BTreeSet::new()), Some(route));
        // The flat oracle has no detour to offer: a down relay severs the
        // pair instead of routing into the dead gateway.
        for relay in [g, h] {
            let down: BTreeSet<NodeId> = [relay].into_iter().collect();
            assert_eq!(routes.route_avoiding(a, b, &down), None, "{relay} down");
        }
    }

    #[test]
    fn self_route_is_empty() {
        let (w, [a, ..], _) = chain_world();
        let t = RouteTable::compute(&w);
        let r = t.route(a, a).unwrap();
        assert!(r.hops.is_empty());
        assert!(t.reachable(a, a));
    }

    #[test]
    fn unreachable_island_has_no_route() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let lan = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a, lan);
        // b attached nowhere.
        let t = RouteTable::compute(&w);
        assert!(t.route(a, b).is_none());
        assert!(!t.reachable(a, b));
    }

    #[test]
    fn faster_network_wins_between_parallel_links() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let san = w.add_network(NetworkSpec::myrinet_2000());
        let lan = w.add_network(NetworkSpec::ethernet_100());
        for n in [a, b] {
            w.attach(n, san);
            w.attach(n, lan);
        }
        let t = RouteTable::compute(&w);
        assert_eq!(t.route(a, b).unwrap().hops[0].network, san);
    }

    #[test]
    fn equal_cost_ties_break_on_lower_network_id() {
        let mut w = SimWorld::new(0);
        let a = w.add_node("a");
        let b = w.add_node("b");
        let n1 = w.add_network(NetworkSpec::ethernet_100());
        let n2 = w.add_network(NetworkSpec::ethernet_100());
        for n in [a, b] {
            w.attach(n, n1);
            w.attach(n, n2);
        }
        let t = RouteTable::compute(&w);
        assert_eq!(t.route(a, b).unwrap().hops[0].network, n1);
    }

    #[test]
    fn recomputation_is_deterministic() {
        let (w, _, _) = chain_world();
        let t1 = RouteTable::compute(&w);
        let t2 = RouteTable::compute(&w);
        assert_eq!(t1, t2);
        let (w2, _, _) = chain_world();
        assert_eq!(t1, RouteTable::compute(&w2));
    }

    /// The shared-adjacency implementation must produce tables bit-for-bit
    /// identical to the seed's per-source reference implementation.
    #[test]
    fn compute_matches_reference_bit_for_bit() {
        // The two-gateway chain.
        let (w, _, _) = chain_world();
        assert_eq!(RouteTable::compute(&w), RouteTable::compute_reference(&w));

        // A denser topology with parallel equal-cost links and an island.
        let mut w = SimWorld::new(9);
        let nodes: Vec<NodeId> = (0..8).map(|i| w.add_node(&format!("n{i}"))).collect();
        let san = w.add_network(NetworkSpec::myrinet_2000());
        let lan1 = w.add_network(NetworkSpec::ethernet_100());
        let lan2 = w.add_network(NetworkSpec::ethernet_100());
        let wan = w.add_network(NetworkSpec::vthd_wan());
        for &n in &nodes[0..3] {
            w.attach(n, san);
            w.attach(n, lan1);
        }
        for &n in &nodes[2..5] {
            w.attach(n, lan2);
        }
        w.attach(nodes[4], wan);
        w.attach(nodes[5], wan);
        w.attach(nodes[6], lan1);
        // nodes[7] stays an island.
        let fast = RouteTable::compute(&w);
        let reference = RouteTable::compute_reference(&w);
        assert_eq!(fast, reference);
        assert!(fast.reachable(nodes[0], nodes[5]));
        assert!(!fast.reachable(nodes[0], nodes[7]));
    }
}
