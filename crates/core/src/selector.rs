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
//! multi-hop route, looked up in the table on every decision.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use gridtopo::{GridRoutes, Route};
use simnet::{NetworkClass, NetworkId, NodeId, SimWorld};

/// How a relayed stream's gateway trunk resolves congestion: always with
/// per-stream credit windows (`relay::trunk_flow`). A sender parks once it
/// has used its credit and resumes when the receiving gateway consumes
/// bytes and returns credit, so a gateway's memory per stream stays
/// bounded by the window.
///
/// This type and [`SelectorPreferences::relay_backpressure`] choose
/// nothing: they exist only because the benchmark definition
/// (`benchmark/src/workloads/wan.rs`) names them, and go once it stops
/// doing so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackpressureMode {
    /// Per-stream credit windows, the only trunk behaviour.
    #[default]
    Credit,
}

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
    /// Always [`BackpressureMode::Credit`]; see [`BackpressureMode`] for
    /// why the field still exists.
    pub relay_backpressure: BackpressureMode,
    /// Aggregate byte budget shared by *all* multiplexed streams of one
    /// gateway trunk, layered on the per-stream credit windows: the sum of
    /// unconsumed bytes in flight across the trunk never exceeds it, so
    /// one gateway pair's total store-and-forward memory is bounded — not
    /// just each stream's. `0` disables the shared budget (per-stream
    /// windows only).
    pub gateway_trunk_budget: usize,
    /// Gateway failover: relayed streams ride liveness-monitored trunks
    /// (heartbeats + dead-carrier detection) on *every* leg, a dead trunk
    /// marks its gateway down in the knowledge base, routes re-resolve
    /// through any surviving gateway of the site, and in-flight relayed
    /// streams re-dial and resume automatically with zero acknowledged
    /// bytes lost. Off by default: the seed behaviour (manual
    /// `drop_trunks` recovery) is preserved exactly.
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
            relay_backpressure: BackpressureMode::Credit,
            gateway_trunk_budget: 0,
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

    /// Installs (or replaces) the multi-hop route table. Clones of this
    /// knowledge base keep resolving against the table they hold.
    pub fn set_routes(&mut self, routes: Rc<GridRoutes>) {
        self.routes = Some(routes);
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

    /// The route from `a` to `b` in the installed table, if any. With
    /// `gateway_failover` set it avoids every gateway marked down,
    /// re-composing through any surviving gateway of the site.
    pub fn route(&self, a: NodeId, b: NodeId) -> Option<Route> {
        let routes = self.routes.as_ref()?;
        let down = self.down_gateways.borrow();
        if self.prefs.gateway_failover && !down.is_empty() {
            routes.route_avoiding(a, b, &down)
        } else {
            routes.route(a, b)
        }
    }

    /// Marks `gateway` dead: with `gateway_failover` set, subsequent
    /// resolutions avoid it. Learned automatically from trunk liveness by
    /// the runtime; also available to tests and operators.
    pub fn mark_gateway_down(&self, gateway: NodeId) {
        self.down_gateways.borrow_mut().insert(gateway);
    }

    /// Marks a previously down gateway live again (restarted process), so
    /// routes go through it again.
    pub fn mark_gateway_up(&self, gateway: NodeId) {
        self.down_gateways.borrow_mut().remove(&gateway);
    }

    /// The gateways currently marked down.
    pub fn down_gateways(&self) -> Vec<NodeId> {
        self.down_gateways.borrow().iter().copied().collect()
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
        let route = self.route(a, b)?;
        let first = route.first_hop()?;
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
            hops: route.hop_count() as u32,
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
    fn marking_a_gateway_down_resolves_around_it_until_it_is_marked_up() {
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
        let relays = || kb.route(src, dst).unwrap().relays().collect::<Vec<_>>();
        assert!(relays().contains(&grid.site(1).gateway));
        // The far primary dies: the route avoids it.
        kb.mark_gateway_down(grid.site(1).gateway);
        assert_eq!(kb.down_gateways(), vec![grid.site(1).gateway]);
        let rerouted = relays();
        assert!(
            rerouted.contains(&grid.site(1).gateways[1]),
            "the surviving secondary carries the route: {rerouted:?}"
        );
        assert!(!rerouted.contains(&grid.site(1).gateway));
        // Selector decisions follow the rerouted resolution.
        assert!(kb.select_vlink(&world, src, dst).is_relayed());
        // Recovery: the primary carries the route again.
        kb.mark_gateway_up(grid.site(1).gateway);
        assert!(relays().contains(&grid.site(1).gateway));
    }

    #[test]
    fn recomputed_routes_are_used_on_the_next_lookup() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let mut kb =
            TopologyKb::with_routes(SelectorPreferences::default(), Rc::new(grid.routes.clone()));
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        // While the pair is gateway-relayed: 3 hops.
        assert_eq!(kb.route(a1, b1).unwrap().hop_count(), 3);
        assert!(kb.select_vlink(&world, a1, b1).is_relayed());
        // The topology changes: a new LAN joins the two nodes directly.
        let lan = world.add_network(simnet::NetworkSpec::ethernet_100());
        world.attach(a1, lan);
        world.attach(b1, lan);
        // (The shortcut breaks gateway isolation, so the recomputed table
        // is the flat oracle.)
        kb.set_routes(Rc::new(gridtopo::GridRoutes::Flat(
            gridtopo::RouteTable::compute(&world),
        )));
        assert_eq!(kb.route(a1, b1).unwrap().hop_count(), 1);
        // And the link decision is now direct, not relayed.
        assert_eq!(kb.select_vlink(&world, a1, b1), LinkDecision::Tcp(lan));
    }

    #[test]
    fn clones_keep_resolving_against_their_own_table() {
        let mut world = simnet::SimWorld::new(4);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 3);
        let mut kb =
            TopologyKb::with_routes(SelectorPreferences::default(), Rc::new(grid.routes.clone()));
        let old_kb = kb.clone();
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        // New direct LAN; the original installs a recomputed table.
        let lan = world.add_network(simnet::NetworkSpec::ethernet_100());
        world.attach(a1, lan);
        world.attach(b1, lan);
        kb.set_routes(Rc::new(gridtopo::GridRoutes::Flat(
            gridtopo::RouteTable::compute(&world),
        )));
        assert_eq!(old_kb.route(a1, b1).unwrap().hop_count(), 3);
        assert_eq!(kb.route(a1, b1).unwrap().hop_count(), 1);
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
