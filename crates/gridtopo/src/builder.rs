//! Builders for hierarchical grid topologies: federations of SAN+LAN
//! cluster *sites* joined by WAN/Internet backbones through dedicated
//! gateway nodes.
//!
//! Unlike the flat [`simnet::topology`] helpers (where every node attaches
//! straight to the WAN), only each site's *gateway* touches the backbone
//! here — exactly the multi-site virtual-organization shape of real grids.
//! Cross-site traffic therefore shares no network end-to-end and must be
//! relayed along the multi-hop routes [`crate::route`] computes.

use simnet::{NetworkId, NetworkSpec, NodeId, SimWorld};

use crate::hier::{BackboneDelta, IsolationViolation, ReconvergeStats, SiteLayout};
use crate::route::GridRoutes;

/// Description of one site to build.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site name, used as the node-name prefix.
    pub name: String,
    /// Number of nodes, including the gateways.
    pub nodes: usize,
    /// Number of gateway nodes (the first `gateways` nodes of the site,
    /// attached to the backbone in rank order — the first is the primary,
    /// the rest are redundant failover gateways).
    pub gateways: usize,
    /// SAN fabric for the site, if it has one.
    pub san: Option<NetworkSpec>,
    /// LAN fabric for the site.
    pub lan: NetworkSpec,
}

impl SiteSpec {
    /// A SAN-equipped PC cluster (Myrinet-2000 + Ethernet-100), the
    /// paper's standard site.
    pub fn san_cluster(name: impl Into<String>, nodes: usize) -> SiteSpec {
        SiteSpec {
            name: name.into(),
            nodes,
            gateways: 1,
            san: Some(NetworkSpec::myrinet_2000()),
            lan: NetworkSpec::ethernet_100(),
        }
    }

    /// A commodity site with only switched Ethernet.
    pub fn lan_cluster(name: impl Into<String>, nodes: usize) -> SiteSpec {
        SiteSpec {
            name: name.into(),
            nodes,
            gateways: 1,
            san: None,
            lan: NetworkSpec::ethernet_100(),
        }
    }

    /// Gives the site `gateways` redundant gateways instead of one (they
    /// are the site's first `gateways` nodes, primary first).
    pub fn with_gateways(mut self, gateways: usize) -> SiteSpec {
        assert!(gateways >= 1, "a site needs at least one gateway");
        self.gateways = gateways;
        self
    }
}

/// One built site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site name.
    pub name: String,
    /// The site's nodes, gateways first (in rank order).
    pub nodes: Vec<NodeId>,
    /// The site SAN, if any.
    pub san: Option<NetworkId>,
    /// The site LAN.
    pub lan: NetworkId,
    /// The primary gateway node (== `nodes[0]`).
    pub gateway: NodeId,
    /// Every gateway of the site in rank order (primary first) — the only
    /// nodes also attached to the backbone.
    pub gateways: Vec<NodeId>,
}

impl Site {
    /// Node of the given rank within the site.
    pub fn node(&self, rank: usize) -> NodeId {
        self.nodes[rank]
    }

    /// Number of nodes in the site.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the site has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A built hierarchical grid: sites, backbone networks and the routing
/// table over the whole attachment graph.
#[derive(Debug, Clone)]
pub struct GridTopology {
    /// The sites, in build order.
    pub sites: Vec<Site>,
    /// The backbone (inter-site) networks, in build order.
    pub backbones: Vec<NetworkId>,
    /// Site membership metadata (node → site, gateway per site), the input
    /// of the hierarchical route computation.
    pub layout: SiteLayout,
    /// Routes between every pair of nodes of the grid. Hierarchical by
    /// default (per-site tables + a gateway backbone, cost-equal to the
    /// flat all-pairs oracle); see [`GridRoutes`].
    pub routes: GridRoutes,
    /// Full route-table builds since this grid was built (the
    /// construction-time build excluded): [`GridTopology::recompute_routes`],
    /// [`GridTopology::use_flat_routes`] and every delta applied to a grid
    /// on flat routes. Churn on hierarchical routes keeps it at 0.
    pub full_recomputes: u64,
    /// Deltas this grid's hierarchical table absorbed incrementally
    /// ([`crate::hier::HierRouteTable::apply_delta`]).
    pub delta_reconvergences: u64,
}

impl GridTopology {
    /// Builds a star-of-sites: one shared backbone network to which every
    /// site's gateway attaches.
    pub fn star(world: &mut SimWorld, specs: &[SiteSpec], backbone: NetworkSpec) -> GridTopology {
        let sites: Vec<Site> = specs.iter().map(|s| build_site(world, s)).collect();
        let bb = world.add_network(backbone);
        for site in &sites {
            for &gw in &site.gateways {
                world.attach(gw, bb);
            }
        }
        finish(world, sites, vec![bb])
    }

    /// Builds a backbone ring: site `i`'s gateway is joined to site
    /// `i + 1 (mod n)`'s gateway by a dedicated point-to-point backbone
    /// network. Needs at least three sites for a genuine ring (two sites
    /// would create a redundant pair of links; use [`GridTopology::star`]).
    pub fn ring(world: &mut SimWorld, specs: &[SiteSpec], link: NetworkSpec) -> GridTopology {
        assert!(specs.len() >= 3, "a backbone ring needs at least 3 sites");
        let sites: Vec<Site> = specs.iter().map(|s| build_site(world, s)).collect();
        let mut backbones = Vec::with_capacity(sites.len());
        for i in 0..sites.len() {
            let j = (i + 1) % sites.len();
            let seg = world.add_network(link.clone());
            for &gw in &sites[i].gateways {
                world.attach(gw, seg);
            }
            for &gw in &sites[j].gateways {
                world.attach(gw, seg);
            }
            backbones.push(seg);
        }
        finish(world, sites, backbones)
    }

    /// Builds a cluster-of-clusters: sites are grouped into regions; the
    /// gateways of each region share a regional network, and the first
    /// gateway of each region (the regional head) additionally attaches to
    /// a global backbone. Traffic between regions crosses up to three
    /// backbone-level hops (site gateway → regional head → remote head →
    /// remote gateway).
    pub fn cluster_of_clusters(
        world: &mut SimWorld,
        regions: &[Vec<SiteSpec>],
        regional: NetworkSpec,
        backbone: NetworkSpec,
    ) -> GridTopology {
        assert!(!regions.is_empty(), "need at least one region");
        let mut sites = Vec::new();
        let mut backbones = Vec::new();
        let mut heads = Vec::new();
        for region in regions {
            assert!(!region.is_empty(), "regions must have at least one site");
            let first_site = sites.len();
            for spec in region {
                sites.push(build_site(world, spec));
            }
            let regional_net = world.add_network(regional.clone());
            for site in &sites[first_site..] {
                for &gw in &site.gateways {
                    world.attach(gw, regional_net);
                }
            }
            backbones.push(regional_net);
            // Every gateway of the head site joins the global backbone, so
            // a redundant head site keeps its redundancy region-to-region.
            heads.push(sites[first_site].gateways.clone());
        }
        if heads.len() > 1 {
            let global = world.add_network(backbone);
            for head in heads.into_iter().flatten() {
                world.attach(head, global);
            }
            backbones.push(global);
        }
        finish(world, sites, backbones)
    }

    /// Convenience: the canonical two-site grid of the paper's deployment
    /// discussion — two Myrinet clusters whose gateways meet on a VTHD-like
    /// WAN.
    pub fn two_sites(world: &mut SimWorld, nodes_per_site: usize) -> GridTopology {
        GridTopology::star(
            world,
            &[
                SiteSpec::san_cluster("a", nodes_per_site),
                SiteSpec::san_cluster("b", nodes_per_site),
            ],
            NetworkSpec::vthd_wan(),
        )
    }

    /// The site at `index`.
    pub fn site(&self, index: usize) -> &Site {
        &self.sites[index]
    }

    /// Every node of every site, in build order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.sites
            .iter()
            .flat_map(|s| s.nodes.iter().copied())
            .collect()
    }

    /// Every primary gateway, in site order.
    pub fn gateways(&self) -> Vec<NodeId> {
        self.sites.iter().map(|s| s.gateway).collect()
    }

    /// Every gateway of every site (primaries and secondaries), in site
    /// order then rank order.
    pub fn all_gateways(&self) -> Vec<NodeId> {
        self.sites
            .iter()
            .flat_map(|s| s.gateways.iter().copied())
            .collect()
    }

    /// Per-trunk conservative lookahead windows for the partitioned
    /// executor (shard `s` hosting site `s`): one directed edge per
    /// ordered pair of sites sharing a backbone network, whose window is
    /// the smallest latency of any backbone joining the two. Unlike a
    /// single global-minimum window, each trunk keeps its actual
    /// latency: a shard adjacent only to slow trunks may run far ahead of
    /// its neighbours even while some other pair of sites is joined by a
    /// fast segment. Site pairs with no shared backbone get no edge —
    /// relayed traffic between them crosses the intermediate sites'
    /// declared edges hop by hop, so no direct frame ever skips a window.
    pub fn trunk_lookaheads(&self, world: &SimWorld) -> simnet::TrunkLookahead {
        let site_of = self.site_of_nodes();
        let mut trunks = simnet::TrunkLookahead::new();
        for &bb in &self.backbones {
            let net = world.network(bb);
            let lat = net.spec.latency;
            if lat == simnet::SimDuration::ZERO {
                continue; // a zero-latency trunk affords no window
            }
            let mut sites: Vec<u16> = net
                .members()
                .iter()
                .filter_map(|&n| site_of.get(n.0 as usize).copied())
                .filter(|&s| s != u16::MAX)
                .collect();
            sites.sort_unstable();
            sites.dedup();
            for (k, &i) in sites.iter().enumerate() {
                for &j in &sites[k + 1..] {
                    trunks.set(i, j, lat);
                    trunks.set(j, i, lat);
                }
            }
        }
        trunks
    }

    /// Node → site map in dense node-id order (a node outside every site
    /// — impossible for builder-made grids — maps to `u16::MAX`): the
    /// shard ownership a partitioned run of the grid hands to
    /// [`simnet::SimWorld::set_mirror_owners`].
    pub fn site_of_nodes(&self) -> Vec<u16> {
        let max = self
            .sites
            .iter()
            .flat_map(|s| s.nodes.iter())
            .map(|n| n.0)
            .max();
        let mut map = vec![u16::MAX; max.map_or(0, |m| m as usize + 1)];
        for (i, site) in self.sites.iter().enumerate() {
            for &n in &site.nodes {
                map[n.0 as usize] = i as u16;
            }
        }
        map
    }

    /// Recomputes the routing table (after manual topology edits). A grid
    /// on hierarchical routes recomputes through
    /// [`GridRoutes::compute_auto`] — if the edit broke gateway isolation,
    /// this falls back to the flat oracle (with a warning, and
    /// [`GridRoutes::kind`] then reports `"flat"`) instead of panicking; a
    /// grid already on flat routes stays flat.
    pub fn recompute_routes(&mut self, world: &SimWorld) {
        self.routes = match &self.routes {
            GridRoutes::Hier(_) => GridRoutes::compute_auto(world, &self.layout),
            GridRoutes::Flat(_) => GridRoutes::Flat(crate::route::RouteTable::compute(world)),
        };
        self.full_recomputes += 1;
    }

    /// Swaps the installed routes for the flat all-pairs oracle (exact
    /// same costs on gateway-isolated grids; O(N²) storage — ablation and
    /// oracle checks only).
    pub fn use_flat_routes(&mut self, world: &SimWorld) {
        self.routes = GridRoutes::Flat(crate::route::RouteTable::compute(world));
        self.full_recomputes += 1;
    }

    /// Applies one churn delta to the grid's routes and layout. A grid on
    /// hierarchical routes reconverges incrementally
    /// ([`crate::hier::HierRouteTable::apply_delta`]); a grid on the flat
    /// oracle has no delta machinery, so it updates the layout for
    /// join/leave and recomputes the full table (link/gateway masks are
    /// modeled upstream by the selector's down set there).
    pub fn apply_delta(
        &mut self,
        world: &SimWorld,
        delta: &BackboneDelta,
    ) -> Result<ReconvergeStats, IsolationViolation> {
        match &mut self.routes {
            GridRoutes::Hier(hier) => {
                let stats = hier.apply_delta(world, delta)?;
                self.layout = hier.layout().clone();
                self.delta_reconvergences += 1;
                Ok(stats)
            }
            GridRoutes::Flat(_) => {
                match delta {
                    BackboneDelta::SiteJoin { gateways, nodes } => {
                        self.layout.add_site_ranked(gateways, nodes.iter().copied());
                    }
                    BackboneDelta::SiteLeave(site) => {
                        self.layout.remove_site(*site);
                    }
                    _ => {}
                }
                self.routes = GridRoutes::Flat(crate::route::RouteTable::compute(world));
                self.full_recomputes += 1;
                Ok(ReconvergeStats::default())
            }
        }
    }

    /// Builds `spec` into the *running* world and admits it as a new
    /// site: its gateways are spliced onto `backbones` (every existing
    /// backbone network when `None` — the star convention) and the
    /// routing table reconverges via a [`BackboneDelta::SiteJoin`].
    /// Returns the new site's index and the reconvergence receipt.
    pub fn admit_site(
        &mut self,
        world: &mut SimWorld,
        spec: &SiteSpec,
        backbones: Option<&[NetworkId]>,
    ) -> Result<(usize, ReconvergeStats), IsolationViolation> {
        let site = build_site(world, spec);
        let splice: Vec<NetworkId> = match backbones {
            Some(list) => list.to_vec(),
            None => self.backbones.clone(),
        };
        for &bb in &splice {
            for &gw in &site.gateways {
                world.attach(gw, bb);
            }
        }
        let delta = BackboneDelta::SiteJoin {
            gateways: site.gateways.clone(),
            nodes: site.nodes.clone(),
        };
        self.sites.push(site);
        let index = self.sites.len() - 1;
        let stats = self.apply_delta(world, &delta)?;
        Ok((index, stats))
    }

    /// Drains the site at `index` out of the grid: routes reconverge via
    /// a [`BackboneDelta::SiteLeave`] and the site record is tombstoned
    /// (its slot stays so other site indices remain stable). The caller
    /// owns the runtime-level quiesce (see `core`'s drain path); this is
    /// the topology/routing half.
    pub fn drain_site(
        &mut self,
        world: &SimWorld,
        index: usize,
    ) -> Result<ReconvergeStats, IsolationViolation> {
        let stats = self.apply_delta(world, &BackboneDelta::SiteLeave(index))?;
        self.sites[index].nodes.clear();
        self.sites[index].gateways.clear();
        Ok(stats)
    }
}

fn build_site(world: &mut SimWorld, spec: &SiteSpec) -> Site {
    assert!(
        spec.gateways >= 1 && spec.nodes >= spec.gateways,
        "a site needs at least its gateway nodes"
    );
    let san = spec.san.as_ref().map(|s| world.add_network(s.clone()));
    let lan = world.add_network(spec.lan.clone());
    let mut nodes = Vec::with_capacity(spec.nodes);
    for i in 0..spec.nodes {
        let name = if i == 0 {
            format!("{}-gw", spec.name)
        } else if i < spec.gateways {
            format!("{}-gw{}", spec.name, i + 1)
        } else {
            format!("{}{}", spec.name, i)
        };
        let node = world.add_node(&name);
        if let Some(san) = san {
            world.attach(node, san);
        }
        world.attach(node, lan);
        nodes.push(node);
    }
    Site {
        name: spec.name.clone(),
        gateway: nodes[0],
        gateways: nodes[..spec.gateways].to_vec(),
        nodes,
        san,
        lan,
    }
}

fn finish(world: &SimWorld, sites: Vec<Site>, backbones: Vec<NetworkId>) -> GridTopology {
    let mut layout = SiteLayout::new();
    for site in &sites {
        layout.add_site_ranked(&site.gateways, site.nodes.iter().copied());
    }
    let routes = GridRoutes::compute_auto(world, &layout);
    GridTopology {
        sites,
        backbones,
        layout,
        routes,
        full_recomputes: 0,
        delta_reconvergences: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NetworkClass;

    #[test]
    fn star_isolates_sites_behind_gateways() {
        let mut w = SimWorld::new(1);
        let g = GridTopology::two_sites(&mut w, 4);
        let a1 = g.site(0).node(1);
        let b1 = g.site(1).node(1);
        // Non-gateway nodes across sites share no network…
        assert!(w.networks_between(a1, b1).is_empty());
        // …but a route exists, through both gateways.
        let route = g.routes.route(a1, b1).unwrap();
        assert_eq!(
            route.relays().collect::<Vec<_>>(),
            vec![g.site(0).gateway, g.site(1).gateway]
        );
        assert_eq!(route.hop_count(), 3);
        // Intra-site pairs still reach each other directly over the SAN.
        let a2 = g.site(0).node(2);
        let intra = g.routes.route(a1, a2).unwrap();
        assert!(!intra.is_relayed());
        assert_eq!(
            w.network(intra.hops[0].network).spec.class,
            NetworkClass::San
        );
    }

    #[test]
    fn gateways_reach_backbone_directly() {
        let mut w = SimWorld::new(1);
        let g = GridTopology::two_sites(&mut w, 2);
        let gw_a = g.site(0).gateway;
        let gw_b = g.site(1).gateway;
        let r = g.routes.route(gw_a, gw_b).unwrap();
        assert_eq!(r.hop_count(), 1);
        assert_eq!(r.hops[0].network, g.backbones[0]);
    }

    #[test]
    fn ring_routes_take_the_short_way_round() {
        let mut w = SimWorld::new(1);
        let specs: Vec<SiteSpec> = (0..4)
            .map(|i| SiteSpec::lan_cluster(format!("s{i}"), 2))
            .collect();
        let g = GridTopology::ring(&mut w, &specs, NetworkSpec::vthd_wan());
        assert_eq!(g.backbones.len(), 4);
        // Adjacent sites: one backbone segment between the gateways.
        let r = g
            .routes
            .route(g.site(0).gateway, g.site(1).gateway)
            .unwrap();
        assert_eq!(r.hop_count(), 1);
        // Opposite sites: two segments, through one intermediate gateway.
        let r = g
            .routes
            .route(g.site(0).gateway, g.site(2).gateway)
            .unwrap();
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.relays().count(), 1);
    }

    #[test]
    fn cluster_of_clusters_spans_three_backbone_levels() {
        let mut w = SimWorld::new(1);
        let regions = vec![
            vec![
                SiteSpec::san_cluster("eu-a", 2),
                SiteSpec::san_cluster("eu-b", 2),
            ],
            vec![
                SiteSpec::san_cluster("us-a", 2),
                SiteSpec::san_cluster("us-b", 2),
            ],
        ];
        let g = GridTopology::cluster_of_clusters(
            &mut w,
            &regions,
            NetworkSpec::vthd_wan(),
            NetworkSpec::lossy_internet(),
        );
        // 2 regional networks + 1 global backbone.
        assert_eq!(g.backbones.len(), 3);
        // A worker in eu-b to a worker in us-b crosses: eu-b LAN, the EU
        // regional net, the global backbone, the US regional net, us-b LAN.
        let src = g.site(1).node(1);
        let dst = g.site(3).node(1);
        let info = g.routes.path_info(&w, src, dst).unwrap();
        assert_eq!(info.hop_count, 5);
        assert_eq!(info.worst_class, NetworkClass::Internet);
        assert_eq!(info.relays.len(), 4);
    }

    #[test]
    fn multi_gateway_site_exposes_ranked_gateways() {
        let mut w = SimWorld::new(1);
        let g = GridTopology::star(
            &mut w,
            &[
                SiteSpec::san_cluster("a", 4).with_gateways(2),
                SiteSpec::san_cluster("b", 3),
            ],
            NetworkSpec::vthd_wan(),
        );
        let site = g.site(0);
        assert_eq!(site.gateways.len(), 2);
        assert_eq!(site.gateway, site.gateways[0], "primary is rank 0");
        assert_eq!(site.gateways, site.nodes[..2].to_vec());
        // Both gateways touch the backbone; plain workers do not.
        for &gw in &site.gateways {
            assert!(w.network(g.backbones[0]).members().contains(&gw));
        }
        assert!(!w.network(g.backbones[0]).members().contains(&site.node(2)));
        assert_eq!(g.all_gateways().len(), 3);
        assert_eq!(g.gateways().len(), 2, "one primary per site");
        assert_eq!(g.layout.site_gateways(0), &site.gateways[..]);
        assert!(g.layout.is_gateway(site.gateways[1]));
        assert!(!g.layout.is_gateway(site.node(3)));
    }

    /// Regression: a site-bridging direct link (gateway isolation broken)
    /// must fall back to the flat oracle — with routes still correct —
    /// instead of panicking as older revisions did.
    #[test]
    fn broken_isolation_falls_back_to_flat_without_panicking() {
        let mut w = SimWorld::new(9);
        let mut g = GridTopology::two_sites(&mut w, 3);
        assert_eq!(g.routes.kind(), "hier");
        // A direct LAN between two plain workers bridges the sites.
        let a1 = g.site(0).node(1);
        let b1 = g.site(1).node(1);
        let shortcut = w.add_network(NetworkSpec::ethernet_100());
        w.attach(a1, shortcut);
        w.attach(b1, shortcut);
        g.recompute_routes(&w);
        assert_eq!(g.routes.kind(), "flat", "fallback to the oracle");
        // The flat table knows the shortcut.
        let r = g.routes.route(a1, b1).unwrap();
        assert_eq!(r.hop_count(), 1);
        assert_eq!(r.hops[0].network, shortcut);
    }

    #[test]
    fn trunk_lookaheads_follow_the_backbone_shape() {
        // Star: every site pair shares the one backbone.
        let mut w = SimWorld::new(1);
        let g = GridTopology::two_sites(&mut w, 3);
        let t = g.trunk_lookaheads(&w);
        let wan_latency = w.network(g.backbones[0]).spec.latency;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0, 1), Some(wan_latency));
        assert_eq!(t.get(1, 0), Some(wan_latency));

        // Ring: only adjacent sites share a segment.
        let mut w = SimWorld::new(2);
        let specs: Vec<SiteSpec> = (0..4)
            .map(|i| SiteSpec::lan_cluster(format!("s{i}"), 2))
            .collect();
        let g = GridTopology::ring(&mut w, &specs, NetworkSpec::vthd_wan());
        let t = g.trunk_lookaheads(&w);
        assert_eq!(t.len(), 8, "4 segments, both directions");
        assert!(t.get(0, 1).is_some() && t.get(3, 0).is_some());
        assert_eq!(t.get(0, 2), None, "opposite sites share no trunk");

        // The node → site map covers every node exactly once.
        let site_of = g.site_of_nodes();
        for (i, site) in g.sites.iter().enumerate() {
            for &n in &site.nodes {
                assert_eq!(site_of[n.0 as usize], i as u16);
            }
        }
    }

    /// Request and reply tags of the mirror traffic.
    const MIRROR_REQ: simnet::ProtoId = simnet::ProtoId(simnet::ProtoId::USER_BASE.0 + 71);
    const MIRROR_REP: simnet::ProtoId = simnet::ProtoId(simnet::ProtoId::USER_BASE.0 + 72);
    /// Requests each sender issues.
    const MIRROR_REQUESTS: u64 = 12;

    /// Builds the two-site mirror scenario into `world`: identically for
    /// the single run (`shard == None`) and for each shard of the
    /// partitioned run (`Some(s)`: the whole grid is built — same ids,
    /// same order — but handlers and traffic exist only on site `s`).
    /// Raw frames stay inside each site over its SAN, and cross the
    /// shared backbone between the two gateways; every request is
    /// answered on the network it arrived on.
    fn build_mirror(world: &mut SimWorld, shard: Option<u16>) -> GridTopology {
        use std::cell::Cell;
        use std::rc::Rc;

        let g = GridTopology::two_sites(world, 3);
        if shard.is_some() {
            world.set_mirror_owners(g.site_of_nodes());
        }
        for site in 0..2 {
            if shard.is_some_and(|s| s as usize != site) {
                continue;
            }
            let s = g.site(site);
            let san = s.san.expect("two_sites builds SAN clusters");
            // Requests, replies and the sum of their arrival times: the
            // sum puts every delivery's timing into the compared snapshot.
            let (requests, replies, arrived_ns) = (
                Rc::new(Cell::new(0u64)),
                Rc::new(Cell::new(0u64)),
                Rc::new(Cell::new(0u64)),
            );
            let label = site.to_string();
            let (rq, rp, at) = (requests.clone(), replies.clone(), arrived_ns.clone());
            world.metrics.register_collector(move |b| {
                b.counter("mirror.requests", &[("site", &label)], rq.get());
                b.counter("mirror.replies", &[("site", &label)], rp.get());
                b.counter("mirror.arrived_ns", &[("site", &label)], at.get());
            });
            for &node in &s.nodes {
                let (rq, at) = (requests.clone(), arrived_ns.clone());
                world.register_handler(node, MIRROR_REQ, move |w, net, f| {
                    rq.set(rq.get() + 1);
                    at.set(at.get() + w.now().as_nanos());
                    let reply = simnet::Frame::new(f.dst, f.src, MIRROR_REP, vec![0u8; 64]);
                    w.send_frame(net, reply)
                        .expect("reply on the arrival network");
                });
                let (rp, at) = (replies.clone(), arrived_ns.clone());
                world.register_handler(node, MIRROR_REP, move |w, _net, _f| {
                    rp.set(rp.get() + 1);
                    at.set(at.get() + w.now().as_nanos());
                });
            }
            let flows = [
                (san, s.node(1), s.node(2)),
                (g.backbones[0], s.gateway, g.site(1 - site).gateway),
            ];
            for (j, (net, src, dst)) in flows.into_iter().enumerate() {
                // Each flow keeps its own send times whichever world runs it.
                let lane = (2 * site + j) as u64;
                for k in 0..MIRROR_REQUESTS {
                    let at = simnet::SimTime::from_nanos(1_000 + k * 40_000 + lane * 3_100);
                    let bytes = 256 + 64 * k as usize;
                    world.schedule_at(at, move |w| {
                        let frame = simnet::Frame::new(src, dst, MIRROR_REQ, vec![0u8; bytes]);
                        w.send_frame(net, frame).expect("mirror request");
                    });
                }
            }
        }
        g
    }

    /// The partitioned executor over mirror worlds: every shard builds
    /// the same two-site grid, owns one site (`site_of_nodes`) and
    /// windows on the backbone's latency (`trunk_lookaheads`). Frames
    /// whose destination another shard owns cross at their true delivery
    /// time, so the merged snapshot is byte-identical to the single-queue
    /// run at any thread count.
    #[test]
    fn mirror_worlds_match_the_single_queue_run() {
        let seed = 0x317;
        let mut world = SimWorld::new(seed);
        let g = build_mirror(&mut world, None);
        world.run();
        let single = world.metrics_snapshot();
        let trunks = g.trunk_lookaheads(&world);
        let floor = trunks.iter().map(|(_, _, d)| d).min().expect("one trunk");

        // 4 flows (two SAN pairs, both gateway directions) × requests.
        let flows = 4 * MIRROR_REQUESTS;
        assert_eq!(single.counter_total("mirror.requests"), flows);
        assert_eq!(single.counter_total("mirror.replies"), flows);
        // The VTHD backbone's 8e-5 loss draws from each world's own RNG
        // stream; equivalence needs it to lose nothing in any of them.
        assert_eq!(single.counter_total("sim.net.frames_dropped"), 0);

        for threads in [1, 2] {
            let part = simnet::Partition {
                shards: 2,
                threads,
                lookahead: floor,
                trunks: Some(trunks.clone()),
                seed,
            };
            let report = simnet::run_partitioned(&part, |s, w| {
                build_mirror(w, Some(s));
            });
            let merged =
                simnet::MetricsSnapshot::merge(report.outcomes.iter().map(|o| &o.snapshot));
            assert_eq!(
                merged.to_json_excluding(&["sim.executor."]),
                single.to_json_excluding(&["sim.executor."]),
                "{threads} thread(s)"
            );
            assert_eq!(report.lookahead_violations(), 0);
            let cross_out: u64 = report.outcomes.iter().map(|o| o.stats.cross_out).sum();
            let cross_in: u64 = report.outcomes.iter().map(|o| o.stats.cross_in).sum();
            assert_eq!(
                cross_out,
                2 * 2 * MIRROR_REQUESTS,
                "backbone requests and replies"
            );
            assert_eq!(cross_out, cross_in);
            let violations = simnet::conservation_violations(&merged);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn same_build_sequence_yields_identical_routes() {
        let build = || {
            let mut w = SimWorld::new(99);
            let g = GridTopology::two_sites(&mut w, 3);
            g.routes
        };
        assert_eq!(build(), build());
    }
}
