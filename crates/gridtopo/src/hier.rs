//! Two-level hierarchical routing: per-site tables + a gateway backbone,
//! with multiple (ranked) gateways per site and failover-aware lookups.
//!
//! The flat [`RouteTable`](crate::route::RouteTable) runs Dijkstra from
//! every node over the whole clique-expanded world — O(N·E log N) build
//! time and O(N²) next-hop storage, which caps it around 10³ nodes. Real
//! grids are not flat: fast homogeneous networks live *inside* a site,
//! slow heterogeneous WANs *between* sites, and every cross-site path is
//! forced through the site gateways. [`HierRouteTable`] exploits exactly
//! that structure:
//!
//! 1. **intra-site tables** — all-pairs Dijkstra computed per site, over
//!    that site's local subgraph only (its nodes, its SAN/LAN fabrics);
//! 2. **a backbone table** — one node per gateway, edges from the
//!    WAN/backbone networks *plus* virtual intra-site edges between the
//!    gateways of one site (weighted by the site-local shortest path), its
//!    own small all-pairs Dijkstra;
//! 3. **a composed resolver** — `source → exit gateway → backbone gateway
//!    path → entry gateway → destination`, minimized over every (exit,
//!    entry) gateway pair of the two sites, materialized lazily per lookup.
//!
//! Build cost collapses from O(N·E log N) to O(Σ per-site work +
//! G·E_wan log G) and storage from O(N²) to O(Σ site² + G²). On a
//! gateway-isolated grid (only gateways touch inter-site networks — what
//! every [`crate::builder::GridTopology`] builder produces) the composed
//! routes are **cost-equal** to the flat oracle on every reachable pair:
//! any flat path decomposes into maximal within-site segments and backbone
//! hops; every within-site segment starts and ends at a gateway of that
//! site (the only nodes with backbone attachments) or at the endpoints, so
//! it cannot beat the site-local shortest path, and the gateway-waypoint
//! skeleton of the path lives entirely in the backbone graph (whose
//! virtual intra edges cover paths that cut *through* a site between two
//! of its gateways).
//!
//! With more than one gateway per site the ranking is deterministic:
//! registration order (the builders register the primary first). Lookups
//! can exclude a set of *down* gateways ([`HierRouteTable::route_avoiding`]),
//! which is what `padico_core`'s gateway failover uses to re-route
//! *streams* around a dead gateway through any surviving one.

use std::collections::{BTreeSet, HashMap};
use std::mem::size_of;

use simnet::{NetworkId, NodeId, SimWorld};

use crate::route::{dijkstra_subgraph, map_bytes, Hop, PathInfo, Route};

/// A world that violates the gateway-isolation invariant: `network` spans
/// several sites but `node` — one of its members — is not a gateway of its
/// site. Hierarchical decomposition would silently return wrong costs on
/// such a world, so [`HierRouteTable::try_compute`] refuses it and
/// [`crate::route::GridRoutes::compute_auto`] falls back to the flat
/// oracle instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationViolation {
    /// The inter-site network with a non-gateway member.
    pub network: NetworkId,
    /// The offending non-gateway member.
    pub node: NodeId,
}

impl std::fmt::Display for IsolationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network {} spans sites but node {} is not one of its site's gateways",
            self.network, self.node
        )
    }
}

impl std::error::Error for IsolationViolation {}

/// One event of the churn stream: a topology change that
/// [`HierRouteTable::apply_delta`] absorbs by *incremental* backbone
/// reconvergence — the per-site intra tables are carried over untouched
/// (except for a site the delta itself names), and only the small
/// gateway-level backbone Dijkstra is re-run.
///
/// Link and gateway up/down deltas are masks over retained state:
/// replaying flap deltas on *distinct* elements in any order reaches the
/// same fixpoint table, and a down/up round trip on one element restores
/// the table bit for bit (deltas on the same element keep their relative
/// order, like any event log). Site join/leave deltas mutate the layout
/// (join appends a site slot, leave tombstones one), so their order is
/// part of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackboneDelta {
    /// `network` went down: it contributes no edges until a matching
    /// [`BackboneDelta::LinkUp`]. Works on backbone links (the usual
    /// case) and on site-local fabrics (which triggers that one site's
    /// intra recompute).
    LinkDown(NetworkId),
    /// `network` came (back) up. A network the table has never seen is
    /// classified against the current layout and admitted — this is how a
    /// freshly-dialed trunk between existing sites joins the backbone.
    LinkUp(NetworkId),
    /// `node` stopped relaying: every backbone edge through it is masked
    /// until a matching [`BackboneDelta::GatewayUp`]. Intra-site
    /// connectivity is deliberately untouched — a gateway that lost its
    /// WAN role still forwards on the site fabric.
    GatewayDown(NodeId),
    /// `node` resumed its backbone role.
    GatewayUp(NodeId),
    /// A new site joined the grid live: `gateways` ranked primary-first,
    /// all of them members of `nodes`. Only the new site's intra table is
    /// computed; existing sites are recomputed only if the join changed
    /// their network classification (a fabric they share with the
    /// newcomer becoming a backbone link).
    SiteJoin {
        /// Ranked gateway list of the joining site (primary first).
        gateways: Vec<NodeId>,
        /// Every member node of the joining site (gateways included).
        nodes: Vec<NodeId>,
    },
    /// The site at this index left the grid: its intra entries are
    /// stripped, its gateways drop out of the backbone, and its slot is
    /// tombstoned so other site indices stay stable.
    SiteLeave(usize),
}

/// What one [`HierRouteTable::apply_delta`] call actually recomputed —
/// the receipt proving the reconvergence was incremental.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconvergeStats {
    /// Sites whose intra tables were (re)computed by this delta (0 for
    /// pure backbone flaps).
    pub sites_recomputed: usize,
    /// Intra-site table entries carried over untouched.
    pub intra_entries_retained: usize,
    /// Gateway sources the backbone Dijkstra re-ran from (the whole
    /// backbone graph is this small).
    pub bb_sources: usize,
}

/// Site membership metadata of a hierarchical grid: which site each node
/// belongs to and which nodes are each site's gateways (ranked, primary
/// first). Produced by the [`crate::builder::GridTopology`] builders;
/// hand-built layouts are supported through [`SiteLayout::add_site`] /
/// [`SiteLayout::add_site_ranked`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteLayout {
    /// Node → site index.
    site_of: HashMap<NodeId, usize>,
    /// Per site: the member nodes, in registration order.
    sites: Vec<Vec<NodeId>>,
    /// Per site: the gateway nodes in rank order (primary first) — the
    /// only members allowed on inter-site networks.
    gateways: Vec<Vec<NodeId>>,
}

impl SiteLayout {
    /// An empty layout.
    pub fn new() -> SiteLayout {
        SiteLayout::default()
    }

    /// Registers one single-gateway site from its gateway and member nodes
    /// (the gateway must be among the members). Returns the site index.
    pub fn add_site(&mut self, gateway: NodeId, nodes: impl IntoIterator<Item = NodeId>) -> usize {
        self.add_site_ranked(&[gateway], nodes)
    }

    /// Registers one site with its ranked gateway list (primary first; all
    /// gateways must be among the members). Returns the site index.
    pub fn add_site_ranked(
        &mut self,
        gateways: &[NodeId],
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> usize {
        let index = self.sites.len();
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        assert!(!gateways.is_empty(), "a site needs at least one gateway");
        for &gw in gateways {
            assert!(
                nodes.contains(&gw),
                "site gateway {gw} must be one of the site's nodes"
            );
        }
        for &n in &nodes {
            let prev = self.site_of.insert(n, index);
            assert!(prev.is_none(), "node {n} registered in two sites");
        }
        self.sites.push(nodes);
        self.gateways.push(gateways.to_vec());
        index
    }

    /// Removes site `site` from the layout and returns its former
    /// members. The slot is tombstoned (left empty) rather than spliced
    /// out, so every other site keeps its index — the stability churn
    /// deltas rely on.
    pub fn remove_site(&mut self, site: usize) -> Vec<NodeId> {
        let nodes = std::mem::take(&mut self.sites[site]);
        self.gateways[site].clear();
        for n in &nodes {
            self.site_of.remove(n);
        }
        nodes
    }

    /// Whether the site slot still has members (a tombstoned slot from
    /// [`SiteLayout::remove_site`] does not).
    pub fn site_is_live(&self, site: usize) -> bool {
        !self.sites[site].is_empty()
    }

    /// The site `node` belongs to, if registered.
    pub fn site_of(&self, node: NodeId) -> Option<usize> {
        self.site_of.get(&node).copied()
    }

    /// The primary gateway of site `site`.
    pub fn gateway(&self, site: usize) -> NodeId {
        self.gateways[site][0]
    }

    /// The gateways of site `site`, in rank order (primary first).
    pub fn site_gateways(&self, site: usize) -> &[NodeId] {
        &self.gateways[site]
    }

    /// Whether `node` is a gateway of its site.
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.site_of(node)
            .is_some_and(|s| self.gateways[s].contains(&node))
    }

    /// Every gateway of every site, in site order then rank order.
    pub fn gateways(&self) -> Vec<NodeId> {
        self.gateways.iter().flatten().copied().collect()
    }

    /// The member nodes of site `site`, in registration order.
    pub fn site_nodes(&self, site: usize) -> &[NodeId] {
        &self.sites[site]
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.site_of.len()
    }
}

/// One step of a backbone-graph route: either a real hop across an
/// inter-site network, or a virtual edge that cuts *through* a site
/// between two of its gateways (expanded through the intra-site table
/// when the route is materialized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbHop {
    /// Cross `0.network` to reach gateway `0.node`.
    Net(Hop),
    /// Traverse the site interior to the same-site gateway.
    Intra(NodeId),
}

/// The decomposition of one lookup, chosen by gateway-pair minimization.
enum Composed {
    /// Same-site (or same-node) pair served by the intra table alone;
    /// `None` when `src == dst`.
    Local(Option<(NodeId, NodeId)>),
    /// `src →intra→ exit →backbone→ entry →intra→ dst`; an absent leg
    /// means its endpoints coincide.
    Via {
        up: Option<(NodeId, NodeId)>,
        bb: (NodeId, NodeId),
        down: Option<(NodeId, NodeId)>,
    },
}

/// Two-level hierarchical routing tables: per-site next hops plus a
/// gateway-level backbone, composed lazily per lookup. See the module
/// docs for the cost model and the cost-equality argument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierRouteTable {
    layout: SiteLayout,
    /// Next hop / cost for ordered pairs *within* one site (pairs across
    /// sites never appear here, so one map serves every site).
    intra_next: HashMap<(NodeId, NodeId), Hop>,
    intra_cost: HashMap<(NodeId, NodeId), u64>,
    /// Next hop / cost for ordered *gateway* pairs over the backbone
    /// graph (inter-site networks plus virtual intra-site gateway edges).
    bb_next: HashMap<(NodeId, NodeId), BbHop>,
    bb_cost: HashMap<(NodeId, NodeId), u64>,
    /// Every gateway in site-then-rank order, and the retained backbone
    /// adjacency `(to index, cost, tie tag, hop)` — kept so failover
    /// lookups can run a fresh Dijkstra that *excludes* down gateways
    /// (the precomputed `bb_next` paths cannot avoid intermediates).
    gw_list: Vec<NodeId>,
    gw_index: HashMap<NodeId, usize>,
    bb_adj: Vec<Vec<(usize, u64, u32, BbHop)>>,
    /// Retained churn state: the per-site / backbone network
    /// classification from the last (re)build, and the currently-masked
    /// elements, kept so [`HierRouteTable::apply_delta`] can reconverge
    /// the backbone without reclassifying the world or recomputing any
    /// untouched site's intra table.
    site_nets: Vec<Vec<NetworkId>>,
    backbone_nets: Vec<NetworkId>,
    down_links: BTreeSet<NetworkId>,
    down_gateways: BTreeSet<NodeId>,
}

/// Classifies every network of `world` against `layout`: site-local nets
/// per site, spanning nets as backbone links (gateway isolation
/// enforced). Nets with fewer than two in-layout members contribute no
/// edges and are dropped. With `strict_islands`, any member outside the
/// layout disqualifies the whole network (the original
/// [`HierRouteTable::try_compute`] island rule); without it, unknown
/// members are individually ignored — the churn rule, where a departed
/// site's gateway may still be attached to a shared backbone. A net in
/// `sticky_backbone` that no longer spans sites (a ring segment left
/// dangling by a departed neighbour) stays a backbone link instead of
/// being demoted to a site fabric, so a clean leave never forces a
/// surviving site's intra recompute.
#[allow(clippy::type_complexity)]
fn classify(
    world: &SimWorld,
    layout: &SiteLayout,
    strict_islands: bool,
    sticky_backbone: &[NetworkId],
) -> Result<(Vec<Vec<NetworkId>>, Vec<NetworkId>), IsolationViolation> {
    let mut site_nets: Vec<Vec<NetworkId>> = vec![Vec::new(); layout.site_count()];
    let mut backbone_nets: Vec<NetworkId> = Vec::new();
    'nets: for net in world.network_ids() {
        let members = world.network(net).members();
        let mut seen_site: Option<usize> = None;
        let mut spans_sites = false;
        let mut known = 0usize;
        for &m in members {
            let Some(site) = layout.site_of(m) else {
                if strict_islands {
                    // A member outside the layout: the network is not part
                    // of the grid; skip it entirely.
                    continue 'nets;
                }
                continue;
            };
            known += 1;
            match seen_site {
                None => seen_site = Some(site),
                Some(s) if s != site => spans_sites = true,
                Some(_) => {}
            }
        }
        if known < 2 {
            continue; // no possible edge among in-layout members
        }
        if spans_sites || sticky_backbone.contains(&net) {
            for &m in members {
                if layout.site_of(m).is_some() && !layout.is_gateway(m) {
                    return Err(IsolationViolation {
                        network: net,
                        node: m,
                    });
                }
            }
            backbone_nets.push(net);
        } else if let Some(site) = seen_site {
            site_nets[site].push(net);
        }
    }
    Ok((site_nets, backbone_nets))
}

impl HierRouteTable {
    /// Computes the two-level tables for `world` under `layout`, refusing
    /// worlds that violate gateway isolation (see [`IsolationViolation`]).
    ///
    /// Networks are classified by membership: a network whose members all
    /// belong to one site is part of that site's local subgraph; a network
    /// spanning several sites is a backbone link and must touch only
    /// gateway nodes (the invariant every
    /// [`crate::builder::GridTopology`] builder maintains — the two-level
    /// decomposition would silently return wrong costs otherwise, so a
    /// violating world is returned as `Err` instead of a wrong table;
    /// [`crate::route::GridRoutes::compute_auto`] turns that `Err` into a
    /// flat-oracle fallback). Networks with members outside the layout are
    /// ignored: the hierarchical table covers the grid's own nodes only.
    ///
    /// Deterministic: same creation order in, bit-identical tables out.
    pub fn try_compute(
        world: &SimWorld,
        layout: &SiteLayout,
    ) -> Result<HierRouteTable, IsolationViolation> {
        let (site_nets, backbone_nets) = classify(world, layout, true, &[])?;
        let mut table = HierRouteTable {
            layout: layout.clone(),
            site_nets,
            backbone_nets,
            ..Default::default()
        };
        for site in 0..table.layout.site_count() {
            let nodes = layout.site_nodes(site);
            dijkstra_subgraph(
                world,
                nodes,
                &table.site_nets[site],
                nodes,
                &mut table.intra_next,
                &mut table.intra_cost,
            );
        }
        table.rebuild_backbone(world);
        Ok(table)
    }

    /// Absorbs one churn event by incremental reconvergence: the retained
    /// network classification and every untouched site's intra table are
    /// carried over, and only the gateway-level backbone Dijkstra is
    /// re-run (plus the intra table of a site the delta itself names — a
    /// joining site, or the owner of a flapped site-local fabric).
    ///
    /// Deterministic, and for link/gateway flaps *commutative*: the same
    /// multiset of flap deltas reaches the same fixpoint in any order,
    /// and a down/up round trip restores the table bit for bit. `Err`
    /// only when a delta admits a network that violates gateway
    /// isolation; the table is left unchanged in that case.
    pub fn apply_delta(
        &mut self,
        world: &SimWorld,
        delta: &BackboneDelta,
    ) -> Result<ReconvergeStats, IsolationViolation> {
        let before_intra = self.intra_next.len();
        let mut sites_recomputed = 0usize;
        let mut stripped = 0usize;
        match delta {
            BackboneDelta::LinkDown(net) => {
                self.down_links.insert(*net);
                if let Some(site) = self.site_of_net(*net) {
                    stripped += self.recompute_site_intra(world, site);
                    sites_recomputed += 1;
                }
            }
            BackboneDelta::LinkUp(net) => {
                if !self.down_links.remove(net) {
                    self.admit_link(world, *net)?;
                }
                if let Some(site) = self.site_of_net(*net) {
                    stripped += self.recompute_site_intra(world, site);
                    sites_recomputed += 1;
                }
            }
            BackboneDelta::GatewayDown(node) => {
                self.down_gateways.insert(*node);
            }
            BackboneDelta::GatewayUp(node) => {
                self.down_gateways.remove(node);
            }
            BackboneDelta::SiteJoin { gateways, nodes } => {
                self.layout.add_site_ranked(gateways, nodes.iter().copied());
                let (recomputed, s) = self.reclassify_and_recompute(world)?;
                sites_recomputed += recomputed;
                stripped += s;
            }
            BackboneDelta::SiteLeave(site) => {
                let removed = self.layout.remove_site(*site);
                let gone: BTreeSet<NodeId> = removed.into_iter().collect();
                let before = self.intra_next.len();
                // simlint: allow(D1, reason = "pure key predicate over a ~GB-scale table; the survivor set is visit-order independent and lookups never iterate; a BTreeMap here would slow the 10⁵-node hier build")
                self.intra_next
                    .retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
                // simlint: allow(D1, reason = "pure key predicate over a ~GB-scale table; the survivor set is visit-order independent and lookups never iterate; a BTreeMap here would slow the 10⁵-node hier build")
                self.intra_cost
                    .retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
                stripped += before - self.intra_next.len();
                self.down_gateways.retain(|g| !gone.contains(g));
                let (recomputed, s) = self.reclassify_and_recompute(world)?;
                sites_recomputed += recomputed;
                stripped += s;
            }
        }
        self.rebuild_backbone(world);
        Ok(ReconvergeStats {
            sites_recomputed,
            intra_entries_retained: before_intra.saturating_sub(stripped),
            bb_sources: self.gw_list.len(),
        })
    }

    /// Applies a batch of deltas, returning the summed receipts. The
    /// backbone is rebuilt per delta (each step is a consistent table —
    /// what the transient checker inspects), so prefer batching only
    /// where intermediate tables are not observed.
    pub fn apply_deltas(
        &mut self,
        world: &SimWorld,
        deltas: &[BackboneDelta],
    ) -> Result<ReconvergeStats, IsolationViolation> {
        let mut total = ReconvergeStats::default();
        for delta in deltas {
            let s = self.apply_delta(world, delta)?;
            total.sites_recomputed += s.sites_recomputed;
            total.intra_entries_retained = s.intra_entries_retained;
            total.bb_sources = s.bb_sources;
        }
        Ok(total)
    }

    /// Links currently masked by [`BackboneDelta::LinkDown`].
    pub fn down_links(&self) -> &BTreeSet<NetworkId> {
        &self.down_links
    }

    /// Gateways currently masked by [`BackboneDelta::GatewayDown`].
    pub fn down_gateways(&self) -> &BTreeSet<NodeId> {
        &self.down_gateways
    }

    /// The retained per-site network classification (the transient
    /// checker's oracle builds over exactly the nets the table knows).
    pub(crate) fn site_nets(&self) -> &[Vec<NetworkId>] {
        &self.site_nets
    }

    /// The retained backbone-network classification.
    pub(crate) fn backbone_nets(&self) -> &[NetworkId] {
        &self.backbone_nets
    }

    /// The site whose local subgraph `net` belongs to, per the retained
    /// classification.
    fn site_of_net(&self, net: NetworkId) -> Option<usize> {
        self.site_nets.iter().position(|nets| nets.contains(&net))
    }

    /// Classifies a network the table has never seen against the current
    /// layout and admits it (backbone link, or a site-local fabric — the
    /// latter triggers that site's intra recompute via the caller's
    /// [`HierRouteTable::site_of_net`] lookup).
    fn admit_link(&mut self, world: &SimWorld, net: NetworkId) -> Result<(), IsolationViolation> {
        if self.backbone_nets.contains(&net) || self.site_of_net(net).is_some() {
            return Ok(());
        }
        let members = world.network(net).members();
        let mut seen_site: Option<usize> = None;
        let mut spans_sites = false;
        let mut known = 0usize;
        for &m in members {
            let Some(site) = self.layout.site_of(m) else {
                continue;
            };
            known += 1;
            match seen_site {
                None => seen_site = Some(site),
                Some(s) if s != site => spans_sites = true,
                Some(_) => {}
            }
        }
        if known < 2 {
            return Ok(());
        }
        if spans_sites {
            for &m in members {
                if self.layout.site_of(m).is_some() && !self.layout.is_gateway(m) {
                    return Err(IsolationViolation {
                        network: net,
                        node: m,
                    });
                }
            }
            self.backbone_nets.push(net);
        } else if let Some(site) = seen_site {
            self.site_nets[site].push(net);
        }
        Ok(())
    }

    /// Re-runs the classification after a layout change and recomputes
    /// the intra table of exactly those sites whose site-local network
    /// list changed (for a clean join: the new site only). Returns
    /// `(sites recomputed, intra entries stripped)`.
    fn reclassify_and_recompute(
        &mut self,
        world: &SimWorld,
    ) -> Result<(usize, usize), IsolationViolation> {
        let (site_nets, backbone_nets) = classify(world, &self.layout, false, &self.backbone_nets)?;
        let mut recomputed = 0usize;
        let mut stripped = 0usize;
        let changed: Vec<usize> = (0..self.layout.site_count())
            .filter(|&s| {
                self.layout.site_is_live(s)
                    && self.site_nets.get(s).map(Vec::as_slice) != Some(site_nets[s].as_slice())
            })
            .collect();
        self.site_nets = site_nets;
        self.backbone_nets = backbone_nets;
        for site in changed {
            stripped += self.recompute_site_intra(world, site);
            recomputed += 1;
        }
        Ok((recomputed, stripped))
    }

    /// Strips and recomputes one site's intra table over its current
    /// site-local networks minus the down links. Returns the number of
    /// entries stripped.
    fn recompute_site_intra(&mut self, world: &SimWorld, site: usize) -> usize {
        let before = self.intra_next.len();
        let layout = &self.layout;
        // simlint: allow(D1, reason = "pure key predicate over a ~GB-scale table; the survivor set is visit-order independent and lookups never iterate; a BTreeMap here would slow the 10⁵-node hier build")
        self.intra_next
            .retain(|(a, _), _| layout.site_of(*a) != Some(site));
        // simlint: allow(D1, reason = "pure key predicate over a ~GB-scale table; the survivor set is visit-order independent and lookups never iterate; a BTreeMap here would slow the 10⁵-node hier build")
        self.intra_cost
            .retain(|(a, _), _| layout.site_of(*a) != Some(site));
        let stripped = before - self.intra_next.len();
        let nodes: Vec<NodeId> = self.layout.site_nodes(site).to_vec();
        let nets: Vec<NetworkId> = self.site_nets[site]
            .iter()
            .copied()
            .filter(|n| !self.down_links.contains(n))
            .collect();
        dijkstra_subgraph(
            world,
            &nodes,
            &nets,
            &nodes,
            &mut self.intra_next,
            &mut self.intra_cost,
        );
        stripped
    }

    /// All-pairs Dijkstra over the backbone graph: nodes are the
    /// gateways; edges are the clique expansion of every inter-site
    /// network plus one virtual edge per ordered same-site gateway pair,
    /// weighted by the site-local shortest path. Deterministic
    /// tie-breaking mirrors the flat table's (cost, hops, edge tag,
    /// expanding node); virtual edges tag as `u32::MAX` so they sort after
    /// every real network on ties.
    ///
    /// Masked elements contribute nothing: a down link spawns no edges, a
    /// down gateway neither sources nor receives any (so no backbone path
    /// transits it). This is the one piece churn re-runs per delta — its
    /// cost is O(G·E_bb log G), independent of the site interiors.
    fn rebuild_backbone(&mut self, world: &SimWorld) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        self.bb_next.clear();
        self.bb_cost.clear();

        let gws = self.layout.gateways();
        let n = gws.len();
        let index: HashMap<NodeId, usize> = gws.iter().enumerate().map(|(i, &g)| (g, i)).collect();

        // (to, cost, tag, hop) per gateway, in deterministic build order.
        let mut adj: Vec<Vec<(usize, u64, u32, BbHop)>> = vec![Vec::new(); n];
        for &net in &self.backbone_nets {
            if self.down_links.contains(&net) {
                continue;
            }
            let c = crate::route::link_cost(world, net);
            let members = world.network(net).members();
            for &u in members {
                let Some(&ui) = index.get(&u) else { continue };
                if self.down_gateways.contains(&u) {
                    continue;
                }
                for &v in members {
                    if u != v && !self.down_gateways.contains(&v) {
                        if let Some(&vi) = index.get(&v) {
                            adj[ui].push((
                                vi,
                                c,
                                net.0,
                                BbHop::Net(Hop {
                                    network: net,
                                    node: v,
                                }),
                            ));
                        }
                    }
                }
            }
        }
        for site in 0..self.layout.site_count() {
            let site_gws = self.layout.site_gateways(site);
            for &g1 in site_gws {
                if self.down_gateways.contains(&g1) {
                    continue;
                }
                for &g2 in site_gws {
                    if g1 != g2 && !self.down_gateways.contains(&g2) {
                        if let Some(&c) = self.intra_cost.get(&(g1, g2)) {
                            adj[index[&g1]].push((index[&g2], c, u32::MAX, BbHop::Intra(g2)));
                        }
                    }
                }
            }
        }

        self.gw_index = index;
        self.bb_adj = adj;
        self.gw_list = gws;
        let gws = &self.gw_list;
        let adj = &self.bb_adj;

        for (si, &src) in gws.iter().enumerate() {
            // (cost, hops, tag, expanding node) with the same ordering
            // discipline as the flat table's Entry.
            type Key = (u64, u32, u32, u32);
            let mut best: Vec<Option<Key>> = vec![None; n];
            let mut prev: Vec<Option<(usize, BbHop)>> = vec![None; n];
            let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
            let start: Key = (0, 0, 0, src.0);
            best[si] = Some(start);
            heap.push(Reverse((start, si)));
            while let Some(Reverse((key, ui))) = heap.pop() {
                if best[ui] != Some(key) {
                    continue;
                }
                for &(vi, c, tag, hop) in &adj[ui] {
                    let cand: Key = (key.0 + c, key.1 + 1, tag, gws[ui].0);
                    if best[vi].is_none() || cand < best[vi].unwrap() {
                        best[vi] = Some(cand);
                        prev[vi] = Some((ui, hop));
                        heap.push(Reverse((cand, vi)));
                    }
                }
            }
            for (di, key) in best.iter().enumerate() {
                let Some(key) = key else { continue };
                if di == si {
                    continue;
                }
                let dst = gws[di];
                self.bb_cost.insert((src, dst), key.0);
                let mut at = di;
                let mut first = None;
                while at != si {
                    let (p, hop) = prev[at].expect("non-src gateway has a predecessor");
                    first = Some(hop);
                    at = p;
                }
                self.bb_next.insert(
                    (src, dst),
                    first.expect("non-src gateway has a predecessor"),
                );
            }
        }
    }

    /// The site layout the table was computed under.
    pub fn layout(&self) -> &SiteLayout {
        &self.layout
    }

    /// Chooses the cheapest decomposition of the `src → dst` lookup,
    /// minimizing over every (exit, entry) gateway pair (ties break on
    /// the lower exit then entry node id — the deterministic
    /// primary/secondary ranking). Same-site pairs compare
    /// the direct intra path against out-and-back gateway compositions,
    /// so costs stay equal to the flat oracle even on worlds where the
    /// backbone shortcuts a site's interior. Returns the decomposition
    /// and its additive cost, or `None` when either node is outside the
    /// layout or no surviving composition exists.
    fn compose(&self, src: NodeId, dst: NodeId) -> Option<(Composed, u64)> {
        let ss = self.layout.site_of(src)?;
        let ds = self.layout.site_of(dst)?;
        let up_gws = self.layout.site_gateways(ss);
        let down_gws = self.layout.site_gateways(ds);

        let mut best: Option<(u64, Composed, (u32, u32))> = None;
        let mut offer = |cost: u64, composed: Composed, tie: (u32, u32)| match &best {
            Some((c, _, t)) if (*c, *t) <= (cost, tie) => {}
            _ => best = Some((cost, composed, tie)),
        };

        if ss == ds {
            if src == dst {
                return Some((Composed::Local(None), 0));
            }
            if let Some(&c) = self.intra_cost.get(&(src, dst)) {
                offer(c, Composed::Local(Some((src, dst))), (0, 0));
            }
        }
        for &gs in up_gws {
            let up_cost = if src == gs {
                Some(0)
            } else {
                self.intra_cost.get(&(src, gs)).copied()
            };
            let Some(up_cost) = up_cost else { continue };
            for &gd in down_gws {
                if gs == gd {
                    continue;
                }
                let Some(&bb) = self.bb_cost.get(&(gs, gd)) else {
                    continue;
                };
                let down_cost = if gd == dst {
                    Some(0)
                } else {
                    self.intra_cost.get(&(gd, dst)).copied()
                };
                let Some(down_cost) = down_cost else { continue };
                offer(
                    up_cost + bb + down_cost,
                    Composed::Via {
                        up: (src != gs).then_some((src, gs)),
                        bb: (gs, gd),
                        down: (gd != dst).then_some((gd, dst)),
                    },
                    (gs.0 + 1, gd.0 + 1),
                );
            }
        }
        best.map(|(c, composed, _)| (composed, c))
    }

    /// Whether any route (direct or relayed) exists from `src` to `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.compose(src, dst).is_some()
    }

    /// The additive path cost from `src` to `dst` (0 for `src == dst`),
    /// if a route exists. Cost-equal to the flat oracle on every
    /// reachable pair of a gateway-isolated grid.
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.compose(src, dst).map(|(_, c)| c)
    }

    /// The next hop from `src` towards `dst`, if a route exists.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<Hop> {
        self.next_hop_of(self.compose(src, dst)?.0)
    }

    fn next_hop_of(&self, composed: Composed) -> Option<Hop> {
        match composed {
            Composed::Local(leg) => {
                let pair = leg?;
                self.intra_next.get(&pair).copied()
            }
            Composed::Via { up, bb, .. } => {
                if let Some(pair) = up {
                    return self.intra_next.get(&pair).copied();
                }
                // No up leg: src is the exit gateway, so the first hop is
                // the backbone leg's (a virtual intra edge expands through
                // the site-local table).
                match self.bb_next.get(&bb).copied()? {
                    BbHop::Net(h) => Some(h),
                    BbHop::Intra(g2) => self.intra_next.get(&(bb.0, g2)).copied(),
                }
            }
        }
    }

    /// The full route from `src` to `dst`, materialized lazily from the
    /// composed legs.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        let (composed, _) = self.compose(src, dst)?;
        self.materialize(src, dst, composed)
    }

    /// Like [`HierRouteTable::route`], but excluding the `down` gateways:
    /// no down gateway may serve as exit or entry, nor appear anywhere
    /// along the materialized path — *including* as an intermediate of
    /// the backbone leg, which is re-solved by a fresh Dijkstra over the
    /// retained backbone adjacency with the down gateways removed (the
    /// precomputed tables cannot avoid intermediates). This is the
    /// failover lookup: with the primary gateway down, the composition
    /// shifts to the surviving gateways, on rings and multi-level
    /// backbones too.
    pub fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &BTreeSet<NodeId>,
    ) -> Option<Route> {
        self.resolve_avoiding(src, dst, down).map(|(r, _)| r)
    }

    /// The additive cost of [`HierRouteTable::route_avoiding`]'s route.
    pub fn cost_avoiding(&self, src: NodeId, dst: NodeId, down: &BTreeSet<NodeId>) -> Option<u64> {
        self.resolve_avoiding(src, dst, down).map(|(_, c)| c)
    }

    /// The cheapest route (and its cost) from `src` to `dst` that avoids
    /// every gateway in `down`, or `None` when none survives.
    fn resolve_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &BTreeSet<NodeId>,
    ) -> Option<(Route, u64)> {
        if down.is_empty() {
            let route = self.route(src, dst)?;
            let cost = self.cost(src, dst)?;
            return Some((route, cost));
        }
        let ss = self.layout.site_of(src)?;
        let ds = self.layout.site_of(dst)?;
        let verify = |route: Route| -> Option<Route> {
            let end = route.hops.len().saturating_sub(1);
            (!route.hops[..end].iter().any(|h| down.contains(&h.node))).then_some(route)
        };

        let mut best: Option<(u64, (u32, u32), Route)> = None;
        let mut offer = |cost: u64, tie: (u32, u32), route: Route| match &best {
            Some((c, t, _)) if (*c, *t) <= (cost, tie) => {}
            _ => best = Some((cost, tie, route)),
        };

        if ss == ds {
            if src == dst {
                return Some((
                    Route {
                        src,
                        dst,
                        hops: Vec::new(),
                    },
                    0,
                ));
            }
            if let Some(&c) = self.intra_cost.get(&(src, dst)) {
                let mut hops = Vec::new();
                if self.walk_intra((src, dst), &mut hops).is_some() {
                    if let Some(r) = verify(Route { src, dst, hops }) {
                        offer(c, (0, 0), r);
                    }
                }
            }
        }
        // One avoiding Dijkstra per live exit gateway of the source site
        // (the backbone graph is tiny — one node per gateway), composed
        // with the precomputed intra legs and verified hop by hop.
        for &gs in self.layout.site_gateways(ss) {
            if down.contains(&gs) {
                continue;
            }
            let up_cost = if src == gs {
                Some(0)
            } else {
                self.intra_cost.get(&(src, gs)).copied()
            };
            let Some(up_cost) = up_cost else { continue };
            let (dist, prev) = self.bb_paths_avoiding(gs, down);
            for &gd in self.layout.site_gateways(ds) {
                if gs == gd || down.contains(&gd) {
                    continue;
                }
                let Some(&gdi) = self.gw_index.get(&gd) else {
                    continue;
                };
                let Some(bb_cost) = dist[gdi] else { continue };
                let down_cost = if gd == dst {
                    Some(0)
                } else {
                    self.intra_cost.get(&(gd, dst)).copied()
                };
                let Some(down_cost) = down_cost else { continue };
                let mut hops = Vec::new();
                if src != gs && self.walk_intra((src, gs), &mut hops).is_none() {
                    continue;
                }
                if self.walk_bb_prev(gs, gd, &prev, &mut hops).is_none() {
                    continue;
                }
                if gd != dst && self.walk_intra((gd, dst), &mut hops).is_none() {
                    continue;
                }
                if let Some(r) = verify(Route { src, dst, hops }) {
                    offer(up_cost + bb_cost.0 + down_cost, (gs.0 + 1, gd.0 + 1), r);
                }
            }
        }
        best.map(|(c, _, r)| (r, c))
    }

    /// Single-source Dijkstra over the retained backbone adjacency from
    /// `gs`, skipping every edge into a `down` gateway. Same tie-breaking
    /// discipline as [`HierRouteTable::compute_backbone`]. Returns
    /// per-gateway-index `(cost key, predecessor)` for walk
    /// reconstruction.
    #[allow(clippy::type_complexity)]
    fn bb_paths_avoiding(
        &self,
        gs: NodeId,
        down: &BTreeSet<NodeId>,
    ) -> (
        Vec<Option<(u64, u32, u32, u32)>>,
        Vec<Option<(usize, BbHop)>>,
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        type Key = (u64, u32, u32, u32);
        let n = self.gw_list.len();
        let mut best: Vec<Option<Key>> = vec![None; n];
        let mut prev: Vec<Option<(usize, BbHop)>> = vec![None; n];
        let Some(&si) = self.gw_index.get(&gs) else {
            return (best, prev);
        };
        let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
        let start: Key = (0, 0, 0, gs.0);
        best[si] = Some(start);
        heap.push(Reverse((start, si)));
        while let Some(Reverse((key, ui))) = heap.pop() {
            if best[ui] != Some(key) {
                continue;
            }
            for &(vi, c, tag, hop) in &self.bb_adj[ui] {
                if down.contains(&self.gw_list[vi]) {
                    continue;
                }
                let cand: Key = (key.0 + c, key.1 + 1, tag, self.gw_list[ui].0);
                if best[vi].is_none() || cand < best[vi].unwrap() {
                    best[vi] = Some(cand);
                    prev[vi] = Some((ui, hop));
                    heap.push(Reverse((cand, vi)));
                }
            }
        }
        (best, prev)
    }

    /// Expands the backbone walk `gs → gd` from an avoiding Dijkstra's
    /// predecessor chain (virtual intra edges expand through the
    /// site-local tables).
    fn walk_bb_prev(
        &self,
        gs: NodeId,
        gd: NodeId,
        prev: &[Option<(usize, BbHop)>],
        hops: &mut Vec<Hop>,
    ) -> Option<()> {
        let mut chain = Vec::new();
        let mut at = *self.gw_index.get(&gd)?;
        let si = *self.gw_index.get(&gs)?;
        while at != si {
            let (p, hop) = prev[at]?;
            chain.push(hop);
            at = p;
            if chain.len() > prev.len() {
                return None; // corrupt chain; refuse rather than loop
            }
        }
        let mut from = gs;
        for hop in chain.into_iter().rev() {
            match hop {
                BbHop::Net(h) => {
                    hops.push(h);
                    from = h.node;
                }
                BbHop::Intra(g2) => {
                    self.walk_intra((from, g2), hops)?;
                    from = g2;
                }
            }
        }
        Some(())
    }

    fn materialize(&self, src: NodeId, dst: NodeId, composed: Composed) -> Option<Route> {
        let mut hops = Vec::new();
        match composed {
            Composed::Local(leg) => {
                if let Some(pair) = leg {
                    self.walk_intra(pair, &mut hops)?;
                }
            }
            Composed::Via { up, bb, down } => {
                if let Some(pair) = up {
                    self.walk_intra(pair, &mut hops)?;
                }
                self.walk_bb(bb, &mut hops)?;
                if let Some(pair) = down {
                    self.walk_intra(pair, &mut hops)?;
                }
            }
        }
        Some(Route { src, dst, hops })
    }

    /// Aggregate path characteristics for the route from `src` to `dst`.
    pub fn path_info(&self, world: &SimWorld, src: NodeId, dst: NodeId) -> Option<PathInfo> {
        let route = self.route(src, dst)?;
        let cost = self.cost(src, dst)?;
        Some(PathInfo::for_route(world, &route, cost))
    }

    /// Appends the hops of one intra-site leg by walking its next-hop map.
    fn walk_intra(&self, (from, to): (NodeId, NodeId), hops: &mut Vec<Hop>) -> Option<()> {
        let mut at = from;
        while at != to {
            let hop = self.intra_next.get(&(at, to)).copied()?;
            hops.push(hop);
            at = hop.node;
            assert!(
                hops.len() <= self.intra_next.len() + self.bb_next.len() + 1,
                "routing loop from {from} to {to}"
            );
        }
        Some(())
    }

    /// Appends the hops of one backbone leg, expanding virtual intra-site
    /// gateway edges through the intra tables.
    fn walk_bb(&self, (from, to): (NodeId, NodeId), hops: &mut Vec<Hop>) -> Option<()> {
        let mut at = from;
        while at != to {
            match self.bb_next.get(&(at, to)).copied()? {
                BbHop::Net(hop) => {
                    hops.push(hop);
                    at = hop.node;
                }
                BbHop::Intra(g2) => {
                    self.walk_intra((at, g2), hops)?;
                    at = g2;
                }
            }
            assert!(
                hops.len() <= self.intra_next.len() + self.bb_next.len() + 1,
                "routing loop from {from} to {to}"
            );
        }
        Some(())
    }

    /// Number of stored table entries (intra-site pairs + backbone pairs)
    /// — the O(Σ site² + G²) that replaces the flat table's O(N²).
    pub fn table_entries(&self) -> usize {
        self.intra_next.len() + self.bb_next.len()
    }

    /// Estimated resident bytes of the tables (same estimator as
    /// [`crate::route::RouteTable::table_bytes`]).
    pub fn table_bytes(&self) -> usize {
        let hop_entry = size_of::<(NodeId, NodeId)>() + size_of::<Hop>();
        let bb_entry = size_of::<(NodeId, NodeId)>() + size_of::<BbHop>();
        let cost_entry = size_of::<(NodeId, NodeId)>() + size_of::<u64>();
        map_bytes(self.intra_next.len(), hop_entry)
            + map_bytes(self.bb_next.len(), bb_entry)
            + map_bytes(self.intra_cost.len() + self.bb_cost.len(), cost_entry)
            + self.layout.node_count() * (size_of::<NodeId>() + size_of::<usize>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GridTopology, SiteSpec};
    use crate::route::RouteTable;
    use simnet::NetworkSpec;

    /// Flat oracle comparison over every ordered pair of the grid.
    fn assert_cost_equal(world: &SimWorld, grid: &GridTopology) {
        let flat = RouteTable::compute(world);
        let hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            other => panic!("builders must default to hierarchical routes, got {other:?}"),
        };
        let nodes = grid.all_nodes();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    flat.reachable(a, b),
                    hier.reachable(a, b),
                    "reachability of {a} -> {b}"
                );
                assert_eq!(flat.cost(a, b), hier.cost(a, b), "cost of {a} -> {b}");
                // The composed route, when it exists, must be a valid
                // walk whose per-hop costs sum to the claimed total.
                if let Some(route) = hier.route(a, b) {
                    let mut at = a;
                    let mut sum = 0;
                    for hop in &route.hops {
                        assert!(world.network(hop.network).members().contains(&at));
                        assert!(world.network(hop.network).members().contains(&hop.node));
                        sum += crate::route::link_cost(world, hop.network);
                        at = hop.node;
                    }
                    assert_eq!(at, b);
                    assert_eq!(Some(sum), hier.cost(a, b));
                }
            }
        }
    }

    #[test]
    fn star_grid_matches_flat_oracle() {
        let mut w = SimWorld::new(1);
        let grid = GridTopology::star(
            &mut w,
            &[
                SiteSpec::san_cluster("a", 4),
                SiteSpec::lan_cluster("b", 3),
                SiteSpec::san_cluster("c", 2),
            ],
            NetworkSpec::vthd_wan(),
        );
        assert_cost_equal(&w, &grid);
    }

    #[test]
    fn multi_gateway_star_matches_flat_oracle() {
        let mut w = SimWorld::new(11);
        let grid = GridTopology::star(
            &mut w,
            &[
                SiteSpec::san_cluster("a", 4).with_gateways(2),
                SiteSpec::lan_cluster("b", 5).with_gateways(3),
                SiteSpec::san_cluster("c", 2),
            ],
            NetworkSpec::vthd_wan(),
        );
        assert_cost_equal(&w, &grid);
    }

    #[test]
    fn multi_gateway_cluster_of_clusters_matches_flat_oracle() {
        let mut w = SimWorld::new(12);
        let regions = vec![
            vec![
                SiteSpec::san_cluster("eu-a", 3).with_gateways(2),
                SiteSpec::lan_cluster("eu-b", 2),
            ],
            vec![SiteSpec::san_cluster("us-a", 4).with_gateways(2)],
        ];
        let grid = GridTopology::cluster_of_clusters(
            &mut w,
            &regions,
            NetworkSpec::vthd_wan(),
            NetworkSpec::lossy_internet(),
        );
        assert_cost_equal(&w, &grid);
    }

    #[test]
    fn ring_grid_matches_flat_oracle() {
        let mut w = SimWorld::new(2);
        let specs: Vec<SiteSpec> = (0..5)
            .map(|i| SiteSpec::lan_cluster(format!("s{i}"), 1 + i % 3))
            .collect();
        let grid = GridTopology::ring(&mut w, &specs, NetworkSpec::vthd_wan());
        assert_cost_equal(&w, &grid);
    }

    #[test]
    fn cluster_of_clusters_matches_flat_oracle() {
        let mut w = SimWorld::new(3);
        let regions = vec![
            vec![
                SiteSpec::san_cluster("eu-a", 3),
                SiteSpec::lan_cluster("eu-b", 2),
            ],
            vec![
                SiteSpec::san_cluster("us-a", 2),
                SiteSpec::san_cluster("us-b", 3),
            ],
        ];
        let grid = GridTopology::cluster_of_clusters(
            &mut w,
            &regions,
            NetworkSpec::vthd_wan(),
            NetworkSpec::lossy_internet(),
        );
        assert_cost_equal(&w, &grid);
    }

    #[test]
    fn next_hop_chain_reaches_the_destination() {
        let mut w = SimWorld::new(4);
        let grid = GridTopology::two_sites(&mut w, 3);
        let hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            _ => unreachable!(),
        };
        let src = grid.site(0).node(1);
        let dst = grid.site(1).node(2);
        // Walking next_hop hop by hop (what a hop-by-hop forwarder does) must
        // converge on the destination along the composed route.
        let route = hier.route(src, dst).unwrap();
        let mut at = src;
        let mut walked = Vec::new();
        while at != dst {
            let hop = hier.next_hop(at, dst).expect("chain stays reachable");
            walked.push(hop);
            at = hop.node;
            assert!(walked.len() <= 16, "next-hop chain must terminate");
        }
        assert_eq!(walked, route.hops);
    }

    #[test]
    fn nodes_outside_the_layout_are_unreachable() {
        let mut w = SimWorld::new(5);
        let grid = GridTopology::two_sites(&mut w, 2);
        let island = w.add_node("island");
        let hier = HierRouteTable::try_compute(&w, &grid.layout).unwrap();
        assert!(!hier.reachable(grid.site(0).node(1), island));
        assert!(hier.cost(island, grid.site(0).gateway).is_none());
        assert!(hier.route(island, island).is_none());
    }

    #[test]
    fn non_gateway_on_a_backbone_network_is_refused_as_err() {
        let mut w = SimWorld::new(6);
        let grid = GridTopology::two_sites(&mut w, 3);
        // Attach a plain worker of site 0 straight to the backbone.
        let worker = grid.site(0).node(1);
        w.attach(worker, grid.backbones[0]);
        let err = HierRouteTable::try_compute(&w, &grid.layout).unwrap_err();
        assert_eq!(err.network, grid.backbones[0]);
        assert_eq!(err.node, worker);
        assert!(err.to_string().contains("not one of its site's gateways"));
    }

    #[test]
    fn avoiding_the_primary_routes_through_the_secondary() {
        let mut w = SimWorld::new(8);
        let grid = GridTopology::star(
            &mut w,
            &[
                SiteSpec::san_cluster("a", 3).with_gateways(2),
                SiteSpec::san_cluster("b", 3).with_gateways(2),
            ],
            NetworkSpec::vthd_wan(),
        );
        let hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            _ => unreachable!(),
        };
        let src = grid.site(0).node(2);
        let dst = grid.site(1).node(2);
        // Default composition uses the primaries (deterministic ranking).
        let route = hier.route(src, dst).unwrap();
        let relays: Vec<NodeId> = route.relays().collect();
        assert_eq!(
            relays,
            vec![grid.site(0).gateway, grid.site(1).gateway],
            "ties resolve to the primary gateways"
        );
        // With both primaries down, the secondaries carry the route at
        // the same cost (the star backbone reaches every gateway).
        let down: BTreeSet<NodeId> = [grid.site(0).gateway, grid.site(1).gateway]
            .into_iter()
            .collect();
        let alt = hier.route_avoiding(src, dst, &down).unwrap();
        let alt_relays: Vec<NodeId> = alt.relays().collect();
        assert_eq!(
            alt_relays,
            vec![grid.site(0).gateways[1], grid.site(1).gateways[1]],
            "failover shifts to the next-ranked gateways"
        );
        assert_eq!(
            hier.cost_avoiding(src, dst, &down),
            hier.cost(src, dst),
            "a symmetric secondary is cost-equal"
        );
        // Downing every gateway of one site severs the pair.
        let all_down: BTreeSet<NodeId> = grid.site(1).gateways.iter().copied().collect();
        assert!(hier.route_avoiding(src, dst, &all_down).is_none());
    }

    #[test]
    fn avoiding_a_down_intermediate_backbone_gateway_reroutes() {
        // Ring of four 2-gateway sites: the route from site 0 to site 2
        // transits an intermediate site's gateway. Downing that gateway
        // must re-solve the backbone leg through a surviving one (the
        // intermediate site's secondary, or the other way round the
        // ring) — the precomputed per-pair walks alone cannot do this.
        let mut w = SimWorld::new(13);
        let specs: Vec<SiteSpec> = (0..4)
            .map(|i| SiteSpec::lan_cluster(format!("s{i}"), 3).with_gateways(2))
            .collect();
        let grid = GridTopology::ring(&mut w, &specs, NetworkSpec::vthd_wan());
        let hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            _ => unreachable!(),
        };
        let src = grid.site(0).node(2);
        let dst = grid.site(2).node(2);
        let route = hier.route(src, dst).unwrap();
        let endpoint_gws: Vec<NodeId> = grid
            .site(0)
            .gateways
            .iter()
            .chain(&grid.site(2).gateways)
            .copied()
            .collect();
        let intermediate = route
            .relays()
            .find(|g| !endpoint_gws.contains(g))
            .expect("a 4-site ring route transits an intermediate gateway");
        let down: BTreeSet<NodeId> = [intermediate].into_iter().collect();
        let alt = hier
            .route_avoiding(src, dst, &down)
            .expect("redundancy must survive a down intermediate");
        assert!(
            alt.relays().all(|g| g != intermediate),
            "the re-solved route avoids the corpse"
        );
        assert!(
            hier.cost_avoiding(src, dst, &down).unwrap() >= hier.cost(src, dst).unwrap(),
            "a detour can never beat the unconstrained optimum"
        );
    }

    #[test]
    fn recomputation_is_deterministic() {
        let build = || {
            let mut w = SimWorld::new(7);
            let grid = GridTopology::two_sites(&mut w, 3);
            HierRouteTable::try_compute(&w, &grid.layout).unwrap()
        };
        assert_eq!(build(), build());
    }

    // ------------------------------------------------------------------ //
    // Incremental reconvergence (BackboneDelta)
    // ------------------------------------------------------------------ //

    /// A 4-site ring with two gateways per site: enough redundancy that
    /// any single link or gateway flap leaves every pair reachable.
    fn churn_ring(seed: u64) -> (SimWorld, GridTopology) {
        let mut w = SimWorld::new(seed);
        let specs: Vec<SiteSpec> = (0..4)
            .map(|i| SiteSpec::lan_cluster(format!("s{i}"), 3).with_gateways(2))
            .collect();
        let grid = GridTopology::ring(&mut w, &specs, NetworkSpec::vthd_wan());
        (w, grid)
    }

    #[test]
    fn link_flap_round_trip_restores_the_table_bit_for_bit() {
        let (w, grid) = churn_ring(20);
        let mut hier = HierRouteTable::try_compute(&w, &grid.layout).unwrap();
        let pristine = hier.clone();
        let link = grid.backbones[0];
        let stats = hier
            .apply_delta(&w, &BackboneDelta::LinkDown(link))
            .unwrap();
        assert_eq!(stats.sites_recomputed, 0, "a backbone flap touches no site");
        assert_eq!(
            stats.intra_entries_retained,
            pristine.intra_next.len(),
            "every intra entry is carried over"
        );
        assert_ne!(hier, pristine, "the mask must change the backbone");
        // The ring routes the long way round; nothing is blackholed.
        for &a in &grid.all_nodes() {
            for &b in &grid.all_nodes() {
                assert_eq!(
                    pristine.reachable(a, b),
                    hier.reachable(a, b),
                    "ring redundancy keeps {a} -> {b} reachable"
                );
            }
        }
        hier.apply_delta(&w, &BackboneDelta::LinkUp(link)).unwrap();
        assert_eq!(hier, pristine, "a down/up round trip is lossless");
    }

    #[test]
    fn gateway_down_delta_is_cost_equal_to_route_avoiding() {
        let (w, grid) = churn_ring(21);
        let mut hier = HierRouteTable::try_compute(&w, &grid.layout).unwrap();
        let pristine = hier.clone();
        let victim = grid.site(1).gateway;
        hier.apply_delta(&w, &BackboneDelta::GatewayDown(victim))
            .unwrap();
        let down: BTreeSet<NodeId> = [victim].into_iter().collect();
        for &a in &grid.all_nodes() {
            for &b in &grid.all_nodes() {
                if a == victim || b == victim {
                    continue;
                }
                assert_eq!(
                    hier.cost(a, b),
                    pristine.cost_avoiding(a, b, &down),
                    "table-level reconvergence must match the per-lookup \
                     failover for {a} -> {b}"
                );
            }
        }
        hier.apply_delta(&w, &BackboneDelta::GatewayUp(victim))
            .unwrap();
        assert_eq!(hier, pristine);
    }

    #[test]
    fn flap_deltas_commute_to_the_same_fixpoint() {
        let (w, grid) = churn_ring(22);
        let base = HierRouteTable::try_compute(&w, &grid.layout).unwrap();
        let deltas = [
            BackboneDelta::LinkDown(grid.backbones[0]),
            BackboneDelta::GatewayDown(grid.site(2).gateway),
            BackboneDelta::LinkDown(grid.backbones[2]),
            BackboneDelta::GatewayDown(grid.site(1).gateways[1]),
        ];
        let mut forward = base.clone();
        forward.apply_deltas(&w, &deltas).unwrap();
        let mut reversed = base.clone();
        for d in deltas.iter().rev() {
            reversed.apply_delta(&w, d).unwrap();
        }
        assert_eq!(
            forward, reversed,
            "flap deltas on distinct elements are masks: any ordering \
             reaches the same fixpoint"
        );
    }

    #[test]
    fn site_join_matches_a_full_recompute() {
        let mut w = SimWorld::new(23);
        let mut grid = GridTopology::star(
            &mut w,
            &[
                SiteSpec::san_cluster("a", 3).with_gateways(2),
                SiteSpec::lan_cluster("b", 2),
            ],
            NetworkSpec::vthd_wan(),
        );
        let mut hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            _ => unreachable!(),
        };
        // Build a third site into the running world and splice it onto
        // the existing star backbone.
        let spec = SiteSpec::lan_cluster("c", 3).with_gateways(2);
        let (site_index, stats) = grid.admit_site(&mut w, &spec, None).unwrap();
        assert_eq!(site_index, 2);
        let site = grid.site(site_index);
        let stats2 = hier
            .apply_delta(
                &w,
                &BackboneDelta::SiteJoin {
                    gateways: site.gateways.clone(),
                    nodes: site.nodes.clone(),
                },
            )
            .unwrap();
        assert_eq!(
            stats2.sites_recomputed, 1,
            "a clean join computes the new site's intra table only"
        );
        assert_eq!(stats.sites_recomputed, 1);
        // The incrementally-reconverged table is bit-identical to a fresh
        // full build under the same layout.
        let fresh = HierRouteTable::try_compute(&w, hier.layout()).unwrap();
        assert_eq!(hier, fresh, "delta join == full recompute");
        assert_eq!(
            grid.routes,
            crate::route::GridRoutes::Hier(fresh),
            "the grid's own delta path agrees"
        );
    }

    #[test]
    fn site_leave_strips_the_site_and_keeps_survivors_cost_equal() {
        let (w, grid) = churn_ring(24);
        let mut grid = grid;
        let mut hier = match &grid.routes {
            crate::route::GridRoutes::Hier(h) => h.clone(),
            _ => unreachable!(),
        };
        let pristine = hier.clone();
        let leaving = 3usize;
        let gone: Vec<NodeId> = grid.site(leaving).nodes.clone();
        hier.apply_delta(&w, &BackboneDelta::SiteLeave(leaving))
            .unwrap();
        let stats = grid.drain_site(&w, leaving).unwrap();
        assert_eq!(
            stats.sites_recomputed, 0,
            "a clean leave recomputes nothing"
        );
        for &g in &gone {
            assert!(!hier.reachable(g, g), "departed nodes drop out entirely");
            assert!(hier.layout().site_of(g).is_none());
        }
        // Survivors re-route around the hole (ring: the long way) and
        // never *through* the departed gateways.
        let departed: BTreeSet<NodeId> = gone.iter().copied().collect();
        for s in 0..3usize {
            for d in 0..3usize {
                let a = grid.site(s).node(1);
                let b = grid.site(d).node(2);
                assert_eq!(
                    hier.cost(a, b),
                    pristine.cost_avoiding(a, b, &departed),
                    "survivor pair {a} -> {b}"
                );
                if let Some(route) = hier.route(a, b) {
                    assert!(
                        route.relays().all(|r| !departed.contains(&r)),
                        "no route may transit the departed site"
                    );
                }
            }
        }
    }
}
