//! Live churn at the runtime layer: applying backbone deltas to a
//! running grid, admitting new sites, and draining departing ones.
//!
//! The routing half of churn lives in `gridtopo` ([`BackboneDelta`]
//! drives incremental reconvergence of the hierarchical table); this
//! module is the *runtime* half — the part that keeps a grid of live
//! [`PadicoRuntime`]s consistent through the transition:
//!
//! * [`apply_backbone_delta`] — one flap (link or gateway, down or up)
//!   reconverges the table, republishes it to every live runtime,
//!   reflects gateway state in each knowledge base, and emits typed
//!   [`TraceEvent`]s for the transition;
//! * [`admit_site_live`] — builds a new site into the running world,
//!   spins up its runtimes, installs its gateway proxies, splices its
//!   trunks onto the backbone, and publishes its routes everywhere;
//! * [`drain_site_live`] — quiesces in-flight streams, flushes
//!   consumed-credit batches (so conservation balances exactly), retires
//!   the trunks in both directions, withdraws the site's routes and
//!   tombstones its slot.
//!
//! Every transition is observable: enable `world.events` and the ring
//! carries `SiteAdmitted` / `SiteDraining` / `SiteDrained` /
//! `LinkDown` / `LinkUp` / `GatewayDown` / `GatewayRestored` plus one
//! `Reconverged` receipt per delta.

use std::collections::BTreeSet;
use std::rc::Rc;

use gridtopo::{BackboneDelta, GridTopology, IsolationViolation, ReconvergeStats, SiteSpec};
use simnet::{NodeId, SimWorld, TraceEvent};

use crate::relay::{self, GatewayProxy};
use crate::runtime::PadicoRuntime;
use crate::selector::SelectorPreferences;

/// Everything a live admit brought up, returned to the caller (who owns
/// the runtime lifetimes).
pub struct AdmittedSite {
    /// Index of the new site in `grid.sites` / the layout.
    pub index: usize,
    /// The new site's runtimes, in site-node order (gateways first).
    pub runtimes: Vec<PadicoRuntime>,
    /// One proxy handle per new gateway, in rank order.
    pub proxies: Vec<GatewayProxy>,
    /// The reconvergence receipt of the `SiteJoin` delta.
    pub stats: ReconvergeStats,
}

/// Receipt of a graceful site drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// The reconvergence receipt of the `SiteLeave` delta.
    pub stats: ReconvergeStats,
    /// Trunks retired across both directions (survivors towards the
    /// departing gateways, and everything the departing nodes held).
    pub trunks_retired: u32,
}

fn record(world: &mut SimWorld, event: TraceEvent) {
    if world.events.is_enabled() {
        let now = world.now();
        world.events.record(now, event);
    }
}

/// Republishes the grid's (re)converged route table to every runtime of
/// a live site. Runtimes of tombstoned sites are skipped — their routes
/// are withdrawn, not refreshed.
pub fn republish_routes(grid: &GridTopology, runtimes: &[PadicoRuntime]) {
    let routes = Rc::new(grid.routes.clone());
    let live: BTreeSet<NodeId> = grid.all_nodes().into_iter().collect();
    for rt in runtimes {
        if live.contains(&rt.node()) {
            rt.set_route_table(routes.clone());
        }
    }
}

/// Applies one churn delta to a running grid end to end: the routing
/// table reconverges (incrementally on hierarchical routes), the
/// reconverged table is republished to every live runtime, gateway
/// up/down deltas are reflected in each runtime's knowledge base (so
/// failover resolution and trunk liveness agree with the table-level
/// mask), and typed trace events bracket the transition.
///
/// Site join/leave deltas should go through [`admit_site_live`] /
/// [`drain_site_live`] instead, which also manage the runtime lifecycle.
pub fn apply_backbone_delta(
    world: &mut SimWorld,
    grid: &mut GridTopology,
    runtimes: &[PadicoRuntime],
    delta: &BackboneDelta,
) -> Result<ReconvergeStats, IsolationViolation> {
    match delta {
        BackboneDelta::LinkDown(net) => record(world, TraceEvent::LinkDown { net: *net }),
        BackboneDelta::LinkUp(net) => record(world, TraceEvent::LinkUp { net: *net }),
        BackboneDelta::GatewayDown(gw) => record(world, TraceEvent::GatewayDown { node: *gw }),
        BackboneDelta::GatewayUp(gw) => record(world, TraceEvent::GatewayRestored { node: *gw }),
        BackboneDelta::SiteJoin { .. } | BackboneDelta::SiteLeave(_) => {}
    }
    let stats = grid.apply_delta(world, delta)?;
    match delta {
        BackboneDelta::GatewayDown(gw) => {
            for rt in runtimes {
                rt.mark_gateway_down(*gw);
            }
        }
        BackboneDelta::GatewayUp(gw) => {
            for rt in runtimes {
                rt.mark_gateway_up(*gw);
            }
        }
        _ => {}
    }
    republish_routes(grid, runtimes);
    record(
        world,
        TraceEvent::Reconverged {
            sites_recomputed: stats.sites_recomputed as u32,
            backbone_gateways: stats.bb_sources as u32,
        },
    );
    Ok(stats)
}

/// Admits a new site into a *running* grid: builds `spec` into the
/// world, splices its gateways onto the existing backbones, reconverges
/// the routes via a `SiteJoin` delta, spins up one runtime per new node
/// (MadIO on the site SAN where present), installs a gateway proxy on
/// every new gateway, publishes the reconverged table to every live
/// runtime, and pre-warms the gateway trunks in both directions. The new
/// runtimes are appended to `runtimes`, preserving
/// [`GridTopology::all_nodes`] order.
pub fn admit_site_live(
    world: &mut SimWorld,
    grid: &mut GridTopology,
    runtimes: &mut Vec<PadicoRuntime>,
    spec: &SiteSpec,
    prefs: SelectorPreferences,
) -> Result<AdmittedSite, IsolationViolation> {
    let (index, stats) = grid.admit_site(world, spec, None)?;
    let site_nodes = grid.sites[index].nodes.clone();
    let site_gateways = grid.sites[index].gateways.clone();
    let site_san = grid.sites[index].san;
    record(
        world,
        TraceEvent::SiteAdmitted {
            site: index as u32,
            gateways: site_gateways.len() as u32,
            nodes: site_nodes.len() as u32,
        },
    );
    let mut new_rts = Vec::new();
    let mut new_proxies = Vec::new();
    for &node in &site_nodes {
        let san = site_san.map(|san| (san, site_nodes.clone()));
        let rt = PadicoRuntime::new(world, node, san, prefs.clone());
        if site_gateways.contains(&node) {
            new_proxies.push(relay::install_gateway_proxy(world, &rt));
        }
        new_rts.push(rt.clone());
        runtimes.push(rt);
    }
    // Publish the reconverged table everywhere — the new runtimes are in
    // `runtimes` already, so one pass covers old and new alike.
    republish_routes(grid, runtimes);
    record(
        world,
        TraceEvent::Reconverged {
            sites_recomputed: stats.sites_recomputed as u32,
            backbone_gateways: stats.bb_sources as u32,
        },
    );
    // Splice the trunks: every gateway (newcomers included) dials every
    // gateway proxy it does not already hold a live trunk towards —
    // `ensure_trunk` reuses live carriers, so existing pairs are no-ops.
    let all_gateways = grid.all_gateways();
    for rt in runtimes.iter() {
        if all_gateways.contains(&rt.node()) && !rt.is_dead() {
            relay::establish_gateway_trunks(world, rt, &all_gateways);
        }
    }
    Ok(AdmittedSite {
        index,
        runtimes: new_rts,
        proxies: new_proxies,
        stats,
    })
}

/// Gracefully drains site `index` out of a running grid: in-flight
/// streams quiesce (the world runs dry first), every trunk touching the
/// site flushes its consumed-credit batches while the carriers still
/// deliver — so in credit mode the conservation ledgers balance exactly
/// through the drain — then retires, the routes reconverge via a
/// `SiteLeave` delta and the survivors get the reconverged table. The
/// departing runtimes stay alive (their owner may still inspect them)
/// but hold no trunks and receive no routes.
pub fn drain_site_live(
    world: &mut SimWorld,
    grid: &mut GridTopology,
    runtimes: &[PadicoRuntime],
    index: usize,
) -> Result<DrainReport, IsolationViolation> {
    let departing: BTreeSet<NodeId> = grid.sites[index].nodes.iter().copied().collect();
    let departing_gateways = grid.sites[index].gateways.clone();
    record(world, TraceEvent::SiteDraining { site: index as u32 });
    // Quiesce: whatever is in flight towards or from the site is
    // delivered (or accounted) before any carrier goes away.
    world.run();
    let mut retired = 0usize;
    // Survivors retire their trunks towards the departing gateways;
    // departing nodes retire everything they hold. Both paths flush
    // consumed credits before the carrier closes.
    let every_gateway = grid.all_gateways();
    for rt in runtimes {
        if rt.is_dead() {
            continue;
        }
        if departing.contains(&rt.node()) {
            retired += rt.retire_trunks_to(world, &every_gateway);
        } else {
            retired += rt.retire_trunks_to(world, &departing_gateways);
        }
    }
    // Let the closes and flushed credit batches propagate.
    world.run();
    let stats = grid.drain_site(world, index)?;
    republish_routes(grid, runtimes);
    record(
        world,
        TraceEvent::Reconverged {
            sites_recomputed: stats.sites_recomputed as u32,
            backbone_gateways: stats.bb_sources as u32,
        },
    );
    record(
        world,
        TraceEvent::SiteDrained {
            site: index as u32,
            trunks_retired: retired as u32,
        },
    );
    Ok(DrainReport {
        stats,
        trunks_retired: retired as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::runtimes_for_grid;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    fn star_grid(world: &mut SimWorld, sites: usize) -> GridTopology {
        let specs: Vec<SiteSpec> = (0..sites)
            .map(|i| SiteSpec::san_cluster(format!("s{i}"), 3).with_gateways(2))
            .collect();
        GridTopology::star(world, &specs, simnet::NetworkSpec::vthd_wan())
    }

    /// Opens a relayed VLink `from -> to`, pushes one payload through and
    /// asserts it arrives intact.
    fn exchange(
        world: &mut SimWorld,
        runtimes: &BTreeMap<NodeId, PadicoRuntime>,
        from: NodeId,
        to: NodeId,
        service: u16,
    ) {
        let accepted: Rc<RefCell<Option<crate::vlink::VLink>>> = Rc::new(RefCell::new(None));
        let slot = accepted.clone();
        runtimes[&to].vlink_listen(world, service, move |_w, v| *slot.borrow_mut() = Some(v));
        let client = runtimes[&from].vlink_connect(world, to, service);
        world.run();
        let server = accepted.borrow().clone().expect("accept reached the peer");
        client.post_write(world, b"through the churned grid");
        let op = server.post_read(world, 24);
        world.run();
        assert_eq!(
            server.complete_read(op).unwrap(),
            b"through the churned grid"
        );
    }

    fn by_node(runtimes: &[PadicoRuntime]) -> BTreeMap<NodeId, PadicoRuntime> {
        runtimes.iter().map(|rt| (rt.node(), rt.clone())).collect()
    }

    #[test]
    fn admitting_a_site_live_routes_and_relays_to_it() {
        let mut world = SimWorld::new(11);
        world.events.enable();
        let mut grid = star_grid(&mut world, 2);
        let prefs = SelectorPreferences::default();
        let (mut runtimes, _proxies) = runtimes_for_grid(&mut world, &grid, prefs.clone());
        // Baseline cross-site traffic.
        exchange(
            &mut world,
            &by_node(&runtimes),
            grid.site(0).node(2),
            grid.site(1).node(2),
            100,
        );
        // A third site joins the running world.
        let admitted = admit_site_live(
            &mut world,
            &mut grid,
            &mut runtimes,
            &SiteSpec::san_cluster("late", 3).with_gateways(2),
            prefs,
        )
        .unwrap();
        assert_eq!(admitted.index, 2);
        assert_eq!(admitted.runtimes.len(), 3);
        assert_eq!(admitted.proxies.len(), 2);
        assert_eq!(
            admitted.stats.sites_recomputed, 1,
            "only the newcomer's intra table is computed"
        );
        // Old nodes reach the new site and vice versa, relayed end to end.
        let nodes = by_node(&runtimes);
        exchange(
            &mut world,
            &nodes,
            grid.site(0).node(2),
            grid.site(2).node(2),
            101,
        );
        exchange(
            &mut world,
            &nodes,
            grid.site(2).node(1),
            grid.site(1).node(2),
            102,
        );
        let events: Vec<TraceEvent> = world.events.events().map(|te| te.event).collect();
        assert!(events.contains(&TraceEvent::SiteAdmitted {
            site: 2,
            gateways: 2,
            nodes: 3,
        }));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Reconverged {
                sites_recomputed: 1,
                ..
            }
        )));
    }

    #[test]
    fn draining_a_site_retires_trunks_and_survivors_keep_talking() {
        let mut world = SimWorld::new(12);
        world.events.enable();
        let mut grid = star_grid(&mut world, 3);
        let (runtimes, _proxies) =
            runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        let nodes = by_node(&runtimes);
        // Traffic through the soon-to-leave site's gateways, so there are
        // live trunks to retire.
        exchange(
            &mut world,
            &nodes,
            grid.site(0).node(2),
            grid.site(2).node(2),
            100,
        );
        let departed: Vec<NodeId> = grid.site(2).nodes.clone();
        let report = drain_site_live(&mut world, &mut grid, &runtimes, 2).unwrap();
        assert!(
            report.trunks_retired > 0,
            "the pre-warmed trunks towards the departing gateways retire"
        );
        assert_eq!(
            report.stats.sites_recomputed, 0,
            "survivors' intra tables are untouched"
        );
        // The departed site is out of the tables...
        assert!(grid.sites[2].nodes.is_empty());
        for &gone in &departed {
            assert!(!grid.routes.reachable(grid.site(0).node(1), gone));
        }
        // ...and the survivors still relay to each other.
        exchange(
            &mut world,
            &nodes,
            grid.site(0).node(1),
            grid.site(1).node(2),
            101,
        );
        let events: Vec<TraceEvent> = world.events.events().map(|te| te.event).collect();
        assert!(events.contains(&TraceEvent::SiteDraining { site: 2 }));
        assert!(events.contains(&TraceEvent::SiteDrained {
            site: 2,
            trunks_retired: report.trunks_retired,
        }));
    }

    /// Fault injection: drain a site while far-future live events *and*
    /// cancelled timers are still pending. The quiesce must execute the
    /// live work (nothing is dropped), never fire a cancelled timer,
    /// leave no tombstone behind, and leave the survivors talking.
    #[test]
    fn drain_under_pending_load_quiesces_and_leaves_no_tombstones() {
        use simnet::{Frame, ProtoId};
        use std::cell::Cell;

        let mut world = SimWorld::new(14);
        world.events.enable();
        let mut grid = star_grid(&mut world, 3);
        let (runtimes, _proxies) =
            runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        let nodes = by_node(&runtimes);
        // Live trunks through the soon-to-leave site.
        exchange(
            &mut world,
            &nodes,
            grid.site(0).node(2),
            grid.site(2).node(2),
            100,
        );

        // Plant load from inside the departing site: a handler on one of
        // its nodes schedules far-future follow-ups, and half are
        // cancelled from outside, leaving tombstones behind.
        const LOAD: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 90);
        let victim = grid.site(2).node(2);
        let san = grid.sites[2].san.expect("san_cluster sites have a SAN");
        let ids: Rc<RefCell<Vec<simnet::EventId>>> = Rc::new(RefCell::new(Vec::new()));
        let fired = Rc::new(Cell::new(0u64));
        let (ids2, fired2) = (ids.clone(), fired.clone());
        world.register_handler(victim, LOAD, move |w, _net, _f| {
            let far = w.now() + simnet::SimDuration::from_secs(30);
            for _ in 0..8 {
                let fired = fired2.clone();
                ids2.borrow_mut()
                    .push(w.schedule_at(far, move |_| fired.set(fired.get() + 1)));
            }
        });
        world
            .send_frame(san, Frame::new(grid.site(2).node(1), victim, LOAD, vec![1]))
            .unwrap();
        // Deliver the frame and run the handler, but stop well before
        // the far-future follow-ups so they stay pending.
        let boundary = world.now() + simnet::SimDuration::from_secs(1);
        world.run_before(boundary);
        for &id in ids.borrow().iter().take(4) {
            assert!(world.cancel(id));
        }
        assert!(world.pending_events() >= 4, "live far-future load");
        assert!(world.cancelled_pending() >= 4, "cancel tombstones");

        let report = drain_site_live(&mut world, &mut grid, &runtimes, 2).unwrap();
        assert_eq!(
            fired.get(),
            4,
            "quiesce executed the live follow-ups; the cancelled ones never fired"
        );
        assert_eq!(world.pending_events(), 0);
        assert_eq!(world.cancelled_pending(), 0);
        assert!(report.trunks_retired > 0);
        // Survivors still relay to each other.
        exchange(
            &mut world,
            &nodes,
            grid.site(0).node(1),
            grid.site(1).node(2),
            101,
        );
        let events: Vec<TraceEvent> = world.events.events().map(|te| te.event).collect();
        assert!(events.contains(&TraceEvent::SiteDraining { site: 2 }));
        assert!(events.contains(&TraceEvent::SiteDrained {
            site: 2,
            trunks_retired: report.trunks_retired,
        }));
    }

    #[test]
    fn gateway_flap_delta_reroutes_runtimes_and_recovers() {
        let mut world = SimWorld::new(13);
        world.events.enable();
        let mut grid = star_grid(&mut world, 2);
        let prefs = SelectorPreferences {
            gateway_failover: true,
            ..Default::default()
        };
        let (runtimes, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
        let victim = grid.site(1).gateway;
        let secondary = grid.site(1).gateways[1];
        let src = grid.site(0).node(2);
        let dst = grid.site(1).node(2);
        let src_rt = runtimes.iter().find(|rt| rt.node() == src).unwrap().clone();
        let healthy = src_rt.resolved_route(dst).unwrap();
        assert!(healthy.relays().any(|n| n == victim));
        let stats = apply_backbone_delta(
            &mut world,
            &mut grid,
            &runtimes,
            &BackboneDelta::GatewayDown(victim),
        )
        .unwrap();
        assert_eq!(
            stats.sites_recomputed, 0,
            "a flap recomputes no intra table"
        );
        // Both the republished table and the knowledge bases avoid it.
        assert_eq!(src_rt.down_gateways(), vec![victim]);
        let rerouted = src_rt.resolved_route(dst).unwrap();
        assert!(rerouted.relays().any(|n| n == secondary));
        assert!(!rerouted.relays().any(|n| n == victim));
        // Recovery restores the primary.
        apply_backbone_delta(
            &mut world,
            &mut grid,
            &runtimes,
            &BackboneDelta::GatewayUp(victim),
        )
        .unwrap();
        assert!(src_rt.down_gateways().is_empty());
        let back = src_rt.resolved_route(dst).unwrap();
        assert!(back.relays().any(|n| n == victim));
        let events: Vec<TraceEvent> = world.events.events().map(|te| te.event).collect();
        assert!(events.contains(&TraceEvent::GatewayDown { node: victim }));
        assert!(events.contains(&TraceEvent::GatewayRestored { node: victim }));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Reconverged { .. }))
                .count(),
            2,
            "one receipt per delta"
        );
    }
}
