//! The unified telemetry layer, observed from outside: conservation
//! invariants checked through [`MetricsSnapshot`] alone (no reaching into
//! component stats structs), frame journeys reconstructed from the typed
//! event ring, flight-recorder forensics after a gateway kill, and the
//! bit-exact determinism of the scraped JSON across identical seeded
//! runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use padico_bench::conservation_violations;
use padicotm::core::VLinkEvent;
use padicotm::gridtopo::{BackpressureMode, RelayConfig, RelayFabric};
use padicotm::prelude::*;
use padicotm::simnet::{CauseId, DropCause, MetricsSnapshot, TraceEvent};

/// Builds a two-site relay fabric, pushes `sent` frames across the
/// gateways (with an optional seeded fault injector), and returns the
/// drained world plus the delivered count.
fn relay_scenario(seed: u64, fault_rate: f64, trace: bool) -> (SimWorld, u64, u64) {
    let mut world = SimWorld::new(seed);
    if trace {
        world.events.enable();
    }
    let grid = GridTopology::two_sites(&mut world, 3);
    let fabric = RelayFabric::new(
        grid.routes.clone(),
        RelayConfig {
            backpressure: BackpressureMode::Credit,
            queue_capacity: 16,
            ..Default::default()
        },
    );
    for node in grid.all_nodes() {
        fabric.attach(&mut world, node);
    }
    if fault_rate > 0.0 {
        fabric.inject_gateway_faults(fault_rate, 0xFEED);
    }
    let src = grid.site(0).node(1);
    let dst = grid.site(1).node(1);
    let delivered = Rc::new(Cell::new(0u64));
    let d = delivered.clone();
    fabric.bind(&mut world, dst, 3, move |_w, _m| d.set(d.get() + 1));
    let sent = 40u64;
    for _ in 0..sent {
        fabric
            .send(&mut world, src, dst, 3, vec![9u8; 700])
            .unwrap();
    }
    world.run();
    (world, sent, delivered.get())
}

/// Every relay/credit conservation law must hold on the scraped snapshot
/// alone — the same checks every golden snapshot must pass — both on a clean
/// run and under seeded gateway faults (faults drop frames but may not
/// leak credits or park anything forever).
#[test]
fn snapshot_conservation_holds_with_and_without_faults() {
    for fault_rate in [0.0, 0.35] {
        let (world, sent, delivered) = relay_scenario(21, fault_rate, false);
        let snap = world.metrics_snapshot();
        let violations = conservation_violations(&snap);
        assert!(
            violations.is_empty(),
            "conservation violated (fault_rate {fault_rate}): {violations:?}"
        );
        // The snapshot's own accounting matches ground truth observed at
        // the endpoints.
        assert_eq!(snap.counter_total("relay.fabric.frames_sent"), sent);
        assert_eq!(
            snap.counter_total("relay.fabric.frames_delivered"),
            delivered
        );
        if fault_rate > 0.0 {
            assert!(
                snap.counter_total("relay.gateway.frames_dropped_fault") > 0,
                "the injector must be visible in the snapshot"
            );
            assert!(delivered < sent);
        } else {
            assert_eq!(delivered, sent);
        }
    }
}

/// A relayed frame's whole journey — origin, both gateway hops, final
/// delivery (or a typed drop) — reconstructs from the event ring by
/// cause id, in causal (virtual-time) order.
#[test]
fn frame_journeys_reconstruct_from_the_event_ring() {
    let (world, sent, _delivered) = relay_scenario(11, 0.35, true);
    let causes: Vec<CauseId> = world
        .events
        .events()
        .filter_map(|e| match e.event {
            TraceEvent::RelayAccepted { cause, .. } => Some(cause),
            _ => None,
        })
        .collect();
    assert_eq!(causes.len() as u64, sent, "one journey per accepted frame");

    let (mut delivered_journeys, mut dropped_journeys) = (0u64, 0u64);
    for cause in causes {
        let journey = world.events.journey(cause);
        assert!(
            matches!(
                journey.first().map(|e| e.event),
                Some(TraceEvent::RelayAccepted { .. })
            ),
            "a journey starts at its origin: {journey:?}"
        );
        for pair in journey.windows(2) {
            assert!(pair[0].time <= pair[1].time, "causal order: {journey:?}");
        }
        match journey.last().map(|e| e.event) {
            Some(TraceEvent::RelayDelivered { .. }) => {
                // A delivered frame crossed both gateways of the route.
                let hops = journey
                    .iter()
                    .filter(|e| matches!(e.event, TraceEvent::RelayForwarded { .. }))
                    .count();
                assert_eq!(hops, 2, "two gateway hops on the two-site route");
                delivered_journeys += 1;
            }
            Some(TraceEvent::RelayDropped { drop_cause, .. }) => {
                assert_eq!(drop_cause, DropCause::Fault, "only faults drop here");
                dropped_journeys += 1;
            }
            other => panic!("a journey ends delivered or dropped, got {other:?}"),
        }
    }
    assert!(delivered_journeys > 0);
    assert!(dropped_journeys > 0, "the 35% injector must show journeys");
    assert_eq!(delivered_journeys + dropped_journeys, sent);

    // Tracing stays strictly opt-in: the same scenario without enable()
    // records nothing.
    let (quiet, _, _) = relay_scenario(11, 0.35, false);
    assert!(quiet.events.is_empty(), "disabled ring must stay empty");
    assert_eq!(quiet.events.dropped(), 0);
}

/// Two identical seeded runs scrape byte-identical JSON; a different
/// seed still produces the same metric key set (the namespace is
/// topology-determined, not timing-determined).
#[test]
fn snapshot_json_is_bit_identical_across_identical_seeded_runs() {
    let json = |seed| {
        let (world, _, _) = relay_scenario(seed, 0.35, false);
        world.metrics_snapshot().to_json()
    };
    assert_eq!(json(77), json(77), "same seed, same bytes");
    let keys = |s: &MetricsSnapshot| s.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
    let (world_a, _, _) = relay_scenario(77, 0.35, false);
    let (world_b, _, _) = relay_scenario(78, 0.35, false);
    assert_eq!(
        keys(&world_a.metrics_snapshot()),
        keys(&world_b.metrics_snapshot()),
        "the key set is stable across seeds"
    );
}

/// Gateway-kill failover, audited through telemetry only: the snapshot
/// must balance every conservation law after the kill + migration, and
/// the per-stream flight recorder must hold the forensic timeline
/// (dial, cut, re-resolve, resume) of the migrated stream.
#[test]
fn failover_leaves_a_balanced_snapshot_and_a_forensic_timeline() {
    const PAYLOAD: usize = 300_000;
    let mut world = SimWorld::new(0xFA110);
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("a", 4).with_gateways(2),
            SiteSpec::san_cluster("b", 4).with_gateways(2),
        ],
        NetworkSpec::vthd_wan(),
    );
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let src_rt = rts[2].clone();
    let dst_rt = rts[grid.site(0).len() + 3].clone();
    let kill_node = grid.site(0).gateways[0];
    let kill_rt = rts
        .iter()
        .find(|rt| rt.node() == kill_node)
        .expect("gateway runtime")
        .clone();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    dst_rt.vlink_listen(&mut world, 960, move |_w, v| {
        let v2 = v.clone();
        let g2 = g.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                g2.borrow_mut().extend(v2.read_now(world, usize::MAX));
            }
        });
    });
    let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i % 247) as u8).collect();
    let client = src_rt.vlink_connect(&mut world, dst_rt.node(), 960);
    client.post_write(&mut world, &payload);
    let gr = got.clone();
    world.run_while(|| gr.borrow().len() < 60_000);
    kill_rt.kill(&mut world);
    world.run();

    // Ground truth: exactly-once, byte-exact delivery across the seam.
    assert_eq!(*got.borrow(), payload, "byte-exact across the migration");

    // The books balance in the snapshot alone — dead gateway included.
    let snap = world.metrics_snapshot();
    let violations = conservation_violations(&snap);
    assert!(violations.is_empty(), "after the kill: {violations:?}");

    // Forensics: the sender-side survivor holds a flight recorder whose
    // timeline shows the migration (carrier cut → re-resolve → resume).
    let dumps: Vec<String> = rts.iter().flat_map(|rt| rt.flight_dumps()).collect();
    assert!(!dumps.is_empty(), "failover streams keep flight recorders");
    let migrated = dumps.iter().any(|d| d.contains("migrated"));
    assert!(
        migrated,
        "one timeline must record the migration:\n{}",
        dumps.join("\n")
    );
}
