//! The unified telemetry layer, observed from outside: conservation
//! invariants checked through [`MetricsSnapshot`] alone (no reaching into
//! component stats structs), relayed-stream journeys reconstructed from
//! the typed event ring, flight-recorder forensics after a gateway kill,
//! and the bit-exact determinism of the scraped JSON across identical
//! seeded runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use padicotm::core::{BackpressureMode, VLinkEvent};
use padicotm::prelude::*;
use padicotm::simnet::{conservation_violations, CauseId, MetricsSnapshot, TraceEvent};

/// Relayed streams in [`relay_scenario`].
const STREAMS: usize = 2;
/// Payload of each stream: more than the 256 KiB trunk window, so the
/// backbone legs stall on credit.
const PAYLOAD: usize = 300_000;
/// Greeting the receiver writes back on every accepted connection.
const GREETING: &[u8] = b"ready";

/// What the endpoints of [`relay_scenario`] observed.
struct Observed {
    /// Payload bytes the receiver read, over every connection.
    delivered: u64,
    /// Greeting bytes the senders read back.
    greeted: u64,
    /// Connections the receiver accepted.
    accepted: u64,
}

/// A two-site grid with two gateways per site, credit backpressure and
/// gateway failover: [`STREAMS`] relayed VLinks carry [`PAYLOAD`] bytes
/// each to one receiver, which greets every connection it accepts. With
/// `kill`, the receiving site's primary gateway dies once 60 kB have
/// arrived, and the backbone legs migrate to its secondary. Returns the
/// drained world and what the endpoints observed.
fn relay_scenario(seed: u64, kill: bool, trace: bool) -> (SimWorld, Observed) {
    let mut world = SimWorld::new(seed);
    if trace {
        world.events.enable();
    }
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("a", 2 + STREAMS).with_gateways(2),
            SiteSpec::san_cluster("b", 3).with_gateways(2),
        ],
        NetworkSpec::vthd_wan(),
    );
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let runtime_of = |node| rts.iter().find(|rt| rt.node() == node).unwrap().clone();
    let dst_rt = runtime_of(grid.site(1).node(2));

    let (delivered, accepted) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
    let (d, a) = (delivered.clone(), accepted.clone());
    dst_rt.vlink_listen(&mut world, 960, move |world, v| {
        a.set(a.get() + 1);
        v.post_write(world, GREETING);
        let (v2, d2) = (v.clone(), d.clone());
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                d2.set(d2.get() + v2.read_now(world, usize::MAX).len() as u64);
            }
        });
    });
    let greeted = Rc::new(Cell::new(0u64));
    for s in 0..STREAMS {
        let client =
            runtime_of(grid.site(0).node(2 + s)).vlink_connect(&mut world, dst_rt.node(), 960);
        let (c2, g) = (client.clone(), greeted.clone());
        client.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                g.set(g.get() + c2.read_now(world, usize::MAX).len() as u64);
            }
        });
        client.post_write(&mut world, &vec![s as u8; PAYLOAD]);
    }
    if kill {
        let d = delivered.clone();
        world.run_while(|| d.get() < 60_000);
        runtime_of(grid.site(1).gateways[0]).kill(&mut world);
    }
    world.run();
    let observed = Observed {
        delivered: delivered.get(),
        greeted: greeted.get(),
        accepted: accepted.get(),
    };
    (world, observed)
}

/// Every conservation law holds on the scraped snapshot alone — the same
/// checks every golden snapshot must pass — with and without a gateway
/// kill. Without one, the proxies' `relay.proxy.*` accounting matches
/// what the endpoints observed exactly: each of the two gateways on the
/// route spliced every connection once and forwarded every payload byte
/// one way and every greeting byte the other, and refused nothing.
#[test]
fn snapshot_conservation_holds_with_and_without_faults() {
    for kill in [false, true] {
        let (world, seen) = relay_scenario(21, kill, false);
        let snap = world.metrics_snapshot();
        let violations = conservation_violations(&snap);
        assert!(
            violations.is_empty(),
            "conservation violated (kill {kill}): {violations:?}"
        );
        assert_eq!(seen.delivered, (STREAMS * PAYLOAD) as u64, "kill {kill}");
        if kill {
            assert!(seen.accepted > STREAMS as u64, "the kill forced re-dials");
            continue;
        }
        const GATEWAYS_ON_ROUTE: u64 = 2;
        assert_eq!(seen.accepted, STREAMS as u64);
        assert_eq!(seen.greeted, seen.accepted * GREETING.len() as u64);
        assert_eq!(
            snap.counter_total("relay.proxy.connections_relayed"),
            GATEWAYS_ON_ROUTE * seen.accepted
        );
        assert_eq!(
            snap.counter_total("relay.proxy.bytes_forward"),
            GATEWAYS_ON_ROUTE * seen.delivered
        );
        assert_eq!(
            snap.counter_total("relay.proxy.bytes_backward"),
            GATEWAYS_ON_ROUTE * seen.greeted
        );
        assert_eq!(snap.counter_total("relay.proxy.bytes_refused"), 0);
        assert_eq!(snap.counter_total("relay.proxy.connections_refused"), 0);
    }
}

/// A relayed stream's journey — its credit stalls and resumes and its
/// migration off a killed gateway — reconstructs from the event ring by
/// its stream id, in virtual-time order.
#[test]
fn stream_journeys_reconstruct_from_the_event_ring() {
    let (world, _) = relay_scenario(11, true, true);
    let migrated: Vec<CauseId> = world
        .events
        .events()
        .filter_map(|e| match e.event {
            TraceEvent::StreamMigrated { stream, .. } => Some(CauseId(stream)),
            _ => None,
        })
        .collect();
    assert!(!migrated.is_empty(), "the kill must migrate a stream");

    let mut stalled_journeys = 0;
    for cause in migrated {
        let journey = world.events.journey(cause);
        for pair in journey.windows(2) {
            assert!(pair[0].time <= pair[1].time, "causal order: {journey:?}");
        }
        let migrations = journey
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::StreamMigrated { .. }))
            .count();
        assert_eq!(migrations, 1, "one kill, one migration: {journey:?}");
        // Within each incarnation (between migrations) the stream's
        // stalls and resumes alternate, starting with a stall.
        for incarnation in journey.split(|e| matches!(e.event, TraceEvent::StreamMigrated { .. })) {
            for (i, e) in incarnation.iter().enumerate() {
                match e.event {
                    TraceEvent::CreditStall { .. } => assert!(i % 2 == 0, "{journey:?}"),
                    TraceEvent::CreditResume { .. } => assert!(i % 2 == 1, "{journey:?}"),
                    other => panic!("unexpected event in a stream journey: {other:?}"),
                }
            }
        }
        if journey
            .iter()
            .any(|e| matches!(e.event, TraceEvent::CreditStall { .. }))
        {
            stalled_journeys += 1;
        }
    }
    assert!(
        stalled_journeys > 0,
        "a migrated backbone leg must have stalled on credit"
    );

    // Tracing stays strictly opt-in: the same scenario without enable()
    // records nothing.
    let (quiet, _) = relay_scenario(11, true, false);
    assert!(quiet.events.is_empty(), "disabled ring must stay empty");
    assert_eq!(quiet.events.dropped(), 0);
}

/// Two identical seeded runs scrape byte-identical JSON; a different
/// seed still produces the same metric key set (the namespace is
/// topology-determined, not timing-determined).
#[test]
fn snapshot_json_is_bit_identical_across_identical_seeded_runs() {
    let json = |seed| {
        let (world, _) = relay_scenario(seed, true, false);
        world.metrics_snapshot().to_json()
    };
    assert_eq!(json(77), json(77), "same seed, same bytes");
    let keys = |s: &MetricsSnapshot| s.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
    let (world_a, _) = relay_scenario(77, true, false);
    let (world_b, _) = relay_scenario(78, true, false);
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
