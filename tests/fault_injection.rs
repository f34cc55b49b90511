//! Deterministic fault-injection harness: every fault is driven by a
//! fixed seed and a virtual-time trigger, so each scenario reproduces bit
//! for bit — kill a trunk carrier mid-stream, kill a gateway under
//! failover, squeeze an incast through a trunk budget — asserting no data
//! corruption, no deadlock (the world always drains and streams report
//! their end), and exact delivery through credit-windowed trunks.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use padicotm::core::VLinkEvent;
use padicotm::prelude::*;

/// Relayed VLink transfer whose gateway trunk is severed mid-stream: the
/// delivered bytes must be an uncorrupted prefix, the simulation must
/// drain (no deadlock), both endpoints must observe the end of stream,
/// and a fresh relayed connection must re-establish a working trunk.
fn trunk_kill_scenario() {
    let mut world = SimWorld::new(0xDEAD);
    let grid = GridTopology::two_sites(&mut world, 3);
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
    let gw_a_rt = rts[0].clone();
    assert_eq!(gw_a_rt.node(), grid.site(0).gateway);
    let src_rt = rts[1].clone();
    let dst_rt = rts[grid.site(0).len() + 2].clone();
    let dst = dst_rt.node();

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let finished = Rc::new(Cell::new(false));
    let (g, f) = (got.clone(), finished.clone());
    dst_rt.vlink_listen(&mut world, 900, move |_w, v| {
        let v2 = v.clone();
        let (g, f) = (g.clone(), f.clone());
        v.set_handler(move |world, ev| match ev {
            VLinkEvent::Readable => g.borrow_mut().extend(v2.read_now(world, usize::MAX)),
            VLinkEvent::Finished => f.set(true),
            VLinkEvent::Connected => {}
        });
    });
    let client = src_rt.vlink_connect(&mut world, dst, 900);
    let payload: Vec<u8> = (0..400_000usize).map(|i| (i % 249) as u8).collect();
    client.post_write(&mut world, &payload);

    // Sever the trunk once a little data has crossed, then let the world
    // drain completely.
    let gr = got.clone();
    world.run_while(|| gr.borrow().len() < 10_000);
    let severed = gw_a_rt.drop_trunks(&mut world);
    assert!(severed >= 1, "the gateway held at least one trunk");
    world.run();

    // No corruption: whatever arrived is a byte-exact prefix.
    let got = got.borrow().clone();
    assert!(got.len() >= 10_000);
    assert_eq!(
        got[..],
        payload[..got.len()],
        "delivered data must be an uncorrupted prefix"
    );
    // No dangling stream: a dead carrier must end the relayed stream (the
    // receiver observes Finished) rather than leaving it waiting forever.
    // Bytes in flight at the kill are lost on the severed trunk and
    // accounted at the gateway (`TrunkMux::lost_bytes` / splice refusals),
    // never silently re-materialized: the delivered prefix above is all
    // the receiver ever gets.
    assert!(finished.get(), "the receiver must see the stream end");
    // With credit windows, most of the payload is still parked at the
    // sending gateway when the carrier dies — it must be lost, not
    // re-materialized out of nowhere.
    assert!(
        got.len() < payload.len(),
        "the kill must cut a windowed transfer short"
    );
    let _ = client;

    // Recovery: a new relayed connection re-establishes a fresh trunk and
    // completes end to end.
    let got2 = Rc::new(RefCell::new(Vec::new()));
    let g2 = got2.clone();
    dst_rt.vlink_listen(&mut world, 901, move |_w, v| {
        let v2 = v.clone();
        let g = g2.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                g.borrow_mut().extend(v2.read_now(world, usize::MAX));
            }
        });
    });
    let client2 = src_rt.vlink_connect(&mut world, dst, 901);
    client2.post_write(&mut world, &payload[..50_000]);
    world.run();
    assert_eq!(
        *got2.borrow(),
        payload[..50_000].to_vec(),
        "a fresh trunk must carry a full transfer after the kill"
    );
}

#[test]
fn trunk_carrier_killed_mid_stream_credit_mode() {
    trunk_kill_scenario();
}

#[test]
fn trunk_kill_is_deterministic() {
    let run = || {
        let mut world = SimWorld::new(7);
        let grid = GridTopology::two_sites(&mut world, 2);
        let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        let dst_rt = rts[3].clone();
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        dst_rt.vlink_listen(&mut world, 910, move |_w, v| {
            let v2 = v.clone();
            let g = g.clone();
            v.set_handler(move |world, ev| {
                if ev == VLinkEvent::Readable {
                    g.borrow_mut().extend(v2.read_now(world, usize::MAX));
                }
            });
        });
        let client = rts[1].vlink_connect(&mut world, dst_rt.node(), 910);
        client.post_write(&mut world, &vec![5u8; 300_000]);
        let gr = got.clone();
        world.run_while(|| gr.borrow().len() < 5_000);
        rts[0].drop_trunks(&mut world);
        world.run();
        let len = got.borrow().len();
        (len, world.now().as_nanos())
    };
    assert_eq!(run(), run(), "kill timing and outcome reproduce exactly");
}

/// Incast through one gateway pair with a trunk-wide aggregate credit
/// budget (`gateway_trunk_budget`): the *sum* of unconsumed bytes across
/// every multiplexed stream of the trunk must stay under the budget (the
/// per-stream windows alone would admit senders × window), each stream's
/// own receive buffer must stay under its window — both observed through
/// `SegBuf::high_water` — and the transfer must still complete losslessly
/// with the budget recovering once consumers drain.
#[test]
fn trunk_budget_bounds_gateway_memory_under_incast() {
    const BUDGET: usize = 128 * 1024;
    const SENDERS: usize = 4;
    const PAYLOAD: usize = 200_000;

    let mut world = SimWorld::new(0xB0D6E7);
    let grid = GridTopology::two_sites(&mut world, SENDERS + 1);
    let prefs = SelectorPreferences {
        gateway_trunk_budget: BUDGET,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let gw_b_rt = rts[grid.site(0).len()].clone();
    assert_eq!(gw_b_rt.node(), grid.site(1).gateway);
    let dst_rt = rts[grid.site(0).len() + 1].clone();
    let dst = dst_rt.node();

    // One listener per incast stream, draining continuously.
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    dst_rt.vlink_listen(&mut world, 930, move |_w, v| {
        let slot = {
            let mut all = g.borrow_mut();
            all.push(Vec::new());
            all.len() - 1
        };
        let v2 = v.clone();
        let g2 = g.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                g2.borrow_mut()[slot].extend(v2.read_now(world, usize::MAX));
            }
        });
    });

    // Every non-gateway node of site 0 blasts at once: 4 × 200 kB
    // through one trunk whose shared budget is 128 kB (per-stream windows
    // alone would admit 4 × 256 kB).
    let payloads: Vec<Vec<u8>> = (0..SENDERS)
        .map(|s| (0..PAYLOAD).map(|i| (i * 7 + s * 13) as u8).collect())
        .collect();
    for (s, payload) in payloads.iter().enumerate() {
        let client = rts[1 + s].vlink_connect(&mut world, dst, 930);
        client.post_write(&mut world, payload);
    }
    world.run();

    // Lossless delivery despite the tight shared budget.
    let mut delivered: Vec<Vec<u8>> = got.borrow().clone();
    delivered.sort();
    let mut expected = payloads.clone();
    expected.sort();
    assert_eq!(delivered, expected, "incast must deliver intact");

    // The budget bound, observed at the receiving gateway's accepted
    // trunk: aggregate occupancy (the sum over per-stream SegBufs) never
    // exceeded the budget, and each stream alone stayed under its window.
    let stats = gw_b_rt.trunk_memory_stats();
    let accepted: Vec<_> = stats.iter().filter(|m| m.recv_high_water > 0).collect();
    assert!(
        !accepted.is_empty(),
        "the incast trunk saw traffic: {stats:?}"
    );
    for m in &accepted {
        assert!(
            m.recv_high_water <= BUDGET,
            "aggregate trunk occupancy must respect gateway_trunk_budget: {m:?}"
        );
        assert!(
            m.max_stream_high_water <= 256 * 1024,
            "per-stream SegBuf::high_water must respect the stream window: {m:?}"
        );
        assert!(
            m.recv_high_water >= BUDGET / 2,
            "the budget must actually have been exercised: {m:?}"
        );
    }
    // The sending gateway's budget recovers as consumers drain (streams
    // are still open, so up to one sub-threshold grant batch per stream
    // may remain unreturned).
    let gw_a_stats = rts[0].trunk_memory_stats();
    let sending: Vec<_> = gw_a_stats.iter().filter(|m| m.budget > 0).collect();
    assert!(!sending.is_empty(), "{gw_a_stats:?}");
    for m in sending {
        assert_eq!(m.budget, BUDGET);
        assert_eq!(m.parked_streams, 0, "everything flushed: {m:?}");
        assert!(
            m.budget_available + SENDERS * 32 * 1024 >= BUDGET,
            "budget recovers up to unreturned grant batches: {m:?}"
        );
    }
}

// ---------------------------------------------------------------------- //
// Redundant-gateway failover: kill each gateway of a 2-gateway site in
// turn under a fixed seed; streams must resume automatically through the
// surviving gateway with zero acknowledged bytes lost and eventual
// delivery of the whole payload, exactly once, in order.
// ---------------------------------------------------------------------- //

/// Per-connection byte sink: the receiver keeps one buffer per accepted
/// connection (in accept order); a migrated stream resumes on a fresh
/// connection, so the concatenation across connections must equal the
/// payload byte for byte — any acknowledged-byte loss leaves a hole, any
/// duplicate resend shows up as overlap.
type ConnLog = Rc<RefCell<Vec<Vec<u8>>>>;

fn listen_per_connection(world: &mut SimWorld, rt: &PadicoRuntime, service: u16) -> ConnLog {
    let log: ConnLog = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    rt.vlink_listen(world, service, move |_w, v| {
        let slot = {
            let mut all = l.borrow_mut();
            all.push(Vec::new());
            all.len() - 1
        };
        let v2 = v.clone();
        let l2 = l.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                l2.borrow_mut()[slot].extend(v2.read_now(world, usize::MAX));
            }
        });
    });
    log
}

/// Builds the redundant star (both sites with 2 gateways), starts one
/// relayed transfer, kills the chosen gateway once ~60 kB crossed, and
/// checks exactly-once delivery of the full payload.
fn gateway_kill_failover(kill_site: usize, kill_rank: usize, expect_migration: bool) {
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
        gateway_failover: true,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let src_rt = rts[2].clone(); // site 0, plain worker
    let dst_rt = rts[grid.site(0).len() + 3].clone(); // site 1, plain worker
    let dst = dst_rt.node();
    let kill_node = grid.site(kill_site).gateways[kill_rank];
    let kill_rt = rts
        .iter()
        .find(|rt| rt.node() == kill_node)
        .expect("gateway runtime")
        .clone();

    let log = listen_per_connection(&mut world, &dst_rt, 940);
    let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i % 247) as u8).collect();
    let client = src_rt.vlink_connect(&mut world, dst, 940);
    client.post_write(&mut world, &payload);

    // Kill once a prefix has crossed (and been consumed downstream).
    let l = log.clone();
    world.run_while(|| l.borrow().iter().map(Vec::len).sum::<usize>() < 60_000);
    kill_rt.kill(&mut world);
    world.run();

    let log = log.borrow();
    let delivered: Vec<u8> = log.iter().flatten().copied().collect();
    assert_eq!(
        delivered.len(),
        PAYLOAD,
        "eventual delivery, no loss and no duplication \
         (site {kill_site} gateway rank {kill_rank}, {} connections)",
        log.len()
    );
    assert_eq!(
        delivered, payload,
        "byte-exact across the migration seam: acknowledged bytes are \
         never lost, unacknowledged ones are resent exactly once"
    );
    if expect_migration {
        assert!(
            log.len() >= 2,
            "killing an on-route gateway must migrate the stream to a \
             fresh connection through the survivor (got {} connection)",
            log.len()
        );
        assert_eq!(
            client.bytes_refused(),
            0,
            "the sender-side stream never refused a posted byte"
        );
    } else {
        assert_eq!(
            log.len(),
            1,
            "killing an off-route gateway must not disturb the stream"
        );
    }
}

#[test]
fn killing_the_source_side_primary_gateway_fails_over() {
    gateway_kill_failover(0, 0, true);
}

#[test]
fn killing_the_destination_side_primary_gateway_fails_over() {
    gateway_kill_failover(1, 0, true);
}

#[test]
fn killing_the_off_route_secondary_gateway_is_harmless() {
    // The secondaries carry nothing while the primaries are healthy:
    // killing one in turn must leave the transfer untouched.
    gateway_kill_failover(0, 1, false);
    gateway_kill_failover(1, 1, false);
}

#[test]
fn drop_trunks_under_failover_does_not_poison_healthy_gateways() {
    // `drop_trunks` is the *local-restart* fault model: the node severs
    // its own carriers. Under gateway_failover that must not mark the
    // (healthy) remote gateways down — in-flight streams re-dial the same
    // gateway and fresh connects keep resolving.
    let mut world = SimWorld::new(0xD201);
    let grid = GridTopology::two_sites(&mut world, 3);
    let prefs = SelectorPreferences {
        gateway_failover: true,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let gw_a_rt = rts[0].clone();
    let dst_rt = rts[grid.site(0).len() + 2].clone();
    let dst = dst_rt.node();
    let log = listen_per_connection(&mut world, &dst_rt, 950);
    let payload = vec![8u8; 150_000];
    let client = rts[1].vlink_connect(&mut world, dst, 950);
    client.post_write(&mut world, &payload);
    let l = log.clone();
    world.run_while(|| l.borrow().iter().map(Vec::len).sum::<usize>() < 20_000);
    let severed = gw_a_rt.drop_trunks(&mut world);
    assert!(severed >= 1);
    world.run();
    // The locally severed carrier said nothing about gw_b's health.
    assert_eq!(
        gw_a_rt.down_gateways(),
        vec![],
        "a local sever must not mark the healthy peer down"
    );
    // gw_a's own onward stream re-dialed gw_b and the transfer resumed
    // through the re-established trunk: everything arrives exactly once.
    let delivered: Vec<u8> = log.borrow().iter().flatten().copied().collect();
    assert_eq!(delivered, payload, "byte-exact across the local restart");
    // And a fresh relayed connect still resolves and completes.
    let log2 = listen_per_connection(&mut world, &dst_rt, 951);
    let client2 = rts[1].vlink_connect(&mut world, dst, 951);
    client2.post_write(&mut world, &payload[..30_000]);
    world.run();
    let delivered2: Vec<u8> = log2.borrow().iter().flatten().copied().collect();
    assert_eq!(delivered2, payload[..30_000].to_vec());
}

#[test]
fn gateway_failover_is_deterministic() {
    let run = || {
        let mut world = SimWorld::new(0xFA111);
        let grid = GridTopology::star(
            &mut world,
            &[
                SiteSpec::san_cluster("a", 3).with_gateways(2),
                SiteSpec::san_cluster("b", 3).with_gateways(2),
            ],
            NetworkSpec::vthd_wan(),
        );
        let prefs = SelectorPreferences {
            gateway_failover: true,
            ..Default::default()
        };
        let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
        let dst_rt = rts[grid.site(0).len() + 2].clone();
        let log = listen_per_connection(&mut world, &dst_rt, 941);
        let client = rts[2].vlink_connect(&mut world, dst_rt.node(), 941);
        client.post_write(&mut world, &vec![3u8; 200_000]);
        let l = log.clone();
        world.run_while(|| l.borrow().iter().map(Vec::len).sum::<usize>() < 20_000);
        // Kill the destination-side primary mid-transfer.
        rts.iter()
            .find(|rt| rt.node() == grid.site(1).gateway)
            .unwrap()
            .kill(&mut world);
        world.run();
        let total: usize = log.borrow().iter().map(Vec::len).sum();
        let conns = log.borrow().len();
        (total, conns, world.now().as_nanos())
    };
    let a = run();
    assert_eq!(a.0, 200_000, "failover completes: {a:?}");
    assert_eq!(run(), a, "kill timing and recovery reproduce bit-exactly");
}
