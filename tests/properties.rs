//! Randomized property tests on the core data structures and protocol
//! invariants of PadicoTM-RS.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small self-contained harness: each property draws many
//! random cases from the simulator's own deterministic [`SimRng`], so
//! failures are reproducible from the printed seed.

use bytes::Bytes;
use bytes::BytesMut;

use padicotm::middleware::{cdr_decode, cdr_encode, IdlValue};
use padicotm::simnet::{LossModel, SimDuration, SimRng, SimTime};
use padicotm::transport::compress::{compress, decompress};

/// Runs `check` on `cases` random cases drawn from a seeded generator.
fn for_random_cases(seed: u64, cases: usize, mut check: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seeded(seed);
    for case in 0..cases {
        let mut case_rng = rng.fork();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut case_rng)));
        if let Err(e) = result {
            // Recover the assertion text from the panic payload so the
            // summary names the actual failure, not `Any { .. }`.
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property failed at seed {seed} case {case}: {msg}");
        }
    }
}

fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0, max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.gen_range(0, 256) as u8).collect()
}

// ---------------------------------------------------------------------- //
// Virtual time arithmetic
// ---------------------------------------------------------------------- //

#[test]
fn time_addition_is_monotonic() {
    for_random_cases(101, 500, |rng| {
        let base = rng.gen_range(0, u64::MAX / 4);
        let d = rng.gen_range(0, u64::MAX / 4);
        let t = SimTime::from_nanos(base);
        let dur = SimDuration::from_nanos(d);
        assert!(t + dur >= t);
        assert_eq!((t + dur) - t, dur);
    });
}

#[test]
fn duration_sum_never_underflows() {
    for_random_cases(102, 500, |rng| {
        let a = rng.gen_range(0, 1_000_000_000);
        let b = rng.gen_range(0, 1_000_000_000);
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        // Saturating semantics: subtraction never panics, ordering holds.
        let diff = da - db;
        if a >= b {
            assert_eq!(diff.as_nanos(), a - b);
        } else {
            assert_eq!(diff, SimDuration::ZERO);
        }
    });
}

// ---------------------------------------------------------------------- //
// LZSS codec: lossless round-trip for arbitrary data
// ---------------------------------------------------------------------- //

#[test]
fn compression_roundtrips_arbitrary_bytes() {
    for_random_cases(103, 64, |rng| {
        let data = random_bytes(rng, 20_000);
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    });
}

#[test]
fn compression_roundtrips_repetitive_data() {
    for_random_cases(104, 64, |rng| {
        let byte = rng.gen_range(0, 256) as u8;
        let len = rng.gen_range(0, 50_000) as usize;
        let period = rng.gen_range(1, 64) as usize;
        let data: Vec<u8> = (0..len)
            .map(|i| byte.wrapping_add((i % period) as u8))
            .collect();
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    });
}

// ---------------------------------------------------------------------- //
// CDR marshalling round-trip for arbitrary IDL values
// ---------------------------------------------------------------------- //

fn random_idl_value(rng: &mut SimRng, depth: usize) -> IdlValue {
    let pick = if depth == 0 {
        rng.gen_range(0, 7)
    } else {
        rng.gen_range(0, 8)
    };
    match pick {
        0 => IdlValue::Void,
        1 => IdlValue::Bool(rng.gen_bool(0.5)),
        2 => IdlValue::Long(rng.gen_range(0, u32::MAX as u64 + 1) as u32 as i32),
        3 => IdlValue::LongLong(rng.next_u64() as i64),
        4 => {
            // Any finite double (NaN compares unequal, so avoid it).
            let mut f = f64::from_bits(rng.next_u64());
            if !f.is_finite() {
                f = rng.gen_unit() * 1e12 - 5e11;
            }
            IdlValue::Double(f)
        }
        5 => {
            const ALPHABET: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
            let len = rng.gen_range(0, 41) as usize;
            let s: String = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0, ALPHABET.len() as u64) as usize] as char)
                .collect();
            IdlValue::Str(s)
        }
        6 => IdlValue::Octets(Bytes::from(random_bytes(rng, 200))),
        _ => {
            let n = rng.gen_range(0, 6) as usize;
            IdlValue::Sequence((0..n).map(|_| random_idl_value(rng, depth - 1)).collect())
        }
    }
}

#[test]
fn cdr_roundtrips_arbitrary_idl_values() {
    for_random_cases(105, 128, |rng| {
        let value = random_idl_value(rng, 3);
        let mut buf = BytesMut::new();
        cdr_encode(&value, &mut buf);
        let mut bytes = buf.freeze();
        let mut consumed = 0;
        let decoded = cdr_decode(&mut bytes, &mut consumed).expect("decode");
        assert_eq!(decoded, value);
    });
}

// ---------------------------------------------------------------------- //
// Loss models: observed rate matches the configured mean
// ---------------------------------------------------------------------- //

#[test]
fn bernoulli_loss_rate_is_close_to_p() {
    for_random_cases(106, 16, |rng| {
        let p = rng.gen_unit() * 0.5;
        let mut model = LossModel::bernoulli(p);
        let mut draw_rng = rng.fork();
        let n = 20_000;
        let drops = (0..n).filter(|_| model.should_drop(&mut draw_rng)).count();
        let observed = drops as f64 / n as f64;
        assert!((observed - p).abs() < 0.03, "p={p} observed={observed}");
    });
}

// ---------------------------------------------------------------------- //
// Trunk stream credit windows: random writes/reads/half-closes keep the
// credit ledger conserved (granted + unreturned == consumed), the data
// intact and in order, and the receive buffer bounded by the window.
// ---------------------------------------------------------------------- //

#[test]
fn trunk_credits_match_consumption_across_half_close() {
    use padicotm::core::{TrunkFlowConfig, TrunkMux, TrunkStream};
    use padicotm::simnet::SimWorld;
    use padicotm::transport::{loopback_pair, ByteStream};
    use std::cell::RefCell;
    use std::rc::Rc;

    for_random_cases(109, 24, |rng| {
        let flow = TrunkFlowConfig {
            initial_window: (1 + rng.gen_range(0, 8) as usize) * 1024,
            credit_grant_threshold: 256,
            trunk_budget: 0,
        };
        let mut world = SimWorld::new(rng.next_u64());
        let node = world.add_node("n");
        let _ = node;
        let n = world.node_ids()[0];
        let (a, b) = loopback_pair(&world, n);
        let connector = TrunkMux::connector(Rc::new(a), Some(flow));
        let accepted: Rc<RefCell<Vec<TrunkStream>>> = Rc::new(RefCell::new(Vec::new()));
        let acc = accepted.clone();
        let _acceptor = TrunkMux::acceptor(Rc::new(b), Some(flow), move |_w, s| {
            acc.borrow_mut().push(s);
        });
        let tx = connector.open();
        // Random interleaving of sends, reads and one optional receiver
        // half-close; a counter byte-pattern detects any reorder or loss.
        let mut next_byte = 0u8;
        let mut model: Vec<u8> = Vec::new();
        let mut got: Vec<u8> = Vec::new();
        let mut receiver_closed = false;
        for _ in 0..rng.gen_range(5, 60) {
            match rng.gen_range(0, 4) {
                0 | 1 => {
                    let len = rng.gen_range(1, 4000) as usize;
                    let chunk: Vec<u8> = (0..len)
                        .map(|_| {
                            next_byte = next_byte.wrapping_add(1);
                            next_byte
                        })
                        .collect();
                    model.extend_from_slice(&chunk);
                    assert_eq!(tx.send(&mut world, &chunk), len, "send accepts all");
                }
                2 => {
                    world.run();
                    if let Some(rx) = accepted.borrow().first() {
                        got.extend(rx.recv(&mut world, rng.gen_range(1, 6000) as usize));
                    }
                }
                _ => {
                    // Half-close the receiver's write side: credits must
                    // keep flowing for what it consumes afterwards.
                    world.run();
                    if !receiver_closed {
                        if let Some(rx) = accepted.borrow().first() {
                            rx.close(&mut world);
                            receiver_closed = true;
                        }
                    }
                }
            }
        }
        // Drain everything.
        world.run();
        let rx = accepted.borrow().first().cloned();
        if let Some(rx) = rx {
            loop {
                let before = got.len();
                got.extend(rx.recv(&mut world, usize::MAX));
                world.run();
                if got.len() == before {
                    break;
                }
            }
            assert_eq!(got, model, "no loss, no reorder, no duplication");
            let r = rx.credit_stats();
            // Ledger conservation, even across the receiver's half-close:
            // everything consumed is either granted back or still batched.
            assert_eq!(
                r.credits_granted + r.unreturned_bytes as u64,
                r.bytes_consumed,
                "{r:?}"
            );
            assert_eq!(r.bytes_consumed, model.len() as u64);
            // The window bound held: the receive buffer never exceeded it.
            assert!(
                r.recv_high_water <= flow.initial_window,
                "window must bound occupancy: {r:?} vs {flow:?}"
            );
            let t = tx.credit_stats();
            // Sender-side conservation: window + wire-resident == initial
            // + credits received (never negative by construction).
            assert_eq!(t.parked_bytes, 0, "everything flushed: {t:?}");
            assert_eq!(
                t.send_window as u64 + model.len() as u64,
                flow.initial_window as u64 + t.credits_received,
                "{t:?}"
            );
        } else {
            assert!(model.is_empty(), "data sent but no stream accepted");
        }
    });
}

// ---------------------------------------------------------------------- //
// Hierarchical routing vs the flat oracle: for random star / ring /
// cluster-of-clusters grids — with randomly redundant (multi-gateway)
// sites — the two-level tables must agree with flat all-pairs Dijkstra on
// the reachability set and on every pair's additive cost (paths may
// differ where ties allow — costs never do), and every composed route
// must be a valid walk summing to its claimed cost.
// ---------------------------------------------------------------------- //

#[test]
fn hierarchical_routes_are_cost_equal_to_flat_dijkstra() {
    use padicotm::gridtopo::{link_cost, GridRoutes, GridTopology, RouteTable, SiteSpec};
    use padicotm::simnet::{NetworkSpec, SimWorld};

    for_random_cases(110, 40, |rng| {
        let mut world = SimWorld::new(rng.next_u64());
        let site = |rng: &mut SimRng, i: usize| {
            let gateways = 1 + rng.gen_range(0, 3) as usize;
            let nodes = gateways + rng.gen_range(0, 4) as usize;
            let spec = if rng.gen_bool(0.5) {
                SiteSpec::san_cluster(format!("s{i}"), nodes)
            } else {
                SiteSpec::lan_cluster(format!("s{i}"), nodes)
            };
            spec.with_gateways(gateways)
        };
        let n_sites = 3 + rng.gen_range(0, 4) as usize;
        let specs: Vec<SiteSpec> = (0..n_sites).map(|i| site(rng, i)).collect();
        let grid = match rng.gen_range(0, 3) {
            0 => GridTopology::star(&mut world, &specs, NetworkSpec::vthd_wan()),
            1 => GridTopology::ring(&mut world, &specs, NetworkSpec::vthd_wan()),
            _ => {
                let cut = 1 + rng.gen_range(0, specs.len() as u64 - 1) as usize;
                let regions = vec![specs[..cut].to_vec(), specs[cut..].to_vec()];
                GridTopology::cluster_of_clusters(
                    &mut world,
                    &regions,
                    NetworkSpec::vthd_wan(),
                    NetworkSpec::lossy_internet(),
                )
            }
        };
        let hier = match &grid.routes {
            GridRoutes::Hier(h) => h,
            other => panic!("builders must default to hierarchical routes, got {other:?}"),
        };
        let flat = RouteTable::compute(&world);
        let nodes = grid.all_nodes();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    flat.reachable(a, b),
                    hier.reachable(a, b),
                    "reachability of {a} -> {b}"
                );
                assert_eq!(flat.cost(a, b), hier.cost(a, b), "cost of {a} -> {b}");
                if let Some(route) = hier.route(a, b) {
                    let mut at = a;
                    let mut sum = 0;
                    for hop in &route.hops {
                        sum += link_cost(&world, hop.network);
                        at = hop.node;
                    }
                    assert_eq!(at, b, "composed route must end at the destination");
                    assert_eq!(Some(sum), hier.cost(a, b), "hop costs sum to the total");
                }
            }
        }
    });
}

// ---------------------------------------------------------------------- //
// Churn commutes: replaying a seeded flap schedule under shuffled
// orderings (per-element causality preserved, interleaving randomized)
// must pass the transient checker at every intermediate step of every
// ordering and land on the identical fixpoint table. Flaps only — site
// joins and leaves renumber sites, so their orderings are not comparable.
// ---------------------------------------------------------------------- //

#[test]
fn churn_replays_commute_and_stay_transient_safe_under_shuffling() {
    use padicotm::gridtopo::{inject_link_churn, replay_churn, GridTopology, SiteSpec};
    use padicotm::simnet::{NetworkSpec, SimWorld};

    for_random_cases(111, 12, |rng| {
        let world_seed = rng.next_u64();
        let n_sites = 3 + rng.gen_range(0, 3) as usize;
        let ring = rng.gen_bool(0.5);
        let build = |world: &mut SimWorld| {
            let specs: Vec<SiteSpec> = (0..n_sites)
                .map(|i| SiteSpec::san_cluster(format!("s{i}"), 3).with_gateways(2))
                .collect();
            if ring {
                GridTopology::ring(world, &specs, NetworkSpec::vthd_wan())
            } else {
                GridTopology::star(world, &specs, NetworkSpec::vthd_wan())
            }
        };
        let flaps = 2 + rng.gen_range(0, 6) as usize;
        let churn_seed = rng.next_u64();

        // Baseline ordering: transient-safe throughout, no intra-table
        // recomputes, and (all downs paired with ups) back to pristine.
        let mut world = SimWorld::new(world_seed);
        let mut grid = build(&mut world);
        let pristine = grid.routes.clone();
        let schedule = inject_link_churn(&grid, churn_seed, flaps);
        let replay = replay_churn(&world, &mut grid, &schedule).unwrap();
        assert_eq!(
            replay.violations,
            vec![],
            "baseline ordering must be transient-safe"
        );
        assert!(
            replay.stats.iter().all(|s| s.sites_recomputed == 0),
            "flap deltas never recompute an intra table"
        );
        let fixpoint = grid.routes.clone();
        assert_eq!(fixpoint, pristine, "paired flaps return to pristine");

        // Shuffled interleavings: flaps on distinct elements commute, so
        // every ordering must pass through only safe intermediate states
        // (which differ across orderings!) and reach the same fixpoint.
        for k in 0..3u64 {
            let mut world = SimWorld::new(world_seed);
            let mut grid = build(&mut world);
            let shuffled = schedule.shuffled(churn_seed.wrapping_add(k + 1));
            assert_eq!(
                shuffled.deltas.len(),
                schedule.deltas.len(),
                "shuffling permutes, never drops"
            );
            let replay = replay_churn(&world, &mut grid, &shuffled).unwrap();
            assert_eq!(
                replay.violations,
                vec![],
                "ordering {k} must be transient-safe"
            );
            assert_eq!(
                grid.routes, fixpoint,
                "ordering {k} must reach the identical fixpoint"
            );
        }
    });
}

// ---------------------------------------------------------------------- //
// End-to-end invariant: TCP delivers arbitrary data intact over a lossy
// network (exactly-once, in order).
// ---------------------------------------------------------------------- //

#[test]
fn tcp_delivers_data_intact_under_loss() {
    for_random_cases(107, 12, |rng| {
        use padicotm::transport::{ByteStream, ByteStreamExt, TcpConn, TcpStack};
        use std::cell::RefCell;
        use std::rc::Rc;

        let payload = {
            let mut p = random_bytes(rng, 30_000);
            if p.is_empty() {
                p.push(rng.gen_range(0, 256) as u8);
            }
            p
        };
        let loss = rng.gen_unit() * 0.08;
        let seed = rng.next_u64();

        let mut spec = padicotm::simnet::NetworkSpec::ethernet_100();
        spec.loss = LossModel::bernoulli(loss);
        let mut p = padicotm::simnet::topology::pair_over(seed, spec);
        let sa = TcpStack::new(&mut p.world, p.a);
        let sb = TcpStack::new(&mut p.world, p.b);
        let server: Rc<RefCell<Option<TcpConn>>> = Rc::new(RefCell::new(None));
        let s2 = server.clone();
        sb.listen(1, move |_w, c| *s2.borrow_mut() = Some(c));
        let client = sa.connect(&mut p.world, p.network, p.b, 1);
        client.send_all(&mut p.world, &payload);
        client.close(&mut p.world);
        p.world.run();
        let server = server.borrow().clone().expect("accepted");
        let received = server.recv_all(&mut p.world);
        assert_eq!(received, payload);
    });
}
