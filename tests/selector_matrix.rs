//! Table-driven coverage of the adapter selector: every `NetworkClass` ×
//! every `SelectorPreferences` combination, for both paradigms (VLink and
//! Circuit), against an explicitly-written expectation table.

use padicotm::core::{BackpressureMode, LinkDecision, SelectorPreferences, TopologyKb};
use padicotm::simnet::{topology, NetworkClass, NetworkSpec};

/// The network spec used to exercise each class.
fn spec_for(class: NetworkClass) -> NetworkSpec {
    match class {
        NetworkClass::Loopback => NetworkSpec::loopback(),
        NetworkClass::San => NetworkSpec::myrinet_2000(),
        NetworkClass::Lan => NetworkSpec::ethernet_100(),
        NetworkClass::Wan => NetworkSpec::vthd_wan(),
        NetworkClass::Internet => NetworkSpec::lossy_internet(),
    }
}

/// Every combination of the boolean preference knobs and both relay
/// backpressure modes. (`refuse_plaintext_relay` stays off: the strict
/// refusal is covered by its own `#[should_panic]` test in the selector;
/// here every combination must still *resolve*.)
fn all_preferences() -> Vec<SelectorPreferences> {
    let mut out = Vec::new();
    for parallel in [false, true] {
        for compression in [false, true] {
            for secure in [false, true] {
                for forbid_san in [false, true] {
                    for backpressure in [BackpressureMode::Drop, BackpressureMode::Credit] {
                        out.push(SelectorPreferences {
                            parallel_streams_on_wan: parallel,
                            parallel_stream_width: 4,
                            gateway_trunk_width: 8,
                            compression_on_slow_links: compression,
                            secure_inter_site: secure,
                            refuse_plaintext_relay: false,
                            relay_backpressure: backpressure,
                            gateway_trunk_budget: 0,
                            gateway_failover: false,
                            forbid_san,
                        });
                    }
                }
            }
        }
    }
    out
}

/// What `select_vlink` must produce for two distinct nodes whose only
/// shared network has the given class.
fn expected_vlink(
    class: NetworkClass,
    prefs: &SelectorPreferences,
    net: padicotm::simnet::NetworkId,
) -> LinkDecision {
    match class {
        // A SAN is preferred unless forbidden; with only the SAN shared and
        // the SAN forbidden, the selector falls back to TCP over it.
        NetworkClass::San => {
            if prefs.forbid_san {
                LinkDecision::Tcp(net)
            } else {
                LinkDecision::San(net)
            }
        }
        // Intra-site distributed networks always take plain TCP — never
        // secured ("if the network is secure, it is useless to cipher").
        NetworkClass::Lan | NetworkClass::Loopback => LinkDecision::Tcp(net),
        NetworkClass::Wan => {
            if prefs.secure_inter_site {
                LinkDecision::Secure(net)
            } else if prefs.parallel_streams_on_wan {
                LinkDecision::ParallelStreams(net, prefs.parallel_stream_width)
            } else {
                LinkDecision::Tcp(net)
            }
        }
        NetworkClass::Internet => {
            if prefs.secure_inter_site {
                LinkDecision::Secure(net)
            } else if prefs.compression_on_slow_links {
                LinkDecision::Adoc(net)
            } else {
                LinkDecision::Tcp(net)
            }
        }
    }
}

/// What `select_circuit` must produce: a straight SAN adapter where
/// allowed, otherwise the distributed-side method with San demoted to TCP.
fn expected_circuit(
    class: NetworkClass,
    prefs: &SelectorPreferences,
    net: padicotm::simnet::NetworkId,
) -> LinkDecision {
    match expected_vlink(class, prefs, net) {
        LinkDecision::San(n) if prefs.forbid_san => LinkDecision::Tcp(n),
        d => d,
    }
}

#[test]
fn every_class_and_preference_combination() {
    let classes = [
        NetworkClass::Loopback,
        NetworkClass::San,
        NetworkClass::Lan,
        NetworkClass::Wan,
        NetworkClass::Internet,
    ];
    for class in classes {
        for prefs in all_preferences() {
            let p = topology::pair_over(1, spec_for(class));
            let kb = TopologyKb::new(prefs.clone());
            let vd = kb.select_vlink(&p.world, p.a, p.b);
            let cd = kb.select_circuit(&p.world, p.a, p.b);
            assert_eq!(
                vd,
                expected_vlink(class, &prefs, p.network),
                "vlink decision for {class:?} with {prefs:?}"
            );
            assert_eq!(
                cd,
                expected_circuit(class, &prefs, p.network),
                "circuit decision for {class:?} with {prefs:?}"
            );
            // Same-node links are always loopback, regardless of class and
            // preferences.
            assert_eq!(kb.select_vlink(&p.world, p.a, p.a), LinkDecision::Loopback);
            assert_eq!(
                kb.select_circuit(&p.world, p.b, p.b),
                LinkDecision::Loopback
            );
        }
    }
}

#[test]
fn san_with_lan_fallback_honours_forbid_san_for_both_paradigms() {
    for prefs in all_preferences() {
        let p = topology::san_pair(1);
        let kb = TopologyKb::new(prefs.clone());
        let vd = kb.select_vlink(&p.world, p.a, p.b);
        let cd = kb.select_circuit(&p.world, p.a, p.b);
        if prefs.forbid_san {
            // With a real LAN available the fallback is TCP on the LAN.
            assert_eq!(vd, LinkDecision::Tcp(p.lan), "{prefs:?}");
            assert_eq!(cd, LinkDecision::Tcp(p.lan), "{prefs:?}");
        } else {
            assert_eq!(vd, LinkDecision::San(p.san), "{prefs:?}");
            assert_eq!(cd, LinkDecision::San(p.san), "{prefs:?}");
            assert!(cd.is_straight_for_parallel());
        }
    }
}

#[test]
fn relayed_resolution_covers_every_preference_combination() {
    use std::rc::Rc;
    for prefs in all_preferences() {
        let mut world = padicotm::simnet::SimWorld::new(9);
        let grid = padicotm::gridtopo::GridTopology::two_sites(&mut world, 2);
        let kb = TopologyKb::with_routes(prefs.clone(), Rc::new(grid.routes.clone()));
        let a1 = grid.site(0).node(1);
        let b1 = grid.site(1).node(1);
        let d = kb.select_vlink(&world, a1, b1);
        // A relayed decision under secure_inter_site is plaintext on the
        // WAN legs: it must be counted, never silent.
        assert_eq!(
            kb.plaintext_relay_events(),
            u64::from(prefs.secure_inter_site)
        );
        let LinkDecision::Relayed { via, network, hops } = d else {
            panic!("expected a relay for {prefs:?}, got {d:?}");
        };
        assert_eq!(hops, 3, "{prefs:?}");
        assert_eq!(via, grid.site(0).gateway, "{prefs:?}");
        // forbid_san is honoured on the first hop: the leg to the gateway
        // uses the site LAN instead of the forbidden SAN.
        let class = world.network(network).spec.class;
        if prefs.forbid_san {
            assert_eq!(class, NetworkClass::Lan, "{prefs:?}");
        } else {
            assert_eq!(class, NetworkClass::San, "{prefs:?}");
        }
        assert_eq!(kb.select_circuit(&world, a1, b1), d, "{prefs:?}");
    }
}
