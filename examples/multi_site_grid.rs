//! Multi-site grid: two SAN clusters joined by a WAN backbone through
//! gateways — the "federation of clusters" deployment the paper's
//! crossroads argument is really about.
//!
//! Unlike `wan_file_transfer`/`coupled_simulation`, the sites here are
//! *isolated*: only each site's gateway node touches the backbone, so
//! cross-site traffic shares no network end to end. The `gridtopo`
//! subsystem computes multi-hop routes, the selector resolves cross-site
//! links to relayed decisions, and gateway proxies store-and-forward the
//! streams. Intra-site traffic still rides the straight Myrinet adapter.
//!
//! Run with: `cargo run --example multi_site_grid`

use std::cell::RefCell;
use std::rc::Rc;

use padicotm::core::VLinkEvent;
use padicotm::prelude::*;

/// One full scenario run; returns a digest of everything observable so the
/// caller can prove determinism.
fn run_once(seed: u64) -> (String, u64) {
    let mut world = SimWorld::new(seed);

    // Two Myrinet+Ethernet sites of four nodes, gateways joined by a
    // VTHD-class WAN backbone.
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("paris", 4),
            SiteSpec::san_cluster("nice", 4),
        ],
        NetworkSpec::vthd_wan(),
    );
    let (rts, proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());

    let nice_worker = grid.site(1).node(2);
    let rt_paris = rts[1].clone();
    let rt_nice = rts[grid.site(0).len() + 2].clone();

    // --- Selector decisions -------------------------------------------- //
    let intra = rt_paris.vlink_decision(&world, grid.site(0).node(2));
    let cross = rt_paris.vlink_decision(&world, nice_worker);
    println!("[select] paris1 -> paris2 : {intra:?}");
    println!("[select] paris1 -> nice2  : {cross:?}");
    assert!(
        intra.is_straight_for_parallel(),
        "intra-site must use the SAN"
    );
    assert!(cross.is_relayed(), "cross-site must relay");

    // --- A relayed VLink exchange (stream level) ----------------------- //
    let reply = Rc::new(RefCell::new(Vec::<u8>::new()));
    let r2 = reply.clone();
    rt_nice.vlink_listen(&mut world, 80, move |_w, v: VLink| {
        // Echo service: return every byte.
        let v2 = v.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                let data = v2.read_now(world, usize::MAX);
                v2.post_write(world, &data);
            }
        });
    });
    let client = rt_paris.vlink_connect(&mut world, nice_worker, 80);
    println!("[vlink ] method: {:?}", client.method());
    let c2 = client.clone();
    let r3 = r2.clone();
    client.set_handler(move |world, ev| {
        if ev == VLinkEvent::Readable {
            r3.borrow_mut().extend(c2.read_now(world, usize::MAX));
        }
    });
    let message = b"simulation state: 4096 cells";
    client.post_write(&mut world, message);
    world.run();
    println!(
        "[vlink ] echoed {} bytes across {} gateway hops at t={}",
        reply.borrow().len(),
        match client.method() {
            VLinkMethod::Relayed { hops } => hops,
            _ => 0,
        },
        world.now()
    );

    for p in &proxies {
        println!(
            "[proxy ] gateway {} spliced {} stream connections ({} B forward, {} B back)",
            p.node(),
            p.stats().connections_relayed,
            p.stats().bytes_forward,
            p.stats().bytes_backward
        );
    }
    // Both site gateways spliced the echo connection and carried every
    // byte each way.
    let sent = message.len() as u64;
    for site in &grid.sites {
        let p = proxies
            .iter()
            .find(|p| p.node() == site.gateway)
            .expect("every gateway runs a proxy");
        let s = p.stats();
        assert_eq!(s.connections_relayed, 1, "{}-gw must relay", site.name);
        assert_eq!((s.bytes_forward, s.bytes_backward), (sent, sent));
    }

    // Digest: every observable number, for the determinism check.
    let digest = format!(
        "{:?}|{:?}|{}|{}|{:?}",
        intra,
        cross,
        reply.borrow().len(),
        world.now(),
        proxies.iter().map(|p| p.stats()).collect::<Vec<_>>(),
    );
    (digest, world.now().as_nanos())
}

fn main() {
    let (digest_a, t_a) = run_once(2024);
    println!("\n[check ] re-running with the same seed…");
    let (digest_b, t_b) = run_once(2024);
    assert_eq!(
        digest_a, digest_b,
        "runs with one seed must be bit-identical"
    );
    assert_eq!(t_a, t_b);
    println!("\n[check ] deterministic: both runs ended at the same virtual instant with identical stats");
}
