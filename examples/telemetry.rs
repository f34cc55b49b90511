//! Telemetry tour: trace one relayed stream's journey — credit stalls,
//! resumes and its migration off a killed gateway — read the flight
//! recorder timelines of the same run, and scrape the unified metrics
//! snapshot.
//!
//! Run with: `cargo run --example telemetry`

use std::cell::RefCell;
use std::rc::Rc;

use padicotm::core::VLinkEvent;
use padicotm::prelude::*;
use padicotm::simnet::{CauseId, TraceEvent};

fn main() {
    let mut world = SimWorld::new(0x7E1E);

    // Typed tracing is off by default (one branch, zero allocation);
    // switch it on before the traffic we want to reconstruct.
    world.events.enable();

    // A two-site grid with two gateways per site: every inter-site
    // stream is relayed through one gateway of each site.
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
    let src_rt = rts[2].clone();
    let dst_rt = rts[grid.site(0).len() + 3].clone();
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    dst_rt.vlink_listen(&mut world, 990, move |_w, v| {
        let v2 = v.clone();
        let g2 = g.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                g2.borrow_mut().extend(v2.read_now(world, usize::MAX));
            }
        });
    });
    let payload = vec![5u8; 300_000];
    let client = src_rt.vlink_connect(&mut world, dst_rt.node(), 990);
    client.post_write(&mut world, &payload);

    // Kill the receiving site's primary gateway once a prefix has
    // crossed: the backbone leg migrates to the secondary.
    let gr = got.clone();
    world.run_while(|| gr.borrow().len() < 60_000);
    let kill_node = grid.site(1).gateways[0];
    rts.iter()
        .find(|rt| rt.node() == kill_node)
        .unwrap()
        .kill(&mut world);
    world.run();
    println!(
        "[kill ] delivered {} / {} bytes exactly once after losing {kill_node}",
        got.borrow().len(),
        payload.len()
    );

    // --- 1. The migrated stream's journey from the event ring -------- //
    let migrated = world
        .events
        .events()
        .find_map(|e| match e.event {
            TraceEvent::StreamMigrated { stream, .. } => Some(CauseId(stream)),
            _ => None,
        })
        .expect("the kill migrates a stream");
    println!("[trace] journey of stream {migrated}:");
    for step in world.events.journey(migrated) {
        println!("[trace]   {} {:?}", step.time, step.event);
    }

    // --- 2. Flight-recorder forensics of the same run ---------------- //
    for rt in &rts {
        for dump in rt.flight_dumps() {
            println!("[fdr  ] {dump}");
        }
    }

    // --- 3. One snapshot over every layer ----------------------------- //
    let snap = world.metrics_snapshot();
    println!(
        "[scrape] {} metrics in one namespace; a sample:",
        snap.len()
    );
    for prefix in [
        "sim.world.events_executed",
        "relay.proxy.bytes_forward",
        "relay.proxy.connections_relayed",
        "trunk.memory.recv_high_water",
    ] {
        for (key, value) in snap.with_prefix(prefix) {
            println!("[scrape]   {key} = {value:?}");
        }
    }
    // The full deterministic export (what CI uploads as an artifact):
    println!("[scrape] to_json() -> {} bytes", snap.to_json().len());
}
