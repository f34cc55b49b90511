//! Telemetry tour: scrape the unified metrics snapshot, trace one
//! relayed frame's journey hop by hop, and read a flight-recorder
//! timeline after killing a gateway mid-transfer.
//!
//! Run with: `cargo run --example telemetry`

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use padicotm::core::VLinkEvent;
use padicotm::gridtopo::{BackpressureMode, RelayConfig, RelayFabric};
use padicotm::prelude::*;
use padicotm::simnet::TraceEvent;

fn main() {
    let mut world = SimWorld::new(0x7E1E);

    // Typed tracing is off by default (one branch, zero allocation);
    // switch it on before the traffic we want to reconstruct.
    world.events.enable();

    // A two-site grid: every inter-site frame store-and-forwards through
    // both site gateways.
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("a", 4).with_gateways(2),
            SiteSpec::san_cluster("b", 4).with_gateways(2),
        ],
        NetworkSpec::vthd_wan(),
    );

    // --- 1. Frame-journey tracing over the relay fabric ------------- //
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
    let src = grid.site(0).node(2);
    let dst = grid.site(1).node(2);
    let delivered = Rc::new(Cell::new(0u64));
    let d = delivered.clone();
    fabric.bind(&mut world, dst, 9, move |_w, _m| d.set(d.get() + 1));
    for _ in 0..3 {
        fabric
            .send(&mut world, src, dst, 9, vec![7u8; 900])
            .unwrap();
    }
    world.run();

    let first_cause = world
        .events
        .events()
        .find_map(|e| match e.event {
            TraceEvent::RelayAccepted { cause, .. } => Some(cause),
            _ => None,
        })
        .expect("traced traffic");
    println!("[trace] journey of frame {first_cause}:");
    for hop in world.events.journey(first_cause) {
        println!("[trace]   {} {:?}", hop.time, hop.event);
    }

    // --- 2. Flight-recorder forensics on a gateway kill -------------- //
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
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

    // Kill the on-route primary gateway once a prefix has crossed.
    let gr = got.clone();
    world.run_while(|| gr.borrow().len() < 60_000);
    let kill_node = grid.site(0).gateways[0];
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
        "relay.fabric.frames_delivered",
        "relay.gateway.credits_returned",
        "relay.proxy.bytes_forward",
        "trunk.credit.streams_opened",
        "trunk.memory.recv_high_water",
    ] {
        for (key, value) in snap.with_prefix(prefix) {
            println!("[scrape]   {key} = {value:?}");
        }
    }
    // The full deterministic export (what CI uploads as an artifact):
    println!("[scrape] to_json() -> {} bytes", snap.to_json().len());
}
