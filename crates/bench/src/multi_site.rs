//! The multi-site grid experiment: hierarchical topologies with gateway
//! relaying, swept over site count × backbone class.
//!
//! This goes beyond the paper's two-cluster deployment: sites are isolated
//! behind gateways (only the gateway touches the backbone), so every
//! cross-site exchange is store-and-forwarded. The experiment measures
//! both levels of the new `gridtopo` subsystem:
//!
//! * frame relaying through the bounded-queue [`RelayFabric`] (delivery,
//!   drops, one-way latency across the gateway chain);
//! * stream relaying through the gateway proxies (goodput of a relayed
//!   VLink transfer).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridtopo::{
    check_transients, inject_link_churn, BackpressureMode, GridTopology, RelayConfig, RelayFabric,
    SiteSpec,
};
use padico_core::{
    admit_site_live, apply_backbone_delta, drain_site_live, runtimes_for_grid, PadicoRuntime,
    SelectorPreferences, VLink, VLinkEvent,
};
use simnet::{MetricsSnapshot, NetworkSpec, NodeId, SimDuration, SimWorld};

/// Backbone layout of a multi-site run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One shared backbone network joining every gateway.
    Star,
    /// Point-to-point backbone segments forming a ring of gateways
    /// (cross-site routes grow with site count).
    Ring,
}

impl Layout {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Star => "star",
            Layout::Ring => "ring",
        }
    }
}

/// Result of one multi-site run.
#[derive(Debug, Clone)]
pub struct MultiSiteResult {
    /// Number of sites.
    pub sites: usize,
    /// Backbone layout.
    pub layout: Layout,
    /// Backbone label ("vthd-wan", "lossy-internet").
    pub backbone: String,
    /// Networks crossed by the measured cross-site route.
    pub hops: u32,
    /// Frames submitted in the frame-relay phase.
    pub frames_sent: u64,
    /// Frames delivered end to end.
    pub frames_delivered: u64,
    /// Total frames forwarded by gateways.
    pub frames_relayed: u64,
    /// Frames dropped at gateways (queue, TTL, routing).
    pub frames_dropped: u64,
    /// Frames lost in flight on the networks themselves (link loss), i.e.
    /// sent but neither delivered nor accounted as a gateway drop. The
    /// lossy-internet rows lose frames here while `frames_dropped` stays 0.
    pub frames_lost: u64,
    /// One-way latency of the first relayed frame, in milliseconds.
    /// `None` when no frame survived to the destination.
    pub first_frame_ms: Option<f64>,
    /// Goodput of the relayed stream transfer, MB/s.
    pub stream_goodput_mb_s: f64,
    /// Bytes moved in the stream phase.
    pub stream_bytes: usize,
}

/// Frames sent in the frame-relay phase.
const RELAY_FRAMES: usize = 100;
/// Payload of each relayed frame (fits the backbone MTU with headers).
const RELAY_FRAME_BYTES: usize = 1024;
/// Bytes pushed through the relayed VLink in the stream phase.
const STREAM_BYTES: usize = 128 * 1024;

/// Runs one multi-site measurement: `sites` SAN clusters joined by the
/// given backbone in the given layout, traffic between site 0 and the most
/// distant site.
pub fn multi_site_run(
    sites: usize,
    layout: Layout,
    backbone_label: &str,
    backbone: NetworkSpec,
) -> MultiSiteResult {
    assert!(sites >= 2);
    assert!(
        layout == Layout::Star || sites >= 3,
        "a ring needs 3+ sites"
    );
    let mut world = SimWorld::new(2024);
    let specs: Vec<SiteSpec> = (0..sites)
        .map(|i| SiteSpec::san_cluster(format!("s{i}"), 3))
        .collect();
    let grid = match layout {
        Layout::Star => GridTopology::star(&mut world, &specs, backbone),
        Layout::Ring => GridTopology::ring(&mut world, &specs, backbone),
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());

    // In a ring the most distant site is halfway round; in a star every
    // non-local site is equally far.
    let far_site = match layout {
        Layout::Star => sites - 1,
        Layout::Ring => sites / 2,
    };
    let src = grid.site(0).node(1);
    let dst = grid.site(far_site).node(1);
    let hops = grid.routes.path_info(&world, src, dst).unwrap().hop_count as u32;

    // ---- Frame-relay phase -------------------------------------------- //
    let fabric = RelayFabric::new(grid.routes.clone(), RelayConfig::default());
    for node in grid.all_nodes() {
        fabric.attach(&mut world, node);
    }
    let first_at = Rc::new(Cell::new(None::<simnet::SimTime>));
    let delivered = Rc::new(Cell::new(0u64));
    let (f2, d2) = (first_at.clone(), delivered.clone());
    fabric.bind(&mut world, dst, 7, move |world, _msg| {
        if f2.get().is_none() {
            f2.set(Some(world.now()));
        }
        d2.set(d2.get() + 1);
    });
    let start = world.now();
    for _ in 0..RELAY_FRAMES {
        fabric
            .send(&mut world, src, dst, 7, vec![0u8; RELAY_FRAME_BYTES])
            .expect("relay send");
    }
    world.run();
    let first_frame_ms = first_at.get().map(|t| t.since(start).as_millis_f64());

    // ---- Stream phase (relayed VLink through gateway proxies) --------- //
    // Runtimes are in all_nodes() order: rank 1 of site 0, and rank 1 of
    // the last site.
    let src_rt = rts[1].clone();
    let dst_index: usize = grid.sites[..far_site]
        .iter()
        .map(|s| s.len())
        .sum::<usize>()
        + 1;
    let dst_rt = rts[dst_index].clone();
    assert_eq!(src_rt.node(), src);
    assert_eq!(dst_rt.node(), dst);

    let received = Rc::new(Cell::new(0usize));
    let r2 = received.clone();
    dst_rt.vlink_listen(&mut world, 700, move |_w, v: VLink| {
        let v2 = v.clone();
        let r = r2.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                r.set(r.get() + v2.read_now(world, usize::MAX).len());
            }
        });
    });
    let client = src_rt.vlink_connect(&mut world, dst, 700);
    let start = world.now();
    client.post_write(&mut world, &vec![0xABu8; STREAM_BYTES]);
    let rr = received.clone();
    world.run_while(|| rr.get() < STREAM_BYTES);
    // run_while also exits when the event queue drains; a partial transfer
    // must fail loudly rather than inflate the tracked goodput number.
    assert_eq!(
        received.get(),
        STREAM_BYTES,
        "relayed stream transfer stalled short"
    );
    let secs = world.now().since(start).as_secs_f64();
    let stream_goodput_mb_s = STREAM_BYTES as f64 / secs / 1e6;

    let frames_dropped = fabric.total_dropped();
    MultiSiteResult {
        sites,
        layout,
        backbone: backbone_label.to_string(),
        hops,
        frames_sent: RELAY_FRAMES as u64,
        frames_delivered: delivered.get(),
        frames_relayed: fabric.total_relayed(),
        frames_dropped,
        frames_lost: (RELAY_FRAMES as u64)
            .saturating_sub(delivered.get())
            .saturating_sub(frames_dropped),
        first_frame_ms,
        stream_goodput_mb_s,
        stream_bytes: STREAM_BYTES,
    }
}

// --------------------------------------------------------------------- //
// Incast: N senders fan into one gateway towards one receiver
// --------------------------------------------------------------------- //

/// Result of one incast run (N senders in one site, one receiver behind
/// the far gateway, reliable delivery with end-to-end retransmission).
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Number of senders fanning into the gateway.
    pub senders: usize,
    /// Relay backpressure mode swept ("drop" / "credit").
    pub mode: BackpressureMode,
    /// Unique application frames per sender.
    pub frames_per_sender: u64,
    /// Unique application frames overall (`senders × frames_per_sender`).
    pub frames_total: u64,
    /// Unique frames delivered to the receiver.
    pub frames_delivered: u64,
    /// Transmissions dropped at gateway queues, across all rounds.
    pub frames_dropped: u64,
    /// Transmissions lost on the wire (link loss), across all rounds.
    pub frames_lost: u64,
    /// Retransmissions the senders had to issue to complete delivery.
    pub retransmissions: u64,
    /// Send rounds until every frame arrived (1 == lossless first pass).
    pub rounds: u64,
    /// Virtual time from the first send to the last delivery.
    pub elapsed_ms: f64,
    /// Goodput of *completed reliable delivery*: unique payload bytes over
    /// the full elapsed time (retransmission rounds count against it).
    pub goodput_mb_s: f64,
    /// Cumulative credit-stall *frame-time* per sender, in milliseconds:
    /// the parked durations of all of a sender's frames summed (frames
    /// park concurrently, so — like CPU-seconds — this can exceed the
    /// run's elapsed wall-clock). Zero in drop mode.
    pub sender_stall_ms: f64,
}

/// Payload bytes of each incast frame (sender id + sequence + padding).
const INCAST_FRAME_BYTES: usize = 1024;
/// Ceiling on retransmission rounds (never reached in practice: every
/// round delivers at least the gateway's service capacity).
const INCAST_MAX_ROUNDS: u64 = 64;

/// Runs one incast measurement: `senders` nodes of one site all send
/// `frames_per_sender` frames to a single receiver behind the far
/// gateway, with application-level reliable delivery (missing frames are
/// retransmitted in rounds). In `drop` mode the shared gateway queue
/// discards the overload and the senders pay retransmission rounds; in
/// `credit` mode the senders park on gateway credits and everything
/// arrives in one pass.
pub fn incast_run(senders: usize, frames_per_sender: u64, mode: BackpressureMode) -> IncastResult {
    incast_case(senders, frames_per_sender, mode, 4242).0
}

/// The telemetry snapshot of one quiesced incast run under the given
/// seed — the byte-identity surface for this scenario (same seed ⇒
/// byte-identical JSON, before and after any refactor underneath).
pub fn incast_snapshot(
    senders: usize,
    frames_per_sender: u64,
    mode: BackpressureMode,
    seed: u64,
) -> MetricsSnapshot {
    incast_case(senders, frames_per_sender, mode, seed).1
}

/// [`incast_run`] parameterized by world seed; also scrapes the metrics
/// snapshot at quiescence.
fn incast_case(
    senders: usize,
    frames_per_sender: u64,
    mode: BackpressureMode,
    seed: u64,
) -> (IncastResult, MetricsSnapshot) {
    assert!(senders >= 1 && frames_per_sender >= 1);
    let mut world = SimWorld::new(seed);
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("send", senders + 1),
            SiteSpec::san_cluster("recv", 2),
        ],
        NetworkSpec::vthd_wan(),
    );
    // Each frame occupies the gateway's bounded memory for its 1 ms
    // store-and-forward hold while SAN arrivals land every few µs: the
    // entry gateway queue is the incast bottleneck (drops in `drop` mode,
    // credit stalls in `credit` mode). The capacity covers the WAN
    // bandwidth-delay product (~110 frames), so a credit window of the
    // same size can keep the backbone full.
    let config = RelayConfig {
        per_hop_latency: SimDuration::from_millis(1),
        queue_capacity: 128,
        backpressure: mode,
        ..Default::default()
    };
    let fabric = RelayFabric::new(grid.routes.clone(), config);
    for node in grid.all_nodes() {
        fabric.attach(&mut world, node);
    }
    let sender_nodes: Vec<_> = (1..=senders).map(|i| grid.site(0).node(i)).collect();
    let receiver = grid.site(1).node(1);

    // Receiver: dedup by (sender, seq), remember the last arrival time.
    let received: Rc<RefCell<Vec<Vec<bool>>>> =
        Rc::new(RefCell::new(vec![
            vec![false; frames_per_sender as usize];
            senders
        ]));
    let unique = Rc::new(Cell::new(0u64));
    let last_at = Rc::new(Cell::new(simnet::SimTime::ZERO));
    let (r2, u2, l2) = (received.clone(), unique.clone(), last_at.clone());
    fabric.bind(&mut world, receiver, 9, move |world, msg| {
        if msg.payload.len() < 6 {
            return;
        }
        let sender = u16::from_be_bytes([msg.payload[0], msg.payload[1]]) as usize;
        let seq = u32::from_be_bytes([
            msg.payload[2],
            msg.payload[3],
            msg.payload[4],
            msg.payload[5],
        ]) as usize;
        let mut seen = r2.borrow_mut();
        if !seen[sender][seq] {
            seen[sender][seq] = true;
            u2.set(u2.get() + 1);
            l2.set(world.now());
        }
    });

    let frames_total = senders as u64 * frames_per_sender;
    let start = world.now();
    let mut rounds = 0u64;
    let mut transmissions = 0u64;
    while unique.get() < frames_total && rounds < INCAST_MAX_ROUNDS {
        rounds += 1;
        for (si, &node) in sender_nodes.iter().enumerate() {
            for seq in 0..frames_per_sender as usize {
                if received.borrow()[si][seq] {
                    continue;
                }
                let mut payload = vec![0u8; INCAST_FRAME_BYTES];
                payload[0..2].copy_from_slice(&(si as u16).to_be_bytes());
                payload[2..6].copy_from_slice(&(seq as u32).to_be_bytes());
                fabric
                    .send(&mut world, node, receiver, 9, payload)
                    .expect("incast send");
                transmissions += 1;
            }
        }
        // One round = the burst plus everything it triggers (deliveries,
        // credit returns, parked resumes) draining.
        world.run();
    }
    let elapsed = last_at.get().since(start);
    let elapsed_ms = elapsed.as_millis_f64();
    let frames_delivered = unique.get();
    let frames_dropped = fabric.total_dropped();
    let goodput_mb_s = if elapsed_ms > 0.0 {
        (frames_delivered * INCAST_FRAME_BYTES as u64) as f64 / elapsed.as_secs_f64() / 1e6
    } else {
        0.0
    };
    let result = IncastResult {
        senders,
        mode,
        frames_per_sender,
        frames_total,
        frames_delivered,
        frames_dropped,
        frames_lost: transmissions
            .saturating_sub(fabric.delivered_frames())
            .saturating_sub(frames_dropped),
        retransmissions: transmissions - frames_total,
        rounds,
        elapsed_ms,
        goodput_mb_s,
        sender_stall_ms: fabric.credit_stall_ns() as f64 / 1e6 / senders as f64,
    };
    (result, world.metrics_snapshot())
}

/// The incast sweep: sender fan-in × backpressure mode.
pub fn incast_sweep() -> Vec<IncastResult> {
    let mut out = Vec::new();
    for senders in [2usize, 4, 8, 16] {
        for mode in [BackpressureMode::Drop, BackpressureMode::Credit] {
            out.push(incast_run(senders, 64, mode));
        }
    }
    out
}

// --------------------------------------------------------------------- //
// Failover: kill the primary gateway mid-transfer, measure the recovery
// --------------------------------------------------------------------- //

/// Result of one failover run: N relayed streams fan into a 2-gateway
/// destination site of a cluster-of-clusters world; the destination-side
/// primary gateway is fail-stopped mid-transfer and the streams must
/// resume through the secondary automatically.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Concurrent relayed streams (one per sender node).
    pub senders: usize,
    /// Payload bytes per stream.
    pub payload_bytes: usize,
    /// Bytes (across all streams) delivered when the primary was killed.
    pub killed_at_bytes: usize,
    /// Virtual ms from the kill to the first byte delivered over a
    /// migrated (post-kill) connection. `None` when no migration was
    /// needed (everything already acknowledged) or recovery failed.
    pub recovery_ms: Option<f64>,
    /// Every stream delivered its full payload byte-exactly (zero
    /// acknowledged bytes lost, zero duplicated).
    pub completed: bool,
    /// Connections the receiver accepted beyond the initial N — the
    /// streams that actually re-dialed through the secondary.
    pub migrated_connections: usize,
    /// End-to-end goodput of the faulted run, MB/s (aggregate unique
    /// payload over the full elapsed time, recovery included).
    pub goodput_mb_s: f64,
    /// Goodput of the identical run without the kill, MB/s.
    pub baseline_goodput_mb_s: f64,
    /// Relative goodput dip paid for the recovery, percent.
    pub goodput_dip_pct: f64,
    /// Telemetry snapshot scraped at quiescence of the faulted run —
    /// embedded in `tests/golden/multi_site.json` so the document carries
    /// the full per-gateway/per-node counter state of the failover phase.
    pub metrics: MetricsSnapshot,
}

/// Payload pushed through each relayed stream in the failover runs.
const FAILOVER_STREAM_BYTES: usize = 192 * 1024;

/// Everything one [`failover_case`] run measures.
struct FailoverCaseOut {
    recovery_ms: Option<f64>,
    completed: bool,
    migrated: usize,
    goodput: f64,
    killed_at: usize,
    metrics: MetricsSnapshot,
}

/// One failover measurement at the given fan-in. Builds a 2-region
/// cluster-of-clusters whose receiving site has two ranked gateways,
/// starts `senders` relayed streams (credit backpressure + the
/// `gateway_failover` preference), and — unless `baseline` — fail-stops
/// the destination-side primary gateway once a third of the bytes have
/// arrived. Returns exact-delivery verdicts and the recovery latency.
///
/// With `instrument`, a short prelude exercises the other telemetry
/// surfaces in the same world before the streams start — a credit-mode
/// frame burst through a [`RelayFabric`], one CORBA invocation and one
/// MPI exchange — so the scraped snapshot covers the relay fabric,
/// gateway credits and both personalities on top of the trunk/route/proxy
/// metrics the failover itself produces. The prelude fully drains before
/// the streams start, so it never overlaps the measured recovery.
fn failover_case(senders: usize, baseline: bool, instrument: bool) -> FailoverCaseOut {
    failover_case_seeded(senders, baseline, instrument, 0xFA17)
}

/// The telemetry snapshot of one quiesced *faulted* failover run
/// (gateway killed mid-transfer, no instrumentation prelude) under the
/// given seed, plus its exact-delivery verdict — the byte-identity
/// surface for this scenario.
pub fn failover_snapshot(senders: usize, seed: u64) -> (MetricsSnapshot, bool) {
    let out = failover_case_seeded(senders, false, false, seed);
    (out.metrics, out.completed)
}

/// [`failover_case`] parameterized by world seed.
fn failover_case_seeded(
    senders: usize,
    baseline: bool,
    instrument: bool,
    seed: u64,
) -> FailoverCaseOut {
    use padico_core::PadicoRuntime;

    let mut world = SimWorld::new(seed);
    let regions = vec![
        vec![SiteSpec::san_cluster("send", senders + 2).with_gateways(2)],
        vec![SiteSpec::san_cluster("recv", 3).with_gateways(2)],
    ];
    let grid = GridTopology::cluster_of_clusters(
        &mut world,
        &regions,
        NetworkSpec::vthd_wan(),
        NetworkSpec::vthd_wan(),
    );
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, prefs);
    let recv_site = grid.site(1).clone();
    let dst_rt = rts
        .iter()
        .find(|rt| rt.node() == recv_site.node(2))
        .unwrap()
        .clone();
    let dst = dst_rt.node();
    let primary_rt: PadicoRuntime = rts
        .iter()
        .find(|rt| rt.node() == recv_site.gateways[0])
        .unwrap()
        .clone();

    if instrument {
        use middleware::{IdlValue, MpiComm, Orb, OrbImpl};

        let probe_rt = rts
            .iter()
            .find(|rt| rt.node() == grid.site(0).node(2))
            .unwrap()
            .clone();

        // Credit-mode frame burst through a relay fabric on the same grid.
        let fabric = RelayFabric::new(
            grid.routes.clone(),
            RelayConfig {
                backpressure: BackpressureMode::Credit,
                ..Default::default()
            },
        );
        for node in grid.all_nodes() {
            fabric.attach(&mut world, node);
        }
        let frames = Rc::new(Cell::new(0u64));
        let f2 = frames.clone();
        fabric.bind(&mut world, dst, 7, move |_w, _msg| f2.set(f2.get() + 1));
        for _ in 0..32 {
            fabric
                .send(&mut world, probe_rt.node(), dst, 7, vec![0u8; 1024])
                .expect("prelude relay send");
        }
        world.run();
        assert_eq!(frames.get(), 32, "prelude frame burst must drain");

        // One CORBA invocation across the backbone…
        let server = Orb::new(dst_rt.clone(), OrbImpl::OmniOrb4);
        server.register_servant("echo", |_w, _op, arg| arg);
        server.activate(&mut world, 910);
        let client = Orb::new(probe_rt.clone(), OrbImpl::OmniOrb4);
        let objref = client.object_ref(dst, 910, "echo");
        let replied = Rc::new(Cell::new(false));
        let r2 = replied.clone();
        client.invoke(
            &mut world,
            &objref,
            "ping",
            IdlValue::Void,
            move |_w, _r| r2.set(true),
        );
        world.run();
        assert!(replied.get(), "prelude CORBA invoke must complete");

        // …and one MPI exchange over a 2-rank circuit spanning the sites.
        let members = vec![probe_rt.node(), dst];
        let c0 = probe_rt.circuit_create(&mut world, members.clone(), 77);
        let c1 = dst_rt.circuit_create(&mut world, members, 77);
        let m0 = MpiComm::new(&mut world, c0);
        let m1 = MpiComm::new(&mut world, c1);
        let got = Rc::new(Cell::new(false));
        let g2 = got.clone();
        m1.recv(&mut world, Some(0), Some(5), move |_w, _msg| g2.set(true));
        m0.send(&mut world, 1, 5, &[0xA5; 64]);
        world.run();
        assert!(got.get(), "prelude MPI exchange must complete");
    }

    // One service per sender; the receiver logs bytes per connection in
    // accept order, so exactly-once reassembly is checkable per stream.
    let logs: Vec<Rc<RefCell<Vec<Vec<u8>>>>> = (0..senders)
        .map(|s| {
            let log: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
            let l = log.clone();
            dst_rt.vlink_listen(&mut world, 800 + s as u16, move |_w, v: VLink| {
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
        })
        .collect();
    let payloads: Vec<Vec<u8>> = (0..senders)
        .map(|s| {
            (0..FAILOVER_STREAM_BYTES)
                .map(|i| ((i * 7 + s * 13) % 251) as u8)
                .collect()
        })
        .collect();
    let sender_rts: Vec<_> = (0..senders)
        .map(|s| {
            rts.iter()
                .find(|rt| rt.node() == grid.site(0).node(2 + s))
                .unwrap()
                .clone()
        })
        .collect();
    let start = world.now();
    for (s, rt) in sender_rts.iter().enumerate() {
        let client = rt.vlink_connect(&mut world, dst, 800 + s as u16);
        client.post_write(&mut world, &payloads[s]);
    }

    let total_bytes = senders * FAILOVER_STREAM_BYTES;
    let delivered = |logs: &[Rc<RefCell<Vec<Vec<u8>>>>]| -> usize {
        logs.iter()
            .map(|l| l.borrow().iter().map(Vec::len).sum::<usize>())
            .sum()
    };
    let mut killed_at = 0;
    let mut recovery_ms = None;
    if !baseline {
        let logs2 = logs.clone();
        world.run_while(move || delivered(&logs2) < total_bytes / 3);
        killed_at = delivered(&logs);
        let pre_kill_conns: Vec<usize> = logs.iter().map(|l| l.borrow().len()).collect();
        let t_kill = world.now();
        primary_rt.kill(&mut world);
        // Watch for the first byte on a migrated (post-kill) connection.
        let logs2 = logs.clone();
        let pk = pre_kill_conns.clone();
        let resumed = move || -> bool {
            logs2
                .iter()
                .zip(&pk)
                .any(|(l, &n)| l.borrow().iter().skip(n).any(|conn| !conn.is_empty()))
        };
        let r2 = resumed.clone();
        world.run_while(move || !r2());
        if resumed() {
            recovery_ms = Some(world.now().since(t_kill).as_millis_f64());
        }
    }
    world.run();
    let elapsed = world.now().since(start).as_secs_f64();
    let goodput = delivered(&logs) as f64 / elapsed / 1e6;

    // Exactly-once verdict: per stream, the concatenation across its
    // connections (accept order) must equal the payload.
    let mut completed = true;
    let mut migrated = 0usize;
    for (s, log) in logs.iter().enumerate() {
        let log = log.borrow();
        migrated += log.len().saturating_sub(1);
        let got: Vec<u8> = log.iter().flatten().copied().collect();
        if got != payloads[s] {
            completed = false;
        }
    }
    FailoverCaseOut {
        recovery_ms,
        completed,
        migrated,
        goodput,
        killed_at,
        metrics: world.metrics_snapshot(),
    }
}

/// Runs the failover measurement at `senders` fan-in (plus the matching
/// no-kill baseline for the goodput-dip comparison).
pub fn failover_run(senders: usize) -> FailoverResult {
    let baseline_goodput = failover_case(senders, true, false).goodput;
    let out = failover_case(senders, false, false);
    FailoverResult {
        senders,
        payload_bytes: FAILOVER_STREAM_BYTES,
        killed_at_bytes: out.killed_at,
        recovery_ms: out.recovery_ms,
        completed: out.completed,
        migrated_connections: out.migrated,
        goodput_mb_s: out.goodput,
        baseline_goodput_mb_s: baseline_goodput,
        goodput_dip_pct: if baseline_goodput > 0.0 {
            (1.0 - out.goodput / baseline_goodput) * 100.0
        } else {
            0.0
        },
        metrics: out.metrics,
    }
}

/// The telemetry scenario: one *instrumented* faulted failover run (frame
/// burst, CORBA invocation and MPI exchange preceding the gateway-kill
/// stream scenario), scraped into a single [`MetricsSnapshot`] at
/// quiescence. Returns the snapshot plus the exact-delivery/recovery
/// verdicts the caller gates on.
pub fn failover_metrics(senders: usize) -> (MetricsSnapshot, bool, Option<f64>, usize) {
    let out = failover_case(senders, false, true);
    (out.metrics, out.completed, out.recovery_ms, out.migrated)
}

/// Cross-checks the conservation invariants every quiesced run must obey,
/// returning one human-readable line per violation (empty == healthy):
///
/// * per gateway, relay credits consumed == credits returned;
/// * relay-fabric frames sent == delivered + unclaimed + Σ dropped
///   (lossless backbones — nothing vanishes without a drop counter);
/// * per simulated network, frames dropped + unclaimed ≤ frames sent
///   (a fabric can only lose what actually entered it);
/// * events executed + cancelled ≤ events scheduled (an event ends one
///   way at most — more means `SimWorld::cancel` was handed the id of an
///   event that had already fired);
/// * no frame left parked on gateway credits;
/// * no stream left parked on trunk memory, and no received byte left
///   unconsumed in trunk receive buffers;
/// * on a partitioned run, every frame a shard world emitted across the
///   boundary was injected into another (`sim.executor.cross_out ==
///   cross_in`; a merged snapshot sums both over the shards).
pub fn conservation_violations(snap: &MetricsSnapshot) -> Vec<String> {
    let mut violations = Vec::new();

    // Per-gateway credit conservation at quiescence.
    let consumed_keys: Vec<String> = snap
        .with_prefix("relay.gateway.credits_consumed{")
        .map(|(k, _)| k.to_string())
        .collect();
    for key in consumed_keys {
        let labels = &key["relay.gateway.credits_consumed".len()..];
        let consumed = snap.counter(&key).unwrap_or(0);
        let returned = snap
            .counter(&format!("relay.gateway.credits_returned{labels}"))
            .unwrap_or(0);
        if consumed != returned {
            violations.push(format!(
                "credit leak at gateway {labels}: consumed {consumed} != returned {returned}"
            ));
        }
    }

    // Frame conservation across the relay fabric.
    if let Some(sent) = snap.counter("relay.fabric.frames_sent") {
        let delivered = snap.counter("relay.fabric.frames_delivered").unwrap_or(0);
        let unclaimed = snap.counter("relay.fabric.frames_unclaimed").unwrap_or(0);
        let dropped: u64 = ["queue_full", "ttl", "no_route", "fault"]
            .iter()
            .map(|cause| snap.counter_total(&format!("relay.gateway.frames_dropped_{cause}")))
            .sum();
        if sent != delivered + unclaimed + dropped {
            violations.push(format!(
                "frame leak in the relay fabric: sent {sent} != delivered {delivered} \
                 + unclaimed {unclaimed} + dropped {dropped}"
            ));
        }
    }
    if let Some(parked) = snap.gauge("relay.fabric.parked_frames") {
        if parked != 0 {
            violations.push(format!("{parked} frames left parked on gateway credits"));
        }
    }

    // Per-network frame accounting: a fabric cannot drop or strand more
    // frames than were ever pushed onto it.
    let sent_keys: Vec<String> = snap
        .with_prefix("sim.net.frames_sent{")
        .map(|(k, _)| k.to_string())
        .collect();
    for key in sent_keys {
        let labels = &key["sim.net.frames_sent".len()..];
        let sent = snap.counter(&key).unwrap_or(0);
        let dropped = snap
            .counter(&format!("sim.net.frames_dropped{labels}"))
            .unwrap_or(0);
        let unclaimed = snap
            .counter(&format!("sim.net.frames_unclaimed{labels}"))
            .unwrap_or(0);
        if dropped + unclaimed > sent {
            violations.push(format!(
                "frame over-accounting on net {labels}: dropped {dropped} \
                 + unclaimed {unclaimed} > sent {sent}"
            ));
        }
    }

    // Event accounting: every scheduled event is executed, cancelled or
    // still pending — never two of those. `SimWorld::cancel` refuses fired
    // ids, so this holds on every run; the gate keeps it that way.
    let scheduled = snap.counter("sim.world.events_scheduled").unwrap_or(0);
    let executed = snap.counter("sim.world.events_executed").unwrap_or(0);
    let cancelled = snap.counter("sim.world.events_cancelled").unwrap_or(0);
    if executed + cancelled > scheduled {
        violations.push(format!(
            "event over-accounting: executed {executed} + cancelled {cancelled} \
             > scheduled {scheduled}"
        ));
    }

    // Trunk memory fully drained: nothing parked, nothing buffered.
    for (key, _) in snap.with_prefix("trunk.memory.parked_streams{") {
        if let Some(parked) = snap.gauge(key) {
            if parked != 0 {
                violations.push(format!("{parked} streams left parked at {key}"));
            }
        }
    }
    for (key, _) in snap.with_prefix("trunk.memory.recv_occupancy{") {
        if let Some(held) = snap.gauge(key) {
            if held != 0 {
                violations.push(format!(
                    "{held} bytes left in trunk receive buffers at {key}"
                ));
            }
        }
    }

    // Cross-shard conservation: no frame vanishes or duplicates in transit
    // between shard worlds.
    if let Some(cross_out) = snap.counter("sim.executor.cross_out") {
        let cross_in = snap.counter("sim.executor.cross_in").unwrap_or(0);
        if cross_out != cross_in {
            violations.push(format!(
                "cross-shard frame leak: cross_out {cross_out} != cross_in {cross_in}"
            ));
        }
    }

    violations
}

/// The failover sweep: kill the destination-side primary gateway
/// mid-transfer at fan-in 1 / 4 / 8.
pub fn failover_sweep() -> Vec<FailoverResult> {
    [1usize, 4, 8].into_iter().map(failover_run).collect()
}

// --------------------------------------------------------------------- //
// Churn: seeded flap schedule + live site admit/drain, transient-checked
// --------------------------------------------------------------------- //

/// Result of one churn run: a seeded flap schedule replayed through the
/// runtime layer (every delta reconverges the backbone incrementally and
/// republishes routes to every live runtime), followed by one live site
/// admit and one live drain — with the transient-safety checker run
/// after every reconvergence step and application traffic probed along
/// the way.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Number of sites in the initial ring.
    pub sites: usize,
    /// Down flaps in the schedule (each paired with a later up).
    pub flaps: usize,
    /// Deltas applied (downs + ups).
    pub steps: usize,
    /// Incremental backbone reconvergences of the run's grid (flap deltas
    /// + the admit/drain deltas).
    pub delta_reconvergences: u64,
    /// Full table rebuilds during the churn itself — the headline number:
    /// **must be 0** (the one construction-time build is excluded).
    pub full_recomputes_during_churn: u64,
    /// Intra-site tables recomputed across all flap steps (0: flaps only
    /// touch the backbone mask).
    pub sites_recomputed: u64,
    /// Transient-invariant violations (loops, blackholes, phantom routes,
    /// cost mismatches) summed over every intermediate state. Must be 0.
    pub transient_violations: usize,
    /// Worst-step count of node pairs whose route cost differed from the
    /// pristine table — the disruption footprint of the churn (bounded by
    /// the redundancy the flaps removed, not the grid size).
    pub pairs_disrupted_max: usize,
    /// Trunks retired by the drain (both directions).
    pub trunks_retired: u32,
    /// Application exchanges probed at baseline / mid-churn / post-churn /
    /// into the admitted site / between survivors — all must complete.
    pub exchanges_ok: bool,
    /// Conservation violations (credit leaks, frame leaks, parked
    /// leftovers) in the telemetry snapshot at quiescence. Must be 0.
    pub conservation_violations: usize,
}

/// Bytes pushed through each churn-probe exchange.
const CHURN_PROBE_BYTES: usize = 8 * 1024;

/// One application-level probe: a relayed VLink exchange from `from` to
/// `to` that must deliver `CHURN_PROBE_BYTES` byte-exactly. Returns
/// whether it completed (run_while also exits on a drained event queue,
/// so a blackholed probe reports `false` instead of hanging).
fn churn_probe(
    world: &mut SimWorld,
    rts: &[PadicoRuntime],
    from: NodeId,
    to: NodeId,
    service: u16,
) -> bool {
    let src_rt = rts.iter().find(|rt| rt.node() == from).unwrap().clone();
    let dst_rt = rts.iter().find(|rt| rt.node() == to).unwrap().clone();
    let received = Rc::new(Cell::new(0usize));
    let r2 = received.clone();
    dst_rt.vlink_listen(world, service, move |_w, v: VLink| {
        let v2 = v.clone();
        let r = r2.clone();
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                r.set(r.get() + v2.read_now(world, usize::MAX).len());
            }
        });
    });
    let client = src_rt.vlink_connect(world, to, service);
    client.post_write(world, &vec![0x5Au8; CHURN_PROBE_BYTES]);
    let rr = received.clone();
    world.run_while(|| rr.get() < CHURN_PROBE_BYTES);
    received.get() == CHURN_PROBE_BYTES
}

/// Node pairs whose route cost differs between `now` and `pristine`.
fn pairs_disrupted(grid: &GridTopology, pristine: &gridtopo::GridRoutes) -> usize {
    let nodes = grid.all_nodes();
    let mut n = 0;
    for &a in &nodes {
        for &b in &nodes {
            if a != b && grid.routes.cost(a, b) != pristine.cost(a, b) {
                n += 1;
            }
        }
    }
    n
}

/// Runs one churn measurement on a `sites`-site ring of redundant
/// (2-gateway) SAN clusters: replays a seeded schedule of `flaps` flap
/// pairs through [`apply_backbone_delta`] with the transient checker at
/// every step, then admits a fresh site live, exchanges with it, and
/// drains it again. Deterministic in its arguments.
pub fn churn_run(sites: usize, flaps: usize) -> ChurnResult {
    churn_case(sites, flaps, 0xC09E).0
}

/// The telemetry snapshot of one quiesced churn run under the given
/// seed — the byte-identity surface for this scenario. The seed drives
/// both the world RNG and the flap schedule.
pub fn churn_snapshot(sites: usize, flaps: usize, seed: u64) -> MetricsSnapshot {
    churn_case(sites, flaps, seed).1
}

/// [`churn_run`] parameterized by seed; also scrapes the metrics
/// snapshot at quiescence.
fn churn_case(sites: usize, flaps: usize, seed: u64) -> (ChurnResult, MetricsSnapshot) {
    assert!(sites >= 3, "a ring needs 3+ sites");
    let mut world = SimWorld::new(seed);
    let specs: Vec<SiteSpec> = (0..sites)
        .map(|i| SiteSpec::san_cluster(format!("s{i}"), 3).with_gateways(2))
        .collect();
    let mut grid = GridTopology::ring(&mut world, &specs, NetworkSpec::vthd_wan());
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (mut rts, mut proxies) = runtimes_for_grid(&mut world, &grid, prefs.clone());
    let pristine = grid.routes.clone();

    let src = grid.site(0).node(2);
    let far = grid.site(sites / 2).node(2);
    let mut service = 8200u16;
    let mut probe = |world: &mut SimWorld, rts: &[PadicoRuntime], from: NodeId, to: NodeId| {
        service += 1;
        churn_probe(world, rts, from, to, service)
    };
    let mut exchanges_ok = probe(&mut world, &rts, src, far);

    // ---- Flap schedule, transient-checked at every step --------------- //
    let schedule = inject_link_churn(&grid, seed, flaps);
    let mut violations = 0usize;
    let mut sites_recomputed = 0u64;
    let mut disrupted_max = 0usize;
    for (i, delta) in schedule.deltas.iter().enumerate() {
        let stats = apply_backbone_delta(&mut world, &mut grid, &rts, delta)
            .expect("flap deltas never violate gateway isolation");
        sites_recomputed += stats.sites_recomputed as u64;
        violations += check_transients(&world, &grid).len();
        disrupted_max = disrupted_max.max(pairs_disrupted(&grid, &pristine));
        if i == 0 {
            // Mid-churn liveness: traffic must flow through the degraded
            // grid, not just at the endpoints of the schedule.
            exchanges_ok &= probe(&mut world, &rts, src, far);
        }
    }
    exchanges_ok &= probe(&mut world, &rts, src, far);

    // ---- Live admit + drain ------------------------------------------- //
    let late = SiteSpec::san_cluster("late", 3).with_gateways(2);
    let admitted =
        admit_site_live(&mut world, &mut grid, &mut rts, &late, prefs).expect("admit late site");
    violations += check_transients(&world, &grid).len();
    let late_node = grid.site(admitted.index).node(2);
    exchanges_ok &= probe(&mut world, &rts, src, late_node);
    proxies.extend(admitted.proxies);

    let report = drain_site_live(&mut world, &mut grid, &rts, admitted.index).expect("drain site");
    violations += check_transients(&world, &grid).len();
    exchanges_ok &= probe(&mut world, &rts, src, far);

    world.run();
    let snap = world.metrics_snapshot();
    let conservation = conservation_violations(&snap).len();
    let result = ChurnResult {
        sites,
        flaps,
        steps: schedule.deltas.len(),
        delta_reconvergences: grid.delta_reconvergences,
        full_recomputes_during_churn: grid.full_recomputes,
        sites_recomputed,
        transient_violations: violations,
        pairs_disrupted_max: disrupted_max,
        trunks_retired: report.trunks_retired,
        exchanges_ok,
        conservation_violations: conservation,
    };
    (result, snap)
}

/// The churn sweep: ring size × fixed flap count.
pub fn churn_sweep() -> Vec<ChurnResult> {
    [3usize, 4, 6]
        .into_iter()
        .map(|s| churn_run(s, 6))
        .collect()
}

/// The default sweep: site count × layout × backbone class.
pub fn multi_site_sweep() -> Vec<MultiSiteResult> {
    let mut out = Vec::new();
    for sites in [2usize, 3, 4, 6] {
        for layout in [Layout::Star, Layout::Ring] {
            if layout == Layout::Ring && sites < 3 {
                continue;
            }
            out.push(multi_site_run(
                sites,
                layout,
                "vthd-wan",
                NetworkSpec::vthd_wan(),
            ));
            out.push(multi_site_run(
                sites,
                layout,
                "lossy-internet",
                NetworkSpec::lossy_internet(),
            ));
        }
    }
    out
}

/// Renders the multi-site, incast, failover, churn and full-stack results
/// as one machine-readable JSON document (`tests/golden/multi_site.json`).
pub fn multi_site_json(
    results: &[MultiSiteResult],
    incast: &[IncastResult],
    failover: &[FailoverResult],
    churn: &[ChurnResult],
    fullstack: &crate::fullstack::FullStackReport,
) -> String {
    let mut s = String::from("{\n  \"experiment\": \"multi_site\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"sites\": {}, \"layout\": \"{}\", \"backbone\": \"{}\", \"hops\": {}, ",
                "\"frames_sent\": {}, \"frames_delivered\": {}, ",
                "\"frames_relayed\": {}, \"frames_dropped\": {}, \"frames_lost\": {}, ",
                "\"first_frame_ms\": {}, \"stream_goodput_mb_s\": {:.4}, ",
                "\"stream_bytes\": {}}}{}\n"
            ),
            r.sites,
            r.layout.label(),
            r.backbone,
            r.hops,
            r.frames_sent,
            r.frames_delivered,
            r.frames_relayed,
            r.frames_dropped,
            r.frames_lost,
            r.first_frame_ms
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "null".to_string()),
            r.stream_goodput_mb_s,
            r.stream_bytes,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n  \"incast\": [\n");
    for (i, r) in incast.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"senders\": {}, \"mode\": \"{}\", \"frames_per_sender\": {}, ",
                "\"frames_total\": {}, \"frames_delivered\": {}, \"frames_dropped\": {}, ",
                "\"frames_lost\": {}, \"retransmissions\": {}, \"rounds\": {}, ",
                "\"elapsed_ms\": {:.4}, \"goodput_mb_s\": {:.4}, ",
                "\"sender_stall_ms\": {:.4}}}{}\n"
            ),
            r.senders,
            r.mode.label(),
            r.frames_per_sender,
            r.frames_total,
            r.frames_delivered,
            r.frames_dropped,
            r.frames_lost,
            r.retransmissions,
            r.rounds,
            r.elapsed_ms,
            r.goodput_mb_s,
            r.sender_stall_ms,
            if i + 1 == incast.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n  \"failover\": [\n");
    for (i, r) in failover.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"senders\": {}, \"payload_bytes\": {}, \"killed_at_bytes\": {}, ",
                "\"recovery_ms\": {}, \"completed\": {}, \"migrated_connections\": {}, ",
                "\"goodput_mb_s\": {:.4}, \"baseline_goodput_mb_s\": {:.4}, ",
                "\"goodput_dip_pct\": {:.2}}}{}\n"
            ),
            r.senders,
            r.payload_bytes,
            r.killed_at_bytes,
            r.recovery_ms
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "null".to_string()),
            r.completed,
            r.migrated_connections,
            r.goodput_mb_s,
            r.baseline_goodput_mb_s,
            r.goodput_dip_pct,
            if i + 1 == failover.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n  \"churn\": [\n");
    for (i, r) in churn.iter().enumerate() {
        s.push_str(&churn_json_row(r));
        s.push_str(if i + 1 == churn.len() { "\n" } else { ",\n" });
    }
    // Full-stack partitioned execution: the mirror-world equivalence
    // verdict and the 10⁵-node ring rows (global vs per-trunk windows).
    s.push_str("  ],\n  \"fullstack\": ");
    s.push_str(&crate::fullstack::fullstack_json_section(fullstack));
    // The failover-phase telemetry snapshot (widest fan-in), so the
    // artifact carries the full counter state of the faulted run.
    s.push_str(",\n  \"metrics\": ");
    match failover.last() {
        Some(r) => s.push_str(&snapshot_json_object(&r.metrics)),
        None => s.push_str("{}"),
    }
    s.push_str("\n}\n");
    s
}

/// Renders one [`ChurnResult`] as a single JSON object row (no trailing
/// comma or newline).
fn churn_json_row(r: &ChurnResult) -> String {
    format!(
        concat!(
            "    {{\"sites\": {}, \"flaps\": {}, \"steps\": {}, ",
            "\"delta_reconvergences\": {}, \"full_recomputes_during_churn\": {}, ",
            "\"sites_recomputed\": {}, \"transient_violations\": {}, ",
            "\"pairs_disrupted_max\": {}, \"trunks_retired\": {}, \"exchanges_ok\": {}, ",
            "\"conservation_violations\": {}}}"
        ),
        r.sites,
        r.flaps,
        r.steps,
        r.delta_reconvergences,
        r.full_recomputes_during_churn,
        r.sites_recomputed,
        r.transient_violations,
        r.pairs_disrupted_max,
        r.trunks_retired,
        r.exchanges_ok,
        r.conservation_violations,
    )
}

/// Renders a [`MetricsSnapshot`] as a single-line JSON object suitable
/// for embedding inside a larger handwritten document.
pub(crate) fn snapshot_json_object(snap: &MetricsSnapshot) -> String {
    use simnet::MetricValue;
    let mut s = String::from("{");
    for (i, (key, value)) in snap.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match value {
            MetricValue::Counter(v) => s.push_str(&format!("\"{key}\": {v}")),
            MetricValue::Gauge(v) => s.push_str(&format!("\"{key}\": {v}")),
            MetricValue::Histogram(h) => s.push_str(&format!(
                "\"{key}\": {{\"count\": {}, \"sum\": {}}}",
                h.count(),
                h.sum()
            )),
        }
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_site_wan_run_relays_and_streams() {
        let r = multi_site_run(2, Layout::Star, "vthd-wan", NetworkSpec::vthd_wan());
        assert_eq!(r.hops, 3);
        // Every frame is accounted exactly once: delivered, dropped at a
        // gateway, or lost on a lossy link.
        assert_eq!(
            r.frames_delivered + r.frames_dropped + r.frames_lost,
            r.frames_sent,
            "{r:?}"
        );
        assert!(r.frames_relayed > 0, "{r:?}");
        // The WAN adds ≥ 8 ms one way.
        assert!(r.first_frame_ms.unwrap() >= 8.0, "{r:?}");
        assert!(r.stream_goodput_mb_s > 0.0, "{r:?}");
    }

    #[test]
    fn ring_routes_grow_with_site_count() {
        let r4 = multi_site_run(4, Layout::Ring, "vthd-wan", NetworkSpec::vthd_wan());
        let r6 = multi_site_run(6, Layout::Ring, "vthd-wan", NetworkSpec::vthd_wan());
        assert!(r4.hops >= 4, "{r4:?}");
        assert!(r6.hops > r4.hops, "{r6:?} vs {r4:?}");
        // Each extra backbone segment adds ≥ 8 ms of one-way latency.
        assert!(
            r6.first_frame_ms.unwrap() > r4.first_frame_ms.unwrap(),
            "{r6:?} vs {r4:?}"
        );
        assert!(r6.frames_relayed > r4.frames_relayed);
    }

    #[test]
    fn churn_run_is_transient_safe_and_conserves() {
        let (r, snap) = churn_case(4, 4, 0xC09E);
        assert_eq!(r.steps, 8, "4 flap pairs = 8 deltas: {r:?}");
        assert_eq!(r.transient_violations, 0, "{r:?}");
        assert_eq!(
            r.sites_recomputed, 0,
            "flaps must never recompute an intra table: {r:?}"
        );
        assert!(r.exchanges_ok, "traffic must flow at every probe: {r:?}");
        assert!(r.trunks_retired > 0, "the drain retires trunks: {r:?}");
        assert_eq!(r.conservation_violations, 0, "{r:?}");
        assert!(
            snap.counter_total("sim.net.frames_sent") > 0,
            "churn must put frames on the wire (the gates above are not vacuous)"
        );
        assert!(
            r.pairs_disrupted_max > 0,
            "churn must actually disrupt some routes: {r:?}"
        );
        // Every flap delta, the admit and the drain reconverged
        // incrementally, and nothing rebuilt the table from scratch.
        assert_eq!(r.full_recomputes_during_churn, 0, "{r:?}");
        assert_eq!(r.delta_reconvergences, r.steps as u64 + 2, "{r:?}");
    }

    #[test]
    fn unequal_cross_shard_counters_are_one_violation() {
        let mut b = simnet::SnapshotBuilder::new();
        b.counter("sim.executor.cross_out", &[], 5);
        b.counter("sim.executor.cross_in", &[], 4);
        let violations = conservation_violations(&b.finish());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("cross-shard"), "{violations:?}");
    }

    /// `SimWorld::cancel` refuses an id whose event already fired: the
    /// pending event stays pending and the event-accounting gate stays
    /// clean.
    #[test]
    fn cancelling_a_fired_event_is_refused_and_keeps_the_accounting_gate_clean() {
        let mut world = SimWorld::new(1);
        let a = world.schedule_at(simnet::SimTime::from_millis(1), |_| {});
        world.schedule_at(simnet::SimTime::from_millis(5), |_| {});
        world.run_for(SimDuration::from_millis(2));
        assert_eq!(world.pending_events(), 1);
        assert!(!world.cancel(a), "a fired id is not pending");
        assert_eq!(world.pending_events(), 1, "b is still queued");
        assert_eq!(world.stats.events_cancelled, 0);
        world.run();
        let snap = world.metrics_snapshot();
        assert_eq!(snap.counter("sim.world.events_executed"), Some(2));
        let violations = conservation_violations(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn failover_run_recovers_exactly_once() {
        let r = failover_run(4);
        assert!(r.completed, "byte-exact delivery after the kill: {r:?}");
        assert!(
            r.migrated_connections >= 1,
            "the kill must force at least one re-dial: {r:?}"
        );
        let recovery = r.recovery_ms.expect("streams must resume post-kill");
        assert!(
            recovery > 0.0 && recovery < 1_000.0,
            "recovery latency is measured and sane: {r:?}"
        );
        assert!(r.killed_at_bytes > 0, "{r:?}");
        assert!(
            r.goodput_mb_s <= r.baseline_goodput_mb_s,
            "the faulted run cannot beat its baseline: {r:?}"
        );
    }

    #[test]
    fn incast_credit_mode_is_lossless_and_beats_drop_mode() {
        for senders in [4usize, 8] {
            let drop = incast_run(senders, 64, BackpressureMode::Drop);
            let credit = incast_run(senders, 64, BackpressureMode::Credit);
            // Both complete reliable delivery.
            assert_eq!(drop.frames_delivered, drop.frames_total, "{drop:?}");
            assert_eq!(credit.frames_delivered, credit.frames_total, "{credit:?}");
            // Drop mode pays for the overload with drops and retransmission
            // rounds; credit mode is lossless in one pass, stalling instead.
            assert!(drop.frames_dropped > 0, "{drop:?}");
            assert!(drop.rounds > 1, "{drop:?}");
            assert_eq!(credit.frames_dropped, 0, "{credit:?}");
            assert_eq!(credit.retransmissions, 0, "{credit:?}");
            assert_eq!(credit.rounds, 1, "{credit:?}");
            assert!(credit.sender_stall_ms > 0.0, "{credit:?}");
            assert!(
                credit.goodput_mb_s >= drop.goodput_mb_s,
                "credit goodput must not trail drop at {senders} senders: \
                 {credit:?} vs {drop:?}"
            );
        }
    }

    #[test]
    fn lossy_backbone_loss_is_accounted_as_lost_not_dropped() {
        let r = multi_site_run(
            2,
            Layout::Star,
            "lossy-internet",
            NetworkSpec::lossy_internet(),
        );
        assert_eq!(
            r.frames_delivered + r.frames_dropped + r.frames_lost,
            r.frames_sent,
            "{r:?}"
        );
        assert!(
            r.frames_lost > 0,
            "a 2% lossy backbone must lose frames: {r:?}"
        );
    }
}
