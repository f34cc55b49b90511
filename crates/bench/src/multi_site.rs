//! The multi-site grid experiment: hierarchical topologies with gateway
//! relaying, swept over site count × backbone class.
//!
//! This goes beyond the paper's two-cluster deployment: sites are isolated
//! behind gateways (only the gateway touches the backbone), so every
//! cross-site exchange is relayed: `gridtopo` routes it, and the gateway
//! proxies and trunks of `padico_core` store-and-forward the stream. Each
//! run measures the goodput of one relayed VLink transfer across the
//! gateway chain.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridtopo::{check_transients, inject_link_churn, GridTopology, SiteSpec};
use padico_core::{
    admit_site_live, apply_backbone_delta, drain_site_live, runtimes_for_grid, PadicoRuntime,
    SelectorPreferences, VLink, VLinkEvent,
};
use simnet::{conservation_violations, MetricsSnapshot, NetworkSpec, NodeId, SimWorld};

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
    /// Goodput of the relayed stream transfer, MB/s.
    pub stream_goodput_mb_s: f64,
    /// Bytes moved in the stream phase.
    pub stream_bytes: usize,
}

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
    // Let the gateway trunks finish their handshakes and warm-up before
    // the measured transfer starts.
    world.run();

    // In a ring the most distant site is halfway round; in a star every
    // non-local site is equally far.
    let far_site = match layout {
        Layout::Star => sites - 1,
        Layout::Ring => sites / 2,
    };
    let src = grid.site(0).node(1);
    let dst = grid.site(far_site).node(1);
    let hops = grid.routes.path_info(&world, src, dst).unwrap().hop_count as u32;

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

    MultiSiteResult {
        sites,
        layout,
        backbone: backbone_label.to_string(),
        hops,
        stream_goodput_mb_s,
        stream_bytes: STREAM_BYTES,
    }
}

// --------------------------------------------------------------------- //
// Incast: N relayed streams fan into one receiver behind one gateway pair
// --------------------------------------------------------------------- //

/// Result of one incast run: N relayed VLinks from one site into one
/// receiver behind the far gateway, all multiplexed on the one trunk
/// between the two sites' gateways.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Number of senders fanning into the gateway pair.
    pub senders: usize,
    /// Payload bytes each sender writes.
    pub bytes_per_sender: usize,
    /// Payload bytes the receiver read, over every stream.
    pub bytes_delivered: usize,
    /// Virtual time from the first write to the last byte delivered.
    pub elapsed_ms: f64,
    /// Most streams parked at once on the sending gateway's trunk (out
    /// of window).
    pub parked_streams_peak: usize,
    /// The receiving gateway's `trunk.memory.max_stream_high_water`: the
    /// peak receive-buffer occupancy of any one trunk stream there.
    pub gateway_stream_high_water: usize,
}

/// Payload each incast sender writes: more than the 256 KiB trunk stream
/// window, so a sender must wait for credit before it has
/// written everything.
pub const INCAST_STREAM_BYTES: usize = 320 * 1024;

/// Runs one incast measurement: `senders` nodes of one site each open a
/// relayed VLink to a single receiver behind the far gateway and write
/// `bytes_per_sender` bytes under the default preferences, so every trunk
/// stream runs a credit window.
pub fn incast_run(senders: usize, bytes_per_sender: usize) -> IncastResult {
    incast_case(senders, bytes_per_sender, 4242).0
}

/// The telemetry snapshot of one quiesced incast run under the given
/// seed — the byte-identity surface for this scenario (same seed ⇒
/// byte-identical JSON, before and after any refactor underneath).
pub fn incast_snapshot(senders: usize, bytes_per_sender: usize, seed: u64) -> MetricsSnapshot {
    incast_case(senders, bytes_per_sender, seed).1
}

/// [`incast_run`] parameterized by world seed; also scrapes the metrics
/// snapshot at quiescence.
fn incast_case(
    senders: usize,
    bytes_per_sender: usize,
    seed: u64,
) -> (IncastResult, MetricsSnapshot) {
    assert!(senders >= 1 && bytes_per_sender >= 1);
    let mut world = SimWorld::new(seed);
    let grid = GridTopology::star(
        &mut world,
        &[
            SiteSpec::san_cluster("send", senders + 1),
            SiteSpec::san_cluster("recv", 2),
        ],
        NetworkSpec::vthd_wan(),
    );
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
    // Let the gateway trunks finish their handshakes and warm-up before
    // the measured writes start.
    world.run();
    let runtime_of = |node: NodeId| rts.iter().find(|rt| rt.node() == node).unwrap().clone();
    let entry_gateway = runtime_of(grid.site(0).gateway);
    let exit_gateway = grid.site(1).gateway;
    let receiver = runtime_of(grid.site(1).node(1));

    let delivered = Rc::new(Cell::new(0usize));
    let last_at = Rc::new(Cell::new(simnet::SimTime::ZERO));
    let (d2, l2) = (delivered.clone(), last_at.clone());
    receiver.vlink_listen(&mut world, 900, move |_w, v: VLink| {
        let v2 = v.clone();
        let (d, l) = (d2.clone(), l2.clone());
        v.set_handler(move |world, ev| {
            if ev == VLinkEvent::Readable {
                let n = v2.read_now(world, usize::MAX).len();
                if n > 0 {
                    d.set(d.get() + n);
                    l.set(world.now());
                }
            }
        });
    });

    let total = senders * bytes_per_sender;
    let start = world.now();
    for i in 1..=senders {
        let client =
            runtime_of(grid.site(0).node(i)).vlink_connect(&mut world, receiver.node(), 900);
        client.post_write(&mut world, &vec![i as u8; bytes_per_sender]);
    }
    // Sample the entry gateway's parked streams after every event until
    // the last byte lands, then drain.
    let mut parked_streams_peak = 0;
    let d3 = delivered.clone();
    world.run_while(|| {
        let parked: usize = entry_gateway
            .trunk_memory_stats()
            .iter()
            .map(|m| m.parked_streams)
            .sum();
        parked_streams_peak = parked_streams_peak.max(parked);
        d3.get() < total
    });
    world.run();

    let snap = world.metrics_snapshot();
    let high_water = snap
        .gauge(&format!(
            "trunk.memory.max_stream_high_water{{node={}}}",
            exit_gateway.0
        ))
        .unwrap_or(0);
    let result = IncastResult {
        senders,
        bytes_per_sender,
        bytes_delivered: delivered.get(),
        elapsed_ms: last_at.get().since(start).as_millis_f64(),
        parked_streams_peak,
        gateway_stream_high_water: high_water as usize,
    };
    (result, snap)
}

/// The incast sweep over sender fan-in.
pub fn incast_sweep() -> Vec<IncastResult> {
    [2usize, 4, 8]
        .into_iter()
        .map(|senders| incast_run(senders, INCAST_STREAM_BYTES))
        .collect()
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
/// starts `senders` relayed streams (with the `gateway_failover`
/// preference), and — unless `baseline` — fail-stops
/// the destination-side primary gateway once a third of the bytes have
/// arrived. Returns exact-delivery verdicts and the recovery latency.
///
/// With `instrument`, a short prelude exercises the other telemetry
/// surfaces in the same world before the streams start — one CORBA
/// invocation and one MPI exchange — so the scraped snapshot covers both
/// personalities on top of the trunk/route/proxy metrics the failover
/// itself produces. The prelude fully drains before the streams start,
/// so it never overlaps the measured recovery.
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

/// The telemetry scenario: one *instrumented* faulted failover run (a
/// CORBA invocation and an MPI exchange preceding the gateway-kill
/// stream scenario), scraped into a single [`MetricsSnapshot`] at
/// quiescence. Returns the snapshot plus the exact-delivery/recovery
/// verdicts the caller gates on.
pub fn failover_metrics(senders: usize) -> (MetricsSnapshot, bool, Option<f64>, usize) {
    let out = failover_case(senders, false, true);
    (out.metrics, out.completed, out.recovery_ms, out.migrated)
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

/// Renders the multi-site, incast, failover and churn results as one
/// machine-readable JSON document (`tests/golden/multi_site.json`).
pub fn multi_site_json(
    results: &[MultiSiteResult],
    incast: &[IncastResult],
    failover: &[FailoverResult],
    churn: &[ChurnResult],
) -> String {
    let mut s = String::from("{\n  \"experiment\": \"multi_site\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"sites\": {}, \"layout\": \"{}\", \"backbone\": \"{}\", \"hops\": {}, ",
                "\"stream_goodput_mb_s\": {:.4}, \"stream_bytes\": {}}}{}\n"
            ),
            r.sites,
            r.layout.label(),
            r.backbone,
            r.hops,
            r.stream_goodput_mb_s,
            r.stream_bytes,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n  \"incast\": [\n");
    for (i, r) in incast.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"senders\": {}, \"bytes_per_sender\": {}, ",
                "\"bytes_delivered\": {}, \"elapsed_ms\": {:.4}, ",
                "\"parked_streams_peak\": {}, \"gateway_stream_high_water\": {}}}{}\n"
            ),
            r.senders,
            r.bytes_per_sender,
            r.bytes_delivered,
            r.elapsed_ms,
            r.parked_streams_peak,
            r.gateway_stream_high_water,
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
    // The failover-phase telemetry snapshot (widest fan-in), so the
    // artifact carries the full counter state of the faulted run.
    s.push_str("  ],\n  \"metrics\": ");
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
        // SAN, backbone, SAN: the stream crossed both gateways (the run
        // itself asserts every byte arrived).
        assert_eq!(r.hops, 3);
        assert!(r.stream_goodput_mb_s > 0.0, "{r:?}");
        // The 100 Mbit/s VTHD backbone bounds the relayed stream.
        assert!(r.stream_goodput_mb_s < 12.5, "{r:?}");
    }

    #[test]
    fn ring_routes_grow_with_site_count() {
        let r4 = multi_site_run(4, Layout::Ring, "vthd-wan", NetworkSpec::vthd_wan());
        let r6 = multi_site_run(6, Layout::Ring, "vthd-wan", NetworkSpec::vthd_wan());
        assert!(r4.hops >= 4, "{r4:?}");
        assert!(r6.hops > r4.hops, "{r6:?} vs {r4:?}");
        // Each extra backbone segment adds a gateway hop and ≥ 8 ms of
        // latency, so the same transfer takes longer.
        assert!(
            r6.stream_goodput_mb_s < r4.stream_goodput_mb_s,
            "{r6:?} vs {r4:?}"
        );
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
        world.run_for(simnet::SimDuration::from_millis(2));
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
    fn incast_delivers_exactly_and_credit_bounds_the_stream_window() {
        const WINDOW: usize = 256 * 1024;
        for senders in [2usize, 4] {
            let r = incast_run(senders, INCAST_STREAM_BYTES);
            // Every byte arrives: trunks never drop.
            assert_eq!(r.bytes_delivered, senders * INCAST_STREAM_BYTES, "{r:?}");
            // The default preferences window every trunk stream: streams
            // park at the entry gateway, and every stream's buffer at the
            // exit gateway stays within its window.
            assert!(r.parked_streams_peak > 0, "{r:?}");
            assert!(r.gateway_stream_high_water > 0, "{r:?}");
            assert!(r.gateway_stream_high_water <= WINDOW, "{r:?}");
        }
    }
}
