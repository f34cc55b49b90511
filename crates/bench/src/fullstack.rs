//! Full-stack partitioned execution: the real relay/trunk/credit
//! machinery running *across* shard worlds, in two steps:
//!
//! 1. **Mirror equivalence** ([`mirror_equivalence`]): every shard
//!    builds the *entire* two-site incast grid with identical node and
//!    network ids, and [`SimWorld::set_mirror_owners`] names the shard
//!    that executes each node. `send_frame` computes complete wire
//!    timing (TX/RX port occupancy, serialization, propagation) against
//!    the local mirror, then ships foreign-owned deliveries across the
//!    shard boundary at their true delivery time. With the relay
//!    fabric's wire credit plane on
//!    ([`RelayFabric::enable_wire_credit_returns`]), *every* inter-site
//!    interaction — data frames and credit returns alike — is a real
//!    trunk frame, so the partitioned run's merged
//!    [`MetricsSnapshot`] is required to be **byte-identical** to the
//!    single-queue run on the full credit-mode incast scenario.
//!    Per-trunk lookahead comes from the gateway trunk latencies via
//!    `GridTopology::trunk_lookaheads`.
//!
//! 2. **Ring scale** ([`ring_run`]): the 10⁵-node rows. Each shard
//!    hosts one full site — two Ethernet segments bridged by a gateway
//!    running a real credit-mode [`RelayFabric`] over hand-inserted
//!    [`RouteTable`] routes (the site's paths are known by
//!    construction): store-and-forward holds, credit stalls, the lot —
//!    and site gateways exchange cross-shard frames over ring trunk
//!    segments with *heterogeneous* latencies:
//!    even-indexed segments are slow, odd ones fast. The per-trunk
//!    window mode therefore beats the global-minimum window (whose
//!    width is pinned to the fastest segment) while producing the
//!    byte-identical run digest, which [`compare_windows`] asserts.

use std::cell::Cell;
use std::rc::Rc;

use gridtopo::{
    link_cost, BackpressureMode, GridTopology, Hop, RelayConfig, RelayFabric, RouteTable, SiteSpec,
};
use simnet::{
    run_partitioned, Frame, LossModel, MetricsSnapshot, NetworkSpec, NodeId, Partition, ProtoId,
    SimDuration, SimTime, SimWorld, TrunkLookahead,
};

use crate::multi_site::conservation_violations;

/// Relay port carrying the mirror-incast payload.
const MIRROR_PORT: u16 = 17;
/// Payload bytes of each mirror-incast frame.
const MIRROR_FRAME_BYTES: usize = 1024;
/// Relay port carrying the ring-scale intra-site payload.
const RING_PORT: u16 = 23;
/// Cross-shard gateway traffic tag of the ring workload.
const RING_CROSS: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 47);
/// Payload bytes of every ring-scale frame.
const RING_FRAME_BYTES: usize = 512;

// --------------------------------------------------------------------- //
// Mirror equivalence: single-queue vs partitioned, byte-identical
// --------------------------------------------------------------------- //

/// Shape of one mirror-equivalence run.
#[derive(Debug, Clone)]
pub struct MirrorConfig {
    /// Sender nodes fanning into the entry gateway.
    pub senders: usize,
    /// Frames each sender pushes to the far receiver.
    pub frames_per_sender: u64,
    /// Gateway queue capacity (small enough that senders park on
    /// credits, so backpressure genuinely cascades across the shard
    /// boundary).
    pub queue_capacity: usize,
    /// Worker threads of the partitioned run.
    pub threads: usize,
    /// World seed.
    pub seed: u64,
}

impl MirrorConfig {
    /// The CI configuration: enough overload that credits park, small
    /// enough to run in well under a second.
    pub fn smoke() -> Self {
        MirrorConfig {
            senders: 8,
            frames_per_sender: 12,
            queue_capacity: 8,
            threads: 2,
            seed: 0xF00D,
        }
    }
}

/// The two-site backbone of the mirror scenario: VTHD-WAN bandwidth and
/// latency, but lossless. Equivalence needs every network on the path
/// to draw zero RNG — the single world and the shard worlds hold
/// independent RNG streams, so any draw would legitimately diverge.
fn mirror_wan() -> NetworkSpec {
    NetworkSpec {
        name: "mirror-wan".to_string(),
        loss: LossModel::None,
        ..NetworkSpec::vthd_wan()
    }
}

/// Builds the mirror-incast grid into `world`.
///
/// Called identically for the single run (`shard == None`: one world
/// owns and drives everything) and for each shard of the partitioned
/// run (`shard == Some(s)`: the world still *builds* the whole grid —
/// same ids, same construction order — but attaches handlers and
/// schedules traffic only for the site it owns). Site 0 holds the
/// senders and the entry gateway; site 1 the exit gateway and the
/// receiver.
fn build_mirror(cfg: &MirrorConfig, world: &mut SimWorld, shard: Option<u16>) -> GridTopology {
    let grid = GridTopology::star(
        world,
        &[
            SiteSpec::san_cluster("send", cfg.senders + 1),
            SiteSpec::san_cluster("recv", 2),
        ],
        mirror_wan(),
    );
    let site_of = grid.site_of_nodes();
    if shard.is_some() {
        world.set_mirror_owners(site_of.clone());
    }
    let config = RelayConfig {
        per_hop_latency: SimDuration::from_millis(1),
        queue_capacity: cfg.queue_capacity,
        backpressure: BackpressureMode::Credit,
        ..Default::default()
    };
    let fabric = RelayFabric::new(grid.routes.clone(), config);
    // Inter-site credit returns ride real RELAY_CREDIT trunk frames in
    // *both* executors — that is what makes every cross-shard
    // interaction a wire frame the mirror boundary can intercept.
    fabric.enable_wire_credit_returns(site_of);

    let owns = |site: u16| shard.is_none_or(|s| s == site);
    if owns(0) {
        for rank in 0..grid.site(0).len() {
            fabric.attach(world, grid.site(0).node(rank));
        }
    }
    if owns(1) {
        fabric.attach(world, grid.site(1).node(0));
        let delivered = Rc::new(Cell::new(0u64));
        let d2 = delivered.clone();
        world.metrics.register_collector(move |b| {
            b.counter("fullstack.delivered", &[], d2.get());
        });
        fabric.bind(world, grid.site(1).node(1), MIRROR_PORT, move |_w, _msg| {
            delivered.set(delivered.get() + 1);
        });
    }
    if owns(0) {
        let receiver = grid.site(1).node(1);
        for i in 1..=cfg.senders {
            let sender = grid.site(0).node(i);
            for k in 0..cfg.frames_per_sender {
                let at = SimTime::from_nanos(1_000 + k * 150_000 + i as u64 * 2_700);
                let fabric = fabric.clone();
                world.schedule_at(at, move |w| {
                    fabric
                        .send(
                            w,
                            sender,
                            receiver,
                            MIRROR_PORT,
                            vec![0u8; MIRROR_FRAME_BYTES],
                        )
                        .expect("mirror incast send");
                });
            }
        }
    }
    grid
}

/// Outcome of one mirror-equivalence check.
#[derive(Debug, Clone)]
pub struct MirrorEquivalence {
    /// Unique frames the workload submits.
    pub frames_total: u64,
    /// Frames delivered to the receiver (from the merged snapshot).
    pub delivered: u64,
    /// Whether the partitioned run's merged snapshot JSON is
    /// byte-identical to the single-queue run (executor-internal
    /// `sim.executor.*` keys excluded).
    pub identical: bool,
    /// Conservation violations found in the *merged* snapshot — credits
    /// consumed in one shard world must be returned through another.
    pub conservation: Vec<String>,
    /// Barrier rounds of the partitioned run.
    pub rounds: u64,
    /// Frames that crossed the shard boundary (data + wire credits).
    pub frames_crossed: u64,
    /// Frames the shard worlds emitted across the boundary (Σ cross_out).
    pub cross_out: u64,
    /// Frames injected into shard worlds from the boundary (Σ cross_in).
    /// Conservation demands `cross_out == cross_in`.
    pub cross_in: u64,
    /// Cross-shard lookahead violations — must be 0.
    pub lookahead_violations: u64,
    /// Directed trunk edges derived from the grid.
    pub trunk_edges: usize,
}

/// Runs the full-stack incast scenario twice — once on the single-queue
/// executor, once partitioned with a mirror world per site — and
/// compares the telemetry snapshots byte for byte.
pub fn mirror_equivalence(cfg: &MirrorConfig) -> MirrorEquivalence {
    // Single-queue reference run.
    let mut world = SimWorld::new(cfg.seed);
    let grid = build_mirror(cfg, &mut world, None);
    world.run();
    let single = world.metrics_snapshot();

    // Per-trunk lookahead from the real gateway trunk latencies.
    let trunks = grid.trunk_lookaheads(&world);
    let trunk_edges = trunks.len();
    let floor = trunks
        .iter()
        .map(|(_, _, d)| d)
        .min()
        .expect("the star backbone declares trunks");

    let part = Partition {
        shards: 2,
        threads: cfg.threads,
        lookahead: floor,
        trunks: Some(trunks),
        seed: cfg.seed,
    };
    let report = run_partitioned(&part, |s, w| {
        build_mirror(cfg, w, Some(s));
    });
    let merged = MetricsSnapshot::merge(report.outcomes.iter().map(|o| &o.snapshot));

    let identical = single.to_json_excluding(&["sim.executor."])
        == merged.to_json_excluding(&["sim.executor."]);
    MirrorEquivalence {
        frames_total: cfg.senders as u64 * cfg.frames_per_sender,
        delivered: merged.counter("fullstack.delivered").unwrap_or(0),
        identical,
        conservation: conservation_violations(&merged),
        rounds: report.rounds,
        frames_crossed: report.frames_crossed,
        cross_out: report.outcomes.iter().map(|o| o.stats.cross_out).sum(),
        cross_in: report.outcomes.iter().map(|o| o.stats.cross_in).sum(),
        lookahead_violations: report.lookahead_violations(),
        trunk_edges,
    }
}

// --------------------------------------------------------------------- //
// Ring scale: full relay stack per shard, heterogeneous trunk segments
// --------------------------------------------------------------------- //

/// Shape of one full-stack ring scale run.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Shard worlds (ring sites).
    pub shards: u16,
    /// Nodes per Ethernet segment; each site holds `2 × segment_nodes`
    /// endpoints plus the bridging gateway.
    pub segment_nodes: usize,
    /// Relayed frames each near-segment node sends through the gateway
    /// to its far-segment peer.
    pub frames_per_node: u64,
    /// Frames each site's gateway sends to the next site round the ring.
    pub cross_frames_per_shard: u64,
    /// Worker threads (shard `s` runs on worker `s % threads`).
    pub threads: usize,
    /// Base RNG seed (shard `s` runs on `seed + s`).
    pub seed: u64,
}

impl RingConfig {
    /// The 10⁵-node row: 1000 sites × 101 nodes.
    pub fn hundred_k() -> Self {
        RingConfig {
            shards: 1000,
            segment_nodes: 50,
            frames_per_node: 4,
            cross_frames_per_shard: 6,
            threads: 2,
            seed: 0xF011,
        }
    }

    /// A seconds-scale shrink of the same shape, for tests.
    pub fn tiny() -> Self {
        RingConfig {
            shards: 6,
            segment_nodes: 4,
            frames_per_node: 3,
            cross_frames_per_shard: 4,
            threads: 2,
            seed: 0xF011,
        }
    }

    /// Total nodes across all shards.
    pub fn nodes(&self) -> usize {
        self.shards as usize * (2 * self.segment_nodes + 1)
    }

    /// Latency of the ring trunk segment *out of* site `s`:
    /// even-indexed segments are slow, odd ones fast. The spread is what
    /// per-trunk windows exploit — the global window is pinned to the
    /// fastest segment.
    pub fn segment_latency(&self, shard: u16) -> SimDuration {
        if shard.is_multiple_of(2) {
            SimDuration::from_micros(800)
        } else {
            SimDuration::from_micros(100)
        }
    }

    /// The per-trunk lookahead map of the ring.
    pub fn trunks(&self) -> TrunkLookahead {
        let mut t = TrunkLookahead::new();
        for s in 0..self.shards {
            t.set(s, (s + 1) % self.shards, self.segment_latency(s));
        }
        t
    }

    /// The global window width: the minimum segment latency.
    pub fn global_lookahead(&self) -> SimDuration {
        (0..self.shards)
            .map(|s| self.segment_latency(s))
            .min()
            .expect("at least one segment")
    }
}

/// Builds one full-stack ring site: two Ethernet segments bridged by a
/// gateway running a real credit-mode relay fabric, near-segment nodes
/// relaying through it to far-segment peers, and the gateway emitting
/// cross-shard frames round the ring.
fn build_ring_shard(cfg: &RingConfig, shard: u16, world: &mut SimWorld) {
    let n = cfg.segment_nodes;
    // The gateway is node 0 of every shard world — cross-shard frames
    // address it as `NodeId(0)` in the destination world.
    let gw = world.add_node(&format!("r{shard}g"));
    let near = world.add_network(NetworkSpec::ethernet_100());
    let far = world.add_network(NetworkSpec::ethernet_100());
    world.attach(gw, near);
    world.attach(gw, far);
    let near_nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            let node = world.add_node(&format!("r{shard}a{i}"));
            world.attach(node, near);
            node
        })
        .collect();
    let far_nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            let node = world.add_node(&format!("r{shard}b{i}"));
            world.attach(node, far);
            node
        })
        .collect();

    // The site's routes are known by construction — near_i reaches far_i
    // through the gateway, the gateway reaches far_i directly — so the
    // table is hand-inserted instead of computed: all-pairs Dijkstra is
    // quadratic in segment width per source.
    let mut routes = RouteTable::default();
    let (near_cost, far_cost) = (link_cost(world, near), link_cost(world, far));
    for i in 0..n {
        routes.insert(
            near_nodes[i],
            far_nodes[i],
            Hop {
                network: near,
                node: gw,
            },
            near_cost + far_cost,
        );
        routes.insert(
            gw,
            far_nodes[i],
            Hop {
                network: far,
                node: far_nodes[i],
            },
            far_cost,
        );
    }

    // A long store-and-forward dwell against a small credit pool: the
    // fan-in outruns the gateway and senders park on credits — the
    // workload exercises the credit machinery, not just the happy path.
    let fabric = RelayFabric::new(
        routes,
        RelayConfig {
            per_hop_latency: SimDuration::from_micros(500),
            queue_capacity: 4,
            backpressure: BackpressureMode::Credit,
            ..Default::default()
        },
    );
    for &node in near_nodes.iter().chain(far_nodes.iter()) {
        fabric.attach(world, node);
    }
    fabric.attach(world, gw);

    let delivered = Rc::new(Cell::new(0u64));
    let delivered_cross = Rc::new(Cell::new(0u64));
    let (d2, c2) = (delivered.clone(), delivered_cross.clone());
    world.metrics.register_collector(move |b| {
        b.counter("fullstack.delivered", &[], d2.get());
        b.counter("fullstack.delivered_cross", &[], c2.get());
    });

    for &node in &far_nodes {
        let d2 = delivered.clone();
        fabric.bind(world, node, RING_PORT, move |_w, _msg| {
            d2.set(d2.get() + 1);
        });
    }
    let c2 = delivered_cross.clone();
    world.register_handler(gw, RING_CROSS, move |_w, _net, _f| {
        c2.set(c2.get() + 1);
    });

    // Intra-site relayed traffic: every near node pushes its frames
    // through the gateway's store-and-forward queue (credit mode, so
    // the fan-in parks on gateway credits) to its far-segment peer.
    for i in 0..n {
        let (src, dst) = (near_nodes[i], far_nodes[i]);
        for k in 0..cfg.frames_per_node {
            let at = SimTime::from_nanos(1_000 + k * 100_000 + i as u64 * 3_100);
            let fabric = fabric.clone();
            world.schedule_at(at, move |w| {
                fabric
                    .send(w, src, dst, RING_PORT, vec![0u8; RING_FRAME_BYTES])
                    .expect("ring relay send");
            });
        }
    }

    // Cross-shard traffic: the gateway sends round the ring on its
    // trunk segment; the extra delay *is* the segment latency, so the
    // declared per-trunk lookahead is exact.
    let next = (shard + 1) % cfg.shards;
    let latency = cfg.segment_latency(shard);
    for k in 0..cfg.cross_frames_per_shard {
        let at = SimTime::from_nanos(40_000 + k * 500_000);
        world.schedule_at(at, move |w| {
            let frame = Frame::new(gw, NodeId(0), RING_CROSS, vec![0u8; RING_FRAME_BYTES]);
            w.send_remote(next, frame, latency);
        });
    }
}

/// Window-synchronization mode of a ring run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// One global window pinned to the minimum trunk latency.
    Global,
    /// Per-trunk windows from the ring's declared in-edges.
    PerTrunk,
}

impl WindowMode {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            WindowMode::Global => "global",
            WindowMode::PerTrunk => "per-trunk",
        }
    }
}

/// Everything one full-stack ring run measures.
#[derive(Debug, Clone)]
pub struct RingResult {
    /// Total nodes simulated.
    pub nodes: usize,
    /// Shard worlds.
    pub shards: u16,
    /// Worker threads used.
    pub threads: usize,
    /// Window mode the run synchronized under.
    pub mode: WindowMode,
    /// Window-barrier rounds executed.
    pub rounds: u64,
    /// Events executed across all shards.
    pub events_total: u64,
    /// Relayed frames submitted (summed over shards).
    pub frames_relayed: u64,
    /// Relayed frames delivered to their far-segment peer.
    pub delivered: u64,
    /// Frames that crossed a shard boundary.
    pub frames_crossed: u64,
    /// Frames the shard worlds emitted across the boundary (Σ cross_out).
    pub cross_out: u64,
    /// Frames injected into shard worlds (Σ cross_in); must equal
    /// `cross_out` — no frame may vanish or duplicate in transit.
    pub cross_in: u64,
    /// Cross-shard frames delivered to a gateway handler.
    pub delivered_cross: u64,
    /// Cross-shard frames that found no handler — must be 0.
    pub cross_unclaimed: u64,
    /// Cross-shard lookahead violations — must be 0.
    pub lookahead_violations: u64,
    /// Relay frames parked on gateway credits (credit-mode fan-in).
    pub credit_stalls: u64,
    /// FNV-1a fingerprint of the merged per-shard telemetry digest;
    /// identical across thread counts *and* window modes.
    pub digest: String,
}

/// Runs one full-stack ring measurement under the given window mode.
pub fn ring_run(cfg: &RingConfig, mode: WindowMode) -> RingResult {
    assert!(cfg.shards >= 2, "a ring needs 2+ sites");
    assert!(cfg.segment_nodes >= 1, "a segment needs a node");
    let part = Partition {
        shards: cfg.shards,
        threads: cfg.threads,
        lookahead: cfg.global_lookahead(),
        trunks: match mode {
            WindowMode::Global => None,
            WindowMode::PerTrunk => Some(cfg.trunks()),
        },
        seed: cfg.seed,
    };
    let report = run_partitioned(&part, |shard, world| build_ring_shard(cfg, shard, world));

    let mut delivered = 0u64;
    let mut delivered_cross = 0u64;
    let mut frames_relayed = 0u64;
    let mut credit_stalls = 0u64;
    let mut cross_unclaimed = 0u64;
    let mut cross_out = 0u64;
    let mut cross_in = 0u64;
    for o in &report.outcomes {
        cross_out += o.stats.cross_out;
        cross_in += o.stats.cross_in;
        delivered += o.snapshot.counter("fullstack.delivered").unwrap_or(0);
        delivered_cross += o.snapshot.counter("fullstack.delivered_cross").unwrap_or(0);
        frames_relayed += o.snapshot.counter_total("relay.fabric.frames_sent");
        credit_stalls += o.snapshot.counter_total("relay.fabric.credit_stalls");
        cross_unclaimed += o.stats.remote_unclaimed;
    }
    RingResult {
        nodes: cfg.nodes(),
        shards: cfg.shards,
        threads: report.threads,
        mode,
        rounds: report.rounds,
        events_total: report.events_total,
        frames_relayed,
        delivered,
        frames_crossed: report.frames_crossed,
        cross_out,
        cross_in,
        delivered_cross,
        cross_unclaimed,
        lookahead_violations: report.lookahead_violations(),
        credit_stalls,
        digest: format!("{:016x}", fnv1a(&report.digest())),
    }
}

/// Runs the same ring config under both window modes and returns
/// `(global, per_trunk)`. The two runs must agree byte-for-byte on the
/// digest; per-trunk must not add rounds (on the heterogeneous ring it
/// removes a large fraction of them).
pub fn compare_windows(cfg: &RingConfig) -> (RingResult, RingResult) {
    let global = ring_run(cfg, WindowMode::Global);
    let per_trunk = ring_run(cfg, WindowMode::PerTrunk);
    (global, per_trunk)
}

/// FNV-1a, 64-bit — a dependency-free fingerprint for the digest text.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// --------------------------------------------------------------------- //
// JSON rendering
// --------------------------------------------------------------------- //

/// The full-stack section of `tests/golden/multi_site.json`.
#[derive(Debug, Clone)]
pub struct FullStackReport {
    /// The mirror-equivalence outcome.
    pub equivalence: MirrorEquivalence,
    /// Ring rows (10⁵ global, 10⁵ per-trunk).
    pub rows: Vec<RingResult>,
}

fn ring_row_json(r: &RingResult) -> String {
    format!(
        concat!(
            "{{\"nodes\": {}, \"shards\": {}, \"threads\": {}, \"mode\": \"{}\", ",
            "\"rounds\": {}, \"events_total\": {}, \"frames_relayed\": {}, ",
            "\"delivered\": {}, \"frames_crossed\": {}, \"cross_out\": {}, ",
            "\"cross_in\": {}, \"delivered_cross\": {}, ",
            "\"cross_unclaimed\": {}, \"lookahead_violations\": {}, ",
            "\"credit_stalls\": {}, \"digest\": \"{}\"}}"
        ),
        r.nodes,
        r.shards,
        r.threads,
        r.mode.label(),
        r.rounds,
        r.events_total,
        r.frames_relayed,
        r.delivered,
        r.frames_crossed,
        r.cross_out,
        r.cross_in,
        r.delivered_cross,
        r.cross_unclaimed,
        r.lookahead_violations,
        r.credit_stalls,
        r.digest,
    )
}

/// Renders the `"fullstack"` JSON object embedded in
/// `tests/golden/multi_site.json` (no trailing comma or newline).
pub(crate) fn fullstack_json_section(report: &FullStackReport) -> String {
    let eq = &report.equivalence;
    let rows: Vec<String> = report.rows.iter().map(ring_row_json).collect();
    format!(
        concat!(
            "{{\"equivalence\": {{\"frames_total\": {}, \"delivered\": {}, ",
            "\"identical\": {}, \"conservation_violations\": {}, \"rounds\": {}, ",
            "\"frames_crossed\": {}, \"cross_out\": {}, \"cross_in\": {}, ",
            "\"lookahead_violations\": {}, \"trunk_edges\": {}}}, ",
            "\"rows\": [{}]}}"
        ),
        eq.frames_total,
        eq.delivered,
        eq.identical,
        eq.conservation.len(),
        eq.rounds,
        eq.frames_crossed,
        eq.cross_out,
        eq.cross_in,
        eq.lookahead_violations,
        eq.trunk_edges,
        rows.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merged snapshot of the partitioned run is byte-identical to
    /// the single-queue run — including credits consumed in one shard
    /// world and returned through a wire credit frame from another — and
    /// no frame is lost in transit.
    fn assert_mirror_equivalent(cfg: &MirrorConfig) {
        let threads = cfg.threads;
        let eq = mirror_equivalence(cfg);
        assert!(
            eq.identical,
            "partitioned full-stack snapshot diverged ({threads} threads): {eq:?}"
        );
        assert_eq!(eq.delivered, eq.frames_total, "{eq:?}");
        assert_eq!(eq.lookahead_violations, 0, "{eq:?}");
        assert!(eq.conservation.is_empty(), "{:?}", eq.conservation);
        assert_eq!(eq.cross_out, eq.cross_in, "cross-shard frame leak: {eq:?}");
        assert!(eq.cross_out > 0, "the run crossed no frames: {eq:?}");
        // 2 directed trunk edges is the 2-site star (both directions
        // of the one gateway pair); data + wire credits both crossed.
        assert_eq!(eq.trunk_edges, 2, "{eq:?}");
        assert!(
            eq.frames_crossed >= 2 * eq.frames_total,
            "every frame crosses as data and returns a wire credit: {eq:?}"
        );
    }

    #[test]
    fn mirror_run_is_byte_identical_to_single_queue() {
        assert_mirror_equivalent(&MirrorConfig::smoke());
    }

    #[test]
    fn mirror_equivalence_holds_at_any_thread_count() {
        let mut cfg = MirrorConfig::smoke();
        cfg.threads = 1;
        assert_mirror_equivalent(&cfg);
    }

    #[test]
    fn ring_windows_agree_and_per_trunk_saves_rounds() {
        let cfg = RingConfig::tiny();
        let (global, per_trunk) = compare_windows(&cfg);
        assert_eq!(
            global.digest, per_trunk.digest,
            "window mode changed the run"
        );
        assert_eq!(global.events_total, per_trunk.events_total);
        assert_eq!(per_trunk.lookahead_violations, 0);
        assert_eq!(global.lookahead_violations, 0);
        assert!(
            per_trunk.rounds < global.rounds,
            "heterogeneous segments must save rounds: {} vs {}",
            per_trunk.rounds,
            global.rounds
        );
    }

    #[test]
    fn ring_run_conserves_the_full_stack() {
        let cfg = RingConfig::tiny();
        let r = ring_run(&cfg, WindowMode::PerTrunk);
        let relayed = cfg.shards as u64 * cfg.segment_nodes as u64 * cfg.frames_per_node;
        let crossed = cfg.shards as u64 * cfg.cross_frames_per_shard;
        assert_eq!(r.nodes, cfg.nodes());
        assert_eq!(r.frames_relayed, relayed, "{r:?}");
        assert_eq!(r.delivered, relayed, "{r:?}");
        assert_eq!(r.frames_crossed, crossed, "{r:?}");
        assert_eq!(r.delivered_cross, crossed, "{r:?}");
        assert_eq!(r.cross_out, r.cross_in, "cross-shard conservation: {r:?}");
        assert_eq!(r.cross_unclaimed, 0, "{r:?}");
        assert!(r.credit_stalls > 0, "fan-in must park on credits: {r:?}");
    }

    #[test]
    fn ring_digest_is_thread_count_independent() {
        let mut cfg = RingConfig::tiny();
        cfg.threads = 1;
        let a = ring_run(&cfg, WindowMode::PerTrunk);
        cfg.threads = 3;
        let b = ring_run(&cfg, WindowMode::PerTrunk);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.rounds, b.rounds);
    }
}
