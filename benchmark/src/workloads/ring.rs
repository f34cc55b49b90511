//! `sim_partitioned_ring`: the simulator alone. 250 shard worlds × 40
//! nodes under `run_partitioned`, each shard a Myrinet ring of
//! self-clocked senders, shard gateways chained into a ring of trunks
//! with heterogeneous lookahead. Raw 512-byte frames from a `FramePool`;
//! no layer above `simnet` is involved, so a stack change must leave this
//! workload flat and an executor change shows here first.
//!
//! `run_partitioned` is one call that builds, runs and scrapes, so each
//! of the 20 batches (and the warm-up) is one call on a fresh partition.
//! Build time is measured inside the benchmark's own build closure and
//! taken out of the batch time; the closing per-shard scrape cannot be
//! separated from outside and stays in (≈ 1 % of a batch).

// simlint: allow-file(D2, reason = "benchmark driver: host wall time of run_partitioned and of its build closure is the measurement")
// simlint: allow-file(D4, reason = "run_partitioned builds and drops the shard worlds on worker threads, so the build-time accumulator is atomic and the latency table sits behind a mutex; both only feed reporting")

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simnet::{
    run_partitioned, Frame, FramePool, MetricsSnapshot, NetworkSpec, NodeId, Partition,
    PartitionReport, ProtoId, SimDuration, SimRng, SimTime, SimWorld, TrunkLookahead,
};

use super::{Outcome, RunCfg};
use crate::alloc;
use crate::harness::{self, fastest_quarter_mean, median, BatchTimes, Call, Fnv, Spans, BATCHES};

const SHARDS: u16 = 250;
const NODES: usize = 40;
const LOCAL: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 61);
const CROSS: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 62);
/// Frame payloads are 512 B on average: one of 16 seeded sizes within
/// 8 B of that, summing to exactly 16 × 512.
const FRAME_CENTRE: usize = 512;
const FRAME_SPREAD: usize = 8;
const FRAME_SIZES: usize = 16;
/// A cross-shard frame arrives its trunk's lookahead plus this per byte
/// after it was sent (the shard SAN's 250 MB/s).
const CROSS_NS_PER_BYTE: u64 = 4;
const POOL_BUFFERS: usize = 64;
/// A sender's gap between two of its frames.
const GAP: SimDuration = SimDuration::from_micros(20);
/// Trunk lookahead out of even and odd shards.
const SLOW_TRUNK: SimDuration = SimDuration::from_micros(40);
const FAST_TRUNK: SimDuration = SimDuration::from_micros(10);
/// Frames per batch when every sender sends one.
const FRAMES_PER_ROUND: u64 = SHARDS as u64 * (NODES as u64 + 1);

/// Frames each sender sends per batch for `ops` timed ops.
pub fn frames_per_sender(ops: u64) -> u64 {
    (ops / (BATCHES * FRAMES_PER_ROUND)).max(1)
}

/// Fills `buf[16..]` with the byte pattern of `key`.
fn pattern(key: u64, buf: &mut [u8]) {
    let mut x = key | 1;
    for chunk in buf[16..].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = x.to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Latency → frame count, over all shards of one batch.
type LatencyTable = Arc<Mutex<BTreeMap<u64, u64>>>;

/// Distinct latencies a shard sees: one per frame size for local frames
/// and one per size on its inbound trunk, with room to spare.
const SHARD_LATENCIES: usize = 64;

/// Per-shard tallies. The counters are published through the shard's
/// metrics snapshot; the latencies are kept in a fixed allocation (so
/// that how many distinct sizes a seed drew does not show in
/// `peak_heap_mb`) and merged into the batch's table when the shard
/// world is dropped, which is before `run_partitioned` returns.
#[derive(Default)]
struct Tally {
    sent: Cell<u64>,
    delivered: Cell<u64>,
    delivered_bytes: Cell<u64>,
    bad: Cell<u64>,
    /// `(latency ns, frames)`, ascending by latency.
    latency_ns: RefCell<Vec<(u64, u64)>>,
}

struct Shard {
    pool: Rc<RefCell<FramePool>>,
    tally: Tally,
    frames: u64,
    shard: u16,
    sizes: [usize; FRAME_SIZES],
    batch_latencies: LatencyTable,
}

impl Drop for Shard {
    fn drop(&mut self) {
        // A poisoned table means another shard panicked; that panic is
        // what the run reports.
        if let Ok(mut all) = self.batch_latencies.lock() {
            for &(ns, frames) in self.tally.latency_ns.borrow().iter() {
                *all.entry(ns).or_default() += frames;
            }
        }
    }
}

impl Shard {
    /// Takes a pooled buffer, stamps send time, length and key; the
    /// first and last frame of a sender also carry a checked pattern.
    fn payload(&self, world: &mut SimWorld, sender: u64, k: u64) -> Vec<u8> {
        let len = self.sizes[world.rng().gen_range(0, FRAME_SIZES as u64) as usize];
        let mut buf = self.pool.borrow_mut().take(len);
        let checked = k == 0 || k + 1 == self.frames;
        let key = (u64::from(self.shard) << 40 | sender << 20 | k) << 1 | u64::from(checked);
        buf[..8].copy_from_slice(&world.now().as_nanos().to_le_bytes());
        buf[8..16].copy_from_slice(&key.to_le_bytes());
        if checked {
            pattern(key, &mut buf);
        }
        self.tally.sent.set(self.tally.sent.get() + 1);
        buf
    }

    fn delivered(&self, world: &SimWorld, f: Frame) {
        let t = &self.tally;
        let stamp = u64::from_le_bytes(f.payload[..8].try_into().expect("8 bytes"));
        let key = u64::from_le_bytes(f.payload[8..16].try_into().expect("8 bytes"));
        if key & 1 == 1 {
            let mut want = vec![0u8; f.payload.len()];
            pattern(key, &mut want);
            if want[16..] != f.payload[16..] {
                t.bad.set(t.bad.get() + 1);
            }
        }
        let latency = world.now().as_nanos() - stamp;
        let mut seen = t.latency_ns.borrow_mut();
        match seen.binary_search_by_key(&latency, |&(ns, _)| ns) {
            Ok(i) => seen[i].1 += 1,
            Err(i) => seen.insert(i, (latency, 1)),
        }
        drop(seen);
        t.delivered.set(t.delivered.get() + 1);
        t.delivered_bytes
            .set(t.delivered_bytes.get() + f.payload.len() as u64);
        self.pool.borrow_mut().reclaim(f.payload);
    }
}

/// Sends frame `k` of a local sender and re-arms it.
fn send_local(
    world: &mut SimWorld,
    sh: &Rc<Shard>,
    net: simnet::NetworkId,
    src: NodeId,
    dst: NodeId,
    k: u64,
) {
    let payload = sh.payload(world, src.index() as u64, k);
    world
        .send_frame(net, Frame::new(src, dst, LOCAL, payload))
        .expect("ring neighbours share the shard SAN");
    if k + 1 < sh.frames {
        let sh = sh.clone();
        world.schedule_after(GAP, move |w| send_local(w, &sh, net, src, dst, k + 1));
    }
}

/// Sends frame `k` of the gateway's cross-shard stream and re-arms it.
fn send_cross(world: &mut SimWorld, sh: &Rc<Shard>, gw: NodeId, k: u64) {
    let payload = sh.payload(world, NODES as u64, k);
    let next = (sh.shard + 1) % SHARDS;
    let delay = trunk_lookahead(sh.shard)
        + SimDuration::from_nanos(CROSS_NS_PER_BYTE * payload.len() as u64);
    world.send_remote(next, Frame::new(gw, NodeId(0), CROSS, payload), delay);
    if k + 1 < sh.frames {
        let sh = sh.clone();
        world.schedule_after(GAP, move |w| send_cross(w, &sh, gw, k + 1));
    }
}

/// Lookahead of the trunk out of `shard`: even shards slow, odd fast.
fn trunk_lookahead(shard: u16) -> SimDuration {
    if shard.is_multiple_of(2) {
        SLOW_TRUNK
    } else {
        FAST_TRUNK
    }
}

/// The run's frame sizes: seeded, within `FRAME_SPREAD` of the centre,
/// and averaging it exactly (see `rungs::Messages` for why).
fn frame_sizes(seed: u64) -> [usize; FRAME_SIZES] {
    let mut rng = SimRng::seeded(seed ^ 0x7269_6e67);
    let (lo, hi) = (
        (FRAME_CENTRE - FRAME_SPREAD) as u64,
        (FRAME_CENTRE + FRAME_SPREAD) as u64,
    );
    loop {
        let mut sizes = [0; FRAME_SIZES];
        for s in &mut sizes[1..] {
            *s = rng.gen_range(lo, hi + 1) as usize;
        }
        let last = (FRAME_SIZES * FRAME_CENTRE) as i64 - sizes.iter().sum::<usize>() as i64;
        if (lo as i64..=hi as i64).contains(&last) {
            sizes[0] = last as usize;
            return sizes;
        }
    }
}

/// Builds one shard world.
fn build_shard(
    shard: u16,
    frames: u64,
    sizes: [usize; FRAME_SIZES],
    batch_latencies: LatencyTable,
    world: &mut SimWorld,
) {
    let net = world.add_network(NetworkSpec::myrinet_2000());
    let nodes: Vec<NodeId> = (0..NODES)
        .map(|i| world.add_node(&format!("s{shard}n{i}")))
        .collect();
    for &n in &nodes {
        world.attach(n, net);
    }
    let pool = Rc::new(RefCell::new(FramePool::new(POOL_BUFFERS)));
    FramePool::register_metrics(&pool, &world.metrics);
    let sh = Rc::new(Shard {
        pool,
        tally: Tally {
            latency_ns: RefCell::new(Vec::with_capacity(SHARD_LATENCIES)),
            ..Default::default()
        },
        frames,
        shard,
        sizes,
        batch_latencies,
    });
    let s = sh.clone();
    world.metrics.register_collector(move |b| {
        let t = &s.tally;
        b.counter("gridbench.ring.sent", &[], t.sent.get());
        b.counter("gridbench.ring.delivered", &[], t.delivered.get());
        b.counter(
            "gridbench.ring.delivered_bytes",
            &[],
            t.delivered_bytes.get(),
        );
        b.counter("gridbench.ring.bad_payloads", &[], t.bad.get());
    });
    for &n in &nodes {
        let s = sh.clone();
        world.register_handler(n, LOCAL, move |w, _net, f| s.delivered(w, f));
    }
    let s = sh.clone();
    world.register_handler(nodes[0], CROSS, move |w, _net, f| s.delivered(w, f));

    // Senders start staggered across one gap so the SAN is evenly busy.
    for i in 0..NODES {
        let (src, dst) = (nodes[i], nodes[(i + 1) % NODES]);
        let at = SimTime::from_nanos(1_000 + i as u64 * GAP.as_nanos() / NODES as u64);
        let s = sh.clone();
        world.schedule_at(at, move |w| send_local(w, &s, net, src, dst, 0));
    }
    let (s, gw) = (sh.clone(), nodes[0]);
    world.schedule_at(SimTime::from_nanos(1_500), move |w| {
        send_cross(w, &s, gw, 0)
    });
}

/// One batch: a fresh partition, built, run to quiescence and scraped.
struct Batch {
    report: PartitionReport,
    latency_ns: BTreeMap<u64, u64>,
    /// Seconds inside the build closure, summed over shards.
    build_s: f64,
    /// Seconds of the whole `run_partitioned` call, builds included.
    call_s: f64,
    peak_heap_bytes: u64,
}

fn run_batch(
    seed: u64,
    frames: u64,
    sizes: [usize; FRAME_SIZES],
    threads: usize,
    spans: &Spans,
) -> Batch {
    let mut trunks = TrunkLookahead::new();
    for s in 0..SHARDS {
        trunks.set(s, (s + 1) % SHARDS, trunk_lookahead(s));
    }
    let cfg = Partition {
        shards: SHARDS,
        threads,
        lookahead: FAST_TRUNK,
        trunks: Some(trunks),
        seed,
    };
    let build_ns = AtomicU64::new(0);
    let latencies = LatencyTable::default();
    let baseline = alloc::restart_peak();
    let g = spans.enter(Call::RunPartitioned, u64::MAX);
    let (report, call_s) = harness::timed(|| {
        run_partitioned(&cfg, |shard, world| {
            let t = Instant::now();
            build_shard(shard, frames, sizes, latencies.clone(), world);
            build_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        })
    });
    spans.exit(g);
    let build_ns = build_ns.load(Relaxed);
    spans.add(Call::PartitionBuild, u64::from(SHARDS), build_ns);
    let latency_ns = std::mem::take(&mut *latencies.lock().expect("every shard has finished"));
    Batch {
        report,
        latency_ns,
        build_s: build_ns as f64 / 1e9,
        call_s,
        peak_heap_bytes: alloc::peak() - baseline,
    }
}

/// What a batch's shard snapshots say went wrong.
fn batch_violations(b: &Batch, merged: &MetricsSnapshot, frames: u64) -> Vec<String> {
    let mut out = Vec::new();
    let c = |key: &str| merged.counter(key).unwrap_or(0);
    let expected = frames * FRAMES_PER_ROUND;
    let (sent, delivered) = (c("gridbench.ring.sent"), c("gridbench.ring.delivered"));
    if sent != expected || delivered != expected {
        out.push(format!(
            "sent {sent}, delivered {delivered} of {expected} frames"
        ));
    }
    if c("gridbench.ring.bad_payloads") != 0 {
        out.push(format!(
            "{} corrupt payloads",
            c("gridbench.ring.bad_payloads")
        ));
    }
    let violations = b.report.lookahead_violations();
    if violations != 0 {
        out.push(format!("{violations} lookahead violations"));
    }
    let sum = |f: fn(&simnet::PartitionStats) -> u64| -> u64 {
        b.report.outcomes.iter().map(|o| f(&o.stats)).sum()
    };
    let (cross_out, cross_in) = (sum(|s| s.cross_out), sum(|s| s.cross_in));
    if cross_out != cross_in || cross_out != b.report.frames_crossed {
        out.push(format!(
            "cross-shard frames: {cross_out} out, {cross_in} in, {} crossed",
            b.report.frames_crossed
        ));
    }
    let unclaimed = sum(|s| s.remote_unclaimed) + merged.counter_total("sim.net.frames_unclaimed");
    if unclaimed != 0 {
        out.push(format!("{unclaimed} frames reached a node with no handler"));
    }
    out
}

/// Nearest-rank percentile of a value → count table.
fn percentile_counted(counts: &BTreeMap<u64, u64>, p: f64) -> u64 {
    let total: u64 = counts.values().sum();
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0;
    for (&value, &count) in counts {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    0
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let spans = Spans::new();
    let frames = frames_per_sender(cfg.ops);
    let ops_per_batch = frames * FRAMES_PER_ROUND;
    let batch_seed = |i: u64| cfg.seed.wrapping_mul(1_000_003).wrapping_add(i * 1_000);
    let sizes = frame_sizes(cfg.seed);

    spans.set_on(cfg.trace);
    let mut violations = Vec::new();
    let mut digest = Fnv::default();
    let mut setup = Vec::new();
    let mut seconds = Vec::new();
    let mut peaks = Vec::new();
    let mut latency = BTreeMap::new();
    let (mut payload_bytes, mut virt_span_ns) = (0, 0);
    let (mut rounds, mut crossed, mut events) = (0, 0, 0);
    let (mut allocs, mut alloc_bytes, mut delivered) = (0, 0, 0);
    let mut last = MetricsSnapshot::default();

    // Batch 0 is the untimed warm-up (5 % of the timed ops).
    for i in 0..=BATCHES {
        let heap_before = alloc::heap();
        let b = run_batch(batch_seed(i), frames, sizes, cfg.threads, &spans);
        let heap_after = alloc::heap();
        let merged = MetricsSnapshot::merge(b.report.outcomes.iter().map(|o| &o.snapshot));
        violations.extend(batch_violations(&b, &merged, frames));
        digest.write(b.report.digest().as_bytes());
        digest.write(format!("{:?}", b.latency_ns).as_bytes());
        setup.push(b.build_s);
        delivered += merged.counter("gridbench.ring.delivered").unwrap_or(0);
        if i > 0 {
            seconds.push(b.call_s - b.build_s);
            peaks.push(b.peak_heap_bytes as f64);
            for (&ns, &frames) in &b.latency_ns {
                *latency.entry(ns).or_default() += frames;
            }
            payload_bytes += merged
                .counter("gridbench.ring.delivered_bytes")
                .unwrap_or(0);
            virt_span_ns += b
                .report
                .outcomes
                .iter()
                .map(|o| o.final_now.as_nanos())
                .max()
                .unwrap_or(0);
            rounds += b.report.rounds;
            crossed += b.report.frames_crossed;
            events += b.report.events_total;
            allocs += heap_after.allocs - heap_before.allocs;
            alloc_bytes += heap_after.bytes - heap_before.bytes;
        }
        last = merged;
    }

    let mut extra = vec![
        ("simnet.partition.rounds", rounds as f64 / BATCHES as f64),
        (
            "simnet.partition.frames_crossed",
            crossed as f64 / BATCHES as f64,
        ),
        (
            "simnet.partition.events_per_round",
            events as f64 / rounds.max(1) as f64,
        ),
        // The shard worlds are gone; what can still be timed is
        // rendering the merged snapshot.
        ("simnet.telemetry.scrape_ms", {
            let render = || drop(std::hint::black_box(last.to_json()));
            harness::repeated_call_s(21, 2001, harness::MIN_TIMED_S, render).0 * 1e3
        }),
    ];
    if cfg.trace {
        // Same partitions at two worker threads: the digest must not move.
        let (mut ones, mut twos) = (Vec::new(), Vec::new());
        for i in 1..=4 {
            let one = run_batch(batch_seed(i), frames, sizes, 1, &spans);
            let two = run_batch(batch_seed(i), frames, sizes, 2, &spans);
            if one.report.digest() != two.report.digest() {
                violations.push(format!("batch {i}: digest differs between 1 and 2 threads"));
            }
            ones.push(one.call_s - one.build_s);
            // Two workers build their shards side by side.
            twos.push(two.call_s - two.build_s / 2.0);
        }
        let speedup = fastest_quarter_mean(&ones) / fastest_quarter_mean(&twos);
        extra.push(("simnet.partition.speedup_2t", speedup));
    }
    spans.set_on(false);

    let attempted = ops_per_batch * (BATCHES + 1);
    if seconds.iter().sum::<f64>() < harness::MIN_TIMED_S && !cfg.quick {
        violations.push("run phase accumulated too little timed work".to_string());
    }
    let mut cfg = cfg.clone();
    cfg.ops = ops_per_batch * BATCHES;
    Outcome {
        cfg,
        attempted,
        failed: attempted - delivered.min(attempted),
        violations,
        digest: digest.0,
        setup_s: fastest_quarter_mean(&setup),
        setup_builds: setup.len(),
        setup_total_s: setup.iter().sum(),
        batches: BatchTimes {
            ops_per_batch,
            seconds,
        },
        batches_traced: None,
        peak_heap_bytes: median(&peaks) as u64,
        lat_p50_ns: percentile_counted(&latency, 0.50),
        lat_p99_ns: percentile_counted(&latency, 0.99),
        lat_samples: latency.values().sum::<u64>() as usize,
        payload_bytes,
        virt_span_ns,
        run_events: events,
        run_allocs: allocs,
        run_alloc_bytes: alloc_bytes,
        snap_before: MetricsSnapshot::default(),
        snap_after: last,
        spans,
        extra,
    }
}
