//! The five workloads and the phase driver the four single-world ones
//! share (`sim_partitioned_ring` drives `run_partitioned` itself).

pub mod grid;
pub mod ring;
pub mod san;
pub mod wan;

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{MetricsSnapshot, SimDuration, SimWorld};

use crate::alloc;
use crate::harness::{
    self, fastest_quarter_mean, percentile_sorted, BatchTimes, Call, Fnv, Spans, BATCHES,
    MIN_TIMED_S, SETUP_ACCUMULATE_S, SETUP_HARD_CAP, SETUP_MAX_BUILDS, SETUP_MIN_BUILDS,
    WARMUP_DIVISOR,
};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SanRpcSmall,
    SanBulk,
    WanRelayStream,
    GridShortFlows,
    SimPartitionedRing,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SanRpcSmall,
        Kind::SanBulk,
        Kind::WanRelayStream,
        Kind::GridShortFlows,
        Kind::SimPartitionedRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SanRpcSmall => "san_rpc_small",
            Kind::SanBulk => "san_bulk",
            Kind::WanRelayStream => "wan_relay_stream",
            Kind::GridShortFlows => "grid_short_flows",
            Kind::SimPartitionedRing => "sim_partitioned_ring",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::SanRpcSmall => "parallel world, per-message cost: 64 B rounds through Circuit, VLink, MPI, CORBA and Java sockets on one SAN pair; transport, gridtopo and trunks do nothing",
            Kind::SanBulk => "same world and layers used the other way, per-byte cost: 1 MiB rounds, MPI and CORBA in flight together; a zero-copy change gains here and may lose on san_rpc_small",
            Kind::WanRelayStream => "distributed world, few long flows: four relayed cross-site VLinks on three sites; tcp, parallel streams, relay, trunks and credits do the work, middleware none",
            Kind::GridShortFlows => "distributed world, many short flows on 512 runtimes: connect, selector and route cache, hier lookups, trunk stream open/close; the only large set-up and snapshot",
            Kind::SimPartitionedRing => "simnet alone under run_partitioned (wheel, arena, windows, cross-shard exchange): a stack change must leave it flat, an executor change shows here first",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Timed ops of one run at the reference duration
    /// ([`REFERENCE_SECONDS`]). Work is fixed by this table, never by a
    /// wall-clock deadline, so counts and virtual statistics repeat
    /// exactly; `--seconds` only scales it.
    pub fn reference_ops(self) -> u64 {
        match self {
            Kind::SanRpcSmall => 400_000,
            Kind::SanBulk => 4_000,
            Kind::WanRelayStream => 12_000,
            Kind::GridShortFlows => 60_000,
            Kind::SimPartitionedRing => 16_000_000,
        }
    }
}

/// `--seconds` value the op table is sized for on the reference machine.
pub const REFERENCE_SECONDS: u64 = 10;
/// `--quick` divides every op count by this.
pub const QUICK_DIVISOR: u64 = 20;

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub kind: Kind,
    pub seed: u64,
    /// Timed ops (a multiple of [`BATCHES`]).
    pub ops: u64,
    pub trace: bool,
    pub quick: bool,
    /// Worker threads for `sim_partitioned_ring` (1 for every reported
    /// end-to-end number).
    pub threads: usize,
}

impl RunCfg {
    pub fn new(kind: Kind, seed: u64, seconds: u64, trace: bool, quick: bool) -> RunCfg {
        let mut ops = kind.reference_ops() * seconds / REFERENCE_SECONDS;
        if quick {
            ops /= QUICK_DIVISOR;
        }
        let ops = (ops / BATCHES).max(1) * BATCHES;
        RunCfg {
            kind,
            seed,
            ops,
            trace,
            quick,
            threads: 1,
        }
    }

    pub fn warmup_ops(&self) -> u64 {
        (self.ops / WARMUP_DIVISOR).max(1)
    }

    pub fn ops_per_batch(&self) -> u64 {
        self.ops / BATCHES
    }
}

/// What the virtual clients completed: one latency per op, in
/// completion order, and the payload bytes delivered and verified. Owned
/// by the driver and allocated before the heap baseline is taken, so the
/// harness's own bookkeeping is not part of `peak_heap_mb`.
pub struct OpLog {
    pub lat_ns: Vec<u64>,
    pub bytes: u64,
}

pub type SharedLog = Rc<RefCell<OpLog>>;

impl OpLog {
    pub fn shared(capacity: u64) -> SharedLog {
        Rc::new(RefCell::new(OpLog {
            lat_ns: Vec::with_capacity(capacity as usize),
            bytes: 0,
        }))
    }

    pub fn record(&mut self, latency: SimDuration, bytes: u64) {
        self.lat_ns.push(latency.as_nanos());
        self.bytes += bytes;
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }
}

/// A single-world workload: one `SimWorld`, closed-loop virtual clients.
pub trait World: Sized {
    /// What the seed generates — payloads, size draws, the pairs each op
    /// connects — made once, before set-up is timed and before the heap
    /// baseline, so the program under test only ever receives inputs.
    type Inputs;

    fn inputs(cfg: &RunCfg) -> Self::Inputs;

    /// World, topology, routes, runtimes, listeners and connections —
    /// everything up to the first op.
    fn build(cfg: &RunCfg, inputs: Rc<Self::Inputs>, log: SharedLog, spans: &Rc<Spans>) -> Self;

    fn sim(&self) -> &SimWorld;

    /// Runs the world until `n` more ops have completed. `Err` means an
    /// op failed: it stalled, timed out in virtual time, or failed
    /// verification.
    fn run_ops(&mut self, n: u64, spans: &Spans) -> Result<(), String>;

    /// Quiesces the world and runs the workload's own end-of-run checks;
    /// returns what they found wrong.
    fn finish(&mut self, spans: &Spans) -> Vec<String>;

    /// Traced runs only, after everything else: timed calls into single
    /// layers of the quiesced world, as `(per-layer metric, value)`.
    fn layer_probes(&mut self, _spans: &Spans) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything one run of one workload measured.
pub struct Outcome {
    pub cfg: RunCfg,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty = correct).
    pub violations: Vec<String>,
    pub digest: u64,

    pub setup_s: f64,
    pub setup_builds: usize,
    pub setup_total_s: f64,
    pub batches: BatchTimes,
    /// Batch times with the span recorder on / off (traced runs only).
    pub batches_traced: Option<(BatchTimes, BatchTimes)>,
    pub peak_heap_bytes: u64,
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub lat_samples: usize,
    pub payload_bytes: u64,
    pub virt_span_ns: u64,

    /// Simulator events executed by the timed run phase (and, on the
    /// single-world workloads, the closing quiesce).
    pub run_events: u64,
    /// Allocator activity over the timed run phase.
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    /// Snapshots at the start of the timed run phase and after the
    /// end-of-run quiesce (`sim_partitioned_ring`: merged over shards).
    pub snap_before: MetricsSnapshot,
    pub snap_after: MetricsSnapshot,
    pub spans: Rc<Spans>,
    /// Workload-specific per-layer values measured along the way.
    pub extra: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    pub fn virt_goodput_mb_s(&self) -> f64 {
        self.payload_bytes as f64 / 1e6 / (self.virt_span_ns as f64 / 1e9)
    }
}

/// Repeats `build` (dropping each world before the next) until set-up
/// time has accumulated, then builds the world the run will use. Returns
/// that world, the per-build seconds (its own included) and the live
/// heap size just before it was built.
fn measured_setup<W: World>(
    cfg: &RunCfg,
    log: &SharedLog,
    spans: &Rc<Spans>,
) -> (W, Vec<f64>, u64) {
    let inputs = Rc::new(W::inputs(cfg));
    let build = |spans: &Rc<Spans>| {
        let g = spans.enter(Call::Build, u64::MAX);
        let built = harness::timed(|| W::build(cfg, inputs.clone(), log.clone(), spans));
        spans.exit(g);
        built
    };
    let mut samples = Vec::with_capacity(SETUP_HARD_CAP);
    let mut total = 0.0;
    let enough = |n: usize, total: f64| {
        n >= SETUP_HARD_CAP
            || (n >= SETUP_MIN_BUILDS && total >= SETUP_ACCUMULATE_S)
            || (n >= SETUP_MAX_BUILDS && total >= MIN_TIMED_S)
    };
    // The world the run uses is one more build after this loop.
    while !enough(samples.len() + 1, total) {
        let (world, s) = build(spans);
        drop(world);
        samples.push(s);
        total += s;
    }
    let baseline = alloc::restart_peak();
    let (world, s) = build(spans);
    samples.push(s);
    (world, samples, baseline)
}

/// Digest of a run's virtual results: the latencies in completion order
/// and the final snapshot minus executor bookkeeping.
pub fn statistics_digest(latencies: &[u64], snapshot: &MetricsSnapshot) -> u64 {
    let mut h = Fnv::default();
    for l in latencies {
        h.write(&l.to_le_bytes());
    }
    h.write(snapshot.to_json_excluding(&["sim.executor."]).as_bytes());
    h.0
}

/// Conservation laws read from a quiesced world's snapshot. Only keys
/// the stack registers are consulted; a family that is absent is simply
/// not in use on this workload.
pub fn conservation_violations(snap: &MetricsSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    let total = |name: &str| snap.counter_total(name);

    let (consumed, returned) = (
        total("trunk.credit.credits_consumed"),
        total("trunk.credit.credits_returned"),
    );
    if consumed != returned {
        out.push(format!(
            "trunk credits consumed {consumed} != returned {returned}"
        ));
    }
    for (key, value) in snap.iter() {
        let parked = key.starts_with("trunk.memory.parked_streams")
            || key.starts_with("trunk.memory.recv_occupancy")
            || key.starts_with("relay.fabric.parked_frames");
        if parked && snap.gauge(key).unwrap_or(0) != 0 {
            out.push(format!("{key} = {value:?} at quiescence"));
        }
    }
    // Per network: every frame sent was delivered, dropped or unclaimed,
    // and on these lossless-by-construction workloads none is unclaimed.
    for (key, _) in snap.with_prefix("sim.net.frames_unclaimed{") {
        let n = snap.counter(key).unwrap_or(0);
        if n != 0 {
            out.push(format!(
                "{key} = {n}: frames reached a node with no handler"
            ));
        }
    }
    out
}

fn events(snap: &MetricsSnapshot) -> u64 {
    snap.counter("sim.world.events_executed").unwrap_or(0)
}

/// Milliseconds of one full scrape — `metrics_snapshot()` then
/// `to_json()` — of a live world, over at least 21 scrapes and 50 ms.
fn scrape_ms(world: &SimWorld, spans: &Spans) -> f64 {
    let (seconds, _, _) = harness::repeated_call_s(21, 2001, MIN_TIMED_S, || {
        let g = spans.enter(Call::MetricsSnapshot, u64::MAX);
        let snap = world.metrics_snapshot();
        spans.exit(g);
        let g = spans.enter(Call::ToJson, u64::MAX);
        std::hint::black_box(snap.to_json());
        spans.exit(g);
    });
    seconds * 1e3
}

/// Drives one single-world workload through build / warm-up / run /
/// quiesce and collects what the metrics are computed from.
pub fn run_single_world<W: World>(cfg: &RunCfg) -> Outcome {
    let spans = Spans::new();
    spans.set_on(cfg.trace);

    // ---- build ---------------------------------------------------------
    let log = OpLog::shared(cfg.warmup_ops() + cfg.ops);
    let (mut w, setup_samples, heap_baseline) = measured_setup::<W>(cfg, &log, &spans);
    spans.set_on(false);

    // ---- warm-up (untimed): route caches, trunks, allocator ------------
    let mut failure = w.run_ops(cfg.warmup_ops(), &spans).err();
    let (warm_ops, warm_bytes) = (log.borrow().ops(), log.borrow().bytes);
    let warm_now = w.sim().now();
    let snap_before = w.sim().metrics_snapshot();
    let heap_before = alloc::heap();

    // ---- run: 20 equal batches ----------------------------------------
    let per_batch = cfg.ops_per_batch();
    let mut seconds = Vec::with_capacity(BATCHES as usize);
    let mut traced = Vec::with_capacity(BATCHES as usize);
    for batch in 0..BATCHES {
        if failure.is_some() {
            break;
        }
        // A traced run records spans on every other batch, so the same
        // world gives both sides of the tracing-overhead comparison.
        let on = cfg.trace && batch % 2 == 1;
        spans.set_on(on);
        let (r, s) = harness::timed(|| w.run_ops(per_batch, &spans));
        spans.set_on(false);
        failure = r.err();
        seconds.push(s);
        traced.push(on);
    }
    let heap_after = alloc::heap();
    let (done_ops, done_bytes) = (log.borrow().ops(), log.borrow().bytes);
    let virt_span_ns = w.sim().now().since(warm_now).as_nanos();

    // ---- quiesce and check --------------------------------------------
    spans.set_on(cfg.trace);
    let mut violations = w.finish(&spans);
    let g = spans.enter(Call::MetricsSnapshot, u64::MAX);
    let snap_after = w.sim().metrics_snapshot();
    spans.exit(g);
    violations.extend(conservation_violations(&snap_after));
    let peak_heap_bytes = alloc::peak() - heap_baseline;
    let mut extra = Vec::new();
    if cfg.trace {
        extra = w.layer_probes(&spans);
        extra.push(("simnet.telemetry.scrape_ms", scrape_ms(w.sim(), &spans)));
    }
    spans.set_on(false);

    let attempted = cfg.warmup_ops() + cfg.ops;
    let failed = attempted - done_ops.min(attempted);
    if let Some(why) = failure {
        violations.push(why);
    }
    if seconds.iter().sum::<f64>() < harness::MIN_TIMED_S && !cfg.quick {
        violations.push(format!(
            "run phase accumulated under {} s of timed work",
            harness::MIN_TIMED_S
        ));
    }

    let log = log.borrow();
    let digest = statistics_digest(&log.lat_ns, &snap_after);
    let mut timed_lat = log.lat_ns[warm_ops as usize..].to_vec();
    timed_lat.sort_unstable();
    let (p50, p99) = if timed_lat.is_empty() {
        (0, 0)
    } else {
        (
            percentile_sorted(&timed_lat, 0.50),
            percentile_sorted(&timed_lat, 0.99),
        )
    };

    let pick = |want: bool| BatchTimes {
        ops_per_batch: per_batch,
        seconds: seconds
            .iter()
            .zip(&traced)
            .filter(|(_, &t)| t == want)
            .map(|(&s, _)| s)
            .collect(),
    };
    let batches_traced =
        (cfg.trace && seconds.len() == BATCHES as usize).then(|| (pick(true), pick(false)));

    Outcome {
        cfg: cfg.clone(),
        attempted,
        failed,
        violations,
        digest,
        setup_s: fastest_quarter_mean(&setup_samples),
        setup_builds: setup_samples.len(),
        setup_total_s: setup_samples.iter().sum(),
        batches: BatchTimes {
            ops_per_batch: per_batch,
            seconds,
        },
        batches_traced,
        peak_heap_bytes,
        lat_p50_ns: p50,
        lat_p99_ns: p99,
        lat_samples: timed_lat.len(),
        payload_bytes: done_bytes - warm_bytes,
        virt_span_ns,
        run_events: events(&snap_after) - events(&snap_before),
        run_allocs: heap_after.allocs - heap_before.allocs,
        run_alloc_bytes: heap_after.bytes - heap_before.bytes,
        snap_before,
        snap_after,
        spans,
        extra,
    }
}

/// Runs the workload `cfg` names.
pub fn run(cfg: &RunCfg) -> Outcome {
    match cfg.kind {
        Kind::SanRpcSmall | Kind::SanBulk => run_single_world::<san::SanWorld>(cfg),
        Kind::WanRelayStream => run_single_world::<wan::WanWorld>(cfg),
        Kind::GridShortFlows => run_single_world::<grid::GridWorld>(cfg),
        Kind::SimPartitionedRing => ring::run(cfg),
    }
}
