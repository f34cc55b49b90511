//! The per-layer ladders. The stack runs nested inside one
//! `world.run_while`, so a layer cannot be timed in place from outside.
//! Instead the same exchange is issued at each layer's own public entry
//! point, in a world of its own, and a rung's *self* value is its value
//! minus its parent's.
//!
//! Ladder A (SAN pair, eight rungs) belongs to the `san_*` workloads and
//! uses their message size; ladder B (WAN, three rungs) belongs to
//! `wan_relay_stream`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridtopo::{GridTopology, SiteSpec};
use padico_core::{runtimes_for_cluster, runtimes_for_grid, SelectorPreferences};
use simnet::{topology, SimDuration, SimTime, SimWorld};
use transport::{ParallelStream, ParallelStreamConfig, TcpStack};

use crate::alloc;
use crate::flows::{run_until_logged, serve, Flow, Pipe, Shared};
use crate::harness::{self, fastest_quarter_mean, Call, Spans, MIN_TIMED_S};
use crate::rungs::{
    frame_exchange, madeleine_exchange, madio_exchange, runtime_exchange, Exchange, Messages, Rung,
    Sink,
};
use crate::workloads::wan::{backbone, credit_prefs};
use crate::workloads::{OpLog, SharedLog, QUICK_DIVISOR};

/// Timed batches per rung.
const RUNG_BATCHES: u64 = 10;

fn events(world: &SimWorld) -> u64 {
    world
        .metrics_snapshot()
        .counter("sim.world.events_executed")
        .unwrap_or(0)
}

/// What one rung measured, as totals (not yet net of its parent).
#[derive(Clone, Copy, Debug, Default)]
pub struct RungTotals {
    /// Virtual time per op, µs.
    pub virt_us: f64,
    /// Host time per op, ns (fastest quarter of the batches).
    pub host_ns: f64,
    pub events_per_op: f64,
    pub allocs_per_op: f64,
    pub alloc_bytes_per_byte: f64,
    pub virt_goodput_mb_s: f64,
    /// Payload bytes per op (mean).
    pub bytes_per_op: f64,
    /// Host seconds the timed batches accumulated.
    pub timed_s: f64,
}

/// The world's clock, event count and the allocator's counters where a
/// rung's timed batches begin.
struct Window {
    now: SimTime,
    events: u64,
    heap: alloc::Heap,
}

impl Window {
    fn open(world: &SimWorld) -> Window {
        Window {
            now: world.now(),
            events: events(world),
            heap: alloc::heap(),
        }
    }

    /// Closes the window after `ops` ops moved `bytes` payload bytes in
    /// batches that took `seconds`.
    fn close(self, world: &SimWorld, ops: u64, bytes: u64, seconds: &[f64]) -> RungTotals {
        let heap = alloc::heap();
        let virt = world.now().since(self.now);
        let n = ops as f64;
        RungTotals {
            virt_us: virt.as_micros_f64() / n,
            host_ns: fastest_quarter_mean(seconds) * 1e9 * seconds.len() as f64 / n,
            events_per_op: (events(world) - self.events) as f64 / n,
            allocs_per_op: (heap.allocs - self.heap.allocs) as f64 / n,
            alloc_bytes_per_byte: (heap.bytes - self.heap.bytes) as f64 / bytes as f64,
            virt_goodput_mb_s: bytes as f64 / 1e6 / virt.as_secs_f64(),
            bytes_per_op: bytes as f64 / n,
            timed_s: seconds.iter().sum(),
        }
    }
}

// --------------------------------------------------------------------- //
// Ladder A
// --------------------------------------------------------------------- //

/// Builds the world of one ladder-A rung and its exchange.
fn rung_world(rung: Rung, seed: u64, spans: &Spans) -> (SimWorld, Exchange) {
    let g = spans.enter(Call::SanPair, u64::MAX);
    let p = topology::san_pair(seed);
    spans.exit(g);
    let mut world = p.world;
    let nodes = [p.a, p.b];
    let x = match rung {
        Rung::Frame => frame_exchange(&mut world, p.san, p.a, p.b),
        Rung::Madeleine => madeleine_exchange(&mut world, spans, p.san, nodes),
        Rung::MadIo => madio_exchange(&mut world, spans, p.san, nodes),
        _ => {
            let g = spans.enter(Call::RuntimesForCluster, u64::MAX);
            let rts =
                runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
            spans.exit(g);
            runtime_exchange(rung, &mut world, spans, &rts, nodes)
        }
    };
    world.run();
    (world, x)
}

/// Measures one ladder-A rung: `ops` exchanges of the workload's
/// messages, one at a time.
fn measure_rung(
    rung: Rung,
    seed: u64,
    (centre, spread): (usize, usize),
    ops: u64,
    spans: &Spans,
) -> Result<RungTotals, String> {
    let (mut world, mut x) = rung_world(rung, seed, spans);
    let mut messages = Messages::new(seed, centre, spread);
    let per_batch = (ops / RUNG_BATCHES).max(1);
    let mut exchange = |world: &mut SimWorld, x: &mut Exchange, op: u64, probe: bool| {
        let (msg, sum) = messages.next(probe);
        x.post(world, spans, op, &msg);
        let g = spans.enter(Call::RunWhile, op);
        world.run_while(|| !x.settled());
        spans.exit(g);
        if !x.settled() {
            return Err(format!("{}: exchange {op} stalled", rung.layer()));
        }
        if sum.is_some_and(|sum| !x.sink.probe_matches(sum)) {
            return Err(format!("{}: payload checksum mismatch", rung.layer()));
        }
        Ok(msg.len() as u64)
    };
    // Warm-up: connections, route caches, allocator.
    for op in 0..per_batch {
        exchange(&mut world, &mut x, op, op == 0)?;
    }
    let window = Window::open(&world);
    let mut bytes = 0;
    let mut seconds = Vec::new();
    for batch in 0..RUNG_BATCHES {
        let (r, s) = harness::timed(|| {
            (0..per_batch).try_fold(0, |sum, i| {
                let op = per_batch * (batch + 1) + i;
                exchange(&mut world, &mut x, op, false).map(|b| sum + b)
            })
        });
        bytes += r?;
        seconds.push(s);
    }
    let totals = window.close(&world, per_batch * RUNG_BATCHES, bytes, &seconds);
    exchange(&mut world, &mut x, u64::MAX, true)?;
    world.run();
    x.balanced()?;
    Ok(totals)
}

/// Refuses a rung whose host numbers rest on too little timed work
/// (`enforce` is off for `--quick` runs, whose numbers are not used).
fn enough_work(layer: &str, t: RungTotals, enforce: bool) -> Result<RungTotals, String> {
    if enforce && t.timed_s < MIN_TIMED_S {
        return Err(format!("{layer}: only {:.3} s of timed work", t.timed_s));
    }
    Ok(t)
}

/// Exchanges a ladder-A rung times: fixed per rung, so its virtual
/// numbers and counts repeat, and sized from each rung's measured cost
/// (0.8 µs for a raw frame of any size; 2–6 µs per small message above
/// it; 60 µs–1.4 ms per MiB from Madeleine's copy upwards) for two to
/// ten times [`MIN_TIMED_S`] of timed work.
fn rung_ops(rung: Rung, centre: usize, quick: bool) -> u64 {
    let bulk = centre >= 1 << 20;
    let ops = match rung {
        Rung::Frame => 200_000,
        Rung::Madeleine | Rung::MadIo if !bulk => 100_000,
        _ if !bulk => 40_000,
        Rung::Mpi | Rung::Corba | Rung::Java => 400,
        _ => 2_000,
    };
    if quick {
        ops / QUICK_DIVISOR
    } else {
        ops
    }
}

/// Ladder A for messages of `size = (centre, spread)`.
pub fn ladder_a(
    seed: u64,
    size: (usize, usize),
    quick: bool,
    spans: &Spans,
) -> Result<Vec<(Rung, RungTotals)>, String> {
    Rung::ALL
        .iter()
        .map(|&rung| {
            let t = measure_rung(rung, seed, size, rung_ops(rung, size.0, quick), spans)?;
            Ok((rung, enough_work(rung.layer(), t, !quick)?))
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Ladder B
// --------------------------------------------------------------------- //

/// The three WAN rungs, bottom up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WanRung {
    Tcp,
    Parallel,
    Relay,
}

impl WanRung {
    pub const ALL: [WanRung; 3] = [WanRung::Tcp, WanRung::Parallel, WanRung::Relay];

    pub fn layer(self) -> &'static str {
        match self {
            WanRung::Tcp => "transport.tcp",
            WanRung::Parallel => "transport.parallel",
            WanRung::Relay => "core.relay",
        }
    }
}

const WAN_CHUNK: usize = 256 * 1024;
const WAN_PORT: u16 = 2811;

fn shared(total: u64, seed: u64, log: &SharedLog, spans: &Rc<Spans>) -> Rc<Shared> {
    Rc::new(Shared {
        issued: Cell::new(0),
        total,
        flows: 1,
        depth: 2,
        timeout: SimDuration::from_secs(10),
        messages: Rc::new(RefCell::new(Messages::new(
            seed,
            WAN_CHUNK,
            WAN_CHUNK / 512,
        ))),
        log: log.clone(),
        spans: spans.clone(),
        failure: RefCell::new(None),
    })
}

/// Runs one flow of `ops` chunks over `client` and measures it. The
/// caller has connected `client` to a peer that [`serve`]s into `sink`.
fn measure_flow<P: Pipe>(
    mut world: SimWorld,
    client: P,
    sink: Rc<Sink>,
    ops: u64,
    seed: u64,
    spans: &Rc<Spans>,
) -> Result<RungTotals, String> {
    let per_batch = (ops / RUNG_BATCHES).max(1);
    let total = per_batch * (RUNG_BATCHES + 1);
    let log = OpLog::shared(total);
    let sh = shared(total, seed, &log, spans);
    let flow = Flow::new(client, sink, sh.clone());
    world.run();
    flow.fill(&mut world);
    run_until_logged(&mut world, sh.progress(), per_batch, spans)?;
    let window = Window::open(&world);
    let bytes0 = log.borrow().bytes;
    let mut seconds = Vec::new();
    for _ in 0..RUNG_BATCHES {
        let (r, s) =
            harness::timed(|| run_until_logged(&mut world, sh.progress(), per_batch, spans));
        r?;
        seconds.push(s);
    }
    let bytes = log.borrow().bytes - bytes0;
    let totals = window.close(&world, per_batch * RUNG_BATCHES, bytes, &seconds);
    flow.close(&mut world);
    world.run();
    flow.balanced()?;
    Ok(totals)
}

fn measure_wan_rung(
    rung: WanRung,
    seed: u64,
    ops: u64,
    spans: &Rc<Spans>,
) -> Result<RungTotals, String> {
    let sink = Sink::new();
    let s = sink.clone();
    match rung {
        WanRung::Tcp | WanRung::Parallel => {
            let g = spans.enter(Call::PairOver, u64::MAX);
            let mut p = topology::pair_over(seed, backbone());
            spans.exit(g);
            let (sa, sb) = (
                TcpStack::new(&mut p.world, p.a),
                TcpStack::new(&mut p.world, p.b),
            );
            if rung == WanRung::Tcp {
                sb.listen(WAN_PORT, move |_w, conn| serve(&conn, s.clone()));
                let g = spans.enter(Call::TcpConnect, u64::MAX);
                let client = sa.connect(&mut p.world, p.network, p.b, WAN_PORT);
                spans.exit(g);
                measure_flow(p.world, client, sink, ops, seed, spans)
            } else {
                // The width the selector gives a VLink on a WAN.
                let cfg = ParallelStreamConfig {
                    n_streams: SelectorPreferences::default().parallel_stream_width,
                    ..Default::default()
                };
                ParallelStream::listen(&mut p.world, &sb, WAN_PORT, cfg.clone(), move |_w, ps| {
                    serve(&ps, s.clone())
                });
                let g = spans.enter(Call::ParallelConnect, u64::MAX);
                let client =
                    ParallelStream::connect(&mut p.world, &sa, p.network, p.b, WAN_PORT, cfg);
                spans.exit(g);
                measure_flow(p.world, client, sink, ops, seed, spans)
            }
        }
        WanRung::Relay => {
            // Two sites of gateway + worker: worker to worker is relayed
            // through both gateways over their trunk.
            let mut world = SimWorld::new(seed);
            let specs = [SiteSpec::san_cluster("a", 2), SiteSpec::san_cluster("b", 2)];
            let g = spans.enter(Call::GridStar, u64::MAX);
            let grid = GridTopology::star(&mut world, &specs, backbone());
            spans.exit(g);
            let g = spans.enter(Call::RuntimesForGrid, u64::MAX);
            let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, credit_prefs());
            spans.exit(g);
            rts[3].vlink_listen(&mut world, WAN_PORT, move |_w, v| serve(&v, s.clone()));
            let g = spans.enter(Call::VlinkConnect, u64::MAX);
            let client = rts[1].vlink_connect(&mut world, grid.site(1).node(1), WAN_PORT);
            spans.exit(g);
            measure_flow(world, client, sink, ops, seed, spans)
        }
    }
}

/// Ladder B: 400 chunks of 256 KiB per rung.
pub fn ladder_b(
    seed: u64,
    quick: bool,
    spans: &Rc<Spans>,
) -> Result<Vec<(WanRung, RungTotals)>, String> {
    let ops = if quick { 400 / QUICK_DIVISOR } else { 400 };
    WanRung::ALL
        .iter()
        .map(|&rung| {
            let t = measure_wan_rung(rung, seed, ops, spans)?;
            Ok((rung, enough_work(rung.layer(), t, !quick)?))
        })
        .collect()
}
