//! The per-layer metrics: their catalogue (names, units, direction — the
//! `per_layer` array of `BENCHMARK.json` is printed from it) and their
//! values for one traced run.
//!
//! Every traced run prints every name. A metric whose layer does no work
//! on the workload at hand — ladder A on a WAN workload, trunk counters
//! on the SAN pair, anything above `simnet` on the partitioned ring —
//! reads 0, which is itself the prediction "flat" made checkable.

use std::collections::BTreeMap;

use simnet::{MetricValue, MetricsSnapshot};

use crate::harness::{peak_rss_mb, Call};
use crate::ladder::{RungTotals, WanRung};
use crate::rungs::Rung;
use crate::workloads::Outcome;

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Per-rung metrics of ladder A: `(suffix, unit, better)`.
const LADDER_A: [(&str, &str, &str); 6] = [
    ("virt_self_us", "us_virtual", LOWER),
    ("host_self_ns", "ns", LOWER),
    ("events_per_op", "count", LOWER),
    ("allocs_per_op", "count", LOWER),
    ("alloc_bytes_per_byte", "B/B", LOWER),
    ("virt_goodput_mb_s", "MB/s_virtual", HIGHER),
];

/// Per-rung metrics of ladder B.
const LADDER_B: [(&str, &str, &str); 4] = [
    ("virt_goodput_mb_s", "MB/s_virtual", HIGHER),
    ("host_ns_per_kib", "ns", LOWER),
    ("events_per_kib", "count", LOWER),
    ("alloc_bytes_per_byte", "B/B", LOWER),
];

/// Counters and timed calls.
const COUNTERS: [(&str, &str, &str); 33] = [
    ("simnet.world.events_per_op", "count", LOWER),
    ("simnet.world.host_ns_per_event", "ns", LOWER),
    ("simnet.world.cancelled_share", "share", LOWER),
    ("simnet.net.wire_overhead_share", "share", LOWER),
    ("simnet.telemetry.scrape_ms", "ms", LOWER),
    ("simnet.telemetry.snapshot_bytes", "B", LOWER),
    ("simnet.telemetry.zero_value_share", "share", LOWER),
    ("simnet.partition.rounds", "count", LOWER),
    ("simnet.partition.frames_crossed", "count", LOWER),
    ("simnet.partition.events_per_round", "count", HIGHER),
    ("simnet.partition.speedup_2t", "ratio", HIGHER),
    ("simnet.arena.reuse_share", "share", HIGHER),
    ("gridtopo.builder.build_ms", "ms", LOWER),
    ("gridtopo.hier.table_bytes", "B", LOWER),
    ("gridtopo.hier.lookup_ns", "ns", LOWER),
    ("gridtopo.hier.delta_ms", "ms", LOWER),
    ("core.runtime.build_ms_per_node", "ms", LOWER),
    ("core.selector.route_cache_hit_share", "share", HIGHER),
    ("core.selector.lookup_cached_ns", "ns", LOWER),
    ("core.vlink.connect_virt_ms", "ms_virtual", LOWER),
    ("core.vlink.connect_host_us", "us", LOWER),
    ("core.relay.relayed_bytes_per_payload_byte", "B/B", LOWER),
    ("core.trunk.stream_transitions_per_mib", "count", LOWER),
    ("core.trunk.recv_high_water_bytes", "B", LOWER),
    ("madeleine.channel.messages_per_op", "count", LOWER),
    ("netaccess.madio.messages_per_op", "count", LOWER),
    ("middleware.mpi.messages_per_op", "count", LOWER),
    ("middleware.corba.requests_per_op", "count", LOWER),
    ("harness.allocs_per_op", "count", LOWER),
    ("harness.alloc_bytes_per_op", "B", LOWER),
    ("harness.peak_rss_mb", "MB", LOWER),
    ("harness.batch_spread", "share", LOWER),
    ("harness.trace_overhead_share", "share", LOWER),
];

/// True for the counter metrics that are exact counts of a seeded run
/// (no host clock in them): these are printed by every run.
pub fn is_count(name: &str) -> bool {
    COUNTERS.iter().any(|&(n, unit, _)| {
        n == name && matches!(unit, "count" | "B" | "share" | "B/B") && !n.starts_with("harness.")
    })
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn catalogue() -> Vec<LayerMetric> {
    let ladder = |layer: &str, table: &[(&str, &'static str, &'static str)]| {
        table
            .iter()
            .map(|&(suffix, unit, better)| LayerMetric {
                name: format!("{layer}.{suffix}"),
                unit,
                better,
            })
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for rung in Rung::ALL {
        out.extend(ladder(rung.layer(), &LADDER_A));
    }
    for rung in WanRung::ALL {
        out.extend(ladder(rung.layer(), &LADDER_B));
    }
    out.extend(COUNTERS.iter().map(|&(name, unit, better)| LayerMetric {
        name: name.to_string(),
        unit,
        better,
    }));
    out
}

/// Ladder-A values by metric name; a rung's self values are net of its
/// parent's totals.
pub fn ladder_a_values(rungs: &[(Rung, RungTotals)]) -> Vec<(String, f64)> {
    let total = |r: Rung| rungs.iter().find(|(x, _)| *x == r).map(|(_, t)| *t);
    let mut out = Vec::new();
    for &(rung, t) in rungs {
        let parent = rung.parent().and_then(total).unwrap_or_default();
        let l = rung.layer();
        out.push((format!("{l}.virt_self_us"), t.virt_us - parent.virt_us));
        out.push((format!("{l}.host_self_ns"), t.host_ns - parent.host_ns));
        out.push((format!("{l}.events_per_op"), t.events_per_op));
        out.push((format!("{l}.allocs_per_op"), t.allocs_per_op));
        out.push((format!("{l}.alloc_bytes_per_byte"), t.alloc_bytes_per_byte));
        out.push((format!("{l}.virt_goodput_mb_s"), t.virt_goodput_mb_s));
    }
    out
}

pub fn ladder_b_values(rungs: &[(WanRung, RungTotals)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for &(rung, t) in rungs {
        let l = rung.layer();
        let kib = t.bytes_per_op / 1024.0;
        out.push((format!("{l}.virt_goodput_mb_s"), t.virt_goodput_mb_s));
        out.push((format!("{l}.host_ns_per_kib"), t.host_ns / kib));
        out.push((format!("{l}.events_per_kib"), t.events_per_op / kib));
        out.push((format!("{l}.alloc_bytes_per_byte"), t.alloc_bytes_per_byte));
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of a snapshot's entries whose value is zero.
fn zero_share(snap: &MetricsSnapshot) -> f64 {
    let zeros = snap
        .iter()
        .filter(|(_, v)| match v {
            MetricValue::Counter(c) => *c == 0,
            MetricValue::Gauge(g) => *g == 0,
            MetricValue::Histogram(h) => h.count() == 0,
        })
        .count();
    ratio(zeros as f64, snap.len() as f64)
}

/// The counter-valued per-layer metrics of one run: deltas of the
/// program's own `MetricsSnapshot` keys over the timed run phase, the
/// harness's spans and allocator counts, and whatever the workload
/// probed itself (`Outcome::extra`). Names the workload's layers do not
/// touch stay 0.
pub fn counter_values(o: &Outcome) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = COUNTERS.iter().map(|c| (c.0.to_string(), 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        *v.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue")) = value;
    };
    let delta = |name: &str| {
        o.snap_after.counter_total(name) as f64 - o.snap_before.counter_total(name) as f64
    };
    let ops = o.cfg.ops as f64;
    let run_s: f64 = o.batches.seconds.iter().sum();

    let events = o.run_events as f64;
    set("simnet.world.events_per_op", ratio(events, ops));
    set("simnet.world.host_ns_per_event", ratio(run_s * 1e9, events));
    set(
        "simnet.world.cancelled_share",
        ratio(
            delta("sim.world.events_cancelled"),
            delta("sim.world.events_scheduled"),
        ),
    );
    set(
        "simnet.net.wire_overhead_share",
        1.0 - ratio(
            delta("sim.net.payload_bytes_sent"),
            delta("sim.net.wire_bytes_sent"),
        )
        .min(1.0),
    );
    set(
        "simnet.telemetry.snapshot_bytes",
        o.snap_after.to_json().len() as f64,
    );
    set(
        "simnet.telemetry.zero_value_share",
        zero_share(&o.snap_after),
    );
    let pool = |key: &str| {
        o.snap_after
            .counter_total(&format!("sim.executor.pool.{key}")) as f64
    };
    set(
        "simnet.arena.reuse_share",
        ratio(pool("reused"), pool("reused") + pool("allocated")),
    );

    let mean_ms = |call: Call| {
        let t = o.spans.totals(call);
        ratio(t.total_ns as f64 / 1e6, t.count as f64)
    };
    set("gridtopo.builder.build_ms", mean_ms(Call::GridStar));
    let nodes = o.snap_after.gauge("sim.world.nodes").unwrap_or(0) as f64;
    set(
        "core.runtime.build_ms_per_node",
        ratio(
            mean_ms(Call::RuntimesForGrid) + mean_ms(Call::RuntimesForCluster),
            nodes,
        ),
    );
    let (hits, misses) = (delta("route.cache.hits"), delta("route.cache.misses"));
    set(
        "core.selector.route_cache_hit_share",
        ratio(hits, hits + misses),
    );
    let payload = o.payload_bytes as f64;
    set(
        "core.relay.relayed_bytes_per_payload_byte",
        ratio(
            delta("relay.proxy.bytes_forward") + delta("relay.proxy.bytes_backward"),
            payload,
        ),
    );
    set(
        "core.trunk.stream_transitions_per_mib",
        ratio(
            delta("trunk.credit.stream_transitions"),
            payload / (1 << 20) as f64,
        ),
    );
    let high_water = o
        .snap_after
        .with_prefix("trunk.memory.recv_high_water")
        .filter_map(|(k, _)| o.snap_after.gauge(k))
        .max();
    set(
        "core.trunk.recv_high_water_bytes",
        high_water.unwrap_or(0) as f64,
    );

    for (name, key) in [
        (
            "madeleine.channel.messages_per_op",
            "madeleine.channel.messages_sent",
        ),
        (
            "netaccess.madio.messages_per_op",
            "netaccess.madio.messages_sent",
        ),
        ("middleware.mpi.messages_per_op", "mw.mpi.messages_sent"),
        ("middleware.corba.requests_per_op", "mw.corba.requests_sent"),
    ] {
        set(name, ratio(delta(key), ops));
    }

    set("harness.allocs_per_op", ratio(o.run_allocs as f64, ops));
    set(
        "harness.alloc_bytes_per_op",
        ratio(o.run_alloc_bytes as f64, ops),
    );
    set("harness.peak_rss_mb", peak_rss_mb());
    // A traced run alternates traced and untraced batches; only the
    // untraced half says how steady the run was.
    match &o.batches_traced {
        Some((on, off)) => {
            set("harness.batch_spread", off.spread());
            set(
                "harness.trace_overhead_share",
                1.0 - on.fast_rate() / off.fast_rate(),
            );
        }
        None => set("harness.batch_spread", o.batches.spread()),
    }
    for &(name, value) in &o.extra {
        set(name, value);
    }
    v
}
