//! gridbench — the repo's one benchmark. See `README.md`.
//!
//! ```text
//! gridbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! gridbench selfcheck [--quick]
//! gridbench catalogue
//! ```
//!
//! A run prints a `report` line (everything it measured) and then, as
//! the last line of stdout, the result line the driver reads.

mod alloc;
mod flows;
mod harness;
mod json;
mod ladder;
mod layers;
mod rungs;
mod selfcheck;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use json::{obj, Json};
use workloads::{Kind, Outcome, RunCfg};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The six end-to-end metrics: `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.20),
    ("host_ops_per_s", "op/s", "higher", 0.10),
    ("peak_heap_mb", "MB", "lower", 0.02),
    ("virt_latency_us_p50", "us_virtual", "lower", 0.005),
    ("virt_latency_us_p99", "us_virtual", "lower", 0.005),
    ("virt_goodput_mb_s", "MB/s_virtual", "higher", 0.005),
];

fn end_to_end_values(o: &Outcome) -> [f64; 6] {
    [
        o.setup_s,
        o.batches.fast_rate(),
        o.peak_heap_bytes as f64 / 1e6,
        o.lat_p50_ns as f64 / 1e3,
        o.lat_p99_ns as f64 / 1e3,
        o.virt_goodput_mb_s(),
    ]
}

/// Writes one line to stdout. A reader that has gone away (`| head -1`)
/// is not an error worth a panic.
pub fn emit(line: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::Num(value)), ("unit", unit.into())])
}

/// The six end-to-end metrics of a run, as the result line carries them.
fn end_to_end_json(o: &Outcome) -> Json {
    obj(END_TO_END
        .iter()
        .zip(end_to_end_values(o))
        .map(|(m, v)| (m.0, metric(v, m.1))))
}

/// Runs the ladder that belongs to the workload, if any.
fn run_ladder(o: &mut Outcome) -> Vec<(String, f64)> {
    let cfg = &o.cfg;
    o.spans.set_on(true);
    let measured = match cfg.kind {
        Kind::SanRpcSmall | Kind::SanBulk => {
            let size = workloads::san::message_size(cfg.kind);
            ladder::ladder_a(cfg.seed, size, cfg.quick, &o.spans).map(|rungs| {
                let top: f64 = workloads::san::PERSONALITIES
                    .iter()
                    .filter_map(|p| rungs.iter().find(|(r, _)| r == p))
                    .map(|(_, t)| t.virt_us)
                    .sum();
                // A round is the five exchanges in turn, so the rungs
                // must add up to it — except that a `san_bulk` round
                // overlaps MPI and CORBA, which can save at most the
                // shorter of the two.
                let overlap = workloads::san::overlapped(cfg.kind)
                    .iter()
                    .filter_map(|p| rungs.iter().find(|(r, _)| r == p))
                    .map(|(_, t)| t.virt_us)
                    .fold(None, |least: Option<f64>, v| {
                        Some(least.map_or(v, |l| l.min(v)))
                    })
                    .unwrap_or(0.0);
                let p50 = o.lat_p50_ns as f64 / 1e3;
                if p50 > top * 1.05 || p50 < (top - overlap) * 0.95 {
                    o.violations.push(format!(
                        "ladder A: top rungs sum to {top:.3} us (overlap at most {overlap:.3}), \
                         the round's p50 is {p50:.3} us"
                    ));
                }
                layers::ladder_a_values(&rungs)
            })
        }
        Kind::WanRelayStream => {
            ladder::ladder_b(cfg.seed, cfg.quick, &o.spans).map(|r| layers::ladder_b_values(&r))
        }
        Kind::GridShortFlows | Kind::SimPartitionedRing => Ok(Vec::new()),
    };
    o.spans.set_on(false);
    measured.unwrap_or_else(|why| {
        o.violations.push(why);
        Vec::new()
    })
}

/// Per-layer values of a traced run: every catalogue name, 0 where the
/// workload's layers do no work.
fn per_layer_values(
    counters: &BTreeMap<String, f64>,
    ladder: Vec<(String, f64)>,
) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, f64> = layers::catalogue()
        .into_iter()
        .map(|m| (m.name, 0.0))
        .collect();
    values.extend(counters.clone());
    for (name, value) in ladder {
        *values
            .get_mut(&name)
            .expect("ladder names are in the catalogue") = value;
    }
    values
}

/// On the partitioned ring nothing above `simnet` may have counted
/// anything.
fn ring_layers_are_idle(o: &Outcome) -> Vec<String> {
    o.snap_after
        .iter()
        .filter(|(k, _)| !k.starts_with("sim.") && !k.starts_with("gridbench."))
        .map(|(k, _)| format!("{k} registered on a simnet-only workload"))
        .collect()
}

fn report(
    o: &Outcome,
    counters: &BTreeMap<String, f64>,
    per_layer: Option<&BTreeMap<String, f64>>,
) -> Json {
    let f = harness::fingerprint();
    let b = &o.batches;
    let mut fields = vec![
        ("workload", o.cfg.kind.name().into()),
        ("seed", o.cfg.seed.into()),
        ("timed_ops", o.cfg.ops.into()),
        ("quick", o.cfg.quick.into()),
        ("comparable", (!o.cfg.quick).into()),
        ("trace", o.cfg.trace.into()),
        ("statistics_digest", format!("{:016x}", o.digest).into()),
        ("correct", o.correct().into()),
        (
            "violations",
            Json::Arr(o.violations.iter().map(|v| v.as_str().into()).collect()),
        ),
        (
            "machine",
            obj([
                ("cores", Json::from(f.cores)),
                ("rustc", f.rustc.into()),
                ("profile", f.profile.into()),
                ("os", f.os.into()),
                ("arch", f.arch.into()),
            ]),
        ),
        (
            "setup",
            obj([
                ("fastest_quarter_s", Json::Num(o.setup_s)),
                ("builds", o.setup_builds.into()),
                ("accumulated_s", Json::Num(o.setup_total_s)),
            ]),
        ),
        (
            "run",
            obj([
                ("batches", Json::from(b.seconds.len())),
                ("ops_per_batch", b.ops_per_batch.into()),
                ("accumulated_s", Json::Num(b.total_s())),
                ("fastest_quarter_ops_per_s", Json::Num(b.fast_rate())),
                ("median_ops_per_s", Json::Num(b.median_rate())),
                ("min_ops_per_s", Json::Num(b.min_rate())),
                ("max_ops_per_s", Json::Num(b.max_rate())),
                ("batch_spread", Json::Num(b.spread())),
                (
                    "batch_seconds",
                    Json::Arr(b.seconds.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        ),
        (
            "virtual",
            obj([
                ("latency_samples", Json::from(o.lat_samples)),
                ("payload_bytes", o.payload_bytes.into()),
                ("span_ns", o.virt_span_ns.into()),
            ]),
        ),
        ("end_to_end", end_to_end_json(o)),
        // The count-valued per-layer metrics are exact and cheap, so
        // every run carries them.
        (
            "counts",
            obj(counters
                .iter()
                .filter(|(name, _)| layers::is_count(name))
                .map(|(name, v)| (name.as_str(), Json::Num(*v)))),
        ),
    ];
    if let Some(values) = per_layer {
        fields.push((
            "per_layer",
            obj(values.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
        ));
        fields.push((
            "calls",
            Json::Arr(
                o.spans
                    .all_totals()
                    .into_iter()
                    .map(|(call, t)| {
                        let (layer, function) = call.name();
                        obj([
                            ("layer", Json::from(layer)),
                            ("call", function.into()),
                            ("count", t.count.into()),
                            ("total_ns", t.total_ns.into()),
                            ("self_ns", t.self_ns.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

/// Writes the traced run's spans and numbers under `benchmark/out/`.
fn write_trace(o: &Outcome, report: &Json) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let (spans, dropped) = o.spans.log();
    let doc = obj([
        ("report", report.clone()),
        ("spans_dropped", dropped.into()),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        let (layer, function) = s.call.name();
                        Json::Arr(vec![
                            layer.into(),
                            function.into(),
                            s.start_ns.into(),
                            s.end_ns.into(),
                            if s.parent == u32::MAX {
                                Json::Null
                            } else {
                                u64::from(s.parent).into()
                            },
                            if s.op == u64::MAX {
                                Json::Null
                            } else {
                                s.op.into()
                            },
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        o.cfg.kind.name(),
        o.cfg.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()));
    if let Err(e) = written {
        eprintln!("gridbench: could not write {}: {e}", path.display());
    }
}

fn run(cfg: &RunCfg) -> ExitCode {
    let mut o = workloads::run(cfg);
    if cfg.kind == Kind::SimPartitionedRing {
        let idle = ring_layers_are_idle(&o);
        o.violations.extend(idle);
    }
    let ladder = cfg.trace.then(|| run_ladder(&mut o));
    let counters = layers::counter_values(&o);
    let per_layer = ladder.map(|l| per_layer_values(&counters, l));
    let report = report(&o, &counters, per_layer.as_ref());
    if cfg.trace {
        write_trace(&o, &report);
    }
    emit(&obj([("report", report)]).render());

    let metrics = match &per_layer {
        None => end_to_end_json(&o),
        Some(values) => {
            let units: BTreeMap<String, &str> = layers::catalogue()
                .into_iter()
                .map(|m| (m.name, m.unit))
                .collect();
            obj(values
                .iter()
                .map(|(k, v)| (k.as_str(), metric(*v, units[k]))))
        }
    };
    let result = obj([
        ("correct", Json::from(o.correct())),
        ("attempted", o.attempted.into()),
        ("failed", o.failed.into()),
        ("metrics", metrics),
    ]);
    emit(&result.render());
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        for v in &o.violations {
            eprintln!("gridbench: {v}");
        }
        ExitCode::FAILURE
    }
}

/// The contents of `BENCHMARK.json`, printed from the tables the code
/// itself uses so that file and benchmark cannot drift apart.
fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj([
        (
            "command",
            Json::Arr(command.iter().map(|&c| c.into()).collect()),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", workloads::REFERENCE_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                Kind::ALL
                    .iter()
                    .map(|k| obj([("name", Json::from(k.name())), ("why", k.why().into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        obj([
                            ("name", Json::from(name)),
                            ("unit", unit.into()),
                            ("better", better.into()),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::catalogue()
                    .into_iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gridbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
         gridbench selfcheck [--quick]\n       gridbench catalogue",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    alloc::keep_large_blocks_on_the_heap();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("selfcheck") => return selfcheck::run(quick),
        Some("catalogue") => {
            emit(&benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let parsed = (|| {
        let kind = Kind::parse(value("--workload")?)?;
        let seed = value("--seed")?.parse::<u64>().ok()?;
        let seconds = value("--seconds")?
            .parse::<u64>()
            .ok()
            .filter(|s| (1..=60).contains(s))?;
        let trace = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let mut cfg = RunCfg::new(kind, seed, seconds, trace, quick);
        if let Some(t) = value("--threads") {
            cfg.threads = t.parse().ok()?;
        }
        Some(cfg)
    })();
    match parsed {
        Some(cfg) => run(&cfg),
        None => usage(),
    }
}
