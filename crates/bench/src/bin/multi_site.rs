//! Runs the multi-site grid experiment (site count × backbone class) and
//! the incast backpressure sweep, writing the machine-readable
//! `BENCH_multi_site.json` artifact.
//!
//! `--incast-smoke drop|credit` runs a single quick incast in the given
//! mode and exits non-zero if reliable delivery failed — or, in credit
//! mode, if any gateway frame was dropped (credit mode must be lossless).
//! `--failover-smoke` runs one gateway-kill failover case and exits
//! non-zero if recovery did not complete or any acknowledged byte was
//! lost or duplicated. `--metrics-smoke` runs one *instrumented* failover
//! case (frame relay, CORBA and MPI preludes in the same world), scrapes
//! the unified telemetry snapshot at quiescence, writes it to
//! `BENCH_multi_site_metrics.json`, and exits non-zero on any
//! conservation violation (credit leak, frame leak, parked leftovers) or
//! delivery failure. `--churn-smoke` replays a seeded flap schedule plus
//! one live site admit/drain with the transient checker at every
//! reconvergence step, writes `BENCH_churn_smoke.json`, and exits
//! non-zero on any transient violation, full-table recompute, failed
//! exchange, or conservation leak. `--scale-smoke` runs the measured
//! 10⁵-node partitioned world plus the full-stack mirror-equivalence
//! check, writes `BENCH_scale_smoke.json`, and exits non-zero if the
//! event rate falls under the floor, any cross-shard frame leaks, or the
//! partitioned snapshot diverges from the single queue's by a single
//! byte. All are used by CI as bitrot guards.

use gridtopo::BackpressureMode;
use padico_bench::fullstack::{
    compare_windows, fullstack_json_section, mirror_equivalence, threads_table, FullStackReport,
    MirrorConfig, RingConfig, WindowMode,
};
use padico_bench::{
    churn_json_row, churn_run, churn_sweep, conservation_violations, failover_metrics,
    failover_run, failover_sweep, incast_run, incast_sweep, multi_site_sweep, scale_json_section,
    scale_run, write_multi_site_json, ScaleConfig,
};

/// Minimum events per wall-clock second the 10⁵-node scale smoke must
/// sustain (conservative: CI runners may be single-core).
const SCALE_EVENTS_PER_SEC_FLOOR: f64 = 50_000.0;

/// Minimum events per wall-clock second for the full-stack smoke ring.
/// Lower than the synthetic floor: every event here runs real selector,
/// relay and credit machinery, and CI builds the smoke lane in debug.
const FULLSTACK_EVENTS_PER_SEC_FLOOR: f64 = 10_000.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--scale-smoke") {
        let r = scale_run(&ScaleConfig::hundred_k());
        println!(
            "scale smoke: {} nodes across {} shards on {} threads, \
             {} events in {:.2}s ({:.0} events/s), {} cross-shard frames, \
             digest {}",
            r.nodes,
            r.shards,
            r.threads,
            r.events_total,
            r.wall_seconds,
            r.events_per_sec,
            r.frames_crossed,
            r.digest,
        );
        let mut failed = false;
        if r.events_per_sec < SCALE_EVENTS_PER_SEC_FLOOR {
            eprintln!(
                "FAIL: {:.0} events/s under the {SCALE_EVENTS_PER_SEC_FLOOR:.0} floor",
                r.events_per_sec
            );
            failed = true;
        }
        if r.cross_unclaimed > 0 {
            eprintln!(
                "FAIL: {} cross-shard frames leaked unclaimed",
                r.cross_unclaimed
            );
            failed = true;
        }
        if r.delivered_local != r.frames_local || r.delivered_cross != r.frames_crossed {
            eprintln!(
                "FAIL: frame conservation broke (local {}/{}, cross {}/{})",
                r.delivered_local, r.frames_local, r.delivered_cross, r.frames_crossed
            );
            failed = true;
        }
        // Full-stack partitioned scenario: the real relay/credit/selector
        // machinery sharded per site must be byte-identical to the single
        // queue, conserve every cross-boundary frame, and hold the same
        // digest under both window modes and every thread count.
        let eq = mirror_equivalence(&MirrorConfig::smoke());
        println!(
            "fullstack equivalence: identical {}, {} frames delivered, \
             {} crossed ({} out / {} in), {} rounds",
            eq.identical, eq.delivered, eq.frames_crossed, eq.cross_out, eq.cross_in, eq.rounds,
        );
        if !eq.identical {
            eprintln!("FAIL: full-stack partitioned snapshot diverged from the single queue");
            failed = true;
        }
        if eq.delivered != eq.frames_total {
            eprintln!(
                "FAIL: full-stack delivery incomplete ({}/{})",
                eq.delivered, eq.frames_total
            );
            failed = true;
        }
        if eq.lookahead_violations > 0 {
            eprintln!(
                "FAIL: {} lookahead violations in the full-stack run",
                eq.lookahead_violations
            );
            failed = true;
        }
        for violation in &eq.conservation {
            eprintln!("FAIL: {violation}");
            failed = true;
        }

        let ring = RingConfig::smoke();
        let (ring_global, ring_per_trunk) = compare_windows(&ring);
        let table = threads_table(&ring, &[1, 2, ring.threads.max(2)]);
        println!(
            "fullstack ring: {} nodes / {} shards, global {} rounds \
             ({:.0} events/s), per-trunk {} rounds ({:.0} events/s), digest {}",
            ring_global.nodes,
            ring_global.shards,
            ring_global.rounds,
            ring_global.events_per_sec,
            ring_per_trunk.rounds,
            ring_per_trunk.events_per_sec,
            ring_per_trunk.digest,
        );
        if ring_global.digest != ring_per_trunk.digest {
            eprintln!(
                "FAIL: window mode changed the simulation (global {} vs per-trunk {})",
                ring_global.digest, ring_per_trunk.digest
            );
            failed = true;
        }
        if ring_per_trunk.rounds >= ring_global.rounds {
            eprintln!(
                "FAIL: per-trunk windows saved no rounds ({} vs {})",
                ring_per_trunk.rounds, ring_global.rounds
            );
            failed = true;
        }
        for row in table.iter().chain([&ring_global, &ring_per_trunk]) {
            if row.digest != ring_per_trunk.digest {
                eprintln!(
                    "FAIL: digest drifted at {} threads ({} vs {})",
                    row.threads, row.digest, ring_per_trunk.digest
                );
                failed = true;
            }
            if row.lookahead_violations > 0 {
                eprintln!(
                    "FAIL: {} lookahead violations at {} threads",
                    row.lookahead_violations, row.threads
                );
                failed = true;
            }
            if row.cross_out != row.cross_in || row.cross_unclaimed > 0 {
                eprintln!(
                    "FAIL: cross-shard leak at {} threads (out {}, in {}, unclaimed {})",
                    row.threads, row.cross_out, row.cross_in, row.cross_unclaimed
                );
                failed = true;
            }
            if row.events_per_sec < FULLSTACK_EVENTS_PER_SEC_FLOOR {
                eprintln!(
                    "FAIL: {:.0} events/s under the {FULLSTACK_EVENTS_PER_SEC_FLOOR:.0} \
                     full-stack floor at {} threads",
                    row.events_per_sec, row.threads
                );
                failed = true;
            }
        }

        let report = FullStackReport {
            equivalence: eq,
            rows: vec![ring_global, ring_per_trunk],
            threads_table: table,
        };
        let path = "BENCH_scale_smoke.json";
        std::fs::write(
            path,
            format!(
                "{{\"scale\": {}, \"fullstack\": {}}}\n",
                scale_json_section(&r),
                fullstack_json_section(&report)
            ),
        )
        .expect("write scale artifact");
        println!("wrote {path}");
        std::process::exit(if failed { 1 } else { 0 });
    }
    if args.iter().any(|a| a == "--churn-smoke") {
        let r = churn_run(4, 6);
        let path = "BENCH_churn_smoke.json";
        std::fs::write(path, format!("{}\n", churn_json_row(&r).trim_start()))
            .expect("write churn artifact");
        println!(
            "churn smoke: {} sites, {} deltas ({} incremental, {} full rebuilds), \
             reconverge {:.3} ms avg / {:.3} ms max, {} pairs disrupted at worst, \
             admit {:.3} ms, drain {:.3} ms ({} trunks retired) -> {path}",
            r.sites,
            r.steps,
            r.delta_reconvergences,
            r.full_recomputes_during_churn,
            r.reconverge_ms_avg,
            r.reconverge_ms_max,
            r.pairs_disrupted_max,
            r.admit_ms,
            r.drain_ms,
            r.trunks_retired,
        );
        let mut failed = false;
        if r.transient_violations > 0 {
            eprintln!(
                "FAIL: {} transient violations (loop/blackhole/phantom/cost)",
                r.transient_violations
            );
            failed = true;
        }
        if r.full_recomputes_during_churn > 0 {
            eprintln!(
                "FAIL: {} full table rebuilds — churn must reconverge incrementally",
                r.full_recomputes_during_churn
            );
            failed = true;
        }
        if r.sites_recomputed > 0 {
            eprintln!(
                "FAIL: flap deltas recomputed {} intra tables",
                r.sites_recomputed
            );
            failed = true;
        }
        if !r.exchanges_ok {
            eprintln!("FAIL: an application exchange blackholed during churn");
            failed = true;
        }
        if r.conservation_violations > 0 {
            eprintln!(
                "FAIL: {} conservation violations at quiescence",
                r.conservation_violations
            );
            failed = true;
        }
        std::process::exit(if failed { 1 } else { 0 });
    }
    if args.iter().any(|a| a == "--metrics-smoke") {
        let (snapshot, completed, recovery_ms, migrated) = failover_metrics(4);
        let path = "BENCH_multi_site_metrics.json";
        std::fs::write(path, snapshot.to_json()).expect("write metrics artifact");
        println!(
            "metrics smoke: {} metrics scraped -> {path}; recovery {}, \
             {migrated} migrated conns, completed: {completed}",
            snapshot.len(),
            recovery_ms
                .map(|v| format!("{v:.2} ms"))
                .unwrap_or_else(|| "n/a".to_string()),
        );
        let mut failed = false;
        for violation in conservation_violations(&snapshot) {
            eprintln!("FAIL: {violation}");
            failed = true;
        }
        if !completed {
            eprintln!("FAIL: an acknowledged byte was lost or duplicated across the failover");
            failed = true;
        }
        if recovery_ms.is_none() {
            eprintln!("FAIL: streams did not resume through the surviving gateway");
            failed = true;
        }
        // The snapshot must actually cover every telemetry surface — an
        // accidentally unregistered collector would pass conservation
        // checks vacuously.
        for prefix in [
            "relay.fabric.",
            "relay.gateway.",
            "relay.proxy.",
            "route.cache.",
            "trunk.memory.",
            "trunk.credit.",
            "mw.corba.",
            "mw.mpi.",
            "madeleine.channel.",
            "netaccess.madio.",
            "sim.world.",
        ] {
            if snapshot.with_prefix(prefix).next().is_none() {
                eprintln!("FAIL: no metrics under {prefix}* in the snapshot");
                failed = true;
            }
        }
        // Cross-shard conservation on a partitioned full-stack run: every
        // frame one shard world emits across the boundary must be injected
        // into exactly one other world (Σ `sim.executor.cross_out` ==
        // Σ `sim.executor.cross_in` over the shard worlds), and the
        // *merged* snapshot must conserve credits and frames across the cut.
        let eq = mirror_equivalence(&MirrorConfig::smoke());
        println!(
            "cross-shard conservation: {} out / {} in across the boundary",
            eq.cross_out, eq.cross_in,
        );
        if eq.cross_out != eq.cross_in {
            eprintln!(
                "FAIL: cross-shard frame leak ({} out vs {} in)",
                eq.cross_out, eq.cross_in
            );
            failed = true;
        }
        if eq.cross_out == 0 {
            eprintln!("FAIL: the partitioned run crossed no frames — the check is vacuous");
            failed = true;
        }
        for violation in &eq.conservation {
            eprintln!("FAIL: merged-snapshot conservation: {violation}");
            failed = true;
        }
        std::process::exit(if failed { 1 } else { 0 });
    }
    if args.iter().any(|a| a == "--failover-smoke") {
        let r = failover_run(4);
        println!(
            "failover smoke: {} senders, killed at {} bytes, recovery {}, \
             {} migrated conns, {:.2} MB/s (baseline {:.2}, dip {:.1}%), completed: {}",
            r.senders,
            r.killed_at_bytes,
            r.recovery_ms
                .map(|v| format!("{v:.2} ms"))
                .unwrap_or_else(|| "n/a".to_string()),
            r.migrated_connections,
            r.goodput_mb_s,
            r.baseline_goodput_mb_s,
            r.goodput_dip_pct,
            r.completed,
        );
        let mut failed = false;
        if !r.completed {
            eprintln!("FAIL: an acknowledged byte was lost or duplicated across the failover");
            failed = true;
        }
        if r.recovery_ms.is_none() {
            eprintln!("FAIL: streams did not resume through the surviving gateway");
            failed = true;
        }
        std::process::exit(if failed { 1 } else { 0 });
    }
    if let Some(i) = args.iter().position(|a| a == "--incast-smoke") {
        let mode = match args.get(i + 1).map(String::as_str) {
            Some("drop") => BackpressureMode::Drop,
            Some("credit") => BackpressureMode::Credit,
            other => {
                eprintln!("--incast-smoke needs 'drop' or 'credit', got {other:?}");
                std::process::exit(2);
            }
        };
        let r = incast_run(8, 32, mode);
        println!(
            "incast smoke [{}]: {}/{} frames, {} dropped, {} retransmitted, \
             {} rounds, {:.2} MB/s, stall {:.2} ms/sender",
            r.mode.label(),
            r.frames_delivered,
            r.frames_total,
            r.frames_dropped,
            r.retransmissions,
            r.rounds,
            r.goodput_mb_s,
            r.sender_stall_ms,
        );
        let mut failed = false;
        if r.frames_delivered != r.frames_total {
            eprintln!("FAIL: reliable delivery incomplete");
            failed = true;
        }
        if mode == BackpressureMode::Credit && r.frames_dropped > 0 {
            eprintln!("FAIL: credit mode dropped {} frames", r.frames_dropped);
            failed = true;
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let results = multi_site_sweep();
    println!(
        "{:>5} {:>6} {:>16} {:>5} {:>9} {:>10} {:>8} {:>8} {:>12} {:>14}",
        "sites",
        "layout",
        "backbone",
        "hops",
        "frames",
        "delivered",
        "relayed",
        "dropped",
        "1st-frame",
        "goodput"
    );
    for r in &results {
        println!(
            "{:>5} {:>6} {:>16} {:>5} {:>9} {:>10} {:>8} {:>8} {:>9} ms {:>9.2} MB/s",
            r.sites,
            r.layout.label(),
            r.backbone,
            r.hops,
            r.frames_sent,
            r.frames_delivered,
            r.frames_relayed,
            r.frames_dropped,
            r.first_frame_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "n/a".to_string()),
            r.stream_goodput_mb_s,
        );
    }

    let incast = incast_sweep();
    println!(
        "\n{:>7} {:>6} {:>7} {:>9} {:>8} {:>7} {:>7} {:>11} {:>13} {:>12}",
        "senders",
        "mode",
        "frames",
        "delivered",
        "dropped",
        "retx",
        "rounds",
        "elapsed",
        "goodput",
        "stall/sender"
    );
    for r in &incast {
        println!(
            "{:>7} {:>6} {:>7} {:>9} {:>8} {:>7} {:>7} {:>8.2} ms {:>8.2} MB/s {:>9.2} ms",
            r.senders,
            r.mode.label(),
            r.frames_total,
            r.frames_delivered,
            r.frames_dropped,
            r.retransmissions,
            r.rounds,
            r.elapsed_ms,
            r.goodput_mb_s,
            r.sender_stall_ms,
        );
    }

    let failover = failover_sweep();
    println!(
        "\n{:>7} {:>9} {:>11} {:>10} {:>9} {:>12} {:>12} {:>6} {:>9}",
        "senders",
        "payload",
        "killed-at",
        "recovery",
        "migrated",
        "goodput",
        "baseline",
        "dip",
        "complete"
    );
    for r in &failover {
        println!(
            "{:>7} {:>9} {:>11} {:>7} ms {:>9} {:>7.2} MB/s {:>7.2} MB/s {:>5.1}% {:>9}",
            r.senders,
            r.payload_bytes,
            r.killed_at_bytes,
            r.recovery_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "n/a".to_string()),
            r.migrated_connections,
            r.goodput_mb_s,
            r.baseline_goodput_mb_s,
            r.goodput_dip_pct,
            r.completed,
        );
    }

    let churn = churn_sweep();
    println!(
        "\n{:>5} {:>5} {:>5} {:>7} {:>6} {:>12} {:>12} {:>10} {:>9} {:>8} {:>8} {:>9}",
        "sites",
        "flaps",
        "steps",
        "incr",
        "full",
        "reconv-avg",
        "reconv-max",
        "disrupted",
        "violations",
        "admit",
        "drain",
        "exchanges"
    );
    for r in &churn {
        println!(
            "{:>5} {:>5} {:>5} {:>7} {:>6} {:>9} ms {:>9} ms {:>10} {:>9} {:>5.2} ms {:>5.2} ms {:>9}",
            r.sites,
            r.flaps,
            r.steps,
            r.delta_reconvergences,
            r.full_recomputes_during_churn,
            format!("{:.3}", r.reconverge_ms_avg),
            format!("{:.3}", r.reconverge_ms_max),
            r.pairs_disrupted_max,
            r.transient_violations,
            r.admit_ms,
            r.drain_ms,
            if r.exchanges_ok { "ok" } else { "FAILED" },
        );
    }

    let scale = scale_run(&ScaleConfig::hundred_k());
    println!(
        "\nscale: {} nodes / {} shards / {} threads, {:.0} events/s \
         ({} events, {} cross-shard frames, digest {})",
        scale.nodes,
        scale.shards,
        scale.threads,
        scale.events_per_sec,
        scale.events_total,
        scale.frames_crossed,
        scale.digest,
    );

    // Full-stack partitioned execution: the mirror-equivalence verdict,
    // the measured 10⁵ rows under both window modes, the 10⁶ per-trunk
    // row, and the threads-vs-events/s scaling table.
    let equivalence = mirror_equivalence(&MirrorConfig::smoke());
    println!(
        "\nfullstack equivalence: identical {}, {} delivered, {} crossed, {} rounds",
        equivalence.identical,
        equivalence.delivered,
        equivalence.frames_crossed,
        equivalence.rounds,
    );
    let hundred_k = RingConfig::hundred_k();
    let (ring_global, ring_per_trunk) = compare_windows(&hundred_k);
    let million = padico_bench::fullstack::ring_run(&RingConfig::million(), WindowMode::PerTrunk);
    let table = threads_table(&hundred_k, &[1, 2, 4, hundred_k.threads.max(4)]);
    println!(
        "{:>9} {:>7} {:>8} {:>10} {:>8} {:>12} {:>14} {:>9} {:>18}",
        "nodes", "shards", "threads", "mode", "rounds", "events", "events/s", "wall", "digest"
    );
    for row in [&ring_global, &ring_per_trunk, &million]
        .into_iter()
        .chain(table.iter())
    {
        println!(
            "{:>9} {:>7} {:>8} {:>10} {:>8} {:>12} {:>14.0} {:>7.2}s {:>18}",
            row.nodes,
            row.shards,
            row.threads,
            row.mode.label(),
            row.rounds,
            row.events_total,
            row.events_per_sec,
            row.wall_seconds,
            row.digest,
        );
    }
    let fullstack = FullStackReport {
        equivalence,
        rows: vec![ring_global, ring_per_trunk, million],
        threads_table: table,
    };

    match write_multi_site_json(
        &results,
        &incast,
        &failover,
        &churn,
        Some(&scale),
        Some(&fullstack),
    ) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write BENCH_multi_site.json: {e}"),
    }
}
