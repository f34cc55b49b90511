//! Runs the multi-site sweeps (site count × backbone class, incast,
//! failover, churn) and the full-stack partitioned rows, writing the
//! machine-readable `BENCH_multi_site.json`. The artifact holds no
//! wall-clock field, so it is a pure function of the code: CI
//! regenerates it and fails on any byte of difference.
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
//! exchange, or conservation leak. All are used by CI as bitrot guards.

use gridtopo::BackpressureMode;
use padico_bench::fullstack::{
    compare_windows, mirror_equivalence, FullStackReport, MirrorConfig, RingConfig,
};
use padico_bench::{
    churn_json_row, churn_run, churn_sweep, conservation_violations, failover_metrics,
    failover_run, failover_sweep, incast_run, incast_sweep, multi_site_sweep,
    write_multi_site_json,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--churn-smoke") {
        let r = churn_run(4, 6);
        let path = "BENCH_churn_smoke.json";
        std::fs::write(path, format!("{}\n", churn_json_row(&r).trim_start()))
            .expect("write churn artifact");
        println!(
            "churn smoke: {} sites, {} deltas ({} incremental, {} full rebuilds), \
             {} pairs disrupted at worst, {} trunks retired -> {path}",
            r.sites,
            r.steps,
            r.delta_reconvergences,
            r.full_recomputes_during_churn,
            r.pairs_disrupted_max,
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
        "\n{:>5} {:>5} {:>5} {:>7} {:>6} {:>10} {:>9} {:>9}",
        "sites", "flaps", "steps", "incr", "full", "disrupted", "violations", "exchanges"
    );
    for r in &churn {
        println!(
            "{:>5} {:>5} {:>5} {:>7} {:>6} {:>10} {:>9} {:>9}",
            r.sites,
            r.flaps,
            r.steps,
            r.delta_reconvergences,
            r.full_recomputes_during_churn,
            r.pairs_disrupted_max,
            r.transient_violations,
            if r.exchanges_ok { "ok" } else { "FAILED" },
        );
    }

    // Full-stack partitioned execution: the mirror-equivalence verdict
    // and the 10⁵-node ring under both window modes.
    let equivalence = mirror_equivalence(&MirrorConfig::smoke());
    println!(
        "\nfullstack equivalence: identical {}, {} delivered, {} crossed, {} rounds",
        equivalence.identical,
        equivalence.delivered,
        equivalence.frames_crossed,
        equivalence.rounds,
    );
    let (ring_global, ring_per_trunk) = compare_windows(&RingConfig::hundred_k());
    println!(
        "{:>9} {:>7} {:>8} {:>10} {:>8} {:>12} {:>18}",
        "nodes", "shards", "threads", "mode", "rounds", "events", "digest"
    );
    for row in [&ring_global, &ring_per_trunk] {
        println!(
            "{:>9} {:>7} {:>8} {:>10} {:>8} {:>12} {:>18}",
            row.nodes,
            row.shards,
            row.threads,
            row.mode.label(),
            row.rounds,
            row.events_total,
            row.digest,
        );
    }
    let fullstack = FullStackReport {
        equivalence,
        rows: vec![ring_global, ring_per_trunk],
    };

    match write_multi_site_json(&results, &incast, &failover, &churn, Some(&fullstack)) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write BENCH_multi_site.json: {e}"),
    }
}
