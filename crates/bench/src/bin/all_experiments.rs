//! Runs the paper's experiments and prints the report. With no
//! arguments every section runs; `all_experiments <section>…` runs only
//! the named ones (see [`SECTIONS`]).

use padico_bench::*;

/// `(name on the command line, banner, body)`, in report order.
const SECTIONS: &[(&str, &str, fn())] = &[
    ("table1", "Table 1", print_table1),
    ("fig3", "Figure 3", print_fig3),
    ("wan_vthd", "VTHD WAN", print_wan_vthd),
    ("vrp_lossy_link", "VRP lossy link", print_vrp_lossy_link),
    ("madio_overhead", "MadIO overhead", print_madio_overhead),
    ("mpich_overhead", "MPICH overhead", print_mpich_overhead),
    ("coexistence", "Coexistence", print_coexistence),
    (
        "adapter_selection",
        "Adapter selection",
        print_adapter_selection,
    ),
    ("multi_site", "Multi-site grid", print_multi_site),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !SECTIONS.iter().any(|(name, ..)| name == *w))
    {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, ..)| *name).collect();
        eprintln!("unknown section {unknown:?}; sections: {}", names.join(" "));
        std::process::exit(2);
    }
    for (name, banner, run) in SECTIONS {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            println!("==================== {banner} ====================");
            run();
            println!();
        }
    }
}

fn print_table1() {
    for p in table1() {
        println!(
            "{:<28} latency {:>8.2} us   max bandwidth {:>8.1} MB/s",
            p.stack.name(),
            p.latency_us,
            p.max_bandwidth_mb_s()
        );
    }
}

fn print_fig3() {
    let sizes = figure3_sizes();
    print!("{:<28}", "stack \\ size");
    for s in &sizes {
        print!("{:>10}", human_size(*s));
    }
    println!();
    for p in figure3(&sizes) {
        print!("{:<28}", p.stack.name());
        for m in &p.points {
            print!("{:>10.1}", m.bandwidth_mb_s());
        }
        println!();
    }
}

fn print_wan_vthd() {
    let w = wan_vthd(16_000_000, 4);
    println!(
        "single {:.1} MB/s | parallel({}) {:.1} MB/s | latency {:.1} ms",
        w.single_stream_mb_s, w.streams, w.parallel_streams_mb_s, w.latency_ms
    );
}

fn print_vrp_lossy_link() {
    let v = vrp_lossy_link(2_000_000, 0.10);
    println!(
        "TCP {:.0} KB/s | VRP {:.0} KB/s | speedup {:.2}x | delivered {:.3}",
        v.tcp_kb_s,
        v.vrp_kb_s,
        v.speedup(),
        v.delivered_fraction
    );
}

fn print_madio_overhead() {
    let m = madio_overhead();
    println!(
        "madeleine {:.3} us | madio {:.3} us | overhead {:.3} us",
        m.baseline_us,
        m.layered_us,
        m.overhead_us()
    );
}

fn print_mpich_overhead() {
    let m = mpich_overhead();
    println!(
        "standalone {:.2} us | inside PadicoTM {:.2} us | overhead {:.2} us",
        m.baseline_us,
        m.layered_us,
        m.overhead_us()
    );
}

fn print_coexistence() {
    let c = coexistence(200, 100);
    println!(
        "mpi {} | corba {} | madio events {} | sysio events {}",
        c.mpi_messages, c.corba_requests, c.madio_events, c.sysio_events
    );
}

fn print_adapter_selection() {
    for obs in adapter_selection() {
        println!(
            "{:<32} VLink: {:<44} Circuit: {}",
            obs.pair, obs.vlink_decision, obs.circuit_decision
        );
    }
}

fn print_multi_site() {
    let results = multi_site_sweep();
    for r in &results {
        println!(
            "{} sites ({}) over {:<16} hops {} | frames {}/{} (relayed {}, dropped {}) | first {} ms | stream {:.2} MB/s",
            r.sites,
            r.layout.label(),
            r.backbone,
            r.hops,
            r.frames_delivered,
            r.frames_sent,
            r.frames_relayed,
            r.frames_dropped,
            r.first_frame_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "n/a".to_string()),
            r.stream_goodput_mb_s,
        );
    }
    println!();
    println!("==================== Incast backpressure ====================");
    let incast = incast_sweep();
    for r in &incast {
        println!(
            "{:>2} senders [{:<6}] {}/{} frames | dropped {} retx {} rounds {} | {:.2} MB/s | stall {:.2} ms/sender",
            r.senders,
            r.mode.label(),
            r.frames_delivered,
            r.frames_total,
            r.frames_dropped,
            r.retransmissions,
            r.rounds,
            r.goodput_mb_s,
            r.sender_stall_ms,
        );
    }
    let failover = failover_sweep();
    for r in &failover {
        println!(
            "{:>2} senders failover | killed at {} B | recovery {} | migrated {} | \
             {:.2} MB/s vs {:.2} baseline | completed: {}",
            r.senders,
            r.killed_at_bytes,
            r.recovery_ms
                .map(|v| format!("{v:.2} ms"))
                .unwrap_or_else(|| "n/a".to_string()),
            r.migrated_connections,
            r.goodput_mb_s,
            r.baseline_goodput_mb_s,
            r.completed,
        );
    }
    let churn = padico_bench::churn_sweep();
    for r in &churn {
        println!(
            "{:>2} sites churn | {} deltas ({} incremental, {} full) | \
             reconverge {:.3}/{:.3} ms avg/max | {} disrupted | {} violations | \
             admit {:.2} ms drain {:.2} ms | exchanges ok: {}",
            r.sites,
            r.steps,
            r.delta_reconvergences,
            r.full_recomputes_during_churn,
            r.reconverge_ms_avg,
            r.reconverge_ms_max,
            r.pairs_disrupted_max,
            r.transient_violations,
            r.admit_ms,
            r.drain_ms,
            r.exchanges_ok,
        );
    }
    let scale = padico_bench::scale_run(&padico_bench::ScaleConfig::hundred_k());
    println!(
        "scale | {} nodes / {} shards | {:.0} events/s | digest {}",
        scale.nodes, scale.shards, scale.events_per_sec, scale.digest,
    );
    use padico_bench::fullstack::{
        compare_windows, mirror_equivalence, threads_table, FullStackReport, MirrorConfig,
        RingConfig,
    };
    let equivalence = mirror_equivalence(&MirrorConfig::smoke());
    println!(
        "fullstack equivalence | identical: {} | {} rounds | {} crossed",
        equivalence.identical, equivalence.rounds, equivalence.frames_crossed,
    );
    let hundred_k = RingConfig::hundred_k();
    let (ring_global, ring_per_trunk) = compare_windows(&hundred_k);
    println!(
        "fullstack ring | {} nodes | global {} rounds {:.0} ev/s | per-trunk {} rounds {:.0} ev/s",
        ring_global.nodes,
        ring_global.rounds,
        ring_global.events_per_sec,
        ring_per_trunk.rounds,
        ring_per_trunk.events_per_sec,
    );
    // The 10⁶-node row is deliberately omitted here (it alone takes
    // ~minutes); the canonical artifact with that row comes from the
    // `multi_site` main sweep.
    let table = threads_table(&hundred_k, &[1, 2, 4, hundred_k.threads.max(4)]);
    let fullstack = FullStackReport {
        equivalence,
        rows: vec![ring_global, ring_per_trunk],
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
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_multi_site.json: {e}"),
    }
}
