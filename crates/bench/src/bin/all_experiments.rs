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
