//! Routing-scalability bench: flat all-pairs Dijkstra vs hierarchical
//! two-level routing, written to `BENCH_routing.json`.
//!
//! Runs every shape at 10²–10⁴ nodes plus the measured 10⁵-node cluster
//! case, and the linear-vs-hierarchical collective comparison. Takes no
//! arguments. The verdicts (hier ≡ flat cost equality, fewer WAN
//! crossings for the hierarchical collectives) are tests in
//! `padico_bench::routing`.

use padico_bench::routing::{
    allreduce_comparison, routing_case, routing_sweep, write_routing_json,
};

/// The measured headline size: 10⁵ nodes as 1000 sites of 100.
const SCALE_NODES: usize = 100_000;

fn main() {
    let mut cases = routing_sweep(&[100, 1000, 10_000]);
    eprintln!("routing: cluster @ {SCALE_NODES} nodes (measured)…");
    cases.push(routing_case("cluster", SCALE_NODES));
    println!(
        "{:<8} {:>6} {:>6} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "shape",
        "nodes",
        "sites",
        "flat ms",
        "hier ms",
        "build x",
        "flat bytes",
        "hier bytes",
        "bytes x",
        "hier ns"
    );
    for c in &cases {
        println!(
            "{:<8} {:>6} {:>6} {:>11.1}{} {:>12.1} {:>9.1} {:>11}{} {:>12} {:>9.1} {:>9.0}",
            c.shape,
            c.nodes,
            c.sites,
            c.flat_build_ms,
            if c.flat_measured { " " } else { "*" },
            c.hier_build_ms,
            c.build_speedup(),
            c.flat_table_bytes,
            if c.flat_measured { " " } else { "*" },
            c.hier_table_bytes,
            c.bytes_ratio(),
            c.hier_lookup_ns,
        );
    }
    println!("(* = flat numbers extrapolated from sampled Dijkstra sources)");

    let allreduce = allreduce_comparison(3, 6);
    println!(
        "allreduce over {} sites x {}: inter-site msgs linear={} hier={}, \
         completion linear={:.1}us hier={:.1}us",
        allreduce.sites,
        allreduce.nodes_per_site,
        allreduce.linear_inter_site_msgs,
        allreduce.hier_inter_site_msgs,
        allreduce.linear_us,
        allreduce.hier_us,
    );
    println!(
        "bcast inter-site msgs linear={} hier={}; barrier linear={} hier={}",
        allreduce.bcast_linear_inter_site_msgs,
        allreduce.bcast_hier_inter_site_msgs,
        allreduce.barrier_linear_inter_site_msgs,
        allreduce.barrier_hier_inter_site_msgs,
    );

    let path = write_routing_json(&cases, &allreduce).expect("write BENCH_routing.json");
    eprintln!("wrote {path}");
}
