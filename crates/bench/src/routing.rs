//! The routing-scalability bench: flat all-pairs Dijkstra vs the
//! two-level hierarchical router, swept over 10²–10⁴-node grids in three
//! shapes (star-of-sites, backbone ring, cluster-of-clusters).
//!
//! For each (shape, size) case it records, into `BENCH_routing.json`:
//!
//! * **build time** — wall-clock table construction. Above
//!   [`FLAT_FULL_LIMIT`] nodes the flat table no longer fits in memory
//!   (that is the point); its build time is then measured on
//!   [`FLAT_SAMPLE_SOURCES`] real Dijkstra sources via
//!   [`RouteTable::compute_from_sources`] and extrapolated linearly,
//!   flagged `flat_measured: false`.
//! * **resident table bytes** — the payload estimator shared by both
//!   implementations ([`RouteTable::table_bytes`] /
//!   [`HierRouteTable::table_bytes`]); extrapolated per-pair above the
//!   same limit.
//! * **per-lookup latency** — full `route` + `PathInfo` materialization,
//!   for the flat table and the hierarchical table.
//! * **cost equivalence** — for a seeded sample of sources, every
//!   destination's reachability and additive cost is compared against
//!   the flat oracle. The tests below fail on any mismatch.
//!
//! A second experiment runs the topology-aware hierarchical allreduce
//! against the linear baseline on a live multi-site grid and records the
//! inter-site message counts and virtual completion times.

use std::time::Instant;

use gridtopo::{GridTopology, HierRouteTable, RouteTable, SiteSpec};
use middleware::MpiComm;
use padico_core::{runtimes_for_grid, SelectorPreferences};
use simnet::{NetworkSpec, NodeId, SimRng, SimWorld};

/// Largest node count at which the flat all-pairs table is built in full
/// (1500² ≈ 2.3 M ordered pairs). Beyond it, flat numbers come from a
/// measured per-source sample, extrapolated linearly.
pub const FLAT_FULL_LIMIT: usize = 1500;

/// Dijkstra sources actually run for the extrapolated flat measurement.
pub const FLAT_SAMPLE_SOURCES: usize = 8;

/// Sources whose full destination row is checked against the flat oracle.
const ORACLE_SOURCES: usize = 12;

/// (src, dst) pairs timed per lookup measurement.
const LOOKUP_PAIRS: usize = 1000;

/// One swept case.
#[derive(Debug, Clone)]
pub struct RoutingCase {
    /// Topology shape: `star`, `ring` or `cluster`.
    pub shape: &'static str,
    /// Total grid nodes.
    pub nodes: usize,
    /// Number of sites.
    pub sites: usize,
    /// Flat table build milliseconds (extrapolated when
    /// `flat_measured == false`).
    pub flat_build_ms: f64,
    /// Flat table resident bytes (same caveat).
    pub flat_table_bytes: u64,
    /// Whether the flat numbers are fully measured or extrapolated from
    /// the sampled sources.
    pub flat_measured: bool,
    /// Flat per-lookup nanoseconds (route + PathInfo); `None` when the
    /// full flat table was not built.
    pub flat_lookup_ns: Option<f64>,
    /// Hierarchical build milliseconds (always fully measured).
    pub hier_build_ms: f64,
    /// Hierarchical tables resident bytes.
    pub hier_table_bytes: u64,
    /// Hierarchical per-lookup nanoseconds.
    pub hier_lookup_ns: f64,
    /// Ordered (source, destination-row) pairs compared to the oracle.
    pub pairs_checked: usize,
    /// Oracle disagreements: differing cost on a reachable pair.
    pub cost_mismatches: usize,
    /// Oracle disagreements: differing reachability.
    pub reachability_mismatches: usize,
}

impl RoutingCase {
    /// Build-time ratio (flat / hier) — ≥ 10 is the acceptance target at
    /// the largest size.
    pub fn build_speedup(&self) -> f64 {
        self.flat_build_ms / self.hier_build_ms.max(1e-9)
    }

    /// Memory ratio (flat / hier).
    pub fn bytes_ratio(&self) -> f64 {
        self.flat_table_bytes as f64 / (self.hier_table_bytes as f64).max(1.0)
    }
}

/// Result of the allreduce comparison on one live grid.
#[derive(Debug, Clone)]
pub struct AllreduceResult {
    /// Sites in the grid.
    pub sites: usize,
    /// Nodes (= MPI ranks) per site.
    pub nodes_per_site: usize,
    /// Inter-site messages of the linear reduce+broadcast.
    pub linear_inter_site_msgs: u64,
    /// Inter-site messages of the hierarchical algorithm.
    pub hier_inter_site_msgs: u64,
    /// Inter-site messages of the flat root-to-everyone broadcast.
    pub bcast_linear_inter_site_msgs: u64,
    /// Inter-site messages of the hierarchical (leader-tree) broadcast.
    pub bcast_hier_inter_site_msgs: u64,
    /// Inter-site messages of the flat gather/release barrier.
    pub barrier_linear_inter_site_msgs: u64,
    /// Inter-site messages of the hierarchical barrier.
    pub barrier_hier_inter_site_msgs: u64,
    /// Virtual completion time of the linear algorithm, microseconds.
    pub linear_us: f64,
    /// Virtual completion time of the hierarchical algorithm.
    pub hier_us: f64,
    /// Simulator events executed per *host* second across both runs.
    pub events_per_sec: f64,
    /// Telemetry snapshot scraped at quiescence of the hierarchical run
    /// (trunk and per-rank MPI counters), embedded in
    /// `BENCH_routing.json`.
    pub metrics: simnet::MetricsSnapshot,
}

fn build_grid(world: &mut SimWorld, shape: &str, nodes: usize) -> GridTopology {
    // Sites grow with the grid so both levels scale: ~10-node sites for
    // 10² grids, ~32 for 10³, ~100 for 10⁴. LAN-only sites keep the
    // clique expansion linear in site size per node.
    let per_site = if nodes >= 5000 {
        100
    } else if nodes >= 500 {
        32
    } else {
        10
    };
    let sites = (nodes / per_site).max(if shape == "ring" { 3 } else { 2 });
    let specs: Vec<SiteSpec> = (0..sites)
        .map(|i| SiteSpec::lan_cluster(format!("s{i}"), per_site))
        .collect();
    match shape {
        "star" => GridTopology::star(world, &specs, NetworkSpec::vthd_wan()),
        "ring" => GridTopology::ring(world, &specs, NetworkSpec::vthd_wan()),
        "cluster" => {
            // Regions of up to 8 sites under a lossy global backbone.
            let regions: Vec<Vec<SiteSpec>> = specs.chunks(8).map(|c| c.to_vec()).collect();
            GridTopology::cluster_of_clusters(
                world,
                &regions,
                NetworkSpec::vthd_wan(),
                NetworkSpec::lossy_internet(),
            )
        }
        other => panic!("unknown shape {other}"),
    }
}

/// Deterministic sample of `count` nodes (used as oracle / flat-sample
/// sources).
fn sample_nodes(rng: &mut SimRng, all: &[NodeId], count: usize) -> Vec<NodeId> {
    let mut picked = Vec::with_capacity(count.min(all.len()));
    let mut used = std::collections::HashSet::new();
    while picked.len() < count.min(all.len()) {
        let i = rng.gen_range(0, all.len() as u64) as usize;
        if used.insert(i) {
            picked.push(all[i]);
        }
    }
    picked
}

/// Runs one (shape, size) case.
pub fn routing_case(shape: &'static str, nodes: usize) -> RoutingCase {
    let mut world = SimWorld::new(0xB07 + nodes as u64);
    let grid = build_grid(&mut world, shape, nodes);
    let all = grid.all_nodes();
    let n = all.len();
    let mut rng = SimRng::seeded(0x9017 + n as u64);

    // Hierarchical build (always in full).
    let t0 = Instant::now();
    let hier = HierRouteTable::try_compute(&world, &grid.layout)
        .expect("bench grids are gateway-isolated");
    let hier_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hier_table_bytes = hier.table_bytes() as u64;

    // Flat build: full below the limit, sampled + extrapolated above.
    // The sampled sources double as the oracle rows below — a sampled
    // flat table only holds routes *from* those sources.
    let flat_full = n <= FLAT_FULL_LIMIT;
    let sampled_sources = sample_nodes(&mut rng, &all, FLAT_SAMPLE_SOURCES);
    let (flat, flat_build_ms, flat_table_bytes) = if flat_full {
        let t0 = Instant::now();
        let flat = RouteTable::compute(&world);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let bytes = flat.table_bytes() as u64;
        (flat, ms, bytes)
    } else {
        // The clique-expanded adjacency is built once and shared by all
        // sources; time it separately (an empty source set runs only
        // that phase) so the extrapolation scales the per-source
        // Dijkstra cost alone instead of inflating the one-time setup.
        let t0 = Instant::now();
        let _ = RouteTable::compute_from_sources(&world, &[]);
        let adjacency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let sampled = RouteTable::compute_from_sources(&world, &sampled_sources);
        let sampled_ms = t0.elapsed().as_secs_f64() * 1e3;
        let per_source_ms = (sampled_ms - adjacency_ms).max(0.0) / sampled_sources.len() as f64;
        let scale = n as f64 / sampled_sources.len() as f64;
        let pairs = sampled.reachable_pairs().max(1);
        let per_pair = sampled.table_bytes() as f64 / pairs as f64;
        let full_pairs = pairs as f64 * scale;
        (
            sampled,
            adjacency_ms + per_source_ms * n as f64,
            (per_pair * full_pairs) as u64,
        )
    };

    // Oracle check: for sampled sources, every destination must agree on
    // reachability and cost. When the flat table is sampled, only its
    // computed sources are valid oracle rows.
    let oracle_sources = if flat_full {
        sample_nodes(&mut rng, &all, ORACLE_SOURCES.min(n))
    } else {
        sampled_sources
    };
    let mut pairs_checked = 0;
    let mut cost_mismatches = 0;
    let mut reachability_mismatches = 0;
    for &src in &oracle_sources {
        for &dst in &all {
            if src == dst {
                continue;
            }
            pairs_checked += 1;
            let f = flat.cost(src, dst);
            let h = hier.cost(src, dst);
            match (f, h) {
                (Some(fc), Some(hc)) if fc != hc => cost_mismatches += 1,
                (Some(_), None) | (None, Some(_)) => reachability_mismatches += 1,
                _ => {}
            }
        }
    }

    // Lookup latency over a fixed pair sample: full route + PathInfo.
    let pairs: Vec<(NodeId, NodeId)> = (0..LOOKUP_PAIRS)
        .map(|_| {
            let a = all[rng.gen_range(0, n as u64) as usize];
            let b = all[rng.gen_range(0, n as u64) as usize];
            (a, b)
        })
        .collect();
    let time_lookups = |f: &mut dyn FnMut(NodeId, NodeId)| -> f64 {
        let t0 = Instant::now();
        for &(a, b) in &pairs {
            f(a, b);
        }
        t0.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64
    };
    let flat_lookup_ns = flat_full.then(|| {
        time_lookups(&mut |a, b| {
            std::hint::black_box(flat.path_info(&world, a, b));
        })
    });
    let hier_lookup_ns = time_lookups(&mut |a, b| {
        std::hint::black_box(hier.path_info(&world, a, b));
    });

    RoutingCase {
        shape,
        nodes: n,
        sites: grid.sites.len(),
        flat_build_ms,
        flat_table_bytes,
        flat_measured: flat_full,
        flat_lookup_ns,
        hier_build_ms,
        hier_table_bytes,
        hier_lookup_ns,
        pairs_checked,
        cost_mismatches,
        reachability_mismatches,
    }
}

/// Runs both allreduce variants over a live grid and reports the
/// inter-site message counts and virtual completion times.
pub fn allreduce_comparison(sites: usize, nodes_per_site: usize) -> AllreduceResult {
    let wall = Instant::now();
    let events = std::cell::Cell::new(0u64);
    let snapshot = std::cell::RefCell::new(simnet::MetricsSnapshot::default());
    // Each run measures the allreduce, then the broadcast and barrier
    // as separate phases, reading the cumulative inter-site counter
    // between phases so every collective gets its own linear-vs-hier
    // comparison on the same grid.
    let run = |hier: bool| -> ([u64; 3], f64) {
        let mut world = SimWorld::new(0xA11);
        let specs: Vec<SiteSpec> = (0..sites)
            .map(|i| SiteSpec::san_cluster(format!("s{i}"), nodes_per_site))
            .collect();
        let grid = GridTopology::star(&mut world, &specs, NetworkSpec::vthd_wan());
        let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        let all = grid.all_nodes();
        let comms: Vec<MpiComm> = rts
            .iter()
            .map(|rt| {
                let circuit = rt.circuit_create(&mut world, all.clone(), 903);
                let comm = MpiComm::new(&mut world, circuit);
                comm.install_topology(&world, &grid.routes);
                comm
            })
            .collect();
        world.run(); // settle trunks and listeners before timing
        let inter_now =
            |comms: &[MpiComm]| -> u64 { comms.iter().map(|c| c.inter_site_messages()).sum() };
        let t0 = world.now();
        for (i, comm) in comms.iter().enumerate() {
            let value = (i + 1) as f64;
            let expected = (comms.len() * (comms.len() + 1) / 2) as f64;
            let cb = move |_w: &mut SimWorld, total: f64| {
                assert_eq!(total, expected, "allreduce total");
            };
            if hier {
                comm.allreduce_sum(&mut world, value, cb);
            } else {
                comm.allreduce_sum_linear(&mut world, value, cb);
            }
        }
        world.run();
        let us = world.now().since(t0).as_micros_f64();
        let allreduce_inter = inter_now(&comms);
        for (i, comm) in comms.iter().enumerate() {
            let data = (i == 0).then(|| vec![0xB0u8; 64]);
            let cb = move |_w: &mut SimWorld, buf: Vec<u8>| {
                assert_eq!(buf, vec![0xB0u8; 64], "bcast buffer");
            };
            if hier {
                comm.bcast(&mut world, 0, data, cb);
            } else {
                comm.bcast_linear(&mut world, 0, data, cb);
            }
        }
        world.run();
        let bcast_inter = inter_now(&comms) - allreduce_inter;
        let entered = std::rc::Rc::new(std::cell::Cell::new(0usize));
        for comm in &comms {
            let e = entered.clone();
            let cb = move |_w: &mut SimWorld| e.set(e.get() + 1);
            if hier {
                comm.barrier(&mut world, cb);
            } else {
                comm.barrier_linear(&mut world, cb);
            }
        }
        world.run();
        assert_eq!(entered.get(), comms.len(), "barrier released every rank");
        let barrier_inter = inter_now(&comms) - allreduce_inter - bcast_inter;
        events.set(events.get() + world.stats.events_executed);
        if hier {
            *snapshot.borrow_mut() = world.metrics_snapshot();
        }
        ([allreduce_inter, bcast_inter, barrier_inter], us)
    };
    let ([linear_inter_site_msgs, bcast_linear, barrier_linear], linear_us) = run(false);
    let ([hier_inter_site_msgs, bcast_hier, barrier_hier], hier_us) = run(true);
    AllreduceResult {
        sites,
        nodes_per_site,
        linear_inter_site_msgs,
        hier_inter_site_msgs,
        bcast_linear_inter_site_msgs: bcast_linear,
        bcast_hier_inter_site_msgs: bcast_hier,
        barrier_linear_inter_site_msgs: barrier_linear,
        barrier_hier_inter_site_msgs: barrier_hier,
        linear_us,
        hier_us,
        events_per_sec: events.get() as f64 / wall.elapsed().as_secs_f64().max(1e-9),
        metrics: snapshot.into_inner(),
    }
}

/// The default sweep: every shape at every size.
pub fn routing_sweep(sizes: &[usize]) -> Vec<RoutingCase> {
    let mut out = Vec::new();
    for &n in sizes {
        for shape in ["star", "ring", "cluster"] {
            eprintln!("routing: {shape} @ {n} nodes…");
            out.push(routing_case(shape, n));
        }
    }
    out
}

/// Renders cases + allreduce as the `BENCH_routing.json` document.
pub fn routing_json(cases: &[RoutingCase], allreduce: &AllreduceResult) -> String {
    let mut s = String::from("{\n  \"experiment\": \"routing\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"shape\": \"{}\", \"nodes\": {}, \"sites\": {}, ",
                "\"flat_build_ms\": {:.2}, \"flat_table_bytes\": {}, \"flat_measured\": {}, ",
                "\"flat_lookup_ns\": {}, ",
                "\"hier_build_ms\": {:.2}, \"hier_table_bytes\": {}, ",
                "\"hier_lookup_ns\": {:.0}, ",
                "\"build_speedup\": {:.1}, \"bytes_ratio\": {:.1}, ",
                "\"pairs_checked\": {}, \"cost_mismatches\": {}, ",
                "\"reachability_mismatches\": {}}}{}\n"
            ),
            c.shape,
            c.nodes,
            c.sites,
            c.flat_build_ms,
            c.flat_table_bytes,
            c.flat_measured,
            c.flat_lookup_ns
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "null".into()),
            c.hier_build_ms,
            c.hier_table_bytes,
            c.hier_lookup_ns,
            c.build_speedup(),
            c.bytes_ratio(),
            c.pairs_checked,
            c.cost_mismatches,
            c.reachability_mismatches,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    s.push_str(&format!(
        concat!(
            "  ],\n  \"allreduce\": {{\"sites\": {}, \"nodes_per_site\": {}, ",
            "\"linear_inter_site_msgs\": {}, \"hier_inter_site_msgs\": {}, ",
            "\"bcast_linear_inter_site_msgs\": {}, \"bcast_hier_inter_site_msgs\": {}, ",
            "\"barrier_linear_inter_site_msgs\": {}, \"barrier_hier_inter_site_msgs\": {}, ",
            "\"linear_us\": {:.1}, \"hier_us\": {:.1}, ",
            "\"events_per_sec\": {:.0}}},\n  \"metrics\": {}\n}}\n"
        ),
        allreduce.sites,
        allreduce.nodes_per_site,
        allreduce.linear_inter_site_msgs,
        allreduce.hier_inter_site_msgs,
        allreduce.bcast_linear_inter_site_msgs,
        allreduce.bcast_hier_inter_site_msgs,
        allreduce.barrier_linear_inter_site_msgs,
        allreduce.barrier_hier_inter_site_msgs,
        allreduce.linear_us,
        allreduce.hier_us,
        allreduce.events_per_sec,
        crate::multi_site::snapshot_json_object(&allreduce.metrics),
    ));
    s
}

/// Writes `BENCH_routing.json` into the current directory.
pub fn write_routing_json(
    cases: &[RoutingCase],
    allreduce: &AllreduceResult,
) -> std::io::Result<String> {
    let path = "BENCH_routing.json".to_string();
    std::fs::write(&path, routing_json(cases, allreduce))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shape at 100 and 320 nodes.
    #[test]
    fn small_case_is_cost_equal_and_faster_to_build() {
        for c in routing_sweep(&[100, 320]) {
            assert_eq!(c.cost_mismatches, 0, "{c:?}");
            assert_eq!(c.reachability_mismatches, 0, "{c:?}");
            assert!(c.flat_measured, "{c:?}");
            assert!(c.hier_table_bytes < c.flat_table_bytes, "{c:?}");
            assert!(c.pairs_checked > 0, "{c:?}");
        }
    }

    /// The 10⁵-node case `BENCH_routing.json` records: a measured hier
    /// build and the oracle check against sampled flat sources. Too slow for the debug suite, so CI runs it in
    /// release by name:
    /// `cargo test --release -p padico-bench -- --ignored
    /// cluster_at_100k_nodes_matches_the_flat_oracle`.
    #[test]
    #[ignore]
    fn cluster_at_100k_nodes_matches_the_flat_oracle() {
        let c = routing_case("cluster", 100_000);
        assert_eq!(c.cost_mismatches, 0, "{c:?}");
        assert_eq!(c.reachability_mismatches, 0, "{c:?}");
        assert!(c.pairs_checked > 0, "{c:?}");
    }

    #[test]
    fn allreduce_comparison_crosses_fewer_boundaries() {
        for (sites, nodes_per_site) in [(2, 3), (3, 6)] {
            let a = allreduce_comparison(sites, nodes_per_site);
            assert!(a.hier_inter_site_msgs < a.linear_inter_site_msgs, "{a:?}");
            assert!(a.hier_us > 0.0 && a.linear_us > 0.0);
            // The hierarchical broadcast and barrier must also cross the
            // WAN strictly less than their flat oracles.
            assert!(
                a.bcast_hier_inter_site_msgs < a.bcast_linear_inter_site_msgs,
                "{a:?}"
            );
            assert!(
                a.barrier_hier_inter_site_msgs < a.barrier_linear_inter_site_msgs,
                "{a:?}"
            );
        }
    }

    #[test]
    fn json_is_well_formed() {
        let c = routing_case("ring", 100);
        let a = allreduce_comparison(2, 2);
        let json = routing_json(&[c], &a);
        assert!(json.contains("\"experiment\": \"routing\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
