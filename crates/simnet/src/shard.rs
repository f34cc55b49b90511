//! The partitioned executor: one shard world per site.
//!
//! The paper's gateway-isolation invariant — all inter-site traffic
//! crosses a known trunk with a known latency — is exactly the
//! *lookahead* condition conservative parallel discrete-event simulation
//! needs. [`run_partitioned`] exploits it: each shard is a whole
//! [`SimWorld`] with its own ordinary event queue, owned by a worker
//! thread (the world is built *on* its thread — protocol stacks are
//! `Rc`-based and never migrate). Shards advance in conservative windows
//! of width = the trunk lookahead; cross-shard frames are exchanged at
//! window barriers and injected in a canonical `(deliver_at, from, seq)`
//! order, so a run with N worker threads is byte-identical to the same
//! run with one. `gridbench`'s `sim_partitioned_ring` workload measures
//! it.

use std::collections::BTreeMap;
use std::sync::mpsc;

use crate::frame::Frame;
use crate::telemetry::MetricsSnapshot;
use crate::time::{SimDuration, SimTime};
use crate::world::SimWorld;

/// The sentinel network id handed to handlers for frames that arrived
/// from another shard (there is no local [`Network`](crate::network::Network)
/// behind it — handlers must not index the world's network table with it).
pub const REMOTE_NET: crate::NetworkId = crate::NetworkId(u32::MAX);

/// A frame in flight between two shard worlds.
#[derive(Clone, Debug)]
pub struct RemoteFrame {
    /// Destination shard.
    pub to: u16,
    /// Source shard.
    pub from: u16,
    /// Source-shard send sequence (canonical injection tie-break).
    pub seq: u64,
    /// Absolute virtual delivery time (≥ send time + lookahead).
    pub deliver_at: SimTime,
    /// Network the frame should appear to arrive on. [`REMOTE_NET`] for
    /// frames emitted through the raw
    /// [`send_remote`](crate::world::SimWorld::send_remote) channel;
    /// a real network id for frames intercepted at a mirrored trunk (the
    /// destination world then delivers through its normal per-network
    /// path, so unclaimed accounting and handler dispatch match the
    /// single-world run byte-for-byte).
    pub net: crate::NetworkId,
    /// The frame itself; delivered to the `(dst, proto)` handler in the
    /// destination world.
    pub frame: Frame,
}

/// Cross-shard traffic counters of one partitioned world
/// ([`SimWorld::partition_stats`](crate::world::SimWorld::partition_stats)).
#[derive(Clone, Debug, Default)]
pub struct PartitionStats {
    /// This world's shard index.
    pub shard: u16,
    /// Remote frames injected into this world.
    pub cross_in: u64,
    /// Remote frames this world emitted.
    pub cross_out: u64,
    /// Remote frames that arrived with no handler registered.
    pub remote_unclaimed: u64,
    /// Cross-shard frames whose computed delivery undercut the lookahead
    /// of their trunk — each one is a window-safety violation (a trunk
    /// map that promised more lookahead than the mirrored network
    /// provides). Always 0 on a conforming configuration; the frame is
    /// still shipped at its true delivery time, never floored, so
    /// equivalence runs surface the bug instead of masking it.
    pub lookahead_violations: u64,
}

/// Per-trunk conservative lookahead: a lower bound on the delivery
/// latency of every cross-shard frame per directed shard pair.
///
/// This is the per-edge refinement of the single global window: a shard
/// only needs to wait for its *in-edges*, so one low-latency trunk
/// elsewhere in the grid no longer throttles every window. Derived from
/// gateway trunk latencies by `GridTopology::trunk_lookaheads`.
#[derive(Clone, Debug, Default)]
pub struct TrunkLookahead {
    edges: BTreeMap<(u16, u16), SimDuration>,
}

impl TrunkLookahead {
    /// An empty map (no trunks declared).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the lookahead of the directed trunk `from → to`.
    /// Keeps the minimum if the pair is declared twice (parallel trunks).
    pub fn set(&mut self, from: u16, to: u16, lookahead: SimDuration) {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a non-zero per-trunk lookahead"
        );
        self.edges
            .entry((from, to))
            .and_modify(|d| *d = (*d).min(lookahead))
            .or_insert(lookahead);
    }

    /// Lookahead of the directed trunk `from → to`, if declared.
    pub fn get(&self, from: u16, to: u16) -> Option<SimDuration> {
        self.edges.get(&(from, to)).copied()
    }

    /// Number of declared directed trunks.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no trunks are declared.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates `(from, to, lookahead)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16, SimDuration)> + '_ {
        self.edges.iter().map(|(&(f, t), &d)| (f, t, d))
    }

    /// In-edge adjacency per destination shard: `in_edges[s]` lists
    /// `(src, lookahead)` for every declared trunk into `s`.
    fn in_edges(&self, shards: u16) -> Vec<Vec<(u16, SimDuration)>> {
        let mut adj = vec![Vec::new(); shards as usize];
        for (&(from, to), &d) in &self.edges {
            if (to as usize) < adj.len() {
                adj[to as usize].push((from, d));
            }
        }
        adj
    }

    /// Per-source lookahead vectors for a shard world's mirror boundary:
    /// `out[to]` is the lookahead this shard promised on its trunk to
    /// `to` (used by the sender side to count violations).
    pub(crate) fn out_edges_of(&self, from: u16, shards: u16) -> Vec<Option<SimDuration>> {
        let mut out = vec![None; shards as usize];
        for (&(f, t), &d) in &self.edges {
            if f == from && (t as usize) < out.len() {
                out[t as usize] = Some(d);
            }
        }
        out
    }
}

/// Configuration for [`run_partitioned`].
#[derive(Clone, Debug)]
pub struct Partition {
    /// Number of shard worlds.
    pub shards: u16,
    /// Worker threads (shard `s` is owned by worker `s % threads`).
    pub threads: usize,
    /// Global conservative window width; must be a lower bound on every
    /// cross-shard delivery latency, and must be non-zero. Used whenever
    /// `trunks` is `None`, and as the floor raw
    /// [`send_remote`](crate::world::SimWorld::send_remote) deliveries
    /// are clamped to.
    pub lookahead: SimDuration,
    /// Per-trunk lookahead map. When set, each shard's window horizon is
    /// computed from its in-edges only — `horizon(s) = min over declared
    /// trunks (p → s) of (earliest(p) + lookahead(p → s))`, where
    /// `earliest(p)` covers both `p`'s pending events and frames still
    /// in transit towards `p`. A shard with no in-edges runs to local
    /// quiescence in one window.
    pub trunks: Option<TrunkLookahead>,
    /// Base RNG seed; shard `s` runs on `seed + s`.
    pub seed: u64,
}

/// What one shard world looked like at quiescence.
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u16,
    /// Final virtual clock.
    pub final_now: SimTime,
    /// Events executed by this world.
    pub events_executed: u64,
    /// Cross-shard counters.
    pub stats: PartitionStats,
    /// Full telemetry snapshot of this world.
    pub snapshot: MetricsSnapshot,
}

/// Result of a partitioned run.
pub struct PartitionReport {
    /// Per-shard outcomes, ordered by shard index.
    pub outcomes: Vec<ShardOutcome>,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Total events executed across all shards.
    pub events_total: u64,
    /// Total frames exchanged between shards.
    pub frames_crossed: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl PartitionReport {
    /// Deterministic digest of the entire run — per-shard clocks,
    /// counters and full snapshots. Two runs of the same partition spec
    /// must produce equal digests regardless of thread count.
    pub fn digest(&self) -> String {
        crate::telemetry::merged_digest(self.outcomes.iter().map(|o| {
            let header = format!(
                "shard={} now={} events={} cross_in={} cross_out={} unclaimed={} violations={}",
                o.shard,
                o.final_now.as_nanos(),
                o.events_executed,
                o.stats.cross_in,
                o.stats.cross_out,
                o.stats.remote_unclaimed,
                o.stats.lookahead_violations,
            );
            (header, &o.snapshot)
        }))
    }

    /// Total cross-shard lookahead violations (0 on a conforming run).
    pub fn lookahead_violations(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.lookahead_violations)
            .sum()
    }
}

enum Go {
    Round {
        /// Window horizon per shard index (uniform mode broadcasts one
        /// value; per-trunk mode computes each from the shard's in-edges).
        horizons: Vec<SimTime>,
        frames: Vec<RemoteFrame>,
    },
    Finish,
}

struct Done {
    worker: usize,
    outbox: Vec<RemoteFrame>,
    /// Earliest pending local event per owned shard.
    next_times: Vec<(u16, Option<SimTime>)>,
    executed_delta: u64,
}

/// Runs `cfg.shards` independent shard worlds to quiescence under
/// conservative window synchronization.
///
/// `build` is called once per shard *on the worker thread that owns it*
/// (worlds are `Rc`-ridden and never cross threads) to populate nodes,
/// handlers and initial events; it may immediately use
/// [`SimWorld::send_remote`](crate::world::SimWorld::send_remote).
///
/// The run is deterministic: for a fixed `cfg` (threads excluded) and
/// `build`, the merged [`PartitionReport::digest`] is byte-identical
/// whatever `cfg.threads` is.
pub fn run_partitioned<B>(cfg: &Partition, build: B) -> PartitionReport
where
    B: Fn(u16, &mut SimWorld) + Send + Sync,
{
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(
        cfg.lookahead > SimDuration::ZERO,
        "conservative sync needs a non-zero lookahead"
    );
    let threads = cfg.threads.clamp(1, cfg.shards as usize);
    let in_edges = cfg.trunks.as_ref().map(|t| t.in_edges(cfg.shards));
    let build = &build;

    let mut to_workers: Vec<mpsc::Sender<Go>> = Vec::with_capacity(threads);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let (final_tx, final_rx) = mpsc::channel::<Vec<ShardOutcome>>();

    let mut rounds = 0u64;
    let mut events_total = 0u64;
    let mut frames_crossed = 0u64;

    let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(cfg.shards as usize);
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (tx, rx) = mpsc::channel::<Go>();
            to_workers.push(tx);
            let done_tx = done_tx.clone();
            let final_tx = final_tx.clone();
            let owned: Vec<u16> = (0..cfg.shards)
                .filter(|s| *s as usize % threads == worker)
                .collect();
            let (seed, lookahead) = (cfg.seed, cfg.lookahead);
            let trunks = cfg.trunks.clone();
            let shards = cfg.shards;
            scope.spawn(move || {
                let mut worlds: Vec<(u16, SimWorld, u64)> = owned
                    .iter()
                    .map(|&s| {
                        let mut w = SimWorld::new(seed.wrapping_add(s as u64));
                        w.enable_partition(s, lookahead);
                        if let Some(t) = &trunks {
                            w.set_trunk_lookaheads(t.out_edges_of(s, shards));
                        }
                        build(s, &mut w);
                        (s, w, 0u64)
                    })
                    .collect();
                while let Ok(go) = rx.recv() {
                    match go {
                        Go::Round { horizons, frames } => {
                            let mut outbox = Vec::new();
                            let mut next_times = Vec::with_capacity(worlds.len());
                            let mut executed_delta = 0u64;
                            for (sid, world, seen) in worlds.iter_mut() {
                                for rf in frames.iter().filter(|rf| rf.to == *sid) {
                                    world.inject_remote(rf.clone());
                                }
                                world.run_before(horizons[*sid as usize]);
                                let executed = world.stats.events_executed;
                                executed_delta += executed - *seen;
                                *seen = executed;
                                outbox.append(&mut world.take_remote_outbox());
                                next_times.push((*sid, world.next_event_time()));
                            }
                            done_tx
                                .send(Done {
                                    worker,
                                    outbox,
                                    next_times,
                                    executed_delta,
                                })
                                .expect("coordinator alive");
                        }
                        Go::Finish => {
                            let outcomes: Vec<ShardOutcome> = worlds
                                .iter()
                                .map(|(s, w, _)| ShardOutcome {
                                    shard: *s,
                                    final_now: w.now(),
                                    events_executed: w.stats.events_executed,
                                    stats: w.partition_stats().cloned().unwrap_or_default(),
                                    snapshot: w.metrics_snapshot(),
                                })
                                .collect();
                            final_tx.send(outcomes).expect("coordinator alive");
                            break;
                        }
                    }
                }
            });
        }

        // Coordinator: barrier rounds until every shard is quiescent and
        // no frames are in transit.
        let mut transit: Vec<RemoteFrame> = Vec::new();
        // First round executes nothing, just reports.
        let mut horizons = vec![SimTime::ZERO; cfg.shards as usize];
        loop {
            // Route in-transit frames to their owning workers in the
            // canonical order (sorted below before being moved here).
            for (worker, tx) in to_workers.iter().enumerate() {
                let frames: Vec<RemoteFrame> = transit
                    .iter()
                    .filter(|rf| rf.to as usize % threads == worker)
                    .cloned()
                    .collect();
                tx.send(Go::Round {
                    horizons: horizons.clone(),
                    frames,
                })
                .expect("worker alive");
            }
            transit.clear();
            rounds += 1;

            // Earliest thing that can still happen in each shard: a
            // pending local event, or an in-transit frame (which becomes
            // an event at its delivery time).
            let mut bases: Vec<Option<SimTime>> = vec![None; cfg.shards as usize];
            let min_into = |slot: &mut Option<SimTime>, t: Option<SimTime>| {
                *slot = match (*slot, t) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            };
            for _ in 0..threads {
                let done = done_rx.recv().expect("worker alive");
                let _ = done.worker;
                events_total += done.executed_delta;
                frames_crossed += done.outbox.len() as u64;
                for &(sid, t) in &done.next_times {
                    min_into(&mut bases[sid as usize], t);
                }
                transit.extend(done.outbox);
            }
            for rf in &transit {
                min_into(&mut bases[rf.to as usize], Some(rf.deliver_at));
            }
            let Some(earliest) = bases.iter().flatten().min().copied() else {
                break; // fully quiescent
            };
            // Canonical injection order — this is what makes the run
            // independent of thread count and scheduling.
            transit.sort_by_key(|rf| (rf.deliver_at, rf.from, rf.seq));
            match &in_edges {
                // Global window: any event below earliest + lookahead
                // cannot be affected by a cross-shard frame generated at
                // or after `earliest`.
                None => horizons.fill(earliest + cfg.lookahead),
                // Per-trunk windows: shard `s` only has to respect its
                // in-edges. A frame emitted by `p` at or after `base(p)`
                // reaches `s` no earlier than `base(p) + lookahead(p→s)`,
                // so `s` may run strictly below the minimum of those
                // bounds. Shards whose upstreams are all quiescent (or
                // that have no declared in-edges) run to local
                // quiescence in this window.
                Some(adj) => {
                    for (s, horizon) in horizons.iter_mut().enumerate() {
                        *horizon = adj[s]
                            .iter()
                            .filter_map(|&(p, d)| bases[p as usize].map(|b| b.saturating_add(d)))
                            .min()
                            .unwrap_or(SimTime::MAX);
                    }
                }
            }
        }
        for tx in &to_workers {
            tx.send(Go::Finish).expect("worker alive");
        }
        for _ in 0..threads {
            outcomes.extend(final_rx.recv().expect("worker alive"));
        }
    });
    outcomes.sort_by_key(|o| o.shard);

    PartitionReport {
        outcomes,
        rounds,
        events_total,
        frames_crossed,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ProtoId;
    use crate::spec::NetworkSpec;
    use crate::NodeId;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A two-shard ping-pong over the remote channel: shard 0 sends N
    /// pings, shard 1 pongs each back.
    fn ping_pong(threads: usize) -> PartitionReport {
        let cfg = Partition {
            shards: 2,
            threads,
            lookahead: SimDuration::from_micros(50),
            trunks: None,
            seed: 7,
        };
        run_partitioned(&cfg, |shard, world| {
            let node = world.add_node(&format!("gw{shard}"));
            let peer = 1 - shard;
            let count = Rc::new(Cell::new(0u32));
            world.register_handler(node, ProtoId::user(0), move |w, net, f| {
                assert_eq!(net, REMOTE_NET);
                count.set(count.get() + 1);
                if count.get() < 10 {
                    let reply = Frame::new(f.dst, f.src, ProtoId::user(0), vec![0u8; 64]);
                    w.send_remote(peer, reply, SimDuration::ZERO);
                }
            });
            if shard == 0 {
                world.schedule_at(SimTime::from_nanos(10), move |w| {
                    let f = Frame::new(node, NodeId(0), ProtoId::user(0), vec![0u8; 64]);
                    w.send_remote(peer, f, SimDuration::ZERO);
                });
            }
        })
    }

    #[test]
    fn partitioned_ping_pong_converges_and_conserves() {
        let r = ping_pong(2);
        assert_eq!(r.outcomes.len(), 2);
        let total_out: u64 = r.outcomes.iter().map(|o| o.stats.cross_out).sum();
        let total_in: u64 = r.outcomes.iter().map(|o| o.stats.cross_in).sum();
        assert_eq!(total_out, total_in, "no frame lost in transit");
        assert_eq!(r.frames_crossed, total_out);
        assert!(r.frames_crossed >= 19, "10 pings + 9 pongs crossed");
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        let a = ping_pong(1).digest();
        let b = ping_pong(2).digest();
        assert_eq!(a, b);
    }

    /// A ring of shards relaying one token each: shard `s` forwards to
    /// `s + 1` over its declared trunk. Per-trunk windows must produce
    /// the same run as the global-minimum window, in (weakly) fewer
    /// barrier rounds, with zero violations.
    fn token_ring(trunks: Option<TrunkLookahead>) -> PartitionReport {
        const SHARDS: u16 = 4;
        let cfg = Partition {
            shards: SHARDS,
            threads: 2,
            lookahead: SimDuration::from_micros(20),
            trunks,
            seed: 11,
        };
        run_partitioned(&cfg, |shard, world| {
            let node = world.add_node(&format!("gw{shard}"));
            let next = (shard + 1) % SHARDS;
            let hops = Rc::new(Cell::new(0u32));
            // Each hop waits out a latency matching its trunk: slow out
            // of even shards, fast out of odd ones.
            let delay = if shard % 2 == 0 {
                SimDuration::from_micros(200)
            } else {
                SimDuration::from_micros(20)
            };
            world.register_handler(node, ProtoId::user(0), move |w, _net, f| {
                hops.set(hops.get() + 1);
                if hops.get() < 8 {
                    let fwd = Frame::new(f.dst, f.src, ProtoId::user(0), vec![0u8; 32]);
                    w.send_remote(next, fwd, delay);
                }
            });
            if shard == 0 {
                world.schedule_at(SimTime::from_nanos(100), move |w| {
                    let f = Frame::new(node, NodeId(0), ProtoId::user(0), vec![0u8; 32]);
                    w.send_remote(next, f, delay);
                });
            }
        })
    }

    #[test]
    fn per_trunk_windows_match_global_and_save_rounds() {
        let mut trunks = TrunkLookahead::new();
        for s in 0..4u16 {
            let d = if s % 2 == 0 {
                SimDuration::from_micros(200)
            } else {
                SimDuration::from_micros(20)
            };
            trunks.set(s, (s + 1) % 4, d);
        }
        let global = token_ring(None);
        let per_trunk = token_ring(Some(trunks));
        assert_eq!(global.digest(), per_trunk.digest());
        assert_eq!(per_trunk.lookahead_violations(), 0);
        assert!(
            per_trunk.rounds <= global.rounds,
            "per-trunk windows must not add rounds: {} vs {}",
            per_trunk.rounds,
            global.rounds
        );
    }

    #[test]
    fn local_traffic_runs_inside_a_shard() {
        let cfg = Partition {
            shards: 3,
            threads: 2,
            lookahead: SimDuration::from_micros(10),
            trunks: None,
            seed: 1,
        };
        let r = run_partitioned(&cfg, |_shard, world| {
            let a = world.add_node("a");
            let b = world.add_node("b");
            let net = world.add_network(NetworkSpec::myrinet_2000());
            world.attach(a, net);
            world.attach(b, net);
            let got = Rc::new(Cell::new(0u32));
            let g = got.clone();
            world.register_handler(b, ProtoId::user(1), move |_w, _n, _f| {
                g.set(g.get() + 1);
            });
            for _ in 0..5 {
                world
                    .send_frame(net, Frame::new(a, b, ProtoId::user(1), vec![0u8; 128]))
                    .unwrap();
            }
        });
        assert_eq!(r.outcomes.len(), 3);
        assert_eq!(r.frames_crossed, 0);
        assert!(r.events_total >= 15, "5 deliveries per shard");
    }
}
