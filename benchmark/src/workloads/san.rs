//! `san_rpc_small` and `san_bulk`: the parallel world. One SAN pair, one
//! world, and the five personalities — Circuit, VLink, MPI, CORBA
//! (omniORB-4), Java sockets — coexisting on it. One op is a *Table-1
//! round*: one request / 1-byte-ack exchange per personality.
//!
//! The two workloads share every line below and differ in message size
//! and in how a round is scheduled, so a per-message cost shows on
//! `san_rpc_small` and a per-byte cost on `san_bulk`.

use std::cell::RefCell;
use std::rc::Rc;

use padico_core::{runtimes_for_cluster, SelectorPreferences};
use simnet::{topology, SimDuration, SimWorld};

use super::{Kind, RunCfg, SharedLog, World};
use crate::harness::{Call, Spans};
use crate::rungs::{runtime_exchange, Exchange, Messages, Rung};

/// A round that has not completed after this much virtual time has
/// failed (a 1 MiB round takes tens of milliseconds).
const OP_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// The five personalities; a schedule names them by index.
pub const PERSONALITIES: [Rung; 5] = [
    Rung::Circuit,
    Rung::VLink,
    Rung::Mpi,
    Rung::Corba,
    Rung::Java,
];
const CIRCUIT: usize = 0;
const VLINK: usize = 1;
const MPI: usize = 2;
const CORBA: usize = 3;
const JAVA: usize = 4;

/// `(message centre, spread, round schedule)`. Each inner slice of the
/// schedule is posted together and awaited together.
fn shape(kind: Kind) -> (usize, usize, &'static [&'static [usize]]) {
    match kind {
        // Five exchanges back to back: per-message cost, one at a time.
        Kind::SanRpcSmall => (64, 8, &[&[CIRCUIT], &[VLINK], &[MPI], &[CORBA], &[JAVA]]),
        // MPI and CORBA are in flight together, so two middleware share
        // the Myrinet through NetAccess (the paper's coexistence case).
        Kind::SanBulk => (
            1 << 20,
            2048,
            &[&[MPI, CORBA], &[JAVA], &[CIRCUIT], &[VLINK]],
        ),
        other => panic!("{other:?} is not a SAN workload"),
    }
}

/// The personalities a round of the workload has in flight together.
pub fn overlapped(kind: Kind) -> Vec<Rung> {
    let (_, _, schedule) = shape(kind);
    schedule
        .iter()
        .filter(|group| group.len() > 1)
        .flat_map(|group| group.iter().map(|&i| PERSONALITIES[i]))
        .collect()
}

/// Message `(centre, spread)` of the workload, for its ladder.
pub fn message_size(kind: Kind) -> (usize, usize) {
    let (centre, spread, _) = shape(kind);
    (centre, spread)
}

pub struct SanWorld {
    world: SimWorld,
    exchanges: Vec<Exchange>,
    schedule: &'static [&'static [usize]],
    messages: Rc<RefCell<Messages>>,
    total_ops: u64,
    log: SharedLog,
}

impl SanWorld {
    /// One round: one message, sent through every personality. The first
    /// and the last round of the run send the probe, whose checksum every
    /// receiver computes.
    fn round(&mut self, spans: &Spans) -> Result<(), String> {
        let op = self.log.borrow().ops();
        let probe = op == 0 || op + 1 == self.total_ops;
        let (msg, sum) = self.messages.borrow_mut().next(probe);
        let root = spans.enter(Call::Op, op);
        let start = self.world.now();
        for group in self.schedule {
            for &i in *group {
                self.exchanges[i].post(&mut self.world, spans, op, &msg);
            }
            let exchanges = &self.exchanges;
            let g = spans.enter(Call::RunWhile, op);
            self.world
                .run_while(|| group.iter().any(|&i| !exchanges[i].settled()));
            spans.exit(g);
            for &i in *group {
                let x = &self.exchanges[i];
                if !x.settled() {
                    return Err(format!("op {op}: {} exchange stalled", x.rung.layer()));
                }
                if sum.is_some_and(|sum| !x.sink.probe_matches(sum)) {
                    return Err(format!(
                        "op {op}: {} payload checksum mismatch",
                        x.rung.layer()
                    ));
                }
            }
        }
        spans.exit(root);
        let latency = self.world.now().since(start);
        if latency > OP_TIMEOUT {
            return Err(format!("op {op}: round took {latency:?} of virtual time"));
        }
        self.log
            .borrow_mut()
            .record(latency, (msg.len() * PERSONALITIES.len()) as u64);
        Ok(())
    }
}

impl World for SanWorld {
    type Inputs = RefCell<Messages>;

    fn inputs(cfg: &RunCfg) -> RefCell<Messages> {
        let (centre, spread, _) = shape(cfg.kind);
        RefCell::new(Messages::new(cfg.seed, centre, spread))
    }

    fn build(
        cfg: &RunCfg,
        messages: Rc<RefCell<Messages>>,
        log: SharedLog,
        spans: &Rc<Spans>,
    ) -> SanWorld {
        let (_, _, schedule) = shape(cfg.kind);
        let g = spans.enter(Call::SanPair, u64::MAX);
        let p = topology::san_pair(cfg.seed);
        spans.exit(g);
        let mut world = p.world;
        let nodes = [p.a, p.b];
        let g = spans.enter(Call::RuntimesForCluster, u64::MAX);
        let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
        spans.exit(g);
        let exchanges = PERSONALITIES
            .iter()
            .map(|&rung| runtime_exchange(rung, &mut world, spans, &rts, nodes))
            .collect();
        // Connections (VLink, Java socket) establish before the first op.
        let g = spans.enter(Call::Run, u64::MAX);
        world.run();
        spans.exit(g);
        SanWorld {
            world,
            exchanges,
            schedule,
            messages,
            total_ops: cfg.warmup_ops() + cfg.ops,
            log,
        }
    }

    fn sim(&self) -> &SimWorld {
        &self.world
    }

    fn run_ops(&mut self, n: u64, spans: &Spans) -> Result<(), String> {
        (0..n).try_for_each(|_| self.round(spans))
    }

    fn finish(&mut self, spans: &Spans) -> Vec<String> {
        let g = spans.enter(Call::Run, u64::MAX);
        self.world.run();
        spans.exit(g);
        self.exchanges
            .iter()
            .filter_map(|x| x.balanced().err())
            .collect()
    }
}
