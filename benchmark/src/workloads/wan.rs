//! `wan_relay_stream`: the distributed world with few long flows. Three
//! sites on a VTHD-class backbone, credit backpressure, and four
//! long-lived cross-site VLinks relayed through the gateways' trunks,
//! each a closed-loop client pushing 256 KiB chunks.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridtopo::{GridTopology, SiteSpec};
use padico_core::{runtimes_for_grid, BackpressureMode, SelectorPreferences, VLink};
use simnet::{LossModel, NetworkSpec, NodeId, SimDuration, SimRng, SimWorld};

use super::{RunCfg, SharedLog, World};
use crate::flows::{run_until_logged, serve, Flow, Shared};
use crate::harness::{Call, Spans};
use crate::rungs::{Messages, Sink};

const SITES: usize = 3;
const NODES_PER_SITE: usize = 4;
const FLOWS: usize = 4;
const CHUNK: usize = 256 * 1024;
/// Chunks each client keeps in flight: one being sent and one queued
/// behind it, so a trunk never idles for an ack round trip. With a
/// single chunk in flight, two clients sharing a trunk either interleave
/// or collide depending on nanosecond phase, and p50 flips between two
/// values from one seed to the next.
const DEPTH: usize = 2;
const SERVICE: u16 = 700;
/// A 256 KiB chunk takes ≈ 0.1 s of virtual time when four flows share
/// the backbone; one that takes a hundred times that has failed.
const OP_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// `(client, server)` as `(site, worker rank)` for each flow, over sites
/// named a = 0, b = 1, c = 2: two flows share the a→b trunk, one runs
/// against them on the same trunk, one uses the c–a trunk.
const LAYOUT: [((usize, usize), (usize, usize)); FLOWS] = [
    ((0, 1), (1, 1)),
    ((0, 2), (1, 2)),
    ((1, 3), (0, 3)),
    ((2, 1), (0, 1)),
];

pub struct WanInputs {
    messages: Rc<RefCell<Messages>>,
    /// Which built site plays a, b and c.
    roles: [usize; SITES],
}

pub struct WanWorld {
    world: SimWorld,
    flows: Vec<Rc<Flow<VLink>>>,
    shared: Rc<Shared>,
}

/// The prefs every grid workload and rung uses: credit backpressure on.
pub fn credit_prefs() -> SelectorPreferences {
    SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        ..Default::default()
    }
}

impl World for WanWorld {
    type Inputs = WanInputs;

    fn inputs(cfg: &RunCfg) -> WanInputs {
        let mut rng = SimRng::seeded(cfg.seed ^ 0x77616e);
        let mut roles = [0, 1, 2];
        for i in (1..SITES).rev() {
            roles.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        WanInputs {
            messages: Rc::new(RefCell::new(Messages::new(cfg.seed, CHUNK, CHUNK / 512))),
            roles,
        }
    }

    fn build(cfg: &RunCfg, inputs: Rc<WanInputs>, log: SharedLog, spans: &Rc<Spans>) -> WanWorld {
        let mut world = SimWorld::new(cfg.seed);
        let specs: Vec<SiteSpec> = (0..SITES)
            .map(|i| SiteSpec::san_cluster(format!("s{i}"), NODES_PER_SITE))
            .collect();
        let g = spans.enter(Call::GridStar, u64::MAX);
        let grid = GridTopology::star(&mut world, &specs, backbone());
        spans.exit(g);
        let g = spans.enter(Call::RuntimesForGrid, u64::MAX);
        let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, credit_prefs());
        spans.exit(g);
        let at = |(site, rank): (usize, usize)| -> (NodeId, usize) {
            let site = inputs.roles[site];
            (grid.site(site).node(rank), site * NODES_PER_SITE + rank)
        };

        let shared = Rc::new(Shared {
            issued: Cell::new(0),
            total: cfg.warmup_ops() + cfg.ops,
            flows: FLOWS as u64,
            depth: DEPTH,
            timeout: OP_TIMEOUT,
            messages: inputs.messages.clone(),
            log,
            spans: spans.clone(),
            failure: RefCell::new(None),
        });
        let mut flows = Vec::with_capacity(FLOWS);
        for (i, &(from, to)) in LAYOUT.iter().enumerate() {
            let service = SERVICE + i as u16;
            let sink = Sink::new();
            let (server_node, server_rt) = at(to);
            let s = sink.clone();
            let g = spans.enter(Call::VlinkListen, u64::MAX);
            rts[server_rt].vlink_listen(&mut world, service, move |_w, v| serve(&v, s.clone()));
            spans.exit(g);
            let g = spans.enter(Call::VlinkConnect, u64::MAX);
            let client = rts[at(from).1].vlink_connect(&mut world, server_node, service);
            spans.exit(g);
            flows.push(Flow::new(client, sink, shared.clone()));
        }
        // Relayed connections establish end to end before the first op.
        let g = spans.enter(Call::Run, u64::MAX);
        world.run();
        spans.exit(g);
        WanWorld {
            world,
            flows,
            shared,
        }
    }

    fn sim(&self) -> &SimWorld {
        &self.world
    }

    fn run_ops(&mut self, n: u64, spans: &Spans) -> Result<(), String> {
        if self.shared.issued.get() == 0 {
            for f in &self.flows {
                f.fill(&mut self.world);
            }
        }
        run_until_logged(&mut self.world, self.shared.progress(), n, spans)
    }

    fn finish(&mut self, spans: &Spans) -> Vec<String> {
        for f in &self.flows {
            let g = spans.enter(Call::VlinkClose, u64::MAX);
            f.close(&mut self.world);
            spans.exit(g);
        }
        let g = spans.enter(Call::Run, u64::MAX);
        self.world.run();
        spans.exit(g);
        self.flows
            .iter()
            .filter_map(|f| f.balanced().err())
            .collect()
    }
}

/// The backbone of every grid workload and rung: VTHD's bandwidth,
/// latency and MTU, with its rare background loss switched off. Which
/// frames a loss model drops is a function of the world seed, and a
/// single retransmission timeout moves a 256 KiB chunk's latency by
/// more than any layer's overhead: with loss on, p99 and goodput differ
/// by 5–12 % between seeds, far outside the 0.5 % the virtual metrics
/// are held to. Loss recovery is covered by the repo's tests.
pub fn backbone() -> NetworkSpec {
    NetworkSpec {
        loss: LossModel::None,
        ..NetworkSpec::vthd_wan()
    }
}
