//! `grid_short_flows`: the distributed world with many short flows. A
//! 32-site × 16-node star (512 runtimes, 496 pre-established trunks),
//! echo listeners on every worker, and four closed-loop clients. One op
//! is connect → one request → 1-byte ack → close, to a cross-site peer.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use gridtopo::{BackboneDelta, GridTopology, SiteSpec};
use padico_core::{runtimes_for_grid, PadicoRuntime, VLink, VLinkEvent};
use simnet::{SimDuration, SimRng, SimTime, SimWorld};

use super::wan::{backbone, credit_prefs};
use super::{RunCfg, SharedLog, World};
use crate::flows::{run_until_logged, Progress};
use crate::harness::{self, fastest_quarter_mean, median, Call, Spans};
use crate::rungs::{Deframer, Messages, Sink};

const SITES: usize = 32;
const NODES_PER_SITE: usize = 16;
const CLIENTS: usize = 4;
const SERVICE: u16 = 800;
/// Request sizes and how many ops of every ten use each. Shares are
/// exact per block of ten (the seed only shuffles the order), so every
/// seed moves the same bytes, and they are chosen so that the median op
/// lies well inside the 1 KiB class and the 99th percentile well inside
/// the 64 KiB class instead of on a class boundary.
const CLASSES: [(usize, usize); 4] = [(64, 4), (1024, 3), (16 * 1024, 2), (64 * 1024, 1)];
/// Hot pairs, and how many ops of every ten go to one of them.
const HOT_PAIRS: usize = 256;
const HOT_SHARE: u64 = 8;
/// A short flow takes a few WAN round trips (tens of milliseconds).
const OP_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// One planned op: runtime indices of the two ends and the size class.
#[derive(Clone, Copy)]
struct Planned {
    src: u16,
    dst: u16,
    class: u8,
}

pub struct GridInputs {
    plan: Vec<Planned>,
    messages: Vec<RefCell<Messages>>,
    /// Seeded cross-site pairs for the uncached-lookup probe.
    lookup_pairs: Vec<(u16, u16)>,
}

/// Runtime index of worker `w` (0-based among a site's non-gateway
/// nodes) of `site`; runtimes come in site-major, gateway-first order.
fn worker(site: usize, w: usize) -> u16 {
    (site * NODES_PER_SITE + 1 + w) as u16
}

fn cross_site_pair(rng: &mut SimRng) -> (u16, u16) {
    let a = rng.gen_range(0, SITES as u64) as usize;
    let b = (a + 1 + rng.gen_range(0, SITES as u64 - 1) as usize) % SITES;
    let w = |rng: &mut SimRng| rng.gen_range(0, NODES_PER_SITE as u64 - 1) as usize;
    (worker(a, w(rng)), worker(b, w(rng)))
}

struct State {
    plan_cursor: Cell<usize>,
    total: usize,
    log: SharedLog,
    spans: Rc<Spans>,
    inputs: Rc<GridInputs>,
    rts: Vec<PadicoRuntime>,
    sink: Rc<Sink>,
    failure: RefCell<Option<String>>,
    sent: Cell<u64>,
    sent_bytes: Cell<u64>,
    acks: Cell<u64>,
}

impl State {
    fn fail(&self, why: String) {
        self.failure.borrow_mut().get_or_insert(why);
    }
}

/// Starts the next planned op, if any is left: connect, request; on the
/// ack, close and start the one after.
fn next_op(st: &Rc<State>, world: &mut SimWorld) {
    let op = st.plan_cursor.get();
    if op >= st.total {
        return;
    }
    st.plan_cursor.set(op + 1);
    let p = st.inputs.plan[op];
    // The first op of each client and the last few of the run are probes.
    let probe = op < CLIENTS || op + CLIENTS >= st.total;
    let (msg, checksum) = st.inputs.messages[p.class as usize]
        .borrow_mut()
        .next(probe);
    let start = world.now();
    let dst = st.rts[p.dst as usize].node();
    let g = st.spans.enter(Call::VlinkConnect, op as u64);
    let link = st.rts[p.src as usize].vlink_connect(world, dst, SERVICE);
    st.spans.exit(g);
    st.sent.set(st.sent.get() + 1);
    st.sent_bytes.set(st.sent_bytes.get() + msg.len() as u64);
    let len = msg.len() as u64;
    let g = st.spans.enter(Call::VlinkPostWrite, op as u64);
    link.post_write_bytes(world, msg);
    st.spans.exit(g);

    let (st2, link2) = (st.clone(), link.clone());
    link.set_handler(move |w, ev| {
        if ev != VLinkEvent::Readable {
            return;
        }
        let acks = link2.read_now(w, usize::MAX).len();
        if acks == 0 {
            return;
        }
        st2.acks.set(st2.acks.get() + acks as u64);
        let g = st2.spans.enter(Call::VlinkClose, op as u64);
        link2.close(w);
        st2.spans.exit(g);
        // This closure holds the link that holds it: let go.
        link2.set_handler(|_, _| {});
        let latency = w.now().since(start);
        if acks != 1 {
            st2.fail(format!("op {op}: {acks} acks for one request"));
        } else if checksum.is_some_and(|sum| !st2.sink.probe_matches(sum)) {
            st2.fail(format!("op {op}: payload checksum mismatch"));
        } else if latency > OP_TIMEOUT {
            st2.fail(format!("op {op}: took {latency:?} of virtual time"));
        } else {
            st2.log.borrow_mut().record(latency, len);
            next_op(&st2, w);
        }
    });
}

pub struct GridWorld {
    world: SimWorld,
    grid: GridTopology,
    st: Rc<State>,
}

impl World for GridWorld {
    type Inputs = GridInputs;

    fn inputs(cfg: &RunCfg) -> GridInputs {
        let mut rng = SimRng::seeded(cfg.seed ^ 0x6772_6964);
        let hot: Vec<(u16, u16)> = (0..HOT_PAIRS).map(|_| cross_site_pair(&mut rng)).collect();
        let block: Vec<u8> = CLASSES
            .iter()
            .enumerate()
            .flat_map(|(class, &(_, share))| std::iter::repeat_n(class as u8, share))
            .collect();
        let total = (cfg.warmup_ops() + cfg.ops) as usize;
        let mut plan = Vec::with_capacity(total + block.len());
        while plan.len() < total {
            // One block: exact class shares and exact hot share, both in
            // seeded order.
            let mut classes = block.clone();
            let mut is_hot: Vec<bool> = (0..block.len() as u64).map(|i| i < HOT_SHARE).collect();
            for i in (1..block.len()).rev() {
                classes.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
                is_hot.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
            }
            for (class, hot_op) in classes.into_iter().zip(is_hot) {
                let (src, dst) = if hot_op {
                    hot[rng.gen_range(0, HOT_PAIRS as u64) as usize]
                } else {
                    cross_site_pair(&mut rng)
                };
                plan.push(Planned { src, dst, class });
            }
        }
        plan.truncate(total);
        GridInputs {
            plan,
            messages: CLASSES
                .iter()
                .enumerate()
                .map(|(i, &(centre, _))| {
                    RefCell::new(Messages::new(
                        cfg.seed + i as u64,
                        centre,
                        (centre / 128).max(8),
                    ))
                })
                .collect(),
            lookup_pairs: (0..4096).map(|_| cross_site_pair(&mut rng)).collect(),
        }
    }

    fn build(cfg: &RunCfg, inputs: Rc<GridInputs>, log: SharedLog, spans: &Rc<Spans>) -> GridWorld {
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

        // Echo listener on every worker: ack each complete request, close
        // when the client has.
        let sink = Sink::new();
        let g = spans.enter(Call::VlinkListen, u64::MAX);
        for site in 0..SITES {
            for w in 0..NODES_PER_SITE - 1 {
                let s = sink.clone();
                rts[worker(site, w) as usize].vlink_listen(
                    &mut world,
                    SERVICE,
                    move |_w, v: VLink| {
                        let (s, v2) = (s.clone(), v.clone());
                        let mut deframer = Deframer::default();
                        v.set_handler(move |w, ev| match ev {
                            VLinkEvent::Readable => loop {
                                let chunk = v2.read_now_bytes(w, usize::MAX);
                                if chunk.is_empty() {
                                    break;
                                }
                                for _ in 0..deframer.feed(&chunk, &s) {
                                    v2.post_write_bytes(w, Bytes::from_static(&[1]));
                                }
                            },
                            VLinkEvent::Finished => {
                                v2.close(w);
                                // This closure holds the link that holds it.
                                v2.set_handler(|_, _| {});
                            }
                            VLinkEvent::Connected => {}
                        });
                    },
                );
            }
        }
        spans.exit(g);
        // Gateway trunks establish before the first op.
        let g = spans.enter(Call::Run, u64::MAX);
        world.run();
        spans.exit(g);
        let st = Rc::new(State {
            plan_cursor: Cell::new(0),
            total: inputs.plan.len(),
            log,
            spans: spans.clone(),
            inputs,
            rts,
            sink,
            failure: RefCell::new(None),
            sent: Cell::new(0),
            sent_bytes: Cell::new(0),
            acks: Cell::new(0),
        });
        GridWorld { world, grid, st }
    }

    fn sim(&self) -> &SimWorld {
        &self.world
    }

    fn run_ops(&mut self, n: u64, spans: &Spans) -> Result<(), String> {
        let st = &self.st;
        if st.plan_cursor.get() == 0 {
            for _ in 0..CLIENTS {
                next_op(st, &mut self.world);
            }
        }
        let progress = Progress {
            log: &st.log,
            total: st.total as u64,
            failure: &st.failure,
        };
        run_until_logged(&mut self.world, progress, n, spans)
    }

    fn finish(&mut self, spans: &Spans) -> Vec<String> {
        let g = spans.enter(Call::Run, u64::MAX);
        self.world.run();
        spans.exit(g);
        let st = &self.st;
        st.sink
            .balanced("clients", st.sent.get(), st.sent_bytes.get(), st.acks.get())
            .err()
            .into_iter()
            .collect()
    }

    /// Timed calls into single layers of the quiesced grid.
    fn layer_probes(&mut self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let st = self.st.clone();
        let node = |rt: u16| st.rts[rt as usize].node();
        let pairs: Vec<(u16, u16)> = st.inputs.lookup_pairs.clone();

        // Uncached two-level lookup, straight on the route table.
        let g = spans.enter(Call::PathInfo, u64::MAX);
        let (found, s) = harness::timed(|| {
            pairs
                .iter()
                .filter(|&&(a, b)| {
                    self.grid
                        .routes
                        .path_info(&self.world, node(a), node(b))
                        .is_some()
                })
                .count()
        });
        spans.exit(g);
        assert_eq!(found, pairs.len(), "every cross-site pair has a route");
        let lookup_ns = s * 1e9 / pairs.len() as f64;

        // The selector's memoized decision for one hot pair.
        let (a, b) = st.inputs.plan[0].pair();
        let reps = 200_000;
        let g = spans.enter(Call::VlinkDecision, u64::MAX);
        let ((), s) = harness::timed(|| {
            for _ in 0..reps {
                std::hint::black_box(st.rts[a as usize].vlink_decision(&self.world, node(b)));
            }
        });
        spans.exit(g);
        let cached_ns = s * 1e9 / reps as f64;

        // One backbone flap (link down, link up) on a scratch copy of the
        // grid: the incremental reconvergence the churn machinery uses.
        let mut scratch = self.grid.clone();
        let link = scratch.backbones[0];
        let mut flaps = Vec::new();
        for _ in 0..21 {
            let g = spans.enter(Call::ApplyDelta, u64::MAX);
            let ((), s) = harness::timed(|| {
                for delta in [BackboneDelta::LinkDown(link), BackboneDelta::LinkUp(link)] {
                    scratch
                        .apply_delta(&self.world, &delta)
                        .expect("a backbone flap keeps gateway isolation");
                }
            });
            spans.exit(g);
            flaps.push(s * 1e3);
        }

        // Connection set-up alone: connect to a cross-site worker and run
        // until the relayed stream is established end to end.
        let mut virt_ms = Vec::new();
        let mut host_us = Vec::new();
        for &(a, b) in pairs.iter().take(64) {
            let start: SimTime = self.world.now();
            let ((), s) = harness::timed(|| {
                let g = spans.enter(Call::VlinkConnect, u64::MAX);
                let link = st.rts[a as usize].vlink_connect(&mut self.world, node(b), SERVICE);
                spans.exit(g);
                let g = spans.enter(Call::RunWhile, u64::MAX);
                self.world.run_while(|| !link.is_established());
                spans.exit(g);
                assert!(link.is_established(), "probe connection established");
                link.close(&mut self.world);
            });
            virt_ms.push(self.world.now().since(start).as_millis_f64());
            host_us.push(s * 1e6);
        }
        self.world.run();

        vec![
            ("gridtopo.hier.lookup_ns", lookup_ns),
            ("core.selector.lookup_cached_ns", cached_ns),
            ("gridtopo.hier.delta_ms", fastest_quarter_mean(&flaps)),
            (
                "gridtopo.hier.table_bytes",
                self.grid.routes.table_bytes() as f64,
            ),
            ("core.vlink.connect_virt_ms", median(&virt_ms)),
            ("core.vlink.connect_host_us", fastest_quarter_mean(&host_us)),
        ]
    }
}

impl Planned {
    fn pair(self) -> (u16, u16) {
        (self.src, self.dst)
    }
}
