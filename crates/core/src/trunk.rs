//! Persistent gateway trunks: one warm striped bundle per gateway pair,
//! multiplexing every relayed stream that crosses it.
//!
//! The seed opened a fresh transport connection per relayed stream and per
//! backbone leg, so every cross-site stream paid a WAN handshake and a cold
//! congestion window on every hop. A trunk is established once (eagerly,
//! when the gateway proxy comes up) and stays warm; relayed streams ride it
//! as multiplexed channels framed by a 9-byte header, so opening a stream
//! over an established trunk costs no WAN round-trip at all.
//!
//! Framing: `[stream id: u32][kind: u8][length: u32][payload]`, big-endian.
//! Stream ids are allocated by the trunk's connecting side only (each
//! direction of a gateway pair uses its own trunk), so ids never collide.
//! A stream opens implicitly with its first frame and closes with a
//! zero-length `CLOSE` frame in each direction.
//!
//! The demultiplexer is built on [`SegBuf`]: arriving carrier segments are
//! queued by refcount and per-stream payloads are sliced out of them, so a
//! relayed byte is never copied by the trunk layer.
//!
//! ## Credit-based flow control
//!
//! Every multiplexed stream carries its own byte-granular credit window,
//! sized by the trunk's [`TrunkFlowConfig`]: a sender may only put
//! `send_window` bytes on the carrier; anything beyond *parks* in a
//! sender-side [`SegBuf`] instead of flooding the receiving gateway. The
//! consumer's reads return credits as `CREDIT` frames piggybacked on the
//! same mux (batched by [`TrunkFlowConfig::credit_grant_threshold`] to keep
//! control traffic cheap), which re-open the window and flush the parked
//! bytes in order. The receive buffer of a stream is therefore bounded by
//! `initial_window` — observable through [`SegBuf::high_water`] — and a
//! stalled relayed stream holds its bytes at the *sending* gateway rather
//! than ballooning the receiving one. Credits keep flowing across
//! half-close (a receiver that closed its own write side still grants for
//! what it consumes), so accounting is conserved until both sides close.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use simnet::{SimDuration, SimTime, SimWorld};
use transport::{ByteStream, ReadableCallback, SegBuf};

const KIND_DATA: u8 = 0;
const KIND_CLOSE: u8 = 1;
/// Warm-up padding sent once at trunk establishment and discarded by the
/// far end; it drives the carrier's congestion windows to steady state so
/// the first relayed stream already finds a hot trunk (the same reason
/// GridFTP caches its data channels).
const KIND_WARMUP: u8 = 2;
/// Credit return: the payload is a 4-byte big-endian count of consumed
/// bytes the receiver hands back to the sender's window.
const KIND_CREDIT: u8 = 3;
/// Liveness keep-alive (zero payload, stream id 0): sent while the peer
/// is actively talking to us but we have nothing else to say, so a
/// sender with outstanding credited data can tell a silent-but-alive
/// peer from a dead one.
const KIND_HEARTBEAT: u8 = 4;
/// Liveness probe (zero payload, stream id 0): sent **once per stall
/// epoch** by an end with a *blocked* stream (bytes parked behind an
/// exhausted window) whose wire has been quiet in both directions past
/// every grace window — and only after the peer has been silent a full
/// `dead_after`, so a live trunk never sees one. Unlike a heartbeat it
/// counts as real traffic at the receiver (so a live peer answers it
/// with heartbeats) and it opens a fresh expectation epoch at the
/// sender, so a peer that died silently *during* the long stall is
/// declared dead one `dead_after` later instead of never.
const KIND_PROBE: u8 = 5;

/// Size of the per-frame multiplexing header.
pub(crate) const MUX_HEADER_BYTES: usize = 9;

/// Largest payload carried by one mux frame, so concurrent streams
/// interleave fairly on the trunk.
const MAX_FRAME_PAYLOAD: usize = 64 * 1024;

/// Liveness configuration of a trunk end (see [`TrunkMux::enable_health`]).
///
/// Detection is *expectation-driven*: the health timer only runs while
/// this end has a reason to expect peer activity (parked bytes waiting
/// for credits, or an open credit window deficit), plus a short
/// grace window after the last real traffic. An idle trunk therefore
/// costs no simulation events at all — and a silently dead carrier is
/// detected on the next use, when the first unanswered send arms the
/// timer. An orderly carrier close is detected immediately, without
/// waiting for any timeout.
///
/// The expectation itself *decays* `heartbeat_interval` past
/// `dead_after` from the last real send: a receiver that legitimately
/// sits on sub-threshold data (owing no credits yet) must never be
/// mistaken for a corpse, and a timer armed for the whole stall would
/// keep the event queue alive forever. A *blocked* stream (bytes parked
/// behind an exhausted window) whose stall outlives every grace window
/// is covered by a single on-wire *probe* per epoch, fired only once
/// the peer has also been silent a full `dead_after` (any frame is
/// proof of life; until the deadline the timer parks on one silent
/// scheduler event that any real activity cancels — live trunks never
/// see a probe). The probe counts as real traffic at the peer (a live
/// one answers with heartbeats, which re-arm nothing further — probes
/// never chain) and opens a fresh expectation epoch here, so a peer
/// that died silently mid-stall is declared dead one `dead_after` after
/// the probe instead of never. Real traffic in either direction re-arms
/// the probe for the next stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrunkHealthConfig {
    /// How often the armed timer ticks (and, while the peer is actively
    /// talking, how often a keep-alive heartbeat goes out).
    pub heartbeat_interval: SimDuration,
    /// Silence (no frame of any kind from the peer) beyond which an
    /// *expecting* end declares the carrier dead.
    pub dead_after: SimDuration,
}

impl Default for TrunkHealthConfig {
    fn default() -> Self {
        TrunkHealthConfig {
            heartbeat_interval: SimDuration::from_millis(20),
            dead_after: SimDuration::from_millis(80),
        }
    }
}

/// Per-stream credit-window configuration of a trunk. Both ends of a
/// trunk must agree on it (the runtime derives it from the same
/// preferences on every node, see `relay::trunk_flow`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrunkFlowConfig {
    /// Bytes a sender may have in flight (unconsumed by the receiving
    /// application) per stream before it parks. Bounds the receiver-side
    /// buffer occupancy of each relayed stream.
    pub initial_window: usize,
    /// Consumed bytes the receiver batches before returning a `CREDIT`
    /// frame. Must be well below `initial_window` or the window starves.
    pub credit_grant_threshold: usize,
    /// Aggregate byte budget shared by **all** streams of the trunk,
    /// layered on the per-stream windows (`gateway_trunk_budget`
    /// preference): the sum of unconsumed bytes in flight across the
    /// whole trunk never exceeds it, so one gateway pair's total
    /// store-and-forward memory is bounded — not just each stream's.
    /// Senders that would exceed it park and resume in FIFO park order as
    /// credits return. `0` disables the shared budget.
    pub trunk_budget: usize,
}

impl Default for TrunkFlowConfig {
    fn default() -> Self {
        TrunkFlowConfig {
            initial_window: 256 * 1024,
            credit_grant_threshold: 32 * 1024,
            trunk_budget: 0,
        }
    }
}

/// Credit accounting of one trunk stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkCreditStats {
    /// Credit bytes received from the peer (window refills).
    pub credits_received: u64,
    /// Credit bytes granted to the peer for consumed data.
    pub credits_granted: u64,
    /// Payload bytes the local consumer has read off this stream.
    pub bytes_consumed: u64,
    /// Consumed bytes not yet returned as credits (below the grant
    /// threshold).
    pub unreturned_bytes: usize,
    /// Total virtual time this stream's sender spent parked with an
    /// exhausted window, in nanoseconds.
    pub stalled_ns: u64,
    /// Bytes currently parked sender-side waiting for credits.
    pub parked_bytes: usize,
    /// Current send window, in bytes.
    pub send_window: usize,
    /// Peak occupancy of the receive buffer (the occupancy bound the
    /// window is supposed to enforce).
    pub recv_high_water: usize,
}

/// Memory accounting of one trunk end: the shared-budget state on the
/// sending side and the aggregate receive-buffer occupancy on the
/// receiving side. With `trunk_budget` set on the peer, `recv_high_water`
/// never exceeds the budget — the bound a gateway's total
/// store-and-forward memory rests on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkMemoryStats {
    /// The configured shared budget (0 when unbounded).
    pub budget: usize,
    /// Budget bytes currently unspent (equals `budget` when idle).
    pub budget_available: usize,
    /// Unconsumed bytes currently sitting in this trunk's per-stream
    /// receive buffers.
    pub recv_occupancy: usize,
    /// Peak of `recv_occupancy` over the trunk's lifetime.
    pub recv_high_water: usize,
    /// Streams currently parked for want of window or budget.
    pub parked_streams: usize,
    /// Peak receive-buffer occupancy of any single live stream
    /// ([`transport::SegBuf::high_water`] of its buffer): bounded by the
    /// per-stream `initial_window`.
    pub max_stream_high_water: usize,
}

type TrunkAcceptCallback = Box<dyn FnMut(&mut SimWorld, TrunkStream)>;
/// Stall observer: invoked with `true` when the stream's sender parks on
/// an exhausted window/budget and `false` when the backlog fully drains.
type StallHook = Rc<RefCell<dyn FnMut(&mut SimWorld, bool)>>;
/// Death hook; the `bool` says whether *this* end severed the carrier
/// itself (`close_carrier` — the local-restart fault model) rather than
/// the peer dying: a local sever says nothing about the peer's health.
type TrunkDeadCallback = Box<dyn FnOnce(&mut SimWorld, bool)>;

struct StreamState {
    id: u32,
    recv_buf: SegBuf,
    readable_cb: Option<ReadableCallback>,
    notify_pending: bool,
    peer_closed: bool,
    self_closed: bool,
    /// The `CLOSE` frame has actually been emitted (it is deferred while
    /// parked bytes remain to flush).
    close_sent: bool,
    close_after_flush: bool,
    bytes_sent: u64,
    flow: TrunkFlowConfig,
    send_window: usize,
    pending_tx: SegBuf,
    consumed_unreturned: usize,
    stall_started: Option<SimTime>,
    stalled_ns: u64,
    stall_hook: Option<StallHook>,
    credits_received: u64,
    credits_granted: u64,
    bytes_consumed: u64,
}

impl StreamState {
    fn new(id: u32, flow: TrunkFlowConfig) -> StreamState {
        StreamState {
            id,
            recv_buf: SegBuf::new(),
            readable_cb: None,
            notify_pending: false,
            peer_closed: false,
            self_closed: false,
            close_sent: false,
            close_after_flush: false,
            bytes_sent: 0,
            send_window: flow.initial_window,
            flow,
            pending_tx: SegBuf::new(),
            consumed_unreturned: 0,
            stall_started: None,
            stalled_ns: 0,
            stall_hook: None,
            credits_received: 0,
            credits_granted: 0,
            bytes_consumed: 0,
        }
    }

    /// Takes the consumed-but-unreturned batch as a credit grant:
    /// `(stream id, bytes)`, or `None` when nothing is owed.
    fn take_grant(&mut self) -> Option<(u32, usize)> {
        let granted = std::mem::take(&mut self.consumed_unreturned);
        self.credits_granted += granted as u64;
        (granted > 0).then_some((self.id, granted))
    }
}

/// Sender-side shared-budget state of one trunk (present only when
/// [`TrunkFlowConfig::trunk_budget`] is non-zero).
#[derive(Debug, Clone, Copy)]
struct BudgetState {
    /// The configured budget (the cap `left` recovers towards).
    cap: usize,
    /// Bytes of budget currently unspent.
    left: usize,
}

struct MuxInner {
    carrier: Rc<dyn ByteStream>,
    /// Reassembly buffer for mux frames arriving on the carrier.
    rx: SegBuf,
    streams: BTreeMap<u32, Rc<RefCell<StreamState>>>,
    next_id: u32,
    flow: TrunkFlowConfig,
    /// Shared send budget across every stream of this trunk, if bounded.
    budget: Option<BudgetState>,
    /// Streams with parked bytes, in the order they first parked: budget
    /// returned by credits is re-offered in this (deterministic) order.
    parked_order: VecDeque<u32>,
    /// Receiver side of the budget bound: total unconsumed bytes sitting
    /// in this trunk's per-stream receive buffers, and its peak. With the
    /// peer enforcing a `trunk_budget`, the peak never exceeds it.
    recv_occupancy: usize,
    recv_high_water: usize,
    /// Bytes the carrier refused (it died or was closed under us); data
    /// already handed to a dead carrier is lost, not silently retried.
    lost_bytes: u64,
    /// Present on the accepting (gateway proxy) side: invoked with each
    /// stream a peer opens over this trunk.
    on_accept: Option<TrunkAcceptCallback>,
    /// Liveness configuration, when enabled.
    health: Option<TrunkHealthConfig>,
    /// Whether the health timer is currently scheduled.
    health_armed: bool,
    /// Last time any frame arrived from the peer (heartbeats included).
    last_rx: SimTime,
    /// Last time any frame was sent to the peer.
    last_tx: SimTime,
    /// Last time a *real* (non-heartbeat) frame arrived / was sent —
    /// heartbeats answer real traffic but never count as it, or two idle
    /// ends would keep each other's timers alive forever.
    last_data_rx: SimTime,
    last_data_tx: SimTime,
    /// Start of the current *expectation epoch*: the first data send
    /// after the previous expectation decayed (or ever). The silence
    /// verdict measures from `max(last_rx, expect_since)` — a trunk that
    /// falls idle (both ends legitimately silent) and then resumes must
    /// grant the peer a full `dead_after` from the resumption, not
    /// compare against a `last_rx` that is stale by design.
    expect_since: SimTime,
    /// The trunk has been declared dead (carrier closed or silent past
    /// `dead_after` while expecting): every stream on it is over.
    dead: bool,
    /// This end severed the carrier itself ([`TrunkMux::close_carrier`] —
    /// the `drop_trunks` / local-restart fault model). Death hooks use it
    /// to tell a local sever from a dead *peer*: only the latter may mark
    /// the remote gateway down.
    locally_severed: bool,
    /// Whether the current stall epoch already sent its liveness probe
    /// (see [`KIND_PROBE`]); cleared by real traffic in either direction
    /// so the *next* stall gets its own probe.
    probed: bool,
    /// Set when the pending health timer exists only to re-check a stall
    /// probe's peer-silence deadline (the scheduled event's id). Such a
    /// wake must stay *silent* — pre-probe code had no timer at all in
    /// this period, and injecting a heartbeat into a busy carrier
    /// perturbs the bulk datapath. Any wire activity preempts it: the
    /// parked event is cancelled and normal interval ticking resumes, so
    /// the probe machinery never delays a tick the old code would have
    /// run.
    probe_wait: Option<simnet::EventId>,
    /// Fault-model hook: a muted end sends nothing (its bytes are lost)
    /// and ignores everything it receives — a silently crashed gateway.
    muted: bool,
    /// Run once when the trunk is declared dead (failover re-dial hooks).
    on_dead: Vec<TrunkDeadCallback>,
    /// Shared-budget bytes charged for warm-up padding still in flight;
    /// returned by the far end's warm-up credits, or refunded wholesale
    /// when the trunk dies before establishment completes.
    warmup_charge: usize,
}

/// One end of a gateway trunk: demultiplexes mux frames arriving on the
/// carrier bundle into [`TrunkStream`]s.
#[derive(Clone)]
pub struct TrunkMux {
    inner: Rc<RefCell<MuxInner>>,
}

/// Non-owning [`TrunkMux`] handle (see [`TrunkMux::downgrade`]).
#[derive(Clone)]
pub(crate) struct WeakTrunkMux(std::rc::Weak<RefCell<MuxInner>>);

impl WeakTrunkMux {
    /// Whether the trunk is dead (a dropped mux counts as dead).
    pub(crate) fn is_dead(&self) -> bool {
        self.0.upgrade().is_none_or(|i| i.borrow().dead)
    }
}

impl TrunkMux {
    /// Wraps the connecting end of a trunk carrier. Streams are opened
    /// locally with [`TrunkMux::open`]. Both ends must agree on `flow`.
    pub fn connector(carrier: Rc<dyn ByteStream>, flow: TrunkFlowConfig) -> TrunkMux {
        Self::new(carrier, flow, None)
    }

    /// Wraps the accepting end of a trunk carrier; `on_accept` runs for
    /// every stream the remote end opens.
    pub fn acceptor(
        carrier: Rc<dyn ByteStream>,
        flow: TrunkFlowConfig,
        on_accept: impl FnMut(&mut SimWorld, TrunkStream) + 'static,
    ) -> TrunkMux {
        Self::new(carrier, flow, Some(Box::new(on_accept)))
    }

    fn new(
        carrier: Rc<dyn ByteStream>,
        flow: TrunkFlowConfig,
        on_accept: Option<TrunkAcceptCallback>,
    ) -> TrunkMux {
        assert!(
            flow.credit_grant_threshold <= flow.initial_window && flow.initial_window > 0,
            "credit grant threshold must not exceed the window"
        );
        assert!(
            flow.trunk_budget == 0 || flow.trunk_budget >= flow.credit_grant_threshold,
            "a trunk budget below the credit grant threshold can never be refilled"
        );
        let budget = (flow.trunk_budget > 0).then_some(BudgetState {
            cap: flow.trunk_budget,
            left: flow.trunk_budget,
        });
        let mux = TrunkMux {
            inner: Rc::new(RefCell::new(MuxInner {
                carrier: carrier.clone(),
                rx: SegBuf::new(),
                streams: BTreeMap::new(),
                next_id: 1,
                flow,
                budget,
                parked_order: VecDeque::new(),
                recv_occupancy: 0,
                recv_high_water: 0,
                lost_bytes: 0,
                on_accept,
                health: None,
                health_armed: false,
                last_rx: SimTime::ZERO,
                last_tx: SimTime::ZERO,
                last_data_rx: SimTime::ZERO,
                last_data_tx: SimTime::ZERO,
                expect_since: SimTime::ZERO,
                dead: false,
                locally_severed: false,
                probed: false,
                probe_wait: None,
                muted: false,
                on_dead: Vec::new(),
                warmup_charge: 0,
            })),
        };
        let weak = Rc::downgrade(&mux.inner);
        carrier.set_readable_callback(Box::new(move |world| {
            if let Some(inner) = weak.upgrade() {
                TrunkMux { inner }.on_carrier_readable(world);
            }
        }));
        mux
    }

    /// Pushes `bytes` of warm-up padding through the trunk. The far end
    /// discards it; its only effect is growing the carrier's congestion
    /// state to steady state before real streams ride the trunk.
    ///
    /// With a shared trunk budget configured, the padding *charges* the
    /// budget like any other in-flight bytes (it occupies the same carrier
    /// and far-end memory) and the far end returns it as mux-level credits
    /// on receipt — so warm-up accounting and
    /// [`TrunkMux::memory_stats`] stay consistent. If the carrier dies
    /// during establishment the outstanding charge is refunded when the
    /// death is detected ([`TrunkMux::declare_dead`]), before any stream
    /// attaches: an establishment failure can never leak the budget away.
    pub fn warm_up(&self, world: &mut SimWorld, bytes: usize) {
        let mut left = bytes;
        while left > 0 {
            let chunk = left.min(MAX_FRAME_PAYLOAD);
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(b) = inner.budget.as_mut() {
                    let charge = chunk.min(b.left);
                    b.left -= charge;
                    inner.warmup_charge += charge;
                }
            }
            self.send_frame(world, 0, KIND_WARMUP, warmup_pad(chunk));
            left -= chunk;
        }
    }

    /// Enables liveness detection on this trunk end: an orderly carrier
    /// close is declared dead immediately; a silent carrier is declared
    /// dead once this end has been *expecting* peer activity (parked or
    /// window-limited bytes) for longer than
    /// [`TrunkHealthConfig::dead_after`]. While armed, the timer also
    /// answers an actively talking peer with keep-alive heartbeats so
    /// that a pure sender's expectation can be met.
    pub fn enable_health(&self, world: &mut SimWorld, config: TrunkHealthConfig) {
        {
            let mut inner = self.inner.borrow_mut();
            let now = world.now();
            inner.health = Some(config);
            inner.last_rx = now;
            inner.last_tx = now;
            inner.last_data_rx = now;
            inner.last_data_tx = now;
            inner.expect_since = now;
        }
        self.arm_health(world);
    }

    /// Registers a hook run once, when this trunk end is declared dead
    /// (orderly close observed or liveness timeout). Used by the runtime
    /// to purge its trunk table and by failover streams to re-dial. The
    /// hook receives `locally_severed`: whether this end closed the
    /// carrier itself (see [`TrunkMux::close_carrier`]).
    pub fn on_dead(&self, cb: impl FnOnce(&mut SimWorld, bool) + 'static) {
        self.inner.borrow_mut().on_dead.push(Box::new(cb));
    }

    /// Whether this trunk end has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.inner.borrow().dead
    }

    /// True when `other` is the same trunk end.
    pub fn same(&self, other: &TrunkMux) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Fault-model hook: silences this end — nothing is sent any more
    /// (bytes streams hand us are lost and accounted) and arriving frames
    /// are discarded unread. This models a gateway process that crashed
    /// without closing its connections; the peer can only notice through
    /// liveness timeouts.
    pub fn mute(&self) {
        self.inner.borrow_mut().muted = true;
    }

    /// Declares this trunk end dead: refunds any outstanding warm-up
    /// budget charge, closes the carrier, runs the death hooks and wakes
    /// every stream so blocked readers observe the end of stream.
    pub fn declare_dead(&self, world: &mut SimWorld) {
        if self.inner.borrow().dead {
            return;
        }
        // Final credit flush while our write side still delivers (the
        // peer closing its direction does not close ours — half-close):
        // a peer migrating its streams learns exactly what this end
        // consumed before our FIN, which is what makes its resume offset
        // exact. Futile when the peer is truly gone — the credits die on
        // the severed wire, accounted — and a no-op after a fail-stop
        // `kill`, which flushed explicitly first.
        self.flush_consumed_credits(world);
        let (hooks, states, locally_severed) = {
            let mut inner = self.inner.borrow_mut();
            if inner.dead {
                return;
            }
            inner.dead = true;
            // Warm-up padding that will never be credited back: refund it
            // now so an establishment failure returns the budget before
            // the first stream ever attaches.
            let charge = std::mem::take(&mut inner.warmup_charge);
            if let Some(b) = inner.budget.as_mut() {
                b.left = (b.left + charge).min(b.cap);
            }
            let hooks = std::mem::take(&mut inner.on_dead);
            // BTreeMap is keyed by stream id, so this is id order already.
            let states: Vec<_> = inner.streams.values().cloned().collect();
            (hooks, states, inner.locally_severed)
        };
        let carrier = self.inner.borrow().carrier.clone();
        carrier.close(world);
        for hook in hooks {
            hook(world, locally_severed);
        }
        for state in states {
            TrunkStream {
                mux: self.clone(),
                state,
            }
            .schedule_notify(world);
        }
    }

    /// Grants every stream's consumed-but-unreturned credit batch back to
    /// the peer immediately (in stream-id order). Part of the orderly
    /// fail-stop model: a gateway being killed flushes these so that the
    /// peer's notion of *acknowledged* matches exactly what this end
    /// consumed — and therefore what its splices already forwarded.
    pub fn flush_consumed_credits(&self, world: &mut SimWorld) {
        // BTreeMap is keyed by stream id, so this is id order already.
        let states: Vec<_> = self.inner.borrow().streams.values().cloned().collect();
        for state in states {
            let grant = state.borrow_mut().take_grant();
            if let Some((id, granted)) = grant {
                self.send_credit(world, id, granted);
            }
        }
    }

    /// Returns `amount` credit bytes for stream `id` (0: the trunk-level
    /// budget) in `u32`-sized `CREDIT` frames.
    fn send_credit(&self, world: &mut SimWorld, id: u32, amount: usize) {
        let mut left = amount;
        while left > 0 {
            let part = left.min(u32::MAX as usize);
            self.send_frame(world, id, KIND_CREDIT, credit_payload(part));
            left -= part;
        }
    }

    /// Whether any stream of this end is *expecting* peer activity: bytes
    /// parked for want of window/budget, a partially spent credit window,
    /// or a deferred close. Only an expecting end may declare a silent
    /// carrier dead — a mere receiver cannot tell silence from idleness.
    fn expecting_activity(&self) -> bool {
        let inner = self.inner.borrow();
        inner.streams.values().any(|s| {
            let st = s.borrow();
            !st.pending_tx.is_empty()
                || st.close_after_flush
                || st.send_window < st.flow.initial_window
        }) || inner.warmup_charge > 0
    }

    /// Like [`expecting_activity`](Self::expecting_activity) but
    /// restricted to streams that cannot make progress *at all* without
    /// the peer: bytes parked behind an exhausted window/budget, a close
    /// deferred behind them, or warm-up padding still unacknowledged. A
    /// stream merely carrying trailing unacked bytes (window partially
    /// spent, nothing parked) still moves on its own — its next send
    /// probes the wire naturally — so the stall probe does not spend
    /// wire traffic or quiescence time challenging on its behalf.
    fn blocked_activity(&self) -> bool {
        let inner = self.inner.borrow();
        inner.streams.values().any(|s| {
            let st = s.borrow();
            !st.pending_tx.is_empty() || st.close_after_flush
        }) || inner.warmup_charge > 0
    }

    /// Arms the liveness watch because an *expectation* just began (or
    /// deepened) without any frame hitting the wire — a send that parked
    /// entirely behind an exhausted window/budget, or a close deferred
    /// behind parked bytes. Sends arm the watch themselves; these paths
    /// used to arm nothing, leaving a silently dead peer undetected until
    /// the next actual send. Deliberately *not* an epoch renewal: only
    /// real wire traffic (the stall probe included) may extend the
    /// expectation, or a quiet-but-live peer could be declared dead
    /// without ever being asked.
    fn note_expectation(&self, world: &mut SimWorld) {
        self.arm_health(world);
    }

    /// (Re-)schedules the health timer if health is enabled and it is not
    /// already pending. A timer parked on a probe deadline (see
    /// [`MuxInner::probe_wait`]) does not count as pending: wire activity
    /// cancels it and resumes normal interval ticking.
    fn arm_health(&self, world: &mut SimWorld) {
        let (interval, parked) = {
            let mut inner = self.inner.borrow_mut();
            let Some(h) = inner.health else { return };
            let parked = inner.probe_wait.take();
            if parked.is_some() {
                inner.health_armed = false;
            }
            (h.heartbeat_interval, parked)
        };
        if let Some(id) = parked {
            world.cancel(id);
        }
        self.arm_health_after(world, interval);
    }

    /// Like [`arm_health`](Self::arm_health) but with an explicit delay;
    /// returns the scheduled event, or `None` if one was already pending.
    fn arm_health_after(
        &self,
        world: &mut SimWorld,
        delay: SimDuration,
    ) -> Option<simnet::EventId> {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.health.is_none() || inner.health_armed || inner.dead {
                return None;
            }
            inner.health_armed = true;
        }
        let weak = Rc::downgrade(&self.inner);
        Some(world.schedule_after(delay, move |world| {
            if let Some(inner) = weak.upgrade() {
                TrunkMux { inner }.health_tick(world);
            }
        }))
    }

    /// Parks the health timer until a stall probe's peer-silence deadline
    /// — one silent scheduler event, nothing on the wire, preempted by
    /// any real activity.
    fn arm_probe_wait(&self, world: &mut SimWorld, delay: SimDuration) {
        if let Some(id) = self.arm_health_after(world, delay) {
            self.inner.borrow_mut().probe_wait = Some(id);
        }
    }

    fn health_tick(&self, world: &mut SimWorld) {
        let now = world.now();
        enum Verdict {
            Dead,
            Probe,
            ProbeWait(SimDuration),
            Tick { heartbeat: bool, rearm: bool },
        }
        let was_probe_wait;
        let verdict = {
            let mut inner = self.inner.borrow_mut();
            inner.health_armed = false;
            was_probe_wait = inner.probe_wait.take().is_some();
            let Some(h) = inner.health else { return };
            if inner.dead {
                return;
            }
            if inner.carrier.is_finished() {
                Verdict::Dead
            } else {
                drop(inner);
                let expecting = self.expecting_activity();
                let blocked = self.blocked_activity();
                let inner = self.inner.borrow();
                // A receiver answers recent real traffic with keep-alives
                // for `hb_window`; a sender's expectation stays *active*
                // for `expect_window` after its last real send. The
                // invariant `expect_window < hb_window + dead_after`
                // guarantees a live peer's heartbeats always land before
                // an active expectation can time out — a receiver that
                // merely sits on sub-threshold data (owing no credits yet)
                // is never mistaken for a corpse.
                let hb_window = h.heartbeat_interval + h.heartbeat_interval;
                let expect_window = h.dead_after + h.heartbeat_interval;
                let active_expectation =
                    expecting && now.since(inner.last_data_tx) <= expect_window;
                // Silence is measured from the later of the peer's last
                // frame and the start of the current expectation epoch —
                // a live peer answering a fresh resumption is one RTT
                // away, not dead.
                let silent_from = inner.last_rx.max(inner.expect_since);
                if active_expectation && now.since(silent_from) > h.dead_after {
                    Verdict::Dead
                } else {
                    // Heartbeat only towards a recently *talking* peer —
                    // answering heartbeats with heartbeats would keep two
                    // idle ends pinging forever (and the world from ever
                    // draining).
                    let heartbeat = !inner.muted
                        && now.since(inner.last_data_rx) <= hb_window
                        && now.since(inner.last_tx) >= h.heartbeat_interval;
                    // Stay armed while the expectation is live or real
                    // traffic is recent; otherwise let the timer lapse
                    // (the next send or arrival re-arms it). Detection
                    // beyond the active window is lazy-on-next-use.
                    let rearm = active_expectation
                        || now.since(inner.last_data_rx) <= hb_window
                        || now.since(inner.last_data_tx) <= hb_window;
                    if !rearm && blocked && !inner.probed && !inner.muted {
                        // The timer is about to lapse while this end is
                        // still *expecting* — both directions have been
                        // quiet past the grace windows. This was the old
                        // blind spot: a peer that died silently here went
                        // undetected until the next send. Challenge it
                        // once per stall epoch — but only after the peer
                        // has been silent a full `dead_after` (any frame,
                        // heartbeats included, is proof of life; probing
                        // a live trunk injects traffic that perturbs the
                        // bulk datapath). Until that deadline, park one
                        // silent wake instead of ticking — real activity
                        // in either direction cancels it and resumes
                        // normal arming, so behaviour on live trunks is
                        // exactly the pre-probe lapse.
                        let silence = now.since(inner.last_rx);
                        if silence > h.dead_after {
                            Verdict::Probe
                        } else {
                            Verdict::ProbeWait(h.dead_after + h.heartbeat_interval - silence)
                        }
                    } else {
                        Verdict::Tick { heartbeat, rearm }
                    }
                }
            }
        };
        match verdict {
            Verdict::Dead => self.declare_dead(world),
            Verdict::Probe => {
                self.inner.borrow_mut().probed = true;
                self.send_frame(world, 0, KIND_PROBE, Bytes::new());
            }
            Verdict::ProbeWait(delay) => self.arm_probe_wait(world, delay),
            Verdict::Tick { heartbeat, rearm } => {
                // A wake that existed only to re-check a probe deadline
                // stays off the wire: without the probe machinery there
                // would have been no timer here at all.
                if heartbeat && !was_probe_wait {
                    self.send_frame(world, 0, KIND_HEARTBEAT, Bytes::new());
                }
                if rearm {
                    self.arm_health(world);
                }
            }
        }
    }

    /// Opens a new multiplexed stream over this trunk. Costs no wire
    /// traffic: the stream exists remotely once its first frame arrives.
    pub fn open(&self) -> TrunkStream {
        let state = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_id;
            inner.next_id += 1;
            let state = Rc::new(RefCell::new(StreamState::new(id, inner.flow)));
            inner.streams.insert(id, state.clone());
            state
        };
        TrunkStream {
            mux: self.clone(),
            state,
        }
    }

    /// Streams the demultiplexer still tracks.
    #[cfg(test)]
    pub(crate) fn stream_count(&self) -> usize {
        self.inner.borrow().streams.len()
    }

    /// Bytes the carrier refused because it died or was closed; they are
    /// lost, exactly as bytes on a severed wire would be.
    pub fn lost_bytes(&self) -> u64 {
        self.inner.borrow().lost_bytes
    }

    /// Memory accounting of this trunk end (see [`TrunkMemoryStats`]).
    pub fn memory_stats(&self) -> TrunkMemoryStats {
        let inner = self.inner.borrow();
        let mut parked = 0;
        let mut max_stream_hw = 0;
        for state in inner.streams.values() {
            let st = state.borrow();
            if !st.pending_tx.is_empty() {
                parked += 1;
            }
            max_stream_hw = max_stream_hw.max(st.recv_buf.high_water());
        }
        TrunkMemoryStats {
            budget: inner.budget.map_or(0, |b| b.cap),
            budget_available: inner.budget.map_or(0, |b| b.left),
            recv_occupancy: inner.recv_occupancy,
            recv_high_water: inner.recv_high_water,
            parked_streams: parked,
            max_stream_high_water: max_stream_hw,
        }
    }

    /// Remembers that `id` parked (has pending bytes), preserving
    /// first-park FIFO order for deterministic resumption.
    fn register_parked(&self, id: u32) {
        let mut inner = self.inner.borrow_mut();
        if !inner.parked_order.contains(&id) {
            inner.parked_order.push_back(id);
        }
    }

    /// Offers newly returned budget/window to every parked stream, in the
    /// order they first parked. Each stream flushes what its own window
    /// and the shared budget allow; streams that drained completely leave
    /// the park queue.
    fn replenish_parked(&self, world: &mut SimWorld) {
        let ids: Vec<u32> = self.inner.borrow().parked_order.iter().copied().collect();
        for id in ids {
            let state = self.inner.borrow().streams.get(&id).cloned();
            if let Some(state) = state {
                TrunkStream {
                    mux: self.clone(),
                    state,
                }
                .flush_pending(world);
            }
        }
        let mut inner = self.inner.borrow_mut();
        let MuxInner {
            parked_order,
            streams,
            ..
        } = &mut *inner;
        parked_order.retain(|id| {
            streams
                .get(id)
                .is_some_and(|s| !s.borrow().pending_tx.is_empty())
        });
    }

    /// True once the underlying carrier is finished (the far end closed or
    /// the bundle died); no further frame can arrive.
    pub fn carrier_finished(&self) -> bool {
        self.inner.borrow().carrier.is_finished()
    }

    /// Closes the underlying carrier, killing the trunk: every stream
    /// riding it ends once in-flight data drains, and bytes sent
    /// afterwards are lost (accounted in [`TrunkMux::lost_bytes`]).
    pub fn close_carrier(&self, world: &mut SimWorld) {
        let carrier = {
            let mut inner = self.inner.borrow_mut();
            inner.locally_severed = true;
            inner.carrier.clone()
        };
        carrier.close(world);
    }

    /// Whether this end severed the carrier itself (as opposed to the
    /// peer dying or closing).
    pub fn locally_severed(&self) -> bool {
        self.inner.borrow().locally_severed
    }

    /// A non-owning handle for death probes (splices must not keep their
    /// own mux alive through a probe, or the probe closes a leak cycle).
    pub(crate) fn downgrade(&self) -> WeakTrunkMux {
        WeakTrunkMux(Rc::downgrade(&self.inner))
    }

    fn on_carrier_readable(&self, world: &mut SimWorld) {
        // Phase 1: drain the carrier and slice out complete mux frames.
        let frames = {
            let mut inner = self.inner.borrow_mut();
            loop {
                let data = inner.carrier.recv_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                if inner.muted {
                    // A silently crashed end reads nothing: discard.
                    continue;
                }
                inner.rx.push_bytes(data);
            }
            let mut frames = Vec::new();
            loop {
                let mut header = [0u8; MUX_HEADER_BYTES];
                if inner.rx.copy_peek(&mut header) < MUX_HEADER_BYTES {
                    break;
                }
                let id = u32::from_be_bytes(header[0..4].try_into().unwrap());
                let kind = header[4];
                let len = u32::from_be_bytes(header[5..9].try_into().unwrap()) as usize;
                if inner.rx.len() < MUX_HEADER_BYTES + len {
                    break;
                }
                inner.rx.consume(MUX_HEADER_BYTES);
                // Zero-copy whenever the payload arrived in one segment.
                let payload = inner.rx.read_bytes(len);
                frames.push((id, kind, payload));
            }
            if !frames.is_empty() {
                inner.last_rx = world.now();
                if frames.iter().any(|(_, k, _)| *k != KIND_HEARTBEAT) {
                    // A probe counts as data *here* (the peer is waiting on
                    // us — answer it with heartbeats), but only genuinely
                    // real traffic re-arms our own one-shot probe: two
                    // mutually stalled ends must not ping-pong probes
                    // forever.
                    inner.last_data_rx = world.now();
                }
                if frames
                    .iter()
                    .any(|(_, k, _)| *k != KIND_HEARTBEAT && *k != KIND_PROBE)
                {
                    inner.probed = false;
                }
            }
            frames
        };
        if !frames.is_empty() {
            // Incoming traffic arms the watch so this end can heartbeat
            // back at a peer that is waiting on us.
            self.arm_health(world);
        }

        // Phase 2: deliver outside the mux borrow (acceptors may open
        // onward legs, which can touch other trunks and the runtime).
        for (id, kind, payload) in frames {
            if kind == KIND_HEARTBEAT {
                continue; // keep-alive: its work was updating last_rx
            }
            if kind == KIND_PROBE {
                // Liveness challenge: its work was updating last_data_rx,
                // which makes the armed timer answer with heartbeats.
                continue;
            }
            if kind == KIND_WARMUP {
                // Padding: its work was done on the wire. The sender
                // charged its shared budget for these bytes; hand them
                // back as mux-level credits.
                self.send_credit(world, 0, payload.len());
                continue;
            }
            if kind == KIND_CREDIT {
                // Window refill for a stream this side sends on. A credit
                // for an id we no longer track is stale (the stream was
                // reaped after both closes) and only refills the shared
                // budget below — it must never fabricate a fresh stream
                // through the accept path.
                if payload.len() != 4 {
                    continue;
                }
                let amount =
                    u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
                // The shared trunk budget is returned at the mux level,
                // regardless of whether the stream still exists: every
                // credited byte was budget-deducted when it went out, so
                // dropping returns for reaped streams would leak the
                // budget away across stream lifetimes.
                {
                    let mut inner = self.inner.borrow_mut();
                    if let Some(b) = inner.budget.as_mut() {
                        b.left = (b.left + amount).min(b.cap);
                    }
                    // Warm-up padding coming back: its budget charge is no
                    // longer outstanding (nothing left to refund on death).
                    inner.warmup_charge = inner.warmup_charge.saturating_sub(amount);
                }
                let state = self.inner.borrow().streams.get(&id).cloned();
                if let Some(state) = &state {
                    let mut st = state.borrow_mut();
                    st.credits_received += amount as u64;
                    st.send_window = st.send_window.saturating_add(amount);
                }
                if self.inner.borrow().budget.is_some() {
                    // Shared budget freed: offer it strictly in the order
                    // streams first parked — the credited stream flushes
                    // at its own FIFO position, never ahead of older
                    // parked streams.
                    self.replenish_parked(world);
                } else if let Some(state) = state {
                    // Per-stream windows only: no shared resource was
                    // freed, so only the credited stream can have gained
                    // sendable allowance.
                    TrunkStream {
                        mux: self.clone(),
                        state,
                    }
                    .flush_pending(world);
                }
                continue;
            }
            let (state, fresh) = {
                let mut inner = self.inner.borrow_mut();
                match inner.streams.get(&id) {
                    Some(s) => (s.clone(), false),
                    None => {
                        if inner.on_accept.is_none() {
                            // A frame for an unknown stream on the
                            // connecting side: stale after close; drop.
                            continue;
                        }
                        let state = Rc::new(RefCell::new(StreamState::new(id, inner.flow)));
                        inner.streams.insert(id, state.clone());
                        (state, true)
                    }
                }
            };
            {
                let mut st = state.borrow_mut();
                match kind {
                    KIND_DATA => {
                        let mut inner = self.inner.borrow_mut();
                        inner.recv_occupancy += payload.len();
                        inner.recv_high_water = inner.recv_high_water.max(inner.recv_occupancy);
                        st.recv_buf.push_bytes(payload);
                    }
                    KIND_CLOSE => st.peer_closed = true,
                    _ => {} // unknown kind: ignore
                }
            }
            let stream = TrunkStream {
                mux: self.clone(),
                state: state.clone(),
            };
            if kind == KIND_CLOSE {
                // If the consumer already drained everything, the final
                // sub-threshold credit batch flushes now — a shared trunk
                // budget must recover those bytes even though the stream
                // is ending.
                stream.flush_final_credits(world);
            }
            // Both directions closed (and our own CLOSE actually sent):
            // the carrier's ordering guarantees no further frame with this
            // id, so the demux entry can go (live handles keep the state
            // alive through their own Rc).
            stream.maybe_reap();
            if fresh {
                // Hand the new stream out (taking the callback allows the
                // acceptor to re-enter the mux).
                let cb = self.inner.borrow_mut().on_accept.take();
                if let Some(mut cb) = cb {
                    cb(world, stream.clone());
                    let mut inner = self.inner.borrow_mut();
                    if inner.on_accept.is_none() {
                        inner.on_accept = Some(cb);
                    }
                }
            }
            stream.schedule_notify(world);
        }

        // A finished carrier means no stream on this trunk will ever see
        // another frame: declare the trunk dead (idempotent), which runs
        // any failover hooks and wakes every stream so blocked readers
        // observe the end of stream instead of waiting forever. This is
        // the *immediate* detection path — an orderly close never waits
        // for the liveness timeout.
        if self.inner.borrow().carrier.is_finished() {
            self.declare_dead(world);
        }
    }

    fn send_frame(&self, world: &mut SimWorld, id: u32, kind: u8, payload: Bytes) {
        let carrier = {
            let mut inner = self.inner.borrow_mut();
            if inner.muted || inner.dead {
                // A muted (silently crashed) or already-dead end: the
                // frame disappears as if the process had died with the
                // bytes in its buffers.
                inner.lost_bytes += (MUX_HEADER_BYTES + payload.len()) as u64;
                return;
            }
            let now = world.now();
            inner.last_tx = now;
            if kind != KIND_HEARTBEAT {
                if kind != KIND_PROBE {
                    // Real traffic re-arms the one-shot stall probe; the
                    // probe itself must not, or one tick would both spend
                    // and refresh it.
                    inner.probed = false;
                }
                if let Some(h) = inner.health {
                    // A data send after the previous expectation decayed
                    // opens a new epoch: the peer gets a full
                    // `dead_after` to answer from *here*, however stale
                    // `last_rx` is after the shared idle period.
                    let expect_window = h.dead_after + h.heartbeat_interval;
                    if now.since(inner.last_data_tx) > expect_window {
                        inner.expect_since = now;
                    }
                }
                inner.last_data_tx = now;
            }
            inner.carrier.clone()
        };
        let mut header = BytesMut::with_capacity(MUX_HEADER_BYTES);
        header.extend_from_slice(&id.to_be_bytes());
        header.extend_from_slice(&[kind]);
        header.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        let expected = MUX_HEADER_BYTES + payload.len();
        let mut parts = vec![header.freeze()];
        if !payload.is_empty() {
            parts.push(payload);
        }
        let sent = carrier.send_bytes_vectored(world, parts);
        if sent != expected {
            // The carrier died under us (a killed trunk): the frame is
            // lost on the severed wire and accounted, never retried.
            self.inner.borrow_mut().lost_bytes += (expected - sent) as u64;
        }
        // Sending while healthy keeps (or starts) the liveness watch: an
        // unanswered expectation is how silent death gets detected.
        self.arm_health(world);
    }
}

/// One relayed stream multiplexed over a gateway trunk.
#[derive(Clone)]
pub struct TrunkStream {
    mux: TrunkMux,
    state: Rc<RefCell<StreamState>>,
}

impl TrunkStream {
    /// The mux carrying this stream (failover internals).
    pub(crate) fn mux(&self) -> &TrunkMux {
        &self.mux
    }

    /// Installs an observer fired when this stream's sender parks on an
    /// exhausted window/budget (`true`) and when the backlog fully
    /// drains (`false`); failover streams feed it into their flight
    /// recorder. Replaces any previous hook.
    pub fn set_stall_hook(&self, hook: impl FnMut(&mut SimWorld, bool) + 'static) {
        self.state.borrow_mut().stall_hook = Some(Rc::new(RefCell::new(hook)));
    }

    /// Credit accounting snapshot of this stream.
    pub fn credit_stats(&self) -> TrunkCreditStats {
        let st = self.state.borrow();
        TrunkCreditStats {
            credits_received: st.credits_received,
            credits_granted: st.credits_granted,
            bytes_consumed: st.bytes_consumed,
            unreturned_bytes: st.consumed_unreturned,
            stalled_ns: st.stalled_ns,
            parked_bytes: st.pending_tx.len(),
            send_window: st.send_window,
            recv_high_water: st.recv_buf.high_water(),
        }
    }

    fn schedule_notify(&self, world: &mut SimWorld) {
        let should = {
            let mut st = self.state.borrow_mut();
            let has_event = !st.recv_buf.is_empty()
                || st.peer_closed
                || self.mux.carrier_finished()
                || self.mux.is_dead();
            if st.readable_cb.is_some() && !st.notify_pending && has_event {
                st.notify_pending = true;
                true
            } else {
                false
            }
        };
        if should {
            let stream = self.clone();
            world.schedule_after(SimDuration::ZERO, move |world| {
                let cb = {
                    let mut st = stream.state.borrow_mut();
                    st.notify_pending = false;
                    st.readable_cb.take()
                };
                if let Some(mut cb) = cb {
                    cb(world);
                    let mut st = stream.state.borrow_mut();
                    if st.readable_cb.is_none() {
                        st.readable_cb = Some(cb);
                    }
                }
            });
        }
    }

    fn queue_send(&self, world: &mut SimWorld, data: Bytes) -> usize {
        // Half-close works like TCP: only our own close stops sending.
        // With the peer's read side gone the far end still drains data
        // that was in flight, matching the per-stream legs this replaces.
        let len = data.len();
        let mut stalled_hook: Option<StallHook> = None;
        let (id, chunks) = {
            let mut st = self.state.borrow_mut();
            if st.self_closed {
                return 0;
            }
            st.bytes_sent += len as u64;
            if !st.pending_tx.is_empty() {
                // Already parked: preserve FIFO order behind the backlog.
                // Nothing hits the wire, so keep the liveness watch armed
                // by hand — the deepened expectation must stay watched.
                st.pending_tx.push_bytes(data);
                self.mux.note_expectation(world);
                return len;
            }
            let mut head = data;
            // The window and the shared trunk budget both gate what goes
            // on the carrier; the stricter one wins and the excess parks.
            let allowance = {
                let inner = self.mux.inner.borrow();
                inner
                    .budget
                    .map_or(st.send_window, |b| st.send_window.min(b.left))
            };
            if head.len() > allowance {
                let tail = head.split_off(allowance);
                st.pending_tx.push_bytes(tail);
                self.mux.register_parked(st.id);
                if st.stall_started.is_none() {
                    st.stall_started = Some(world.now());
                    stalled_hook = st.stall_hook.clone();
                }
            }
            st.send_window -= head.len();
            if let Some(b) = self.mux.inner.borrow_mut().budget.as_mut() {
                b.left -= head.len();
            }
            (st.id, split_frames(head))
        };
        if let Some(hook) = stalled_hook {
            (hook.borrow_mut())(world, true);
        }
        if chunks.is_empty() && len > 0 {
            // The whole send parked (window or shared budget already at
            // zero): no frame will arm the watch, so arm it here.
            self.mux.note_expectation(world);
        }
        for chunk in chunks {
            self.mux.send_frame(world, id, KIND_DATA, chunk);
        }
        len
    }

    fn flush_pending(&self, world: &mut SimWorld) {
        loop {
            let next = {
                let mut st = self.state.borrow_mut();
                let budget_left = {
                    let inner = self.mux.inner.borrow();
                    inner.budget.map_or(usize::MAX, |b| b.left)
                };
                if st.pending_tx.is_empty() || st.send_window == 0 || budget_left == 0 {
                    None
                } else {
                    let n = st.send_window.min(budget_left).min(MAX_FRAME_PAYLOAD);
                    let chunk = st.pending_tx.pop_chunk(n);
                    st.send_window -= chunk.len();
                    if let Some(b) = self.mux.inner.borrow_mut().budget.as_mut() {
                        b.left -= chunk.len();
                    }
                    Some((st.id, chunk))
                }
            };
            match next {
                Some((id, chunk)) => self.mux.send_frame(world, id, KIND_DATA, chunk),
                None => break,
            }
        }
        let mut resumed_hook: Option<StallHook> = None;
        let deferred_close = {
            let mut st = self.state.borrow_mut();
            if st.pending_tx.is_empty() {
                if let Some(t0) = st.stall_started.take() {
                    st.stalled_ns += world.now().since(t0).as_nanos();
                    resumed_hook = st.stall_hook.clone();
                }
                if st.close_after_flush {
                    st.close_after_flush = false;
                    st.close_sent = true;
                    Some(st.id)
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some(hook) = resumed_hook {
            (hook.borrow_mut())(world, false);
        }
        if let Some(id) = deferred_close {
            self.mux.send_frame(world, id, KIND_CLOSE, Bytes::new());
            self.maybe_reap();
        }
    }

    /// The local consumer read `n` bytes: grant credits back to the peer
    /// once the batch threshold is reached. Runs regardless of our own
    /// write-side close, so credits stay conserved across half-close.
    fn note_consumed(&self, world: &mut SimWorld, n: usize) {
        if n == 0 {
            return;
        }
        {
            let mut inner = self.mux.inner.borrow_mut();
            inner.recv_occupancy = inner.recv_occupancy.saturating_sub(n);
        }
        let grant = {
            let mut st = self.state.borrow_mut();
            st.bytes_consumed += n as u64;
            st.consumed_unreturned += n;
            // A stream whose peer closed and whose buffer just drained
            // returns its final sub-threshold batch immediately: with a
            // shared trunk budget those bytes must come back even though
            // no further consume will ever reach the threshold. With a
            // shared budget, *every* drain-to-empty flushes the batch:
            // otherwise N open-but-idle streams could each pin up to
            // (threshold - 1) consumed bytes and starve the whole trunk
            // of budget even though all data was delivered. (This trades
            // some CREDIT-frame batching for liveness: a keeping-up
            // consumer grants roughly once per carrier delivery burst
            // instead of once per threshold batch — any fixed batching
            // floor would re-open the starvation for enough streams.)
            let stream_done = st.peer_closed && st.recv_buf.is_empty();
            let budget_drain = st.flow.trunk_budget != 0 && st.recv_buf.is_empty();
            if st.consumed_unreturned >= st.flow.credit_grant_threshold
                || stream_done
                || budget_drain
            {
                st.take_grant()
            } else {
                None
            }
        };
        if let Some((id, granted)) = grant {
            self.mux.send_credit(world, id, granted);
        }
    }

    /// Flushes any unreturned credit batch of a stream whose peer closed
    /// and whose receive buffer is already empty (the consumer drained it
    /// before the `CLOSE` arrived).
    fn flush_final_credits(&self, world: &mut SimWorld) {
        let grant = {
            let mut st = self.state.borrow_mut();
            if st.peer_closed && st.recv_buf.is_empty() {
                st.take_grant()
            } else {
                None
            }
        };
        if let Some((id, granted)) = grant {
            self.mux.send_credit(world, id, granted);
        }
    }

    /// Drops the demux entry once both directions are closed on the wire.
    fn maybe_reap(&self) {
        let (id, dead) = {
            let st = self.state.borrow();
            (st.id, st.peer_closed && st.close_sent)
        };
        if dead {
            self.mux.inner.borrow_mut().streams.remove(&id);
        }
    }
}

/// Splits a chunk into `MAX_FRAME_PAYLOAD`-sized frames so concurrent
/// streams interleave on the carrier.
fn split_frames(mut data: Bytes) -> Vec<Bytes> {
    let mut out = Vec::with_capacity(data.len() / MAX_FRAME_PAYLOAD + 1);
    while data.len() > MAX_FRAME_PAYLOAD {
        out.push(data.split_to(MAX_FRAME_PAYLOAD));
    }
    if !data.is_empty() {
        out.push(data);
    }
    out
}

thread_local! {
    /// One frame's worth of zeros, shared by every warm-up frame this
    /// thread sends: the padding is never read, so slicing one refcounted
    /// chunk keeps a grid's eager trunk warm-ups from each holding their
    /// own zeroed buffers in the carriers' send queues.
    static WARMUP_PAD: Bytes = Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD]);
}

/// `len` bytes of warm-up padding (`len <= MAX_FRAME_PAYLOAD`).
fn warmup_pad(len: usize) -> Bytes {
    WARMUP_PAD.with(|pad| pad.slice(..len))
}

fn credit_payload(amount: usize) -> Bytes {
    Bytes::copy_from_slice(&(amount as u32).to_be_bytes())
}

impl ByteStream for TrunkStream {
    fn send(&self, world: &mut SimWorld, data: &[u8]) -> usize {
        self.queue_send(world, Bytes::copy_from_slice(data))
    }

    fn send_bytes(&self, world: &mut SimWorld, data: Bytes) -> usize {
        self.queue_send(world, data)
    }

    fn available(&self) -> usize {
        self.state.borrow().recv_buf.len()
    }

    fn recv(&self, world: &mut SimWorld, max: usize) -> Vec<u8> {
        if max == 0 || self.available() == 0 {
            return Vec::new();
        }
        let out = self.state.borrow_mut().recv_buf.read_into(max);
        self.note_consumed(world, out.len());
        out
    }

    fn recv_bytes(&self, world: &mut SimWorld, max: usize) -> Bytes {
        let out = self.state.borrow_mut().recv_buf.pop_chunk(max);
        self.note_consumed(world, out.len());
        out
    }

    fn is_established(&self) -> bool {
        self.mux.inner.borrow().carrier.is_established()
    }

    fn is_finished(&self) -> bool {
        let st = self.state.borrow();
        // A dead carrier (closed, or declared dead by liveness) ends every
        // stream riding it: no further frame can arrive, so an empty
        // receive buffer means end of stream.
        (st.peer_closed || self.mux.carrier_finished() || self.mux.is_dead())
            && st.recv_buf.is_empty()
    }

    fn close(&self, world: &mut SimWorld) {
        let action = {
            let mut st = self.state.borrow_mut();
            if st.self_closed {
                return;
            }
            st.self_closed = true;
            if st.pending_tx.is_empty() {
                st.close_sent = true;
                Some(st.id)
            } else {
                // Parked bytes still wait for credits: defer the CLOSE so
                // the peer receives everything we accepted before EOF.
                st.close_after_flush = true;
                None
            }
        };
        if let Some(id) = action {
            self.mux.send_frame(world, id, KIND_CLOSE, Bytes::new());
            self.maybe_reap();
        } else {
            // The CLOSE is deferred behind parked bytes: another
            // expectation that begins with no frame on the wire.
            self.mux.note_expectation(world);
        }
    }

    fn set_readable_callback(&self, cb: ReadableCallback) {
        self.state.borrow_mut().readable_cb = Some(cb);
    }

    fn bytes_acked(&self) -> u64 {
        // The trunk carrier is reliable while alive: everything queued is
        // delivered (minus what a severed carrier lost, accounted at the
        // mux level).
        self.state.borrow().bytes_sent
    }

    fn bytes_unacked(&self) -> u64 {
        // Trunk-wide backlog plus this stream's parked bytes: the honest
        // backpressure signal for a stream sharing the bundle.
        let parked = self.state.borrow().pending_tx.len() as u64;
        self.mux.inner.borrow().carrier.bytes_unacked() + parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use transport::{loopback_pair, ByteStreamExt};

    /// (connector, acceptor, accepted streams). The acceptor must stay
    /// alive for the carrier callback's weak reference to resolve.
    fn mux_pair_flow(
        world: &SimWorld,
        flow: TrunkFlowConfig,
    ) -> (TrunkMux, TrunkMux, Rc<RefCell<Vec<TrunkStream>>>) {
        let n = world.node_ids()[0];
        let (a, b) = loopback_pair(world, n);
        let connector = TrunkMux::connector(Rc::new(a), flow);
        let accepted: Rc<RefCell<Vec<TrunkStream>>> = Rc::new(RefCell::new(Vec::new()));
        let acc = accepted.clone();
        let acceptor = TrunkMux::acceptor(Rc::new(b), flow, move |_world, stream| {
            acc.borrow_mut().push(stream);
        });
        (connector, acceptor, accepted)
    }

    fn mux_pair(world: &SimWorld) -> (TrunkMux, TrunkMux, Rc<RefCell<Vec<TrunkStream>>>) {
        mux_pair_flow(world, TrunkFlowConfig::default())
    }

    #[test]
    fn streams_multiplex_over_one_carrier() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair(&world);
        let s1 = mux.open();
        let s2 = mux.open();
        s1.send_all(&mut world, b"first stream");
        s2.send_all(&mut world, b"second");
        world.run();
        assert_eq!(accepted.borrow().len(), 2);
        let a1 = accepted.borrow()[0].clone();
        let a2 = accepted.borrow()[1].clone();
        assert_eq!(a1.recv_all(&mut world), b"first stream");
        assert_eq!(a2.recv_all(&mut world), b"second");
        // And back over the same trunk.
        a1.send_all(&mut world, b"reply");
        world.run();
        assert_eq!(s1.recv_all(&mut world), b"reply");
        assert_eq!(s2.available(), 0);
    }

    #[test]
    fn close_propagates_per_stream() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair(&world);
        let s1 = mux.open();
        let s2 = mux.open();
        s1.send_all(&mut world, b"bye");
        s1.close(&mut world);
        s2.send_all(&mut world, b"still open");
        world.run();
        let a1 = accepted.borrow()[0].clone();
        let a2 = accepted.borrow()[1].clone();
        assert_eq!(a1.recv_all(&mut world), b"bye");
        assert!(a1.is_finished());
        assert!(!a2.is_finished());
        assert_eq!(a2.recv_all(&mut world), b"still open");
        assert_eq!(s1.send(&mut world, b"x"), 0, "closed stream refuses data");
    }

    #[test]
    fn half_close_still_delivers_the_response() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair(&world);
        let s = mux.open();
        s.send_all(&mut world, b"request");
        s.close(&mut world);
        world.run();
        let a = accepted.borrow()[0].clone();
        assert_eq!(a.recv_all(&mut world), b"request");
        assert!(a.is_finished());
        // Like TCP half-close: the responder's write side is still open.
        a.send_all(&mut world, b"response");
        a.close(&mut world);
        world.run();
        assert_eq!(s.recv_all(&mut world), b"response");
        assert!(s.is_finished());
    }

    #[test]
    fn large_writes_are_split_into_frames() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair(&world);
        let s = mux.open();
        let data: Vec<u8> = (0..200_000usize).map(|i| (i % 251) as u8).collect();
        s.send_all(&mut world, &data);
        world.run();
        let a = accepted.borrow()[0].clone();
        assert_eq!(a.recv_all(&mut world), data);
    }

    // ------------------------------------------------------------------ //
    // Credit-based flow control
    // ------------------------------------------------------------------ //

    const SMALL_FLOW: TrunkFlowConfig = TrunkFlowConfig {
        initial_window: 4 * 1024,
        credit_grant_threshold: 1024,
        trunk_budget: 0,
    };

    #[test]
    fn window_parks_excess_and_credits_release_it() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let s = mux.open();
        let data: Vec<u8> = (0..20_000usize).map(|i| (i % 241) as u8).collect();
        assert_eq!(s.send(&mut world, &data), data.len(), "send accepts all");
        // Only one window's worth is on the wire; the rest is parked.
        let st = s.credit_stats();
        assert_eq!(st.parked_bytes, data.len() - SMALL_FLOW.initial_window);
        assert_eq!(st.send_window, 0);
        world.run();
        let a = accepted.borrow()[0].clone();
        // The receiver holds at most one window before the test drains it.
        assert!(a.available() <= SMALL_FLOW.initial_window);
        assert!(a.credit_stats().recv_high_water <= SMALL_FLOW.initial_window);
        // Draining grants credits, which un-park the remainder, in order.
        let mut got = Vec::new();
        while got.len() < data.len() {
            let before = got.len();
            got.extend(a.recv(&mut world, usize::MAX));
            world.run();
            assert!(got.len() > before, "transfer stalled at {before}");
        }
        assert_eq!(got, data, "no corruption across park/flush");
        let st = s.credit_stats();
        assert_eq!(st.parked_bytes, 0);
        assert!(st.stalled_ns > 0, "the stall must be accounted");
        assert!(st.credits_received > 0);
        let at = a.credit_stats();
        assert_eq!(at.bytes_consumed, data.len() as u64);
        assert_eq!(
            at.credits_granted + at.unreturned_bytes as u64,
            at.bytes_consumed,
            "granted credits + unreturned batch == consumed"
        );
    }

    #[test]
    fn close_is_deferred_until_parked_bytes_flush() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let s = mux.open();
        let data: Vec<u8> = (0..10_000usize).map(|i| (i % 239) as u8).collect();
        s.send_all(&mut world, &data);
        s.close(&mut world);
        world.run();
        let a = accepted.borrow()[0].clone();
        assert!(
            !a.is_finished(),
            "CLOSE must not overtake parked data (close is deferred)"
        );
        let mut got = Vec::new();
        loop {
            got.extend(a.recv(&mut world, usize::MAX));
            world.run();
            if a.is_finished() {
                got.extend(a.recv(&mut world, usize::MAX));
                break;
            }
        }
        assert_eq!(got, data, "everything accepted before close is delivered");
        assert!(a.is_finished());
    }

    #[test]
    fn credits_keep_flowing_across_half_close() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let s = mux.open();
        s.send_all(&mut world, &[1u8; 6 * 1024]);
        world.run();
        let a = accepted.borrow()[0].clone();
        // The acceptor closes its own write side, then keeps consuming.
        a.close(&mut world);
        let mut got = 0;
        while got < 6 * 1024 {
            got += a.recv(&mut world, usize::MAX).len();
            world.run();
        }
        let at = a.credit_stats();
        assert_eq!(
            at.credits_granted + at.unreturned_bytes as u64,
            at.bytes_consumed,
            "conservation holds across half-close: {at:?}"
        );
        // The sender's window recovered to (almost) full.
        let st = s.credit_stats();
        assert_eq!(st.parked_bytes, 0);
        assert_eq!(
            st.send_window + at.unreturned_bytes,
            SMALL_FLOW.initial_window,
            "window + in-flight batch == initial window"
        );
    }

    #[test]
    fn trunk_budget_bounds_aggregate_occupancy_across_streams() {
        // Per-stream windows of 4 KiB would admit 16 KiB for 4 streams;
        // the shared 6 KiB budget must cap the *sum* instead.
        let flow = TrunkFlowConfig {
            trunk_budget: 6 * 1024,
            ..SMALL_FLOW
        };
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, accepted) = mux_pair_flow(&world, flow);
        let streams: Vec<TrunkStream> = (0..4).map(|_| mux.open()).collect();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|s| (0..5_000usize).map(|i| (i + s * 31) as u8).collect())
            .collect();
        for (s, d) in streams.iter().zip(&data) {
            assert_eq!(s.send(&mut world, d), d.len(), "send accepts everything");
        }
        // Wire-resident bytes across all four streams never exceed the
        // budget, so the receiving side's aggregate occupancy is bounded.
        assert_eq!(mux.memory_stats().budget_available, 0);
        assert!(mux.memory_stats().parked_streams >= 3);
        world.run();
        assert!(
            acceptor.memory_stats().recv_high_water <= flow.trunk_budget,
            "aggregate receive occupancy must respect the trunk budget: {:?}",
            acceptor.memory_stats()
        );
        // Draining the receivers cycles credits; everything arrives
        // intact and in order, and the budget recovers fully.
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); 4];
        loop {
            let mut progressed = false;
            for (i, rx) in accepted.borrow().iter().enumerate() {
                let chunk = rx.recv(&mut world, 1500);
                if !chunk.is_empty() {
                    got[i].extend(chunk);
                    progressed = true;
                }
            }
            world.run();
            if !progressed && got.iter().map(Vec::len).sum::<usize>() == 4 * 5_000 {
                break;
            }
            assert!(
                acceptor.memory_stats().recv_occupancy <= flow.trunk_budget,
                "occupancy bound must hold throughout the drain"
            );
        }
        assert_eq!(got, data, "no loss, reorder or cross-stream corruption");
        let m = mux.memory_stats();
        assert_eq!(m.parked_streams, 0, "{m:?}");
        // All four streams' credits eventually restore the full budget.
        assert!(
            m.budget_available + 4 * SMALL_FLOW.credit_grant_threshold > flow.trunk_budget,
            "budget recovers up to the unreturned grant batches: {m:?}"
        );
        // Per-stream windows still hold individually.
        for rx in accepted.borrow().iter() {
            assert!(rx.credit_stats().recv_high_water <= SMALL_FLOW.initial_window);
        }
    }

    #[test]
    fn sub_threshold_consumption_cannot_pin_the_budget() {
        // Several open streams each consume less than the grant
        // threshold; batched credits alone would never return, pinning
        // the whole shared budget with every buffer empty. Drain-to-empty
        // grants must recover it so later traffic still flows.
        let flow = TrunkFlowConfig {
            initial_window: 4 * 1024,
            credit_grant_threshold: 2 * 1024,
            trunk_budget: 4 * 1024,
        };
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair_flow(&world, flow);
        let streams: Vec<TrunkStream> = (0..3).map(|_| mux.open()).collect();
        for (i, s) in streams.iter().enumerate() {
            // 2000 bytes: below the 2048 grant threshold.
            s.send_all(&mut world, &[i as u8; 2000]);
        }
        world.run();
        // Consume everything; streams stay open (no CLOSE to force the
        // final grant).
        let mut drained = 0;
        loop {
            let before = drained;
            for rx in accepted.borrow().iter() {
                drained += rx.recv(&mut world, usize::MAX).len();
            }
            world.run();
            if drained == before {
                break;
            }
        }
        assert_eq!(drained, 3 * 2000, "all three transfers complete");
        assert_eq!(
            mux.memory_stats().budget_available,
            flow.trunk_budget,
            "drained streams must return their sub-threshold batches"
        );
        // The trunk is still usable: a fourth burst flows through.
        streams[0].send_all(&mut world, &[9u8; 3000]);
        world.run();
        let a0 = accepted.borrow()[0].clone();
        assert_eq!(a0.recv(&mut world, usize::MAX), vec![9u8; 3000]);
    }

    #[test]
    fn trunk_budget_recovers_after_streams_close() {
        // Sub-threshold tails and stream teardown must return their
        // budget: otherwise successive short streams leak it to zero.
        let flow = TrunkFlowConfig {
            initial_window: 4 * 1024,
            credit_grant_threshold: 1024,
            trunk_budget: 4 * 1024,
        };
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, accepted) = mux_pair_flow(&world, flow);
        for round in 0..8 {
            let s = mux.open();
            // 1.5 KiB: above the grant threshold only once, leaving a
            // sub-threshold tail that only the final grant returns.
            s.send_all(&mut world, &[round as u8; 1536]);
            s.close(&mut world);
            world.run();
            let rx = accepted.borrow().last().cloned().unwrap();
            assert_eq!(rx.recv_all(&mut world), vec![round as u8; 1536]);
            world.run();
            assert_eq!(
                mux.memory_stats().budget_available,
                flow.trunk_budget,
                "round {round}: the full budget must return once the peer drains"
            );
        }
    }

    // ------------------------------------------------------------------ //
    // Liveness detection + warm-up budget accounting
    // ------------------------------------------------------------------ //

    #[test]
    fn muted_peer_is_declared_dead_by_liveness_timeout() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, _accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let health = TrunkHealthConfig::default();
        mux.enable_health(&mut world, health);
        let died_at: Rc<RefCell<Option<simnet::SimTime>>> = Rc::new(RefCell::new(None));
        let d = died_at.clone();
        mux.on_dead(move |world, locally| {
            assert!(!locally, "a silent peer death is not a local sever");
            *d.borrow_mut() = Some(world.now());
        });
        // The peer crashes silently: no FIN ever arrives.
        acceptor.mute();
        // Send more than one window so the sender is *expecting* credits.
        let s = mux.open();
        let t0 = world.now();
        s.send_all(&mut world, &[7u8; 3 * 4096]);
        assert!(!mux.is_dead());
        world.run();
        // The expectation went unanswered past dead_after: declared dead,
        // the hook ran, the stream observed its end, the world drained
        // (no immortal heartbeat timers).
        assert!(mux.is_dead(), "liveness must declare the silent peer dead");
        let died = died_at.borrow().expect("on_dead hook must run");
        assert!(
            died.since(t0) >= health.dead_after,
            "no earlier than the timeout"
        );
        assert!(
            died.since(t0)
                <= health.dead_after + health.heartbeat_interval + health.heartbeat_interval,
            "and not much later: died after {:?}",
            died.since(t0)
        );
        assert!(s.is_finished(), "streams on a dead trunk end");
        let st = s.credit_stats();
        assert_eq!(st.credits_received, 0, "the corpse never acknowledged");
        assert!(st.parked_bytes > 0, "unsent bytes stay parked, never faked");
    }

    #[test]
    fn healthy_idle_trunk_never_false_positives_and_world_drains() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        mux.enable_health(&mut world, TrunkHealthConfig::default());
        acceptor.enable_health(&mut world, TrunkHealthConfig::default());
        let s = mux.open();
        s.send_all(&mut world, b"window-sized exchange");
        world.run(); // must terminate: heartbeats stop when traffic does
        let a = accepted.borrow()[0].clone();
        assert_eq!(a.recv_all(&mut world), b"window-sized exchange");
        world.run();
        assert!(!mux.is_dead(), "a drained healthy trunk stays alive");
        assert!(!acceptor.is_dead());
        // And it still works long after the idle period.
        s.send_all(&mut world, b"again");
        world.run();
        assert_eq!(a.recv_all(&mut world), b"again");
    }

    #[test]
    fn resuming_a_long_idle_trunk_does_not_false_positive() {
        // Regression: a trunk reused after a shared idle period has a
        // stale `last_rx` (idle ends stop heartbeating by design). The
        // first health tick after a multi-window resume used to measure
        // silence from that stale timestamp and declare a live peer dead
        // 20 ms into the resumed transfer. Silence must be measured from
        // the start of the new expectation epoch instead.
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let health = TrunkHealthConfig::default();
        mux.enable_health(&mut world, health);
        acceptor.enable_health(&mut world, health);

        // Warm exchange, fully drained.
        let s = mux.open();
        s.send_all(&mut world, b"warm-up");
        world.run();
        let a = accepted.borrow()[0].clone();
        assert_eq!(a.recv_all(&mut world), b"warm-up");
        world.run();

        // Idle well past the expectation window: both ends go silent and
        // every liveness timer lapses (the world drains).
        let idle = health.dead_after + health.dead_after + health.dead_after;
        world.schedule_after(idle + idle, |_world| {});
        world.run();
        assert!(!mux.is_dead());

        // Resume with a multi-window burst: the sender now *expects*
        // credits while `last_rx` is several dead_after periods stale.
        let data: Vec<u8> = (0..3 * SMALL_FLOW.initial_window)
            .map(|i| (i % 233) as u8)
            .collect();
        s.send_all(&mut world, &data);
        world.run();
        assert!(
            !mux.is_dead(),
            "a live peer answering a resumed burst must not be declared dead"
        );
        // The transfer completes once the receiver drains (credits flow
        // over the very trunk that would have been severed).
        let mut got = Vec::new();
        while got.len() < data.len() {
            let before = got.len();
            got.extend(a.recv(&mut world, usize::MAX));
            world.run();
            assert!(got.len() > before, "resumed transfer stalled at {before}");
        }
        assert_eq!(got, data, "byte-exact across the idle resume");
        assert!(!mux.is_dead());
        assert!(!acceptor.is_dead());
    }

    #[test]
    fn silent_death_during_a_long_stall_is_probed_and_detected() {
        // Regression: a peer that died *silently* after a stream had
        // already been stalled past the expectation window used to go
        // undetected until the next wire activity (the expectation had
        // decayed, the timer lapsed). The stall probe closes this: one
        // on-wire challenge per stall epoch, opening a fresh expectation
        // that a corpse cannot answer.
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, _accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let health = TrunkHealthConfig::default();
        mux.enable_health(&mut world, health);
        acceptor.enable_health(&mut world, health);
        let died_at: Rc<RefCell<Option<simnet::SimTime>>> = Rc::new(RefCell::new(None));
        let d = died_at.clone();
        mux.on_dead(move |world, locally| {
            assert!(!locally, "a silent peer death is not a local sever");
            *d.borrow_mut() = Some(world.now());
        });
        // Multi-window burst: the sender parks, expecting credits a
        // never-consuming receiver will not grant.
        let s = mux.open();
        let t0 = world.now();
        s.send_all(&mut world, &[7u8; 3 * 4096]);
        // The peer crashes silently *mid-stall*, after its initial
        // heartbeats but before the sender's expectation decays — the
        // exact window the pre-probe detector could never see into.
        let acceptor_handle = acceptor.clone();
        world.schedule_after(
            health.dead_after - health.heartbeat_interval,
            move |_world| acceptor_handle.mute(),
        );
        world.run();
        assert!(mux.is_dead(), "the stall probe must catch the silent death");
        let died = died_at.borrow().expect("on_dead hook must run");
        let expect_window = health.dead_after + health.heartbeat_interval;
        assert!(
            died.since(t0) >= expect_window,
            "detection goes through the post-decay probe, died after {:?}",
            died.since(t0)
        );
        // Worst case: the peer's last heartbeat lands at the mute point
        // (dead_after - hb), the probe waits out the peer-silence
        // threshold (dead_after, + hb wait granularity), and the fresh
        // expectation epoch runs its course (dead_after, + 2 hb tick
        // granularity).
        assert!(
            died.since(t0)
                <= (health.dead_after - health.heartbeat_interval)
                    + health.dead_after
                    + health.dead_after
                    + health.heartbeat_interval
                    + health.heartbeat_interval
                    + health.heartbeat_interval,
            "one probe, one dead_after — not an unbounded wait: {:?}",
            died.since(t0)
        );
        assert!(s.is_finished(), "streams on the probed-dead trunk end");
    }

    #[test]
    fn live_but_slow_peer_survives_the_stall_probe_and_completes() {
        // The dual guarantee: the probe is one-shot per stall epoch, so a
        // receiver that legitimately sits on data for ages is challenged
        // once, answers with heartbeats, and the world still drains (no
        // probe/heartbeat ping-pong keeping the event queue alive).
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        mux.enable_health(&mut world, TrunkHealthConfig::default());
        acceptor.enable_health(&mut world, TrunkHealthConfig::default());
        let s = mux.open();
        let data: Vec<u8> = (0..3 * SMALL_FLOW.initial_window)
            .map(|i| (i % 251) as u8)
            .collect();
        s.send_all(&mut world, &data);
        world.run(); // must terminate: the stall probe never chains
        assert!(
            !mux.is_dead(),
            "a live-but-slow peer answers the probe and survives"
        );
        assert!(!acceptor.is_dead());
        // When the consumer finally drains, credits flow and the transfer
        // completes byte-exact over the very trunk a false positive would
        // have severed.
        let a = accepted.borrow()[0].clone();
        let mut got = Vec::new();
        while got.len() < data.len() {
            let before = got.len();
            got.extend(a.recv(&mut world, usize::MAX));
            world.run();
            assert!(got.len() > before, "post-stall transfer stuck at {before}");
        }
        assert_eq!(got, data, "byte-exact across the probed stall");
        assert!(!mux.is_dead());
        assert!(!acceptor.is_dead());
    }

    #[test]
    fn orderly_close_is_declared_dead_immediately() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, _accepted) = mux_pair_flow(&world, SMALL_FLOW);
        mux.enable_health(&mut world, TrunkHealthConfig::default());
        let dead_hook = Rc::new(Cell::new(false));
        let d = dead_hook.clone();
        mux.on_dead(move |_, _locally| d.set(true));
        mux.inner.borrow().carrier.close(&mut world);
        acceptor.inner.borrow().carrier.close(&mut world);
        world.run();
        assert!(mux.is_dead(), "orderly close needs no timeout");
        assert!(dead_hook.get());
    }

    #[test]
    fn warmup_charges_the_budget_and_the_far_end_returns_it() {
        let flow = TrunkFlowConfig {
            initial_window: 64 * 1024,
            credit_grant_threshold: 1024,
            trunk_budget: 32 * 1024,
        };
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, _acceptor, _accepted) = mux_pair_flow(&world, flow);
        mux.warm_up(&mut world, 200 * 1024);
        // The padding charged the budget the moment it left.
        assert_eq!(mux.memory_stats().budget_available, 0);
        world.run();
        // The far end discarded it and returned the charge as credits.
        assert_eq!(
            mux.memory_stats().budget_available,
            flow.trunk_budget,
            "warm-up accounting must square with trunk_memory_stats"
        );
    }

    #[test]
    fn establishment_failure_refunds_the_warmup_charge() {
        // A carrier killed *during* warm-up used to strand the budget
        // bytes charged for the padding: the first stream then started
        // against a half-empty budget on a fresh trunk's books.
        let flow = TrunkFlowConfig {
            initial_window: 64 * 1024,
            credit_grant_threshold: 1024,
            trunk_budget: 32 * 1024,
        };
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, _accepted) = mux_pair_flow(&world, flow);
        // The far end dies silently before the warm-up is answered.
        acceptor.mute();
        mux.warm_up(&mut world, 200 * 1024);
        assert_eq!(mux.memory_stats().budget_available, 0);
        mux.enable_health(&mut world, TrunkHealthConfig::default());
        world.run();
        assert!(mux.is_dead(), "unanswered warm-up must trip liveness");
        assert_eq!(
            mux.memory_stats().budget_available,
            flow.trunk_budget,
            "establishment failure returns the full charge before any \
             stream attaches"
        );
    }

    #[test]
    fn killed_carrier_ends_streams_and_accounts_lost_bytes() {
        let mut world = SimWorld::new(0);
        world.add_node("n");
        let (mux, acceptor, accepted) = mux_pair_flow(&world, SMALL_FLOW);
        let s = mux.open();
        s.send_all(&mut world, b"delivered before the kill");
        world.run();
        let a = accepted.borrow()[0].clone();
        assert_eq!(a.recv_all(&mut world), b"delivered before the kill");
        // Sever the carrier from both ends (a crashed gateway), then keep
        // writing into the void.
        mux.inner.borrow().carrier.close(&mut world);
        acceptor.inner.borrow().carrier.close(&mut world);
        world.run();
        let sent = s.send(&mut world, &[7u8; 1000]);
        assert_eq!(sent, 1000, "the stream still accepts (and accounts) it");
        world.run();
        assert!(mux.lost_bytes() > 0, "bytes to a dead carrier are lost");
        assert!(a.is_finished(), "a dead carrier finishes its streams");
        assert!(s.is_finished());
        assert_eq!(a.recv_all(&mut world), b"", "no corrupt trailing data");
    }
}
