//! Simulated TCP: a reliable, ordered byte stream with slow start, AIMD
//! congestion avoidance, fast retransmit and retransmission timeouts.
//!
//! The paper's distributed-oriented results all sit on TCP behaviour:
//! * on the VTHD WAN, rare background loss keeps a single TCP stream well
//!   below the access-link bandwidth (which is why Parallel Streams help);
//! * on the lossy trans-continental link, TCP collapses to a fraction of
//!   the link rate (which is why VRP wins by ~3×);
//! * on a LAN, TCP's protocol efficiency gives the ≈11 MB/s reference curve
//!   of Figure 3.
//!
//! The implementation is a classic Reno-style state machine, simplified
//! where simplification does not change those behaviours (no SACK, no
//! delayed ACKs, no Nagle, sequence numbers count data bytes only).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bytes::Bytes;
use simnet::{EventId, Frame, NetworkId, NodeId, ProtoId, SimDuration, SimTime, SimWorld};

use crate::segbuf::SegBuf;
use crate::stream::{ByteStream, ReadableCallback};
use crate::wire::{SegFlags, Segment, EXTRA_HEADER_BYTES};

/// Tuning parameters of a TCP stack.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Receive window in bytes advertised to the peer (the era's window
    /// scaling allows more than 64 kB).
    pub recv_window: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Initial RTO used before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Maximum bytes buffered on the send side (unsent + unacknowledged).
    pub send_buffer: usize,
    /// Override of the MSS; by default it is derived from the network MTU.
    pub mss_override: Option<usize>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_window: 256 * 1024,
            initial_cwnd_segments: 2,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            send_buffer: usize::MAX,
            mss_override: None,
        }
    }
}

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    SynSent,
    SynReceived,
    Established,
    /// We sent our FIN (data may still be in flight).
    FinSent,
    /// Fully closed.
    Closed,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpConnStats {
    /// Data bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Data bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Segments retransmitted (fast retransmit or timeout).
    pub retransmitted_segments: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_retransmits: u64,
}

struct ConnInner {
    // Identity.
    local_node: NodeId,
    local_port: u16,
    remote_node: NodeId,
    remote_port: u16,
    network: NetworkId,
    config: TcpConfig,
    mss: usize,
    state: TcpState,

    // Sender. Queued and unacknowledged payload are segment queues: data
    // enters as refcounted chunks and is sliced, never copied per byte.
    send_buf: SegBuf,
    retx_buf: SegBuf,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    peer_window: u32,
    fin_queued: bool,
    fin_seq: Option<u64>,

    // RTT estimation (Jacobson/Karels, Karn's rule).
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rtt_sample: Option<(u64, SimTime)>,
    rto_timer: Option<EventId>,

    // Receiver.
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
    recv_buf: SegBuf,
    peer_fin: Option<u64>,
    advertised_zero_window: bool,

    // Application interface.
    readable_cb: Option<ReadableCallback>,
    notify_pending: bool,
    #[allow(clippy::type_complexity)]
    established_cb: Option<Box<dyn FnMut(&mut SimWorld)>>,

    stats: TcpConnStats,
}

impl ConnInner {
    fn effective_window(&self) -> u64 {
        (self.cwnd as u64)
            .min(self.peer_window as u64)
            .max(self.mss as u64)
    }

    fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn recv_window(&self) -> u32 {
        let used = self.recv_buf.len() + self.ooo.values().map(|b| b.len()).sum::<usize>();
        self.config.recv_window.saturating_sub(used as u32)
    }
}

/// Handle to a TCP connection. Cloning the handle refers to the same
/// connection.
#[derive(Clone)]
pub struct TcpConn {
    inner: Rc<RefCell<ConnInner>>,
}

/// The per-node TCP implementation: owns every connection and listener on
/// its node and demultiplexes incoming segments to them.
#[derive(Clone)]
pub struct TcpStack {
    inner: Rc<RefCell<StackInner>>,
}

type ConnKey = (u16, NodeId, u16);
type AcceptCallback = Box<dyn FnMut(&mut SimWorld, TcpConn)>;

struct StackInner {
    node: NodeId,
    config: TcpConfig,
    listeners: HashMap<u16, AcceptCallback>,
    conns: HashMap<ConnKey, TcpConn>,
    next_ephemeral: u16,
}

impl TcpStack {
    /// Creates the TCP stack for `node` with default configuration and
    /// registers its frame handler.
    pub fn new(world: &mut SimWorld, node: NodeId) -> TcpStack {
        Self::with_config(world, node, TcpConfig::default())
    }

    /// Creates the TCP stack for `node` with an explicit configuration.
    pub fn with_config(world: &mut SimWorld, node: NodeId, config: TcpConfig) -> TcpStack {
        let stack = TcpStack {
            inner: Rc::new(RefCell::new(StackInner {
                node,
                config,
                listeners: HashMap::new(),
                conns: HashMap::new(),
                next_ephemeral: 32_768,
            })),
        };
        let h = stack.clone();
        world.register_handler(node, ProtoId::TCP, move |world, net, frame| {
            h.on_frame(world, net, frame);
        });
        stack
    }

    /// Node this stack belongs to.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Starts listening on `port`; `on_accept` is invoked with each newly
    /// established incoming connection. Returns `false` if the port is
    /// already listening.
    pub fn listen(
        &self,
        port: u16,
        on_accept: impl FnMut(&mut SimWorld, TcpConn) + 'static,
    ) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.listeners.contains_key(&port) {
            return false;
        }
        inner.listeners.insert(port, Box::new(on_accept));
        true
    }

    /// Stops listening on `port`.
    pub fn unlisten(&self, port: u16) {
        self.inner.borrow_mut().listeners.remove(&port);
    }

    /// Opens a connection to `remote_node:remote_port` over `network`. Data
    /// may be queued immediately; it is flushed once the handshake
    /// completes.
    pub fn connect(
        &self,
        world: &mut SimWorld,
        network: NetworkId,
        remote_node: NodeId,
        remote_port: u16,
    ) -> TcpConn {
        let (node, config, local_port) = {
            let mut inner = self.inner.borrow_mut();
            let port = loop {
                let p = inner.next_ephemeral;
                inner.next_ephemeral = inner.next_ephemeral.wrapping_add(1).max(32_768);
                if !inner.conns.contains_key(&(p, remote_node, remote_port)) {
                    break p;
                }
            };
            (inner.node, inner.config.clone(), port)
        };
        let mss = Self::mss_for(world, network, &config);
        let conn = TcpConn::new(
            node,
            local_port,
            remote_node,
            remote_port,
            network,
            config,
            mss,
            TcpState::SynSent,
        );
        self.inner
            .borrow_mut()
            .conns
            .insert((local_port, remote_node, remote_port), conn.clone());
        conn.send_syn(world, false);
        conn.arm_rto(world);
        conn
    }

    fn mss_for(world: &SimWorld, network: NetworkId, config: &TcpConfig) -> usize {
        config.mss_override.unwrap_or_else(|| {
            world
                .network(network)
                .spec
                .mtu
                .saturating_sub(crate::wire::SEGMENT_HEADER_BYTES + EXTRA_HEADER_BYTES as usize)
                .max(64)
        })
    }

    fn on_frame(&self, world: &mut SimWorld, network: NetworkId, frame: Frame) {
        let Some(seg) = Segment::decode(frame.payload.clone()) else {
            return;
        };
        let key = (seg.dst_port, frame.src, seg.src_port);
        let existing = self.inner.borrow().conns.get(&key).cloned();
        if let Some(conn) = existing {
            conn.on_segment(world, seg);
            if conn.inner.borrow().state == TcpState::Closed {
                // Reap fully closed connections lazily.
                self.inner.borrow_mut().conns.remove(&key);
            }
            return;
        }
        // No connection: maybe a listener can accept a SYN.
        if seg.flags.syn && !seg.flags.ack {
            let has_listener = self.inner.borrow().listeners.contains_key(&seg.dst_port);
            if has_listener {
                let (node, config) = {
                    let inner = self.inner.borrow();
                    (inner.node, inner.config.clone())
                };
                let mss = Self::mss_for(world, network, &config);
                let conn = TcpConn::new(
                    node,
                    seg.dst_port,
                    frame.src,
                    seg.src_port,
                    network,
                    config,
                    mss,
                    TcpState::SynReceived,
                );
                self.inner.borrow_mut().conns.insert(key, conn.clone());
                conn.send_syn(world, true);
                conn.arm_rto(world);
                // The accept callback fires once the handshake completes;
                // remember the connection so we can hand it out then.
                let stack = self.clone();
                let conn_for_cb = conn.clone();
                let port = seg.dst_port;
                conn.set_established_callback(move |world| {
                    let cb = stack.inner.borrow_mut().listeners.remove(&port);
                    if let Some(mut cb) = cb {
                        cb(world, conn_for_cb.clone());
                        let mut inner = stack.inner.borrow_mut();
                        inner.listeners.entry(port).or_insert(cb);
                    }
                    // Data may already have been buffered before the accept
                    // callback installed its readable callback (the first
                    // data segment can race the handshake completion);
                    // re-announce it so it is not lost.
                    conn_for_cb.announce_readable(world);
                });
            }
        }
        // Anything else (stray segment for an unknown connection) is dropped.
    }
}

impl TcpConn {
    #[allow(clippy::too_many_arguments)]
    fn new(
        local_node: NodeId,
        local_port: u16,
        remote_node: NodeId,
        remote_port: u16,
        network: NetworkId,
        config: TcpConfig,
        mss: usize,
        state: TcpState,
    ) -> TcpConn {
        let cwnd = (config.initial_cwnd_segments as usize * mss) as f64;
        let initial_rto = config.initial_rto;
        TcpConn {
            inner: Rc::new(RefCell::new(ConnInner {
                local_node,
                local_port,
                remote_node,
                remote_port,
                network,
                config,
                mss,
                state,
                send_buf: SegBuf::new(),
                retx_buf: SegBuf::new(),
                snd_una: 0,
                snd_nxt: 0,
                cwnd,
                ssthresh: f64::MAX,
                dup_acks: 0,
                peer_window: u32::MAX,
                fin_queued: false,
                fin_seq: None,
                srtt: None,
                rttvar: 0.0,
                rto: initial_rto,
                rtt_sample: None,
                rto_timer: None,
                rcv_nxt: 0,
                ooo: BTreeMap::new(),
                recv_buf: SegBuf::new(),
                peer_fin: None,
                advertised_zero_window: false,
                readable_cb: None,
                notify_pending: false,
                established_cb: None,
                stats: TcpConnStats::default(),
            })),
        }
    }

    /// Local (node, port).
    pub fn local_addr(&self) -> (NodeId, u16) {
        let c = self.inner.borrow();
        (c.local_node, c.local_port)
    }

    /// Remote (node, port).
    pub fn remote_addr(&self) -> (NodeId, u16) {
        let c = self.inner.borrow();
        (c.remote_node, c.remote_port)
    }

    /// Network this connection runs over.
    pub fn network(&self) -> NetworkId {
        self.inner.borrow().network
    }

    /// Maximum segment size used by this connection.
    pub fn mss(&self) -> usize {
        self.inner.borrow().mss
    }

    /// Connection statistics.
    pub fn stats(&self) -> TcpConnStats {
        self.inner.borrow().stats
    }

    /// Current congestion window, in bytes (exposed for tests and the
    /// parallel-streams experiment analysis).
    pub fn cwnd(&self) -> u64 {
        self.inner.borrow().cwnd as u64
    }

    /// Registers a callback fired once the handshake completes.
    pub fn set_established_callback(&self, cb: impl FnMut(&mut SimWorld) + 'static) {
        self.inner.borrow_mut().established_cb = Some(Box::new(cb));
    }

    // ------------------------------------------------------------------ //
    // Segment transmission helpers
    // ------------------------------------------------------------------ //

    fn send_segment(&self, world: &mut SimWorld, seg: Segment) {
        let (src, dst, network) = {
            let c = self.inner.borrow();
            (c.local_node, c.remote_node, c.network)
        };
        let frame =
            Frame::new(src, dst, ProtoId::TCP, seg.encode()).with_header_bytes(EXTRA_HEADER_BYTES);
        // A full send queue at the network layer is not modelled (the
        // network applies backpressure through time, not through errors),
        // so the only possible errors here are topology mistakes, which are
        // programming errors.
        world
            .send_frame(network, frame)
            .expect("TCP connection over a misconfigured network");
    }

    fn send_syn(&self, world: &mut SimWorld, syn_ack: bool) {
        let seg = {
            let c = self.inner.borrow();
            Segment {
                src_port: c.local_port,
                dst_port: c.remote_port,
                seq: 0,
                ack: 0,
                flags: SegFlags {
                    syn: true,
                    ack: syn_ack,
                    ..Default::default()
                },
                window: c.recv_window(),
                data: Bytes::new(),
            }
        };
        self.send_segment(world, seg);
    }

    fn send_ack(&self, world: &mut SimWorld) {
        let seg = {
            let c = self.inner.borrow();
            Segment::ack_only(
                c.local_port,
                c.remote_port,
                c.snd_nxt,
                c.rcv_nxt,
                c.recv_window(),
            )
        };
        self.send_segment(world, seg);
    }

    /// Sends as much queued data as the congestion and flow-control windows
    /// allow.
    fn pump(&self, world: &mut SimWorld) {
        loop {
            let seg = {
                let mut c = self.inner.borrow_mut();
                if !matches!(c.state, TcpState::Established | TcpState::FinSent) {
                    return;
                }
                let window = c.effective_window();
                let in_flight = c.in_flight();
                if in_flight >= window {
                    return;
                }
                let budget = (window - in_flight) as usize;
                let fin_pending = c.fin_queued && c.send_buf.is_empty() && c.fin_seq.is_none();
                if c.send_buf.is_empty() && !fin_pending {
                    return;
                }
                let chunk = budget.min(c.mss).min(c.send_buf.len());
                // Zero-copy segmentation: the MSS-sized slice shares the
                // storage of the buffer the application queued.
                let data = c.send_buf.read_bytes(chunk);
                c.retx_buf.push_bytes(data.clone());
                let seq = c.snd_nxt;
                let mut flags = SegFlags {
                    ack: true,
                    ..Default::default()
                };
                c.snd_nxt += chunk as u64;
                // Piggy-back the FIN on the last data segment (or send it
                // alone) once the send buffer is drained.
                if c.fin_queued && c.send_buf.is_empty() && c.fin_seq.is_none() {
                    flags.fin = true;
                    c.fin_seq = Some(c.snd_nxt);
                    c.snd_nxt += 1;
                    if c.state == TcpState::Established {
                        c.state = TcpState::FinSent;
                    }
                }
                if c.rtt_sample.is_none() && chunk > 0 {
                    c.rtt_sample = Some((seq + chunk as u64, world.now()));
                }
                Segment {
                    src_port: c.local_port,
                    dst_port: c.remote_port,
                    seq,
                    ack: c.rcv_nxt,
                    flags,
                    window: c.recv_window(),
                    data,
                }
            };
            self.send_segment(world, seg);
            self.arm_rto(world);
        }
    }

    /// Retransmits one segment starting at `snd_una`.
    fn retransmit_head(&self, world: &mut SimWorld) {
        let seg = {
            let mut c = self.inner.borrow_mut();
            if c.snd_una >= c.snd_nxt {
                return;
            }
            let data_len = c.retx_buf.len().min(c.mss);
            let data = c.retx_buf.peek_bytes(data_len);
            let seq = c.snd_una;
            let mut flags = SegFlags {
                ack: true,
                ..Default::default()
            };
            // If the retransmitted range reaches the FIN, resend the flag.
            if let Some(fin_seq) = c.fin_seq {
                if seq + data_len as u64 >= fin_seq {
                    flags.fin = true;
                }
            }
            // Karn's rule: never time a retransmitted segment.
            c.rtt_sample = None;
            c.stats.retransmitted_segments += 1;
            Segment {
                src_port: c.local_port,
                dst_port: c.remote_port,
                seq,
                ack: c.rcv_nxt,
                flags,
                window: c.recv_window(),
                data,
            }
        };
        self.send_segment(world, seg);
    }

    // ------------------------------------------------------------------ //
    // Timers
    // ------------------------------------------------------------------ //

    fn arm_rto(&self, world: &mut SimWorld) {
        let (needs_timer, rto) = {
            let c = self.inner.borrow();
            let outstanding = c.snd_nxt > c.snd_una
                || matches!(c.state, TcpState::SynSent | TcpState::SynReceived);
            (outstanding && c.rto_timer.is_none(), c.rto)
        };
        if !needs_timer {
            return;
        }
        let conn = self.clone();
        let id = world.schedule_after(rto, move |world| {
            conn.on_rto(world);
        });
        self.inner.borrow_mut().rto_timer = Some(id);
    }

    fn cancel_rto(&self, world: &mut SimWorld) {
        if let Some(id) = self.inner.borrow_mut().rto_timer.take() {
            world.cancel(id);
        }
    }

    fn restart_rto(&self, world: &mut SimWorld) {
        self.cancel_rto(world);
        self.arm_rto(world);
    }

    fn on_rto(&self, world: &mut SimWorld) {
        let action = {
            let mut c = self.inner.borrow_mut();
            c.rto_timer = None;
            match c.state {
                TcpState::Closed => return,
                TcpState::SynSent | TcpState::SynReceived => {
                    c.rto = (c.rto * 2).min(c.config.max_rto);
                    c.stats.timeouts += 1;
                    Some(c.state)
                }
                _ => {
                    if c.snd_nxt == c.snd_una {
                        None
                    } else {
                        // Multiplicative decrease + slow start restart.
                        let flight = c.in_flight() as f64;
                        c.ssthresh = (flight / 2.0).max(2.0 * c.mss as f64);
                        c.cwnd = c.mss as f64;
                        c.dup_acks = 0;
                        c.rto = (c.rto * 2).min(c.config.max_rto);
                        c.stats.timeouts += 1;
                        Some(c.state)
                    }
                }
            }
        };
        match action {
            None => {}
            Some(TcpState::SynSent) => self.send_syn(world, false),
            Some(TcpState::SynReceived) => self.send_syn(world, true),
            Some(_) => self.retransmit_head(world),
        }
        self.arm_rto(world);
    }

    // ------------------------------------------------------------------ //
    // Segment reception
    // ------------------------------------------------------------------ //

    fn on_segment(&self, world: &mut SimWorld, seg: Segment) {
        let mut became_established = false;
        let mut should_ack = false;
        let mut should_pump = false;
        let mut notify_app = false;

        {
            let mut c = self.inner.borrow_mut();
            if c.state == TcpState::Closed {
                return;
            }

            // --- Handshake handling -------------------------------------
            match c.state {
                TcpState::SynSent if seg.flags.syn && seg.flags.ack => {
                    c.state = TcpState::Established;
                    c.peer_window = seg.window;
                    became_established = true;
                    should_ack = true;
                    should_pump = true;
                }
                TcpState::SynReceived => {
                    if seg.flags.ack && !seg.flags.syn {
                        c.state = TcpState::Established;
                        c.peer_window = seg.window;
                        became_established = true;
                        should_pump = true;
                    } else if seg.flags.syn && !seg.flags.ack {
                        // Duplicate SYN: our SYN-ACK was lost; resend below.
                        should_ack = false;
                    }
                }
                _ => {}
            }

            // --- ACK processing ------------------------------------------
            if seg.flags.ack && matches!(c.state, TcpState::Established | TcpState::FinSent) {
                c.peer_window = seg.window;
                if seg.ack > c.snd_una {
                    let mut acked = seg.ack - c.snd_una;
                    // A FIN occupies one unit of sequence space but no bytes.
                    if let Some(fin_seq) = c.fin_seq {
                        if seg.ack > fin_seq {
                            acked -= 1;
                        }
                    }
                    let drop = (acked as usize).min(c.retx_buf.len());
                    c.retx_buf.consume(drop);
                    c.stats.bytes_acked += acked;
                    c.snd_una = seg.ack;
                    c.dup_acks = 0;

                    // RTT sample (Jacobson/Karels).
                    if let Some((sample_seq, sent_at)) = c.rtt_sample {
                        if seg.ack >= sample_seq {
                            let rtt = world.now().since(sent_at).as_secs_f64();
                            match c.srtt {
                                None => {
                                    c.srtt = Some(rtt);
                                    c.rttvar = rtt / 2.0;
                                }
                                Some(srtt) => {
                                    let err = rtt - srtt;
                                    c.rttvar = 0.75 * c.rttvar + 0.25 * err.abs();
                                    c.srtt = Some(srtt + 0.125 * err);
                                }
                            }
                            let rto = SimDuration::from_secs_f64(
                                c.srtt.unwrap() + 4.0 * c.rttvar.max(0.000_1),
                            );
                            c.rto = rto.max(c.config.min_rto).min(c.config.max_rto);
                            c.rtt_sample = None;
                        }
                    }

                    // Congestion window growth.
                    if c.cwnd < c.ssthresh {
                        c.cwnd += (acked as f64).min(c.mss as f64);
                    } else {
                        c.cwnd += (c.mss as f64) * (c.mss as f64) / c.cwnd;
                    }
                    should_pump = true;

                    // Everything acknowledged (including a FIN we sent)?
                    if c.snd_una >= c.snd_nxt
                        && c.state == TcpState::FinSent
                        && c.fin_seq.is_some()
                        && c.peer_fin.is_some()
                    {
                        c.state = TcpState::Closed;
                    }
                } else if seg.ack == c.snd_una
                    && seg.data.is_empty()
                    && !seg.flags.syn
                    && !seg.flags.fin
                    && c.snd_nxt > c.snd_una
                {
                    c.dup_acks += 1;
                    if c.dup_acks == 3 {
                        let flight = c.in_flight() as f64;
                        c.ssthresh = (flight / 2.0).max(2.0 * c.mss as f64);
                        c.cwnd = c.ssthresh;
                        c.stats.fast_retransmits += 1;
                        // Retransmit outside the borrow below.
                    }
                }
            }

            // --- Data and FIN reception ----------------------------------
            let seg_has_payload = !seg.data.is_empty() || seg.flags.fin;
            if seg_has_payload && matches!(c.state, TcpState::Established | TcpState::FinSent) {
                let seq = seg.seq;
                let len = seg.data.len() as u64;
                if seg.flags.fin {
                    c.peer_fin = Some(seq + len);
                }
                if seq <= c.rcv_nxt {
                    if len > 0 && seq + len > c.rcv_nxt {
                        let skip = (c.rcv_nxt - seq) as usize;
                        // The arriving segment's storage is shared, not
                        // copied, all the way to the application read.
                        c.recv_buf.push_bytes(seg.data.slice(skip..));
                        c.rcv_nxt = seq + len;
                        c.stats.bytes_delivered += (len as usize - skip) as u64;
                        notify_app = true;
                    }
                    // Drain any out-of-order segments that are now in order.
                    #[allow(clippy::while_let_loop)]
                    loop {
                        let Some((&oseq, _)) = c.ooo.iter().next() else {
                            break;
                        };
                        if oseq > c.rcv_nxt {
                            break;
                        }
                        let (oseq, odata) = c.ooo.pop_first().expect("peeked");
                        let olen = odata.len() as u64;
                        if oseq + olen > c.rcv_nxt {
                            let skip = (c.rcv_nxt - oseq) as usize;
                            c.recv_buf.push_bytes(odata.slice(skip..));
                            c.stats.bytes_delivered += (olen as usize - skip) as u64;
                            c.rcv_nxt = oseq + olen;
                            notify_app = true;
                        }
                    }
                    // Account the peer's FIN once all data before it arrived.
                    if let Some(fin_at) = c.peer_fin {
                        if c.rcv_nxt == fin_at {
                            c.rcv_nxt = fin_at + 1;
                            notify_app = true;
                            if c.state == TcpState::FinSent && c.snd_una >= c.snd_nxt {
                                c.state = TcpState::Closed;
                            }
                        }
                    }
                } else if len > 0 {
                    c.ooo.entry(seq).or_insert(seg.data.clone());
                }
                should_ack = true;
            }

            c.advertised_zero_window = c.recv_window() < c.mss as u32;
        }

        // --- Actions that need the borrow released ----------------------
        let fast_retx = {
            let c = self.inner.borrow();
            c.dup_acks == 3
        };
        if fast_retx {
            // Mark so we only retransmit once per dup-ack burst.
            self.inner.borrow_mut().dup_acks = 4;
            self.retransmit_head(world);
        }

        if became_established {
            let cb = self.inner.borrow_mut().established_cb.take();
            if let Some(mut cb) = cb {
                cb(world);
            }
        }
        if should_ack {
            self.send_ack(world);
        }
        if should_pump {
            self.restart_rto(world);
            self.pump(world);
        }
        // If nothing is in flight any more, stop the timer.
        {
            let idle = {
                let c = self.inner.borrow();
                c.snd_nxt == c.snd_una
                    && !matches!(c.state, TcpState::SynSent | TcpState::SynReceived)
            };
            if idle {
                self.cancel_rto(world);
            }
        }
        if notify_app {
            self.schedule_readable_notification(world);
        }
    }

    /// Re-announces already-buffered data (or EOF) to the readable
    /// callback. Accept paths that install the callback asynchronously —
    /// after data may already have arrived — call this to avoid losing the
    /// only readability event.
    pub fn announce_readable(&self, world: &mut SimWorld) {
        if self.available() > 0 || self.is_finished() {
            self.schedule_readable_notification(world);
        }
    }

    fn schedule_readable_notification(&self, world: &mut SimWorld) {
        let should_schedule = {
            let mut c = self.inner.borrow_mut();
            if c.readable_cb.is_some() && !c.notify_pending {
                c.notify_pending = true;
                true
            } else {
                false
            }
        };
        if should_schedule {
            let conn = self.clone();
            world.schedule_after(SimDuration::ZERO, move |world| {
                let cb = {
                    let mut c = conn.inner.borrow_mut();
                    c.notify_pending = false;
                    c.readable_cb.take()
                };
                if let Some(mut cb) = cb {
                    cb(world);
                    let mut c = conn.inner.borrow_mut();
                    if c.readable_cb.is_none() {
                        c.readable_cb = Some(cb);
                    }
                }
            });
        }
    }
}

impl TcpConn {
    /// Queues owned chunks on the send side (refcount bumps, no copy),
    /// bounded by the configured send buffer, then pumps once. Shared by
    /// `send`, `send_bytes` and `send_bytes_vectored`: all parts enter the
    /// buffer before segmentation, so they pack into MSS-sized segments
    /// exactly like one contiguous write.
    fn queue_send_parts(&self, world: &mut SimWorld, parts: Vec<Bytes>) -> usize {
        let accepted = {
            let mut c = self.inner.borrow_mut();
            if matches!(c.state, TcpState::Closed) || c.fin_queued {
                return 0;
            }
            let mut room = c
                .config
                .send_buffer
                .saturating_sub(c.send_buf.len() + c.retx_buf.len());
            let mut accepted = 0;
            for data in parts {
                let n = room.min(data.len());
                if n > 0 {
                    c.send_buf.push_bytes(if n == data.len() {
                        data
                    } else {
                        data.slice(..n)
                    });
                }
                room -= n;
                accepted += n;
            }
            accepted
        };
        if accepted > 0 {
            self.pump(world);
        }
        accepted
    }

    /// Sends a window update if the receive window just reopened.
    fn maybe_reopen_window(&self, world: &mut SimWorld) {
        let opened = {
            let mut c = self.inner.borrow_mut();
            let opened = c.advertised_zero_window && c.recv_window() >= c.mss as u32;
            if opened {
                c.advertised_zero_window = false;
            }
            opened
        };
        if opened {
            // Window update so a stalled sender can resume.
            self.send_ack(world);
        }
    }
}

impl ByteStream for TcpConn {
    fn send(&self, world: &mut SimWorld, data: &[u8]) -> usize {
        if data.is_empty() {
            return 0;
        }
        self.queue_send_parts(world, vec![Bytes::copy_from_slice(data)])
    }

    fn send_bytes(&self, world: &mut SimWorld, data: Bytes) -> usize {
        self.queue_send_parts(world, vec![data])
    }

    fn send_bytes_vectored(&self, world: &mut SimWorld, parts: Vec<Bytes>) -> usize {
        self.queue_send_parts(world, parts)
    }

    fn available(&self) -> usize {
        self.inner.borrow().recv_buf.len()
    }

    fn recv(&self, world: &mut SimWorld, max: usize) -> Vec<u8> {
        if max == 0 || self.available() == 0 {
            return Vec::new();
        }
        let data = self.inner.borrow_mut().recv_buf.read_into(max);
        self.maybe_reopen_window(world);
        data
    }

    fn recv_bytes(&self, world: &mut SimWorld, max: usize) -> Bytes {
        if max == 0 || self.available() == 0 {
            return Bytes::new();
        }
        let data = self.inner.borrow_mut().recv_buf.pop_chunk(max);
        self.maybe_reopen_window(world);
        data
    }

    fn is_established(&self) -> bool {
        matches!(
            self.inner.borrow().state,
            TcpState::Established | TcpState::FinSent
        )
    }

    fn is_finished(&self) -> bool {
        let c = self.inner.borrow();
        (c.peer_fin.is_some() && c.recv_buf.is_empty() && c.ooo.is_empty())
            || c.state == TcpState::Closed
    }

    fn close(&self, world: &mut SimWorld) {
        {
            let mut c = self.inner.borrow_mut();
            if c.fin_queued || c.state == TcpState::Closed {
                return;
            }
            c.fin_queued = true;
        }
        self.pump(world);
    }

    fn set_readable_callback(&self, cb: ReadableCallback) {
        self.inner.borrow_mut().readable_cb = Some(cb);
    }

    fn bytes_acked(&self) -> u64 {
        self.inner.borrow().stats.bytes_acked
    }

    fn bytes_unacked(&self) -> u64 {
        let c = self.inner.borrow();
        c.retx_buf.len() as u64 + c.send_buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ByteStreamExt;
    use simnet::topology;
    use simnet::{LossModel, NetworkSpec};
    use std::cell::RefCell as StdRefCell;

    /// Establishes a connected pair over the given spec and returns
    /// (world, client conn, server conn handle holder, network).
    fn connected_pair(
        spec: NetworkSpec,
    ) -> (
        SimWorld,
        TcpConn,
        Rc<StdRefCell<Option<TcpConn>>>,
        NetworkId,
    ) {
        connected_pair_with_config(spec, TcpConfig::default())
    }

    fn connected_pair_with_config(
        spec: NetworkSpec,
        config: TcpConfig,
    ) -> (
        SimWorld,
        TcpConn,
        Rc<StdRefCell<Option<TcpConn>>>,
        NetworkId,
    ) {
        let mut p = topology::pair_over(11, spec);
        let stack_a = TcpStack::with_config(&mut p.world, p.a, config.clone());
        let stack_b = TcpStack::with_config(&mut p.world, p.b, config);
        let server_conn: Rc<StdRefCell<Option<TcpConn>>> = Rc::new(StdRefCell::new(None));
        let sc = server_conn.clone();
        stack_b.listen(80, move |_world, conn| {
            *sc.borrow_mut() = Some(conn);
        });
        let client = stack_a.connect(&mut p.world, p.network, p.b, 80);
        p.world.run();
        assert!(client.is_established(), "handshake should complete");
        assert!(server_conn.borrow().is_some(), "server should accept");
        (p.world, client, server_conn, p.network)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (_world, client, server, _net) = connected_pair(NetworkSpec::ethernet_100());
        assert!(client.is_established());
        assert!(server.borrow().as_ref().unwrap().is_established());
        assert_eq!(client.remote_addr().1, 80);
    }

    #[test]
    fn small_transfer_is_delivered_in_order() {
        let (mut world, client, server, _net) = connected_pair(NetworkSpec::ethernet_100());
        client.send_all(&mut world, b"hello from the parallel world");
        world.run();
        let server = server.borrow();
        let server = server.as_ref().unwrap();
        assert_eq!(
            server.recv_all(&mut world),
            b"hello from the parallel world"
        );
    }

    #[test]
    fn closed_connections_leave_both_stacks() {
        let mut p = topology::pair_over(12, NetworkSpec::ethernet_100());
        let stack_a = TcpStack::new(&mut p.world, p.a);
        let stack_b = TcpStack::new(&mut p.world, p.b);
        stack_b.listen(80, |_world, conn| {
            let c = conn.clone();
            conn.set_readable_callback(Box::new(move |world| {
                if !c.recv_all(world).is_empty() {
                    c.send_all(world, b"ack");
                }
                if c.is_finished() {
                    c.close(world);
                }
            }));
        });
        for _ in 0..20 {
            let client = stack_a.connect(&mut p.world, p.network, p.b, 80);
            client.send_all(&mut p.world, b"request");
            p.world.run();
            assert_eq!(client.recv_all(&mut p.world), b"ack");
            client.close(&mut p.world);
            p.world.run();
        }
        let live = |s: &TcpStack| s.inner.borrow().conns.len();
        assert_eq!((live(&stack_a), live(&stack_b)), (0, 0));
    }

    #[test]
    fn bulk_transfer_across_many_segments() {
        let (mut world, client, server, _net) = connected_pair(NetworkSpec::ethernet_100());
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        client.send_all(&mut world, &data);
        client.close(&mut world);
        let server_conn = server.borrow().as_ref().unwrap().clone();
        let received = Rc::new(StdRefCell::new(Vec::new()));
        let r = received.clone();
        let sc = server_conn.clone();
        server_conn.set_readable_callback(Box::new(move |world| {
            r.borrow_mut().extend(sc.recv_all(world));
        }));
        world.run();
        assert_eq!(received.borrow().len(), data.len());
        assert_eq!(*received.borrow(), data);
        assert_eq!(client.bytes_acked(), data.len() as u64);
    }

    #[test]
    fn transfer_survives_heavy_loss() {
        let mut spec = NetworkSpec::ethernet_100();
        spec.loss = LossModel::bernoulli(0.05);
        let (mut world, client, server, _net) = connected_pair(spec);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 256) as u8).collect();
        client.send_all(&mut world, &data);
        client.close(&mut world);
        let server_conn = server.borrow().as_ref().unwrap().clone();
        let received = Rc::new(StdRefCell::new(Vec::new()));
        let r = received.clone();
        let sc = server_conn.clone();
        server_conn.set_readable_callback(Box::new(move |world| {
            r.borrow_mut().extend(sc.recv_all(world));
        }));
        world.run();
        assert_eq!(*received.borrow(), data, "reliable despite 5% loss");
        assert!(client.stats().retransmitted_segments > 0);
    }

    #[test]
    fn lan_goodput_matches_fast_ethernet() {
        let (mut world, client, server, _net) = connected_pair(NetworkSpec::ethernet_100());
        let size = 4_000_000usize;
        let data = vec![0xAAu8; size];
        let start = world.now();
        client.send_all(&mut world, &data);
        let server_conn = server.borrow().as_ref().unwrap().clone();
        let done = Rc::new(StdRefCell::new(0usize));
        let d = done.clone();
        let sc = server_conn.clone();
        server_conn.set_readable_callback(Box::new(move |world| {
            *d.borrow_mut() += sc.recv_all(world).len();
        }));
        world.run_while(|| *done.borrow() < size);
        let elapsed = world.now().since(start).as_secs_f64();
        let goodput = size as f64 / elapsed / 1e6;
        // Fast Ethernet with TCP/IP overhead delivers roughly 10–12 MB/s.
        assert!(goodput > 9.5, "goodput {goodput} MB/s too low");
        assert!(goodput < 12.5, "goodput {goodput} MB/s exceeds line rate");
    }

    #[test]
    fn congestion_window_grows_during_slow_start() {
        let (mut world, client, _server, _net) = connected_pair(NetworkSpec::vthd_wan());
        let initial = client.cwnd();
        client.send(&mut world, &vec![0u8; 400_000]);
        world.run_for(SimDuration::from_millis(200));
        assert!(
            client.cwnd() > initial,
            "cwnd should grow: {} -> {}",
            initial,
            client.cwnd()
        );
    }

    #[test]
    fn loss_reduces_congestion_window() {
        let mut spec = NetworkSpec::vthd_wan();
        spec.loss = LossModel::bernoulli(0.02);
        let (mut world, client, server, _net) = connected_pair(spec);
        let server_conn = server.borrow().as_ref().unwrap().clone();
        // Keep the receiver drained.
        let sc = server_conn.clone();
        server_conn.set_readable_callback(Box::new(move |world| {
            sc.recv_all(world);
        }));
        client.send(&mut world, &vec![0u8; 2_000_000]);
        world.run_for(SimDuration::from_secs(5));
        let stats = client.stats();
        assert!(
            stats.retransmitted_segments > 0,
            "2% loss must cause retransmissions"
        );
        // cwnd should be bounded well below the amount of queued data.
        assert!(client.cwnd() < 1_000_000);
    }

    #[test]
    fn send_respects_buffer_limit_and_close_stops_send() {
        let config = TcpConfig {
            send_buffer: 1000,
            ..Default::default()
        };
        let (mut world, client, _server, _net) =
            connected_pair_with_config(NetworkSpec::ethernet_100(), config);
        // Larger than the send buffer: only part is accepted synchronously.
        let accepted = client.send(&mut world, &vec![1u8; 5_000]);
        assert!(accepted <= 1000);
        client.close(&mut world);
        assert_eq!(client.send(&mut world, b"more"), 0, "no send after close");
    }

    #[test]
    fn fin_is_seen_by_peer() {
        let (mut world, client, server, _net) = connected_pair(NetworkSpec::ethernet_100());
        client.send_all(&mut world, b"bye");
        client.close(&mut world);
        world.run();
        let server = server.borrow();
        let server = server.as_ref().unwrap();
        assert_eq!(server.recv_all(&mut world), b"bye");
        assert!(
            server.is_finished(),
            "peer FIN should mark the stream finished"
        );
    }

    #[test]
    fn two_connections_between_same_hosts_are_independent() {
        let mut p = topology::pair_over(3, NetworkSpec::ethernet_100());
        let stack_a = TcpStack::new(&mut p.world, p.a);
        let stack_b = TcpStack::new(&mut p.world, p.b);
        let accepted: Rc<StdRefCell<Vec<TcpConn>>> = Rc::new(StdRefCell::new(Vec::new()));
        let acc = accepted.clone();
        stack_b.listen(9, move |_w, c| acc.borrow_mut().push(c));
        let c1 = stack_a.connect(&mut p.world, p.network, p.b, 9);
        let c2 = stack_a.connect(&mut p.world, p.network, p.b, 9);
        p.world.run();
        assert_eq!(accepted.borrow().len(), 2);
        c1.send_all(&mut p.world, b"first");
        c2.send_all(&mut p.world, b"second");
        p.world.run();
        let a0 = accepted.borrow()[0].clone();
        let a1 = accepted.borrow()[1].clone();
        let mut got: Vec<Vec<u8>> = vec![a0.recv_all(&mut p.world), a1.recv_all(&mut p.world)];
        got.sort();
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn wan_single_stream_is_capped_by_loss_and_rtt() {
        let (mut world, client, server, _net) = connected_pair(NetworkSpec::vthd_wan());
        let size = 8_000_000usize;
        let server_conn = server.borrow().as_ref().unwrap().clone();
        let done = Rc::new(StdRefCell::new(0usize));
        let d = done.clone();
        let sc = server_conn.clone();
        server_conn.set_readable_callback(Box::new(move |world| {
            *d.borrow_mut() += sc.recv_all(world).len();
        }));
        let start = world.now();
        client.send_all(&mut world, &vec![0u8; size]);
        world.run_while(|| *done.borrow() < size);
        let elapsed = world.now().since(start).as_secs_f64();
        let goodput = size as f64 / elapsed / 1e6;
        // The paper reports ≈9 MB/s for a single stream on VTHD, clearly
        // below the 12.5 MB/s access link.
        assert!(
            goodput < 11.5,
            "single stream should not saturate the WAN, got {goodput}"
        );
        assert!(goodput > 4.0, "goodput collapsed unexpectedly: {goodput}");
    }
}
