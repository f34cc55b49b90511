//! Stream-level gateway relaying: SOCKS-style proxies on gateway nodes.
//!
//! This is the one gateway relay of the stack: it relays whole *byte
//! streams*, which is what VLinks and Circuit links need, and its trunks
//! ([`crate::trunk`]) hold the one credit ledger. Every gateway node runs
//! a proxy service: a connecting node
//! sends a small header naming the final destination node and service, the
//! gateway opens the onward leg — chosen by its own selector, so the leg
//! may itself be a SAN stream, plain TCP, Parallel Streams, or another
//! relayed hop towards the next gateway — and then splices the two streams
//! together, store-and-forwarding bytes in both directions.
//!
//! Each leg runs its own transport (TCP on the site LAN, Parallel Streams
//! on the backbone, a MadIO stream on the destination SAN…), so
//! reliability and congestion control are per-hop, exactly like a real
//! application-level gateway.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use simnet::{
    FlightRecorder, NetworkClass, NodeId, SimDuration, SimWorld, StreamTransition, TraceEvent,
};
use transport::{
    ByteStream, ByteStreamExt, ParallelStream, ParallelStreamConfig, ReadableCallback, SegBuf,
};

use crate::runtime::PadicoRuntime;
use crate::selector::{BackpressureMode, SelectorPreferences};
use crate::trunk::{TrunkFlowConfig, TrunkMux, TrunkStream};
use crate::vlink::{VLink, VLinkEvent};

/// The well-known service port gateway proxies listen on.
pub const GATEWAY_PROXY_SERVICE: u16 = 45_000;

/// The port the proxy's persistent trunk carrier (a Parallel Streams
/// bundle multiplexing every relayed stream between a gateway pair)
/// listens on.
pub const GATEWAY_PROXY_TRUNK_SERVICE: u16 = GATEWAY_PROXY_SERVICE + 10_000;

/// Striping chunk of trunk carriers: small enough that modest relayed
/// transfers spread over every member connection of the bundle.
pub(crate) const TRUNK_STRIPE_CHUNK: usize = 4096;

/// Warm-up padding pushed through a trunk once at establishment —
/// roughly one bandwidth-delay product of the reference WAN (12.5 MB/s ×
/// 16 ms ≈ 200 kB), enough to take the carrier out of slow start. Used
/// as the fallback when no [`gridtopo::PathInfo`] towards the gateway is
/// available; see [`warmup_bytes_for`].
pub(crate) const TRUNK_WARMUP_BYTES: usize = 256 * 1024;

/// Sizes a trunk's warm-up padding from the [`gridtopo::PathInfo`]
/// of the path towards the gateway: two bandwidth-delay products of the
/// actual route (bottleneck rate × one-way latency), clamped so degenerate
/// paths neither skip slow start (floor) nor flood the first carrier
/// (ceiling).
pub(crate) fn warmup_bytes_for(info: &gridtopo::PathInfo) -> usize {
    if !info.bottleneck_bytes_per_sec.is_finite() {
        return TRUNK_WARMUP_BYTES;
    }
    let bdp = info.bottleneck_bytes_per_sec * info.total_latency.as_secs_f64();
    ((2.0 * bdp) as usize).clamp(64 * 1024, 512 * 1024)
}

/// Magic tag opening every proxy header.
const PROXY_MAGIC: u16 = 0x9D1C;

/// Header: magic(2) + flags(1) + ttl(1) + dst(4) + service(2).
const PROXY_HEADER_BYTES: usize = 10;

/// Flag bit: the onward leg must be a plain byte stream on Circuit port
/// conventions (never a MadIO VLink stream) — set for relayed Circuit
/// links.
const FLAG_CIRCUIT_STREAM: u8 = 0b0000_0001;

/// Initial time-to-live of a proxied connection (gateway hops).
pub(crate) const PROXY_TTL: u8 = 8;

/// Onward-driver backlog (unacknowledged plus credit-parked bytes) above
/// which a splice stops pulling off its incoming leg and polls instead:
/// the gateway's store-and-forward memory for one relayed stream is
/// bounded instead of ballooning when the downstream leg is the
/// bottleneck.
const SPLICE_HIGH_WATER: u64 = 1024 * 1024;

/// Poll interval of a paused splice.
const SPLICE_RETRY: SimDuration = SimDuration::from_micros(200);

/// The trunk flow-control configuration implied by the user preferences:
/// credit windows when `relay_backpressure` is `Credit`, none otherwise.
/// Both trunk ends derive it from the same preference, so they agree.
pub(crate) fn trunk_flow(prefs: &SelectorPreferences) -> Option<TrunkFlowConfig> {
    match prefs.relay_backpressure {
        BackpressureMode::Credit => Some(TrunkFlowConfig {
            trunk_budget: prefs.gateway_trunk_budget,
            ..Default::default()
        }),
        BackpressureMode::Drop => None,
    }
}

/// Ceiling on re-dials per relayed stream, so cascading gateway deaths
/// cannot loop a stream forever (each migration marks another gateway
/// down, and sites have few gateways).
const MAX_MIGRATIONS: u32 = 4;

/// Accounting for one gateway's stream proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayProxyStats {
    /// Connections accepted and spliced onwards.
    pub connections_relayed: u64,
    /// Connections refused (bad header or TTL exhausted).
    pub connections_refused: u64,
    /// Bytes forwarded from the connecting side towards the destination.
    pub bytes_forward: u64,
    /// Bytes forwarded from the destination back to the connecting side.
    pub bytes_backward: u64,
    /// Bytes a splice leg refused (the carrying stream died underneath);
    /// they are lost and accounted, never silently retried.
    pub bytes_refused: u64,
}

/// Handle to a gateway's proxy accounting.
#[derive(Clone)]
pub struct GatewayProxy {
    node: NodeId,
    stats: Rc<RefCell<GatewayProxyStats>>,
}

impl GatewayProxy {
    /// The gateway node this proxy runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A snapshot of the proxy's accounting.
    pub fn stats(&self) -> GatewayProxyStats {
        *self.stats.borrow()
    }
}

/// Encodes the proxy header for a connection towards `(dst, service)`.
fn encode_header(dst: NodeId, service: u16, flags: u8, ttl: u8) -> [u8; PROXY_HEADER_BYTES] {
    let mut h = [0u8; PROXY_HEADER_BYTES];
    h[0..2].copy_from_slice(&PROXY_MAGIC.to_be_bytes());
    h[2] = flags;
    h[3] = ttl;
    h[4..8].copy_from_slice(&dst.0.to_be_bytes());
    h[8..10].copy_from_slice(&service.to_be_bytes());
    h
}

fn decode_header(h: &[u8]) -> Option<(u8, u8, NodeId, u16)> {
    if h.len() < PROXY_HEADER_BYTES {
        return None;
    }
    let magic = u16::from_be_bytes([h[0], h[1]]);
    if magic != PROXY_MAGIC {
        return None;
    }
    let flags = h[2];
    let ttl = h[3];
    let dst = NodeId(u32::from_be_bytes([h[4], h[5], h[6], h[7]]));
    let service = u16::from_be_bytes([h[8], h[9]]);
    Some((flags, ttl, dst, service))
}

/// Opens a relayed connection from `rt`'s node towards `(dst, service)`
/// through the gateway `via` on `network`, returning the raw stream with
/// the proxy header already sent. `circuit_stream` selects Circuit port
/// conventions for the final leg. Fresh connections start at
/// [`PROXY_TTL`]; gateways pass the decremented remainder.
#[allow(clippy::too_many_arguments)]
pub(crate) fn connect_through_gateway_with_ttl(
    world: &mut SimWorld,
    rt: &PadicoRuntime,
    network: simnet::NetworkId,
    via: NodeId,
    dst: NodeId,
    service: u16,
    circuit_stream: bool,
    ttl: u8,
) -> Rc<dyn ByteStream> {
    let flags = if circuit_stream {
        FLAG_CIRCUIT_STREAM
    } else {
        0
    };
    if rt.preferences().gateway_failover {
        // Failover mode: every relayed leg — intra-site ones included —
        // rides a liveness-monitored trunk, wrapped so a dead gateway
        // triggers automatic re-dial through a surviving one.
        return Rc::new(FailoverStream::connect(
            world, rt, network, via, dst, service, flags, ttl,
        ));
    }
    let wan_class = matches!(
        world.network(network).spec.class,
        NetworkClass::Wan | NetworkClass::Internet
    );
    let conn: Rc<dyn ByteStream> = if wan_class {
        // WAN-class leg: ride the persistent trunk towards the gateway —
        // no per-stream WAN handshake, warm congestion state shared with
        // every other relayed stream crossing this gateway pair.
        Rc::new(rt.trunk_stream(world, network, via))
    } else {
        // Intra-site leg (SAN/LAN): a per-stream connection is cheap.
        Rc::new(
            rt.netaccess()
                .sysio()
                .connect(world, network, via, GATEWAY_PROXY_SERVICE),
        )
    };
    let header = encode_header(dst, service, flags, ttl);
    conn.send_all(world, &header);
    conn
}

// --------------------------------------------------------------------- //
// Gateway failover: migratable relayed streams
// --------------------------------------------------------------------- //

struct FoInner {
    rt: PadicoRuntime,
    dst: NodeId,
    service: u16,
    flags: u8,
    ttl: u8,
    /// Credit mode: acknowledged == consumed by the far splice, so resume
    /// offsets are exact. Without flow control there is no honest ack —
    /// migration re-dials but bytes in flight at the kill are lost
    /// (accounted), matching drop-mode philosophy.
    flow: bool,
    /// The trunk stream currently carrying this connection.
    current: TrunkStream,
    /// App-byte offset (excluding the proxy header) where the current
    /// incarnation's data starts.
    resume_base: u64,
    /// Refcounted copies of sent-but-unacknowledged app bytes,
    /// `[retx_base, sent)`; trimmed as credits come back, resent on
    /// migration. Empty in non-flow mode.
    retx: SegBuf,
    retx_base: u64,
    /// App bytes accepted from the layer above.
    sent: u64,
    /// Receive-side leftovers salvaged from a dead incarnation, served
    /// before the current stream's buffer.
    pending_rx: SegBuf,
    self_closed: bool,
    /// Dead for good: no surviving route (or the migration cap hit).
    failed: bool,
    migrations: u32,
    /// The gateway currently carrying the stream (for forensics).
    via: NodeId,
    /// Connection id stamped into `StreamMigrated` trace events.
    stream_id: u64,
    /// Bounded per-stream forensic timeline (shared with the runtime so
    /// fault tests can dump it after the fact).
    recorder: Rc<RefCell<FlightRecorder>>,
}

/// A relayed byte stream that survives gateway death: it rides one
/// multiplexed trunk stream at a time, and when trunk liveness declares
/// the carrier dead it *migrates* — re-resolves the route (the dead
/// gateway is marked down by then), re-dials the trunk towards the
/// surviving gateway, replays the proxy header and every unacknowledged
/// byte, and carries on. The handle (and the VLink riding it) never
/// changes.
///
/// In credit mode the far gateway's fail-stop sequence flushes its
/// consumed-credit batches before the carrier closes, so "acknowledged"
/// equals "consumed and forwarded by the splice": the resend resumes at
/// exactly the first byte the old path did not deliver — zero
/// acknowledged bytes lost, zero duplicated.
#[derive(Clone)]
pub(crate) struct FailoverStream {
    inner: Rc<RefCell<FoInner>>,
    /// The consumer's readable callback, stable across migrations.
    readable: Rc<RefCell<Option<ReadableCallback>>>,
}

impl FailoverStream {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn connect(
        world: &mut SimWorld,
        rt: &PadicoRuntime,
        network: simnet::NetworkId,
        via: NodeId,
        dst: NodeId,
        service: u16,
        flags: u8,
        ttl: u8,
    ) -> FailoverStream {
        let mux = rt.ensure_trunk(world, network, via);
        let stream = mux.open();
        let flow = trunk_flow(&rt.preferences()).is_some();
        let stream_id = world.events.next_cause().0;
        let recorder = Rc::new(RefCell::new(FlightRecorder::new(format!(
            "stream#{stream_id} {src}->{dst}:{service}",
            src = rt.node()
        ))));
        recorder
            .borrow_mut()
            .record(world.now(), StreamTransition::Dialed { gateway: via });
        rt.register_flight_recorder(recorder.clone());
        let fo = FailoverStream {
            inner: Rc::new(RefCell::new(FoInner {
                rt: rt.clone(),
                dst,
                service,
                flags,
                ttl,
                flow,
                current: stream.clone(),
                resume_base: 0,
                retx: SegBuf::new(),
                retx_base: 0,
                sent: 0,
                pending_rx: SegBuf::new(),
                self_closed: false,
                failed: false,
                migrations: 0,
                via,
                stream_id,
                recorder,
            })),
            readable: Rc::new(RefCell::new(None)),
        };
        fo.attach_incarnation(world, &mux, &stream);
        fo
    }

    /// Wires one incarnation: forwards its readable events to the stable
    /// consumer callback, registers the re-dial hook on its mux, and
    /// sends the proxy header.
    fn attach_incarnation(&self, world: &mut SimWorld, mux: &TrunkMux, stream: &TrunkStream) {
        let readable = self.readable.clone();
        stream.set_readable_callback(Box::new(move |world| {
            let cb = readable.borrow_mut().take();
            if let Some(mut cb) = cb {
                cb(world);
                let mut slot = readable.borrow_mut();
                if slot.is_none() {
                    *slot = Some(cb);
                }
            }
        }));
        let weak = Rc::downgrade(&self.inner);
        let readable = self.readable.clone();
        // Migration runs whatever the cause: a peer death re-routes around
        // the corpse, a locally severed trunk (drop_trunks) re-dials the
        // same still-healthy gateway.
        mux.on_dead(move |world, _locally_severed| {
            if let Some(inner) = weak.upgrade() {
                FailoverStream { inner, readable }.migrate(world);
            }
        });
        let (dst, service, flags, ttl) = {
            let inner = self.inner.borrow();
            let (recorder, via, stream_id) = (inner.recorder.clone(), inner.via, inner.stream_id);
            stream.set_stall_hook(move |world, stalled| {
                let transition = if stalled {
                    StreamTransition::CreditStalled
                } else {
                    StreamTransition::CreditResumed
                };
                recorder.borrow_mut().record(world.now(), transition);
                if world.events.is_enabled() {
                    let now = world.now();
                    let event = if stalled {
                        TraceEvent::CreditStall {
                            node: via,
                            stream: stream_id,
                        }
                    } else {
                        TraceEvent::CreditResume {
                            node: via,
                            stream: stream_id,
                        }
                    };
                    world.events.record(now, event);
                }
            });
            (inner.dst, inner.service, inner.flags, inner.ttl)
        };
        let header = encode_header(dst, service, flags, ttl);
        stream.send_bytes(world, Bytes::copy_from_slice(&header));
    }

    /// Trims the retransmission buffer by what the peer has acknowledged
    /// (consumed-and-credited), including across migrations.
    fn trim(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.flow {
            return;
        }
        let credits = inner.current.credit_stats().credits_received;
        let acked =
            (inner.resume_base + credits.saturating_sub(PROXY_HEADER_BYTES as u64)).min(inner.sent);
        if acked > inner.retx_base {
            let n = (acked - inner.retx_base) as usize;
            let n = n.min(inner.retx.len());
            inner.retx.consume(n);
            inner.retx_base = acked;
        }
    }

    /// Schedules the consumer's readable callback (migrations and terminal
    /// failures must wake blocked readers).
    fn wake(&self, world: &mut SimWorld) {
        let readable = self.readable.clone();
        world.schedule_after(SimDuration::ZERO, move |world| {
            let cb = readable.borrow_mut().take();
            if let Some(mut cb) = cb {
                cb(world);
                let mut slot = readable.borrow_mut();
                if slot.is_none() {
                    *slot = Some(cb);
                }
            }
        });
    }

    /// The mux under the current incarnation died: salvage, re-route,
    /// re-dial, replay.
    fn migrate(&self, world: &mut SimWorld) {
        self.trim();
        enum Action {
            Done,
            Fail,
            Redial {
                network: simnet::NetworkId,
                via: NodeId,
            },
        }
        let action = {
            let mut inner = self.inner.borrow_mut();
            if inner.failed || !inner.current.mux().is_dead() {
                // Stale hook (the stream already moved on) or nothing to do.
                return;
            }
            let via = inner.via;
            inner
                .recorder
                .borrow_mut()
                .record(world.now(), StreamTransition::CarrierDead { gateway: via });
            // Salvage whatever the dead incarnation had already received.
            loop {
                let data = inner.current.recv_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                inner.pending_rx.push_bytes(data);
            }
            if inner.rt.is_dead() {
                // Our own node is the dead gateway: nothing to resume.
                inner.failed = true;
                Action::Fail
            } else if inner.self_closed && inner.retx.is_empty() {
                // The stream was closed and nothing unacknowledged
                // remains to replay (in non-flow mode `retx` is always
                // empty — drop-mode philosophy accepts the in-flight
                // loss): the stream ended with the old path; re-dialing
                // would only deliver a ghost zero-byte connection.
                Action::Done
            } else if inner.migrations >= MAX_MIGRATIONS {
                inner.failed = true;
                Action::Fail
            } else {
                // Re-resolve towards the destination; the runtime's own
                // death hook (registered before ours) has already marked
                // the dead gateway down, so this avoids it.
                let rt = inner.rt.clone();
                let dst = inner.dst;
                drop(inner);
                let first = rt.resolved_route(dst).and_then(|r| r.first_hop());
                let mut inner = self.inner.borrow_mut();
                match first {
                    Some(first) if first.node != dst => Action::Redial {
                        network: first.network,
                        via: first.node,
                    },
                    // No surviving relayed route (or the pair became
                    // direct, which a proxy stream cannot carry).
                    _ => {
                        inner.failed = true;
                        Action::Fail
                    }
                }
            }
        };
        match action {
            Action::Done => {}
            Action::Fail => {
                let inner = self.inner.borrow();
                inner
                    .recorder
                    .borrow_mut()
                    .record(world.now(), StreamTransition::Failed);
                drop(inner);
                self.wake(world)
            }
            Action::Redial { network, via } => {
                let (rt, chunks, self_closed) = {
                    let inner = self.inner.borrow();
                    let chunks: Vec<Bytes> = inner.retx.peek_chunks().cloned().collect();
                    (inner.rt.clone(), chunks, inner.self_closed)
                };
                let mux = rt.ensure_trunk(world, network, via);
                let stream = mux.open();
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.migrations += 1;
                    inner.resume_base = inner.retx_base;
                    inner.current = stream.clone();
                    let from = inner.via;
                    inner.via = via;
                    let replayed: u64 = chunks.iter().map(|c| c.len() as u64).sum();
                    let now = world.now();
                    let mut rec = inner.recorder.borrow_mut();
                    rec.record(now, StreamTransition::Migrated { from, to: via });
                    rec.record(now, StreamTransition::Redialed { gateway: via });
                    if replayed > 0 {
                        rec.record(now, StreamTransition::Replayed { bytes: replayed });
                    }
                    drop(rec);
                    if world.events.is_enabled() {
                        world.events.record(
                            now,
                            TraceEvent::StreamMigrated {
                                stream: inner.stream_id,
                                from,
                                to: via,
                            },
                        );
                    }
                }
                self.attach_incarnation(world, &mux, &stream);
                for chunk in chunks {
                    stream.send_bytes(world, chunk);
                }
                if self_closed {
                    stream.close(world);
                }
                self.wake(world);
            }
        }
    }
}

impl ByteStream for FailoverStream {
    fn send(&self, world: &mut SimWorld, data: &[u8]) -> usize {
        self.send_bytes(world, Bytes::copy_from_slice(data))
    }

    fn send_bytes(&self, world: &mut SimWorld, data: Bytes) -> usize {
        let stream = {
            let mut inner = self.inner.borrow_mut();
            if inner.failed || inner.self_closed {
                return 0;
            }
            inner.sent += data.len() as u64;
            if inner.flow {
                inner.retx.push_bytes(data.clone());
            }
            inner.current.clone()
        };
        let n = stream.send_bytes(world, data);
        self.trim();
        n
    }

    fn available(&self) -> usize {
        let inner = self.inner.borrow();
        inner.pending_rx.len() + inner.current.available()
    }

    fn recv(&self, world: &mut SimWorld, max: usize) -> Vec<u8> {
        let salvaged = {
            let mut inner = self.inner.borrow_mut();
            if inner.pending_rx.is_empty() {
                None
            } else {
                Some(inner.pending_rx.read_into(max))
            }
        };
        match salvaged {
            Some(data) => data,
            None => {
                let stream = self.inner.borrow().current.clone();
                stream.recv(world, max)
            }
        }
    }

    fn recv_bytes(&self, world: &mut SimWorld, max: usize) -> Bytes {
        let salvaged = {
            let mut inner = self.inner.borrow_mut();
            if inner.pending_rx.is_empty() {
                None
            } else {
                Some(inner.pending_rx.pop_chunk(max))
            }
        };
        match salvaged {
            Some(data) => data,
            None => {
                let stream = self.inner.borrow().current.clone();
                stream.recv_bytes(world, max)
            }
        }
    }

    fn is_established(&self) -> bool {
        self.inner.borrow().current.is_established()
    }

    fn is_finished(&self) -> bool {
        let inner = self.inner.borrow();
        inner.pending_rx.is_empty() && (inner.failed || inner.current.is_finished())
    }

    fn close(&self, world: &mut SimWorld) {
        let stream = {
            let mut inner = self.inner.borrow_mut();
            inner.self_closed = true;
            inner
                .recorder
                .borrow_mut()
                .record(world.now(), StreamTransition::Closed);
            inner.current.clone()
        };
        stream.close(world);
    }

    fn set_readable_callback(&self, cb: ReadableCallback) {
        *self.readable.borrow_mut() = Some(cb);
    }

    fn bytes_acked(&self) -> u64 {
        let inner = self.inner.borrow();
        if inner.flow {
            inner.retx_base
        } else {
            inner.current.bytes_acked()
        }
    }

    fn bytes_unacked(&self) -> u64 {
        // `retx` and the trunk's parked bytes overlap, so the max (not the
        // sum) is the honest backlog bound the splice pump paces against.
        let inner = self.inner.borrow();
        inner.current.bytes_unacked().max(inner.retx.len() as u64)
    }
}

/// Installs the stream proxy on `rt`'s node, making it a gateway for
/// relayed VLinks and Circuit links. Returns the accounting handle.
///
/// The runtime must have a route table installed (see
/// [`PadicoRuntime::set_route_table`]) for multi-gateway chains to
/// resolve.
pub fn install_gateway_proxy(world: &mut SimWorld, rt: &PadicoRuntime) -> GatewayProxy {
    let proxy = GatewayProxy {
        node: rt.node(),
        stats: Rc::new(RefCell::new(GatewayProxyStats::default())),
    };
    {
        let weak = Rc::downgrade(&proxy.stats);
        let gw = proxy.node.0.to_string();
        world.metrics.register_collector(move |b| {
            let Some(stats) = weak.upgrade() else { return };
            let s = *stats.borrow();
            let labels: &[(&str, &str)] = &[("gw", gw.as_str())];
            b.counter(
                "relay.proxy.connections_relayed",
                labels,
                s.connections_relayed,
            );
            b.counter(
                "relay.proxy.connections_refused",
                labels,
                s.connections_refused,
            );
            b.counter("relay.proxy.bytes_forward", labels, s.bytes_forward);
            b.counter("relay.proxy.bytes_backward", labels, s.bytes_backward);
            b.counter("relay.proxy.bytes_refused", labels, s.bytes_refused);
        });
    }
    let stats = proxy.stats.clone();
    let rt2 = rt.clone();
    let stats2 = stats.clone();
    let registered =
        rt.clone()
            .netaccess()
            .sysio()
            .listen(GATEWAY_PROXY_SERVICE, move |_world, conn| {
                splice_incoming(&rt2, &stats2, Rc::new(conn));
            });
    assert!(
        registered,
        "gateway proxy port {GATEWAY_PROXY_SERVICE} is already taken on this node"
    );
    // Trunk carriers arrive as Parallel Streams bundles on the offset
    // port; each carries a multiplexed stream per relayed connection, and
    // every demultiplexed stream is spliced exactly like a plain one.
    let rt2 = rt.clone();
    let width = rt.preferences().trunk_width();
    ParallelStream::listen(
        world,
        &rt.netaccess().sysio().tcp(),
        GATEWAY_PROXY_TRUNK_SERVICE,
        ParallelStreamConfig {
            n_streams: width,
            chunk_size: TRUNK_STRIPE_CHUNK,
        },
        move |world, carrier| {
            let rt3 = rt2.clone();
            let stats3 = stats.clone();
            let flow = trunk_flow(&rt2.preferences());
            let mux = TrunkMux::acceptor(Rc::new(carrier), flow, move |_world, stream| {
                let weak_mux = stream.mux().downgrade();
                let probe: Rc<dyn Fn() -> bool> = Rc::new(move || weak_mux.is_dead());
                splice_incoming_with_probe(&rt3, &stats3, Rc::new(stream), Some(probe));
            });
            if rt2.preferences().gateway_failover {
                mux.enable_health(world, crate::trunk::TrunkHealthConfig::default());
            }
            rt2.register_accepted_trunk(mux);
        },
    );
    proxy
}

/// Eagerly establishes this gateway's outgoing trunks towards the given
/// peer gateways on every WAN-class network they share, so the first
/// relayed stream finds a warm carrier instead of paying the WAN
/// handshake. Only nodes running a gateway proxy may be named in `peers`
/// (nothing else listens for trunk carriers — dialing a non-gateway would
/// retry its SYNs forever). Called by `runtimes_for_grid`, which knows
/// the grid's gateway set; lazy establishment on first use remains the
/// fallback for everything else.
pub fn establish_gateway_trunks(world: &mut SimWorld, rt: &PadicoRuntime, peers: &[NodeId]) {
    for net in world.network_ids() {
        let spec_class = world.network(net).spec.class;
        if !matches!(spec_class, NetworkClass::Wan | NetworkClass::Internet) {
            continue;
        }
        let members = world.network(net).members().to_vec();
        if !members.contains(&rt.node()) {
            continue;
        }
        for m in members {
            if m != rt.node() && peers.contains(&m) {
                rt.ensure_trunk(world, net, m);
            }
        }
    }
}

/// Installs the proxy splice on one accepted connection: buffer the proxy
/// header, open the onward leg, then store-and-forward in both directions.
///
/// The forward pump is *occupancy-aware*: while the onward driver's
/// backlog (unacknowledged bytes plus anything a flow-controlled trunk has
/// parked for want of credits) exceeds [`SPLICE_HIGH_WATER`], the pump
/// leaves arriving data on the incoming leg and polls instead of buffering
/// without bound — backpressure from a congested downstream leg reaches
/// back through the gateway rather than turning into gateway memory.
fn splice_incoming(
    rt: &PadicoRuntime,
    stats: &Rc<RefCell<GatewayProxyStats>>,
    conn: Rc<dyn ByteStream>,
) {
    splice_incoming_with_probe(rt, stats, conn, None)
}

/// Like [`splice_incoming`], with an optional probe reporting whether the
/// incoming leg's trunk has been declared dead (trunk-accepted splices
/// pass one; plain TCP splices have no trunk to probe).
fn splice_incoming_with_probe(
    rt: &PadicoRuntime,
    stats: &Rc<RefCell<GatewayProxyStats>>,
    conn: Rc<dyn ByteStream>,
    trunk_dead: Option<Rc<dyn Fn() -> bool>>,
) {
    let rt = rt.clone();
    let stats = stats.clone();
    // Per-connection state: buffer the header, then splice.
    let pending: Rc<RefCell<SegBuf>> = Rc::new(RefCell::new(SegBuf::new()));
    let onward: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
    let retry_pending = Rc::new(Cell::new(false));
    // The pump re-invokes itself from poll events, so it lives in a slot
    // it can reach through. The closure only holds the slot weakly and the
    // incoming leg's readable callback owns it, so a paused pump stays
    // reachable by its retry timer for exactly as long as the leg can
    // still wake it. Once the leg is finished and the onward link closed,
    // the pump swaps that callback for a no-op, which frees the pump, the
    // slot and everything they hold.
    type Pump = Rc<dyn Fn(&mut SimWorld)>;
    let pump_slot: Rc<RefCell<Option<Pump>>> = Rc::new(RefCell::new(None));
    let slot_for_pump = Rc::downgrade(&pump_slot);
    let conn2 = conn.clone();
    let pump = move |world: &mut SimWorld| {
        if rt.is_dead() {
            // Fail-stop: a killed gateway consumes nothing more. Both
            // legs are closed in an orderly way, so everything the splice
            // *already* forwarded still drains to its endpoint — which is
            // exactly what the peer's credit ledger says was consumed.
            if let Some(link) = onward.borrow().clone() {
                link.close(world);
            }
            conn2.close(world);
            return;
        }
        if let Some(link) = onward.borrow().clone() {
            if rt.preferences().gateway_failover && trunk_dead.as_ref().is_some_and(|p| p()) {
                // The incoming trunk died under the splice. Whatever is
                // still buffered was never credited back (a dead mux sends
                // nothing), so the migrating sender resends those bytes
                // through the surviving gateway — forwarding them here
                // would deliver them twice. Abandon the tail; close the
                // onward leg gracefully so everything *already* forwarded
                // (== everything credited) still drains.
                loop {
                    let dropped = conn2.recv_bytes(world, usize::MAX);
                    if dropped.is_empty() {
                        break;
                    }
                    stats.borrow_mut().bytes_refused += dropped.len() as u64;
                }
                link.close(world);
                return;
            }
            // Established splice: forward arriving chunks onwards by
            // refcount — the store-and-forward queue never copies.
            loop {
                if link.driver_backlog() > SPLICE_HIGH_WATER {
                    // Pause: the incoming leg keeps the data until the
                    // onward leg drains below the high-water mark.
                    if conn2.available() > 0 && !retry_pending.get() {
                        retry_pending.set(true);
                        let slot = slot_for_pump.clone();
                        let again = retry_pending.clone();
                        world.schedule_after(SPLICE_RETRY, move |world| {
                            again.set(false);
                            let p = slot.upgrade().and_then(|s| s.borrow().clone());
                            if let Some(p) = p {
                                p(world);
                            }
                        });
                    }
                    break;
                }
                let data = conn2.recv_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                stats.borrow_mut().bytes_forward += data.len() as u64;
                link.post_write_bytes(world, data);
            }
            // `is_finished` only turns true once every byte has been
            // read, so a paused pump can never close early.
            if conn2.is_finished() {
                link.close(world);
                conn2.set_readable_callback(Box::new(|_| {}));
            }
            return;
        }
        let refuse = |world: &mut SimWorld| {
            stats.borrow_mut().connections_refused += 1;
            conn2.close(world);
            conn2.set_readable_callback(Box::new(|_| {}));
        };
        {
            let mut buf = pending.borrow_mut();
            loop {
                let data = conn2.recv_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                buf.push_bytes(data);
            }
        }
        let header = {
            let buf = pending.borrow();
            let mut head = [0u8; PROXY_HEADER_BYTES];
            if buf.copy_peek(&mut head) < PROXY_HEADER_BYTES {
                // A peer that closes before completing the header is
                // refused, not left dangling.
                if conn2.is_finished() {
                    drop(buf);
                    refuse(world);
                }
                return;
            }
            decode_header(&head)
        };
        let Some((flags, ttl, dst, service)) = header else {
            refuse(world);
            return;
        };
        if ttl == 0 {
            refuse(world);
            return;
        }
        let circuit_stream = flags & FLAG_CIRCUIT_STREAM != 0;
        let link = rt.open_onward_leg(world, dst, service, circuit_stream, ttl - 1);
        stats.borrow_mut().connections_relayed += 1;
        // Reverse pump: destination -> connecting side, chunk by chunk,
        // with the same occupancy pause as the forward direction: while
        // the connecting leg's backlog is above the high-water mark, the
        // response bytes stay buffered on the onward VLink (whose trunk
        // window bounds them) instead of ballooning this gateway's send
        // queue.
        let back = conn2.clone();
        let link2 = link.clone();
        let stats2 = stats.clone();
        let back_retry = Rc::new(Cell::new(false));
        let rt_back = rt.clone();
        let drain_slot: Rc<RefCell<Option<Pump>>> = Rc::new(RefCell::new(None));
        let slot_for_drain = Rc::downgrade(&drain_slot);
        let drain: Pump = Rc::new(move |world: &mut SimWorld| {
            if rt_back.is_dead() {
                back.close(world);
                return;
            }
            loop {
                if back.bytes_unacked() > SPLICE_HIGH_WATER {
                    if link2.available() > 0 && !back_retry.get() {
                        back_retry.set(true);
                        let slot = slot_for_drain.clone();
                        let again = back_retry.clone();
                        world.schedule_after(SPLICE_RETRY, move |world| {
                            again.set(false);
                            let d = slot.upgrade().and_then(|s| s.borrow().clone());
                            if let Some(d) = d {
                                d(world);
                            }
                        });
                    }
                    break;
                }
                let data = link2.read_now_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                stats2.borrow_mut().bytes_backward += data.len() as u64;
                let len = data.len();
                let sent = back.send_bytes(world, data);
                if sent < len {
                    // The connecting side died under the splice: the
                    // response bytes are lost and accounted.
                    stats2.borrow_mut().bytes_refused += (len - sent) as u64;
                }
            }
            // A Finished withheld while the pump was paused (the VLink
            // only announces events on driver activity) is caught here
            // once the buffer drains.
            if link2.is_finished() {
                back.close(world);
            }
        });
        *drain_slot.borrow_mut() = Some(drain.clone());
        let back2 = conn2.clone();
        link.set_handler(move |world, event| {
            // The handler owns the slot: the drain stays reachable for
            // exactly as long as the link can produce events.
            let _keep = &drain_slot;
            match event {
                VLinkEvent::Readable => drain(world),
                VLinkEvent::Finished => back2.close(world),
                VLinkEvent::Connected => {}
            }
        });
        // Forward any payload that followed the header.
        {
            let mut buf = pending.borrow_mut();
            buf.consume(PROXY_HEADER_BYTES);
            loop {
                let rest = buf.pop_chunk(usize::MAX);
                if rest.is_empty() {
                    break;
                }
                stats.borrow_mut().bytes_forward += rest.len() as u64;
                link.post_write_bytes(world, rest);
            }
        }
        if conn2.is_finished() {
            link.close(world);
            conn2.set_readable_callback(Box::new(|_| {}));
        }
        *onward.borrow_mut() = Some(link);
    };
    let pump: Pump = Rc::new(pump);
    *pump_slot.borrow_mut() = Some(pump.clone());
    // Data buffered before this callback is installed (the header can race
    // the handshake) is re-announced by the SysIO accept dispatch, so
    // installing the callback is all that is needed.
    conn.set_readable_callback(Box::new(move |world| {
        let _keep = &pump_slot;
        pump(world)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = encode_header(NodeId(300), 1234, FLAG_CIRCUIT_STREAM, 5);
        let (flags, ttl, dst, service) = decode_header(&h).unwrap();
        assert_eq!(flags, FLAG_CIRCUIT_STREAM);
        assert_eq!(ttl, 5);
        assert_eq!(dst, NodeId(300));
        assert_eq!(service, 1234);
    }

    #[test]
    fn a_paused_splice_resumes_and_delivers_every_byte() {
        // The client's leg into its gateway is a SAN, the next leg a WAN
        // trunk: the forward pump outruns the trunk and pauses above the
        // high water mark with data left on the incoming leg. Nothing more
        // arrives on that leg, so only the retry timer can wake the pump.
        let mut world = SimWorld::new(75);
        let grid = gridtopo::GridTopology::two_sites(&mut world, 2);
        let (rts, _proxies) =
            crate::runtime::runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
        let dst = grid.site(1).node(1);
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        let g = got.clone();
        rts[3].vlink_listen(&mut world, 640, move |_world, v| {
            let (v2, g) = (v.clone(), g.clone());
            v.set_handler(move |world, ev| {
                if ev == VLinkEvent::Readable {
                    g.borrow_mut().extend(v2.read_now(world, usize::MAX));
                }
            });
        });
        let client = rts[1].vlink_connect(&mut world, dst, 640);
        let payload: Vec<u8> = (0..4 * SPLICE_HIGH_WATER as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        // Splice first; then the second half arrives while the trunk is
        // still busy with the first, and finds the pump paused.
        let half = payload.len() / 2;
        client.post_write(&mut world, &payload[..1]);
        world.run();
        client.post_write(&mut world, &payload[1..half]);
        world.run_for(SimDuration::from_millis(1));
        client.post_write(&mut world, &payload[half..]);
        world.run();
        assert_eq!(got.borrow().len(), payload.len(), "every byte relayed");
        assert!(*got.borrow() == payload, "relayed bytes are exact");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut h = encode_header(NodeId(1), 2, 0, 3);
        h[0] = 0;
        assert!(decode_header(&h).is_none());
        assert!(decode_header(&h[..4]).is_none());
    }
}
