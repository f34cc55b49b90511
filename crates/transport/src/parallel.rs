//! Parallel Streams: one logical stream striped over several TCP
//! connections.
//!
//! On a high-bandwidth, high-latency WAN every isolated TCP loss halves one
//! connection's congestion window; striping the data over N connections
//! confines each loss to 1/N of the aggregate, which is why GridFTP (and
//! PadicoTM's Parallel Streams VLink adapter) recover most of the access
//! bandwidth. The paper measures 9 MB/s for a single stream on VTHD and
//! 12 MB/s (the Ethernet-100 access limit) with Parallel Streams.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bytes::Bytes;
use simnet::{NetworkId, NodeId, SimDuration, SimWorld};

use crate::segbuf::SegBuf;
use crate::stream::{ByteStream, ReadableCallback};
use crate::tcp::{TcpConn, TcpStack};

/// Configuration of a parallel-stream bundle.
#[derive(Debug, Clone)]
pub struct ParallelStreamConfig {
    /// Number of TCP connections in the bundle.
    pub n_streams: usize,
    /// Bytes per striping chunk.
    pub chunk_size: usize,
}

impl Default for ParallelStreamConfig {
    fn default() -> Self {
        ParallelStreamConfig {
            n_streams: 4,
            chunk_size: 64 * 1024,
        }
    }
}

const PREAMBLE_MAGIC: u32 = 0x5053_5452; // "PSTR"
/// Preamble: magic(4) + member index(2) + width(2) + bundle id(2).
/// The bundle id (the first member's ephemeral port, unique per source
/// stack) lets an acceptor assemble several bundles arriving concurrently
/// from different peers — or from the same peer — without mixing their
/// member connections.
const PREAMBLE_BYTES: usize = 10;
const CHUNK_HEADER_BYTES: usize = 12;

struct Inner {
    config: ParallelStreamConfig,
    conns: Vec<TcpConn>,
    // Send side.
    next_send_chunk: u64,
    pending_send: SegBuf,
    closed: bool,
    // Receive side: per-connection partial frame buffers, then global
    // reassembly by chunk id. Chunk bodies stay refcounted end to end.
    rx_partial: Vec<SegBuf>,
    chunks: BTreeMap<u64, Bytes>,
    next_deliver_chunk: u64,
    recv_buf: SegBuf,
    readable_cb: Option<ReadableCallback>,
    notify_pending: bool,
}

/// A logical byte stream striped over several TCP connections.
#[derive(Clone)]
pub struct ParallelStream {
    inner: Rc<RefCell<Inner>>,
}

impl ParallelStream {
    /// Opens `config.n_streams` connections to `remote_node:port` over
    /// `network` and assembles them into one logical stream. Data can be
    /// queued immediately.
    pub fn connect(
        world: &mut SimWorld,
        stack: &TcpStack,
        network: NetworkId,
        remote_node: NodeId,
        port: u16,
        config: ParallelStreamConfig,
    ) -> ParallelStream {
        assert!(config.n_streams >= 1);
        let mut conns = Vec::with_capacity(config.n_streams);
        for _ in 0..config.n_streams {
            conns.push(stack.connect(world, network, remote_node, port));
        }
        // The first member's ephemeral port identifies the bundle.
        let bundle_id = conns[0].local_addr().1;
        for (idx, conn) in conns.iter().enumerate() {
            // Preamble identifies this connection's bundle and its index
            // within it.
            let mut preamble = Vec::with_capacity(PREAMBLE_BYTES);
            preamble.extend_from_slice(&PREAMBLE_MAGIC.to_be_bytes());
            preamble.extend_from_slice(&(idx as u16).to_be_bytes());
            preamble.extend_from_slice(&(config.n_streams as u16).to_be_bytes());
            preamble.extend_from_slice(&bundle_id.to_be_bytes());
            conn.send(world, &preamble);
        }
        Self::assemble(world, conns, config)
    }

    /// Starts listening for parallel-stream bundles on `port`. Once all the
    /// member connections of a bundle have arrived, `on_accept` is called
    /// with the assembled stream.
    pub fn listen(
        world: &mut SimWorld,
        stack: &TcpStack,
        port: u16,
        config: ParallelStreamConfig,
        on_accept: impl FnMut(&mut SimWorld, ParallelStream) + 'static,
    ) {
        let _ = world;
        struct Listener {
            config: ParallelStreamConfig,
            /// Bundles being assembled, keyed by (remote node, bundle id)
            /// so concurrent bundles from several peers never mix.
            pending: HashMap<(NodeId, u16), Vec<Option<TcpConn>>>,
            #[allow(clippy::type_complexity)]
            on_accept: Box<dyn FnMut(&mut SimWorld, ParallelStream)>,
        }
        let listener = Rc::new(RefCell::new(Listener {
            config,
            pending: HashMap::new(),
            on_accept: Box::new(on_accept),
        }));
        stack.listen(port, move |_world, conn| {
            // Each accepted connection first announces its bundle and index
            // via the preamble; once it arrives, slot it into that bundle.
            let listener = listener.clone();
            let conn_for_cb = conn.clone();
            let preamble_buf: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
            conn.set_readable_callback(Box::new(move |world| {
                let mut buf = preamble_buf.borrow_mut();
                if buf.len() < PREAMBLE_BYTES {
                    let need = PREAMBLE_BYTES - buf.len();
                    buf.extend(conn_for_cb.recv(world, need));
                }
                if buf.len() < PREAMBLE_BYTES {
                    return;
                }
                let magic = u32::from_be_bytes(buf[0..4].try_into().unwrap());
                let idx = u16::from_be_bytes(buf[4..6].try_into().unwrap()) as usize;
                let n = u16::from_be_bytes(buf[6..8].try_into().unwrap()) as usize;
                let bundle_id = u16::from_be_bytes(buf[8..10].try_into().unwrap());
                if magic != PREAMBLE_MAGIC {
                    return; // not a parallel-stream peer; ignore
                }
                let key = (conn_for_cb.remote_addr().0, bundle_id);
                let ready = {
                    let mut l = listener.borrow_mut();
                    let slots = l.pending.entry(key).or_default();
                    if slots.len() < n {
                        slots.resize(n, None);
                    }
                    slots[idx] = Some(conn_for_cb.clone());
                    slots.iter().all(|s| s.is_some())
                };
                if ready {
                    let (conns, config) = {
                        let mut l = listener.borrow_mut();
                        let slots = l.pending.remove(&key).expect("bundle present");
                        let conns: Vec<TcpConn> =
                            slots.into_iter().map(|s| s.expect("all present")).collect();
                        (conns, l.config.clone())
                    };
                    let ps = ParallelStream::assemble(world, conns, config);
                    let mut l = listener.borrow_mut();
                    (l.on_accept)(world, ps);
                }
            }));
        });
    }

    fn assemble(
        world: &mut SimWorld,
        conns: Vec<TcpConn>,
        config: ParallelStreamConfig,
    ) -> ParallelStream {
        let n = conns.len();
        let ps = ParallelStream {
            inner: Rc::new(RefCell::new(Inner {
                config,
                conns: conns.clone(),
                next_send_chunk: 0,
                pending_send: SegBuf::new(),
                closed: false,
                rx_partial: (0..n).map(|_| SegBuf::new()).collect(),
                chunks: BTreeMap::new(),
                next_deliver_chunk: 0,
                recv_buf: SegBuf::new(),
                readable_cb: None,
                notify_pending: false,
            })),
        };
        for (idx, conn) in conns.iter().enumerate() {
            let ps2 = ps.clone();
            let conn2 = conn.clone();
            conn.set_readable_callback(Box::new(move |world| {
                ps2.on_conn_readable(world, idx, &conn2);
            }));
            // Drain anything that arrived before we took over the callback.
            let ps3 = ps.clone();
            let conn3 = conn.clone();
            world.schedule_after(SimDuration::ZERO, move |world| {
                ps3.on_conn_readable(world, idx, &conn3);
            });
        }
        ps
    }

    /// Number of member connections.
    pub fn width(&self) -> usize {
        self.inner.borrow().conns.len()
    }

    /// The member TCP connections (for inspection in tests/experiments).
    pub fn members(&self) -> Vec<TcpConn> {
        self.inner.borrow().conns.clone()
    }

    fn flush(&self, world: &mut SimWorld) {
        loop {
            let (conn, header, body) = {
                let mut st = self.inner.borrow_mut();
                if st.pending_send.is_empty() {
                    return;
                }
                let take = st.config.chunk_size.min(st.pending_send.len());
                let chunk_id = st.next_send_chunk;
                st.next_send_chunk += 1;
                // The striped body is a zero-copy slice of the queued data.
                let body = st.pending_send.read_bytes(take);
                let mut header = Vec::with_capacity(CHUNK_HEADER_BYTES);
                header.extend_from_slice(&chunk_id.to_be_bytes());
                header.extend_from_slice(&(body.len() as u32).to_be_bytes());
                let conn = st.conns[(chunk_id % st.conns.len() as u64) as usize].clone();
                (conn, Bytes::from(header), body)
            };
            let body_len = body.len();
            let sent = conn.send_bytes_vectored(world, vec![header, body]);
            debug_assert_eq!(sent, CHUNK_HEADER_BYTES + body_len);
        }
    }

    fn on_conn_readable(&self, world: &mut SimWorld, idx: usize, conn: &TcpConn) {
        let mut got_any = false;
        let mut got_data = false;
        {
            let mut st = self.inner.borrow_mut();
            loop {
                let data = conn.recv_bytes(world, usize::MAX);
                if data.is_empty() {
                    break;
                }
                got_any = true;
                st.rx_partial[idx].push_bytes(data);
            }
            if !got_any {
                // A pure EOF (FIN with no payload) is still a readable
                // event per the ByteStream contract: once the members
                // finish, blocked readers must observe the bundle's end
                // instead of waiting forever for a notification that
                // carried no bytes.
                if conn.is_finished() {
                    drop(st);
                    self.schedule_notify(world);
                }
                return;
            }
            loop {
                let buf = &mut st.rx_partial[idx];
                let mut header = [0u8; CHUNK_HEADER_BYTES];
                if buf.copy_peek(&mut header) < CHUNK_HEADER_BYTES {
                    break;
                }
                let chunk_id = u64::from_be_bytes(header[0..8].try_into().unwrap());
                let len = u32::from_be_bytes(header[8..12].try_into().unwrap()) as usize;
                if buf.len() < CHUNK_HEADER_BYTES + len {
                    break;
                }
                buf.consume(CHUNK_HEADER_BYTES);
                // Zero-copy when the chunk body arrived in one segment.
                let body = buf.read_bytes(len);
                st.chunks.insert(chunk_id, body);
            }
            // Deliver chunks in order.
            while let Some(body) = {
                let next = st.next_deliver_chunk;
                st.chunks.remove(&next)
            } {
                st.recv_buf.push_bytes(body);
                st.next_deliver_chunk += 1;
                got_data = true;
            }
        }
        if got_data {
            self.schedule_notify(world);
        }
    }

    fn schedule_notify(&self, world: &mut SimWorld) {
        let should = {
            let mut st = self.inner.borrow_mut();
            if st.readable_cb.is_some() && !st.notify_pending {
                st.notify_pending = true;
                true
            } else {
                false
            }
        };
        if should {
            let this = self.clone();
            world.schedule_after(SimDuration::ZERO, move |world| {
                let cb = {
                    let mut st = this.inner.borrow_mut();
                    st.notify_pending = false;
                    st.readable_cb.take()
                };
                if let Some(mut cb) = cb {
                    cb(world);
                    let mut st = this.inner.borrow_mut();
                    if st.readable_cb.is_none() {
                        st.readable_cb = Some(cb);
                    }
                }
            });
        }
    }
}

impl ParallelStream {
    fn queue_send_parts(&self, world: &mut SimWorld, parts: Vec<Bytes>) -> usize {
        let len = {
            let mut st = self.inner.borrow_mut();
            if st.closed {
                return 0;
            }
            let mut len = 0;
            for data in parts {
                len += data.len();
                st.pending_send.push_bytes(data);
            }
            len
        };
        self.flush(world);
        len
    }
}

impl ByteStream for ParallelStream {
    fn send(&self, world: &mut SimWorld, data: &[u8]) -> usize {
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

    fn recv(&self, _world: &mut SimWorld, max: usize) -> Vec<u8> {
        if max == 0 || self.available() == 0 {
            return Vec::new();
        }
        self.inner.borrow_mut().recv_buf.read_into(max)
    }

    fn recv_bytes(&self, _world: &mut SimWorld, max: usize) -> Bytes {
        self.inner.borrow_mut().recv_buf.pop_chunk(max)
    }

    fn is_established(&self) -> bool {
        self.inner.borrow().conns.iter().all(|c| c.is_established())
    }

    fn is_finished(&self) -> bool {
        let st = self.inner.borrow();
        st.conns.iter().all(|c| c.is_finished()) && st.recv_buf.is_empty() && st.chunks.is_empty()
    }

    fn close(&self, world: &mut SimWorld) {
        self.flush(world);
        let conns = {
            let mut st = self.inner.borrow_mut();
            st.closed = true;
            st.conns.clone()
        };
        for c in conns {
            c.close(world);
        }
    }

    fn set_readable_callback(&self, cb: ReadableCallback) {
        self.inner.borrow_mut().readable_cb = Some(cb);
    }

    fn bytes_acked(&self) -> u64 {
        self.inner
            .borrow()
            .conns
            .iter()
            .map(|c| c.bytes_acked())
            .sum()
    }

    fn bytes_unacked(&self) -> u64 {
        let st = self.inner.borrow();
        st.conns.iter().map(|c| c.bytes_unacked()).sum::<u64>() + st.pending_send.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ByteStreamExt;
    use simnet::{topology, NetworkSpec};

    fn ps_pair(
        spec: NetworkSpec,
        config: ParallelStreamConfig,
    ) -> (
        SimWorld,
        ParallelStream,
        Rc<RefCell<Option<ParallelStream>>>,
    ) {
        let mut p = topology::pair_over(17, spec);
        let sa = TcpStack::new(&mut p.world, p.a);
        let sb = TcpStack::new(&mut p.world, p.b);
        let server: Rc<RefCell<Option<ParallelStream>>> = Rc::new(RefCell::new(None));
        let s2 = server.clone();
        ParallelStream::listen(&mut p.world, &sb, 2811, config.clone(), move |_w, ps| {
            *s2.borrow_mut() = Some(ps);
        });
        let client = ParallelStream::connect(&mut p.world, &sa, p.network, p.b, 2811, config);
        p.world.run();
        assert!(server.borrow().is_some(), "bundle should be accepted");
        (p.world, client, server)
    }

    #[test]
    fn bundle_establishes_with_requested_width() {
        let cfg = ParallelStreamConfig {
            n_streams: 4,
            chunk_size: 8 * 1024,
        };
        let (_w, client, server) = ps_pair(NetworkSpec::ethernet_100(), cfg);
        assert_eq!(client.width(), 4);
        assert_eq!(server.borrow().as_ref().unwrap().width(), 4);
        assert!(client.is_established());
    }

    #[test]
    fn data_is_reassembled_in_order() {
        for (n_streams, chunk_size, len) in [(3, 1000, 50_000u32), (4, 16 * 1024, 256 * 1024)] {
            let cfg = ParallelStreamConfig {
                n_streams,
                chunk_size,
            };
            let (mut world, client, server) = ps_pair(NetworkSpec::ethernet_100(), cfg);
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            client.send_all(&mut world, &data);
            world.run();
            let server = server.borrow().clone().unwrap();
            assert_eq!(server.recv_all(&mut world), data, "{n_streams} streams");
        }
    }

    #[test]
    fn single_stream_bundle_degenerates_to_tcp() {
        let cfg = ParallelStreamConfig {
            n_streams: 1,
            chunk_size: 4096,
        };
        let (mut world, client, server) = ps_pair(NetworkSpec::ethernet_100(), cfg);
        client.send_all(&mut world, b"just one lane");
        world.run();
        let server = server.borrow().clone().unwrap();
        assert_eq!(server.recv_all(&mut world), b"just one lane");
    }

    #[test]
    fn parallel_streams_beat_single_stream_on_lossy_wan() {
        let size = 6_000_000usize;
        let measure = |n_streams: usize| -> f64 {
            let cfg = ParallelStreamConfig {
                n_streams,
                chunk_size: 64 * 1024,
            };
            let (mut world, client, server) = ps_pair(NetworkSpec::vthd_wan(), cfg);
            let server = server.borrow().clone().unwrap();
            let received = Rc::new(RefCell::new(0usize));
            let r = received.clone();
            let s2 = server.clone();
            server.set_readable_callback(Box::new(move |world| {
                *r.borrow_mut() += s2.recv_all(world).len();
            }));
            let start = world.now();
            client.send_all(&mut world, &vec![0u8; size]);
            world.run_while(|| *received.borrow() < size);
            let secs = world.now().since(start).as_secs_f64();
            size as f64 / secs / 1e6
        };
        let single = measure(1);
        let parallel = measure(4);
        assert!(
            parallel > single * 1.15,
            "4 parallel streams ({parallel:.2} MB/s) should beat one stream ({single:.2} MB/s)"
        );
        assert!(
            parallel <= 12.6,
            "cannot exceed the access link: {parallel:.2} MB/s"
        );
    }

    #[test]
    fn bidirectional_traffic() {
        let cfg = ParallelStreamConfig {
            n_streams: 2,
            chunk_size: 2048,
        };
        let (mut world, client, server) = ps_pair(NetworkSpec::ethernet_100(), cfg);
        let server = server.borrow().clone().unwrap();
        client.send_all(&mut world, b"request");
        server.send_all(&mut world, b"response");
        world.run();
        assert_eq!(server.recv_all(&mut world), b"request");
        assert_eq!(client.recv_all(&mut world), b"response");
    }
}
