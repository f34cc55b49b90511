//! Byte streams over MadIO messages: the cross-paradigm building block that
//! lets the distributed-oriented VLink interface run on parallel-oriented
//! hardware (e.g. CORBA over Myrinet).
//!
//! MadIO is message-based; a VLink is a connected stream. This module
//! implements a tiny connection protocol (CONNECT / ACCEPT / DATA / CLOSE)
//! on one MadIO tag so any number of logical streams share the SAN.
//!
//! A stream's CLOSE leaves after every DATA message it had already
//! scheduled, so the peer sees all the data before end of stream. The
//! driver forgets a stream once its own CLOSE is sent and the peer's has
//! arrived: nothing more can arrive for it, and the handles still held by
//! the layer above keep its buffered data readable.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use netaccess::{MadIO, MadIOMessage, MadIOTag};
use simnet::{SimDuration, SimWorld};
use transport::{ByteStream, ReadableCallback, SegBuf};

const KIND_CONNECT: u8 = 0;
const KIND_ACCEPT: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_CLOSE: u8 = 3;
const KIND_REFUSE: u8 = 4;

/// Header bytes of the stream-over-MadIO protocol.
const HEADER_BYTES: usize = 11;

fn encode_header(kind: u8, stream_id: u64, service: u16) -> Bytes {
    let mut b = BytesMut::with_capacity(HEADER_BYTES);
    b.extend_from_slice(&[kind]);
    b.extend_from_slice(&stream_id.to_be_bytes());
    b.extend_from_slice(&service.to_be_bytes());
    b.freeze()
}

struct StreamState {
    remote_rank: usize,
    stream_id: u64,
    established: bool,
    refused: bool,
    peer_closed: bool,
    self_closed: bool,
    /// The CLOSE message has actually been handed to MadIO.
    close_sent: bool,
    /// DATA messages scheduled but not yet handed to MadIO; a CLOSE waits
    /// for them.
    data_in_flight: u32,
    recv_buf: SegBuf,
    readable_cb: Option<ReadableCallback>,
    notify_pending: bool,
    bytes_sent: u64,
}

impl StreamState {
    fn new(remote_rank: usize, stream_id: u64, established: bool) -> StreamState {
        StreamState {
            remote_rank,
            stream_id,
            established,
            refused: false,
            peer_closed: false,
            self_closed: false,
            close_sent: false,
            data_in_flight: 0,
            recv_buf: SegBuf::new(),
            readable_cb: None,
            notify_pending: false,
            bytes_sent: 0,
        }
    }
}

/// One logical byte stream carried over MadIO messages.
#[derive(Clone)]
pub struct MadStream {
    driver: MadStreamDriver,
    state: Rc<RefCell<StreamState>>,
}

type AcceptCallback = Box<dyn FnMut(&mut SimWorld, MadStream)>;

struct DriverInner {
    madio: MadIO,
    /// Cost charged per DATA message by the stream emulation (marshalling a
    /// stream onto messages is not free; this is part of VLink's extra
    /// latency over Circuit).
    per_message_overhead: SimDuration,
    listeners: HashMap<u16, AcceptCallback>,
    streams: HashMap<u64, Rc<RefCell<StreamState>>>,
    next_stream_id: u64,
}

/// The per-node driver multiplexing every [`MadStream`] onto one MadIO tag.
#[derive(Clone)]
pub struct MadStreamDriver {
    inner: Rc<RefCell<DriverInner>>,
}

impl MadStreamDriver {
    /// Creates the driver and registers it on [`MadIOTag::VLINK`].
    pub fn new(world: &mut SimWorld, madio: MadIO) -> MadStreamDriver {
        let my_rank = madio.my_rank() as u64;
        let driver = MadStreamDriver {
            inner: Rc::new(RefCell::new(DriverInner {
                madio: madio.clone(),
                per_message_overhead: SimDuration::from_nanos(900),
                listeners: HashMap::new(),
                streams: HashMap::new(),
                // Stream ids are made globally unique by embedding the
                // initiator's rank in the upper bits.
                next_stream_id: my_rank << 40,
            })),
        };
        let d = driver.clone();
        madio.register(world, MadIOTag::VLINK, move |world, msg| {
            d.on_message(world, msg);
        });
        driver
    }

    /// Starts accepting streams on `service`.
    pub fn listen(&self, service: u16, on_accept: impl FnMut(&mut SimWorld, MadStream) + 'static) {
        self.inner
            .borrow_mut()
            .listeners
            .insert(service, Box::new(on_accept));
    }

    /// Stops accepting streams on `service`.
    pub fn unlisten(&self, service: u16) {
        self.inner.borrow_mut().listeners.remove(&service);
    }

    /// Streams the driver still demultiplexes to.
    #[cfg(test)]
    pub(crate) fn stream_count(&self) -> usize {
        self.inner.borrow().streams.len()
    }

    /// Opens a stream to the node of `remote_rank` (rank within the MadIO
    /// channel group) on `service`.
    pub fn connect(&self, world: &mut SimWorld, remote_rank: usize, service: u16) -> MadStream {
        let (madio, stream_id) = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_stream_id;
            inner.next_stream_id += 1;
            (inner.madio.clone(), id)
        };
        let state = Rc::new(RefCell::new(StreamState::new(
            remote_rank,
            stream_id,
            false,
        )));
        self.inner
            .borrow_mut()
            .streams
            .insert(stream_id, state.clone());
        madio.send(
            world,
            remote_rank,
            MadIOTag::VLINK,
            vec![(
                encode_header(KIND_CONNECT, stream_id, service),
                madeleine::SendMode::Safer,
            )],
        );
        MadStream {
            driver: self.clone(),
            state,
        }
    }

    fn on_message(&self, world: &mut SimWorld, msg: MadIOMessage) {
        if msg.segments.is_empty() || msg.segments[0].len() < HEADER_BYTES {
            return;
        }
        let header = &msg.segments[0];
        let kind = header[0];
        let stream_id = u64::from_be_bytes(header[1..9].try_into().unwrap());
        let service = u16::from_be_bytes(header[9..11].try_into().unwrap());
        match kind {
            KIND_CONNECT => {
                let has_listener = self.inner.borrow().listeners.contains_key(&service);
                let madio = self.inner.borrow().madio.clone();
                if !has_listener {
                    madio.send(
                        world,
                        msg.src_rank,
                        MadIOTag::VLINK,
                        vec![(
                            encode_header(KIND_REFUSE, stream_id, service),
                            madeleine::SendMode::Safer,
                        )],
                    );
                    return;
                }
                let state = Rc::new(RefCell::new(StreamState::new(
                    msg.src_rank,
                    stream_id,
                    true,
                )));
                self.inner
                    .borrow_mut()
                    .streams
                    .insert(stream_id, state.clone());
                madio.send(
                    world,
                    msg.src_rank,
                    MadIOTag::VLINK,
                    vec![(
                        encode_header(KIND_ACCEPT, stream_id, service),
                        madeleine::SendMode::Safer,
                    )],
                );
                let stream = MadStream {
                    driver: self.clone(),
                    state,
                };
                // Hand the new stream to the listener (take the callback out
                // so it may itself register new listeners).
                let cb = self.inner.borrow_mut().listeners.remove(&service);
                if let Some(mut cb) = cb {
                    cb(world, stream);
                    self.inner
                        .borrow_mut()
                        .listeners
                        .entry(service)
                        .or_insert(cb);
                }
            }
            KIND_ACCEPT | KIND_REFUSE | KIND_DATA | KIND_CLOSE => {
                let state = self.inner.borrow().streams.get(&stream_id).cloned();
                let Some(state) = state else { return };
                let stream = MadStream {
                    driver: self.clone(),
                    state: state.clone(),
                };
                match kind {
                    KIND_ACCEPT => state.borrow_mut().established = true,
                    KIND_REFUSE => {
                        let mut st = state.borrow_mut();
                        st.refused = true;
                        st.peer_closed = true;
                    }
                    KIND_DATA => {
                        let mut st = state.borrow_mut();
                        // The arriving MadIO segments are queued by
                        // refcount; the SAN payload is never copied again.
                        for seg in &msg.segments[1..] {
                            st.recv_buf.push_bytes(seg.clone());
                        }
                    }
                    KIND_CLOSE => {
                        state.borrow_mut().peer_closed = true;
                        stream.maybe_forget();
                    }
                    _ => unreachable!(),
                }
                if matches!(kind, KIND_DATA | KIND_CLOSE | KIND_REFUSE) {
                    stream.schedule_notify(world);
                }
            }
            _ => {}
        }
    }
}

impl MadStream {
    fn schedule_notify(&self, world: &mut SimWorld) {
        let should = {
            let mut st = self.state.borrow_mut();
            if st.readable_cb.is_some() && !st.notify_pending {
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

    /// Whether the peer refused the connection (no listener on the service).
    pub fn is_refused(&self) -> bool {
        self.state.borrow().refused
    }

    /// Hands this stream's CLOSE to MadIO.
    fn send_close(&self, world: &mut SimWorld) {
        let (remote_rank, stream_id) = {
            let mut st = self.state.borrow_mut();
            st.close_sent = true;
            (st.remote_rank, st.stream_id)
        };
        let madio = self.driver.inner.borrow().madio.clone();
        madio.send(
            world,
            remote_rank,
            MadIOTag::VLINK,
            vec![(
                encode_header(KIND_CLOSE, stream_id, 0),
                madeleine::SendMode::Safer,
            )],
        );
        self.maybe_forget();
    }

    /// Drops the driver's entry once both CLOSEs have crossed: the peer
    /// sends nothing after its CLOSE, so no message can need the entry.
    fn maybe_forget(&self) {
        let (id, done) = {
            let st = self.state.borrow();
            (st.stream_id, st.close_sent && st.peer_closed)
        };
        if done {
            self.driver.inner.borrow_mut().streams.remove(&id);
        }
    }
}

impl MadStream {
    /// Queues one DATA message carrying `payload` (already refcounted; the
    /// emulation adds its header as a combined segment, so the payload is
    /// never copied by the stream layer).
    fn queue_send(&self, world: &mut SimWorld, payload: Bytes) -> usize {
        let (madio, overhead) = {
            let inner = self.driver.inner.borrow();
            (inner.madio.clone(), inner.per_message_overhead)
        };
        let (remote_rank, stream_id, closed) = {
            let st = self.state.borrow();
            (
                st.remote_rank,
                st.stream_id,
                st.self_closed || st.peer_closed,
            )
        };
        if closed {
            return 0;
        }
        let len = payload.len();
        {
            let mut st = self.state.borrow_mut();
            st.bytes_sent += len as u64;
            st.data_in_flight += 1;
        }
        let header = encode_header(KIND_DATA, stream_id, 0);
        // The stream emulation charges its per-message cost before handing
        // the message to MadIO.
        let stream = self.clone();
        world.schedule_after(overhead, move |world| {
            madio.send(
                world,
                remote_rank,
                MadIOTag::VLINK,
                vec![
                    (header, madeleine::SendMode::Safer),
                    (payload, madeleine::SendMode::Cheaper),
                ],
            );
            let close_now = {
                let mut st = stream.state.borrow_mut();
                st.data_in_flight -= 1;
                st.data_in_flight == 0 && st.self_closed && !st.close_sent
            };
            if close_now {
                stream.send_close(world);
            }
        });
        len
    }
}

impl ByteStream for MadStream {
    fn send(&self, world: &mut SimWorld, data: &[u8]) -> usize {
        self.queue_send(world, Bytes::copy_from_slice(data))
    }

    fn send_bytes(&self, world: &mut SimWorld, data: Bytes) -> usize {
        self.queue_send(world, data)
    }

    fn available(&self) -> usize {
        self.state.borrow().recv_buf.len()
    }

    fn recv(&self, _world: &mut SimWorld, max: usize) -> Vec<u8> {
        // Early out before touching the state when there is nothing to do
        // (`max == 0` reads and spurious wakeups on an empty buffer).
        if max == 0 || self.available() == 0 {
            return Vec::new();
        }
        self.state.borrow_mut().recv_buf.read_into(max)
    }

    fn recv_bytes(&self, _world: &mut SimWorld, max: usize) -> Bytes {
        self.state.borrow_mut().recv_buf.pop_chunk(max)
    }

    fn is_established(&self) -> bool {
        self.state.borrow().established
    }

    fn is_finished(&self) -> bool {
        let st = self.state.borrow();
        st.peer_closed && st.recv_buf.is_empty()
    }

    fn close(&self, world: &mut SimWorld) {
        let close_now = {
            let mut st = self.state.borrow_mut();
            let first = !st.self_closed;
            st.self_closed = true;
            // With DATA still scheduled, the last of it sends the CLOSE.
            first && st.data_in_flight == 0
        };
        if close_now {
            self.send_close(world);
        }
    }

    fn set_readable_callback(&self, cb: ReadableCallback) {
        self.state.borrow_mut().readable_cb = Some(cb);
    }

    fn bytes_acked(&self) -> u64 {
        // The SAN is lossless: everything handed to MadIO is delivered.
        self.state.borrow().bytes_sent
    }

    fn bytes_unacked(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaccess::NetAccess;
    use simnet::topology;
    use transport::ByteStreamExt;

    fn setup() -> (SimWorld, MadStreamDriver, MadStreamDriver) {
        let p = topology::san_pair(41);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let na0 = NetAccess::new(&mut world, p.a, Some((p.san, nodes.clone())));
        let na1 = NetAccess::new(&mut world, p.b, Some((p.san, nodes.clone())));
        let d0 = MadStreamDriver::new(&mut world, na0.madio());
        let d1 = MadStreamDriver::new(&mut world, na1.madio());
        (world, d0, d1)
    }

    #[test]
    fn connect_accept_and_exchange() {
        let (mut world, d0, d1) = setup();
        let accepted: Rc<RefCell<Option<MadStream>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        d1.listen(42, move |_w, s| *a.borrow_mut() = Some(s));
        let client = d0.connect(&mut world, 1, 42);
        world.run();
        assert!(client.is_established());
        let server = accepted.borrow().clone().unwrap();
        client.send_all(&mut world, b"corba request over the SAN");
        server.send_all(&mut world, b"reply");
        world.run();
        assert_eq!(server.recv_all(&mut world), b"corba request over the SAN");
        assert_eq!(client.recv_all(&mut world), b"reply");
    }

    #[test]
    fn connect_to_missing_service_is_refused() {
        let (mut world, d0, _d1) = setup();
        let client = d0.connect(&mut world, 1, 999);
        world.run();
        assert!(client.is_refused());
        assert!(!client.is_established());
        assert_eq!(client.send(&mut world, b"x"), 0);
    }

    #[test]
    fn close_is_propagated() {
        let (mut world, d0, d1) = setup();
        let accepted: Rc<RefCell<Option<MadStream>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        d1.listen(7, move |_w, s| *a.borrow_mut() = Some(s));
        let client = d0.connect(&mut world, 1, 7);
        world.run();
        client.send_all(&mut world, b"last words");
        client.close(&mut world);
        world.run();
        let server = accepted.borrow().clone().unwrap();
        assert_eq!(server.recv_all(&mut world), b"last words");
        assert!(server.is_finished());
    }

    /// Connects `d0` to `d1` and returns both ends of the stream.
    fn connected(
        world: &mut SimWorld,
        d0: &MadStreamDriver,
        d1: &MadStreamDriver,
    ) -> (MadStream, MadStream) {
        let accepted: Rc<RefCell<Option<MadStream>>> = Rc::new(RefCell::new(None));
        let a = accepted.clone();
        d1.listen(9, move |_w, s| *a.borrow_mut() = Some(s));
        let client = d0.connect(world, 1, 9);
        world.run();
        let server = accepted.borrow_mut().take().unwrap();
        (client, server)
    }

    #[test]
    fn close_waits_for_the_data_written_before_it() {
        let (mut world, d0, d1) = setup();
        let (client, server) = connected(&mut world, &d0, &d1);
        // What the receiver sees at each notification: bytes so far and
        // whether the stream had finished.
        let seen: Rc<RefCell<Vec<(usize, bool)>>> = Rc::default();
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        let (s, g, server2) = (seen.clone(), got.clone(), server.clone());
        server.set_readable_callback(Box::new(move |world| {
            g.borrow_mut().extend(server2.recv_all(world));
            s.borrow_mut()
                .push((g.borrow().len(), server2.is_finished()));
        }));
        let bulk: Vec<u8> = (0..100_000usize).map(|i| (i % 251) as u8).collect();
        client.send_all(&mut world, b"0123456789");
        client.send_all(&mut world, &bulk);
        client.close(&mut world);
        world.run();
        let want = [&b"0123456789"[..], &bulk].concat();
        assert_eq!(*got.borrow(), want);
        let seen = seen.borrow();
        assert_eq!(seen.last(), Some(&(want.len(), true)), "{seen:?}");
        assert!(
            seen.iter().all(|&(n, fin)| !fin || n == want.len()),
            "end of stream announced before the data: {seen:?}"
        );
    }

    #[test]
    fn vlink_over_madio_announces_finished_after_the_data() {
        use crate::vlink::{VLink, VLinkEvent, VLinkMethod};
        let (mut world, d0, d1) = setup();
        let (client, server) = connected(&mut world, &d0, &d1);
        let client = VLink::from_stream(Rc::new(client), VLinkMethod::MadIo);
        let server = VLink::from_stream(Rc::new(server), VLinkMethod::MadIo);
        let events: Rc<RefCell<Vec<(VLinkEvent, usize)>>> = Rc::default();
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        let (e, g, server2) = (events.clone(), got.clone(), server.clone());
        server.set_handler(move |world, ev| {
            g.borrow_mut().extend(server2.read_now(world, usize::MAX));
            e.borrow_mut().push((ev, g.borrow().len()));
        });
        client.post_write(&mut world, b"0123456789");
        client.close(&mut world);
        world.run();
        assert_eq!(*got.borrow(), b"0123456789");
        let events = events.borrow();
        assert_eq!(
            events.last(),
            Some(&(VLinkEvent::Finished, 10)),
            "{events:?}"
        );
        assert_eq!(
            events
                .iter()
                .filter(|(ev, _)| *ev == VLinkEvent::Finished)
                .count(),
            1,
            "{events:?}"
        );
    }

    #[test]
    fn streams_are_forgotten_once_both_closes_cross() {
        let (mut world, d0, d1) = setup();
        let (client, server) = connected(&mut world, &d0, &d1);
        client.send_all(&mut world, b"request");
        client.close(&mut world);
        world.run();
        assert_eq!(d0.stream_count(), 1, "the peer has not closed yet");
        assert_eq!(server.recv_all(&mut world), b"request");
        server.close(&mut world);
        world.run();
        assert_eq!((d0.stream_count(), d1.stream_count()), (0, 0));
        assert!(client.is_finished() && server.is_finished());
    }

    #[test]
    fn many_streams_share_one_tag() {
        let (mut world, d0, d1) = setup();
        let accepted: Rc<RefCell<Vec<MadStream>>> = Rc::new(RefCell::new(Vec::new()));
        let a = accepted.clone();
        d1.listen(5, move |_w, s| a.borrow_mut().push(s));
        let clients: Vec<MadStream> = (0..8).map(|_| d0.connect(&mut world, 1, 5)).collect();
        world.run();
        assert_eq!(accepted.borrow().len(), 8);
        for (i, c) in clients.iter().enumerate() {
            c.send_all(&mut world, format!("stream {i}").as_bytes());
        }
        world.run();
        let mut got: Vec<String> = accepted
            .borrow()
            .iter()
            .map(|s| String::from_utf8(s.recv_all(&mut world)).unwrap())
            .collect();
        got.sort();
        let mut want: Vec<String> = (0..8).map(|i| format!("stream {i}")).collect();
        want.sort();
        assert_eq!(got, want);
    }
}
