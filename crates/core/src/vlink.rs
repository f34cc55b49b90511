//! VLink: the distributed-oriented abstract interface.
//!
//! A VLink is a connected, stream-oriented link with an *asynchronous*
//! programming model: operations are posted and complete later, completion
//! being observable either by polling the descriptor or through a handler.
//! This is exactly the shape needed to build both synchronous personalities
//! (`Vio`, `SysWrap`) and asynchronous ones (`Aio`) as thin wrappers.
//!
//! A VLink does not care what carries its bytes: the *driver* below it may
//! be a SysIO TCP connection, a stream over MadIO messages (CORBA over
//! Myrinet!), Parallel Streams on a WAN, an AdOC-compressed stream, a
//! secure stream, or an intra-node loopback. The selector picks the driver;
//! the interface never changes.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use simnet::{SimDuration, SimWorld};
use transport::{ByteStream, SegBuf};

/// The communication method carrying a VLink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VLinkMethod {
    /// Plain TCP through SysIO (straight adapter on distributed networks).
    SysIoTcp,
    /// Stream over MadIO messages (cross-paradigm adapter on a SAN).
    MadIo,
    /// Parallel TCP streams (WAN method).
    ParallelStreams {
        /// Number of member streams.
        width: usize,
    },
    /// AdOC adaptive online compression over TCP (slow-link method).
    Adoc,
    /// Authenticated/encrypted stream (inter-site method).
    Secure,
    /// Intra-node loopback.
    Loopback,
    /// Stream relayed through one or more gateway proxies because the
    /// endpoints share no network (see `relay::install_gateway_proxy`).
    Relayed {
        /// Number of networks the routed path crosses.
        hops: u32,
    },
}

/// Identifier of a posted (asynchronous) read operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadOp(u64);

/// Events reported to the VLink handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VLinkEvent {
    /// The link is established end to end.
    Connected,
    /// At least one posted read completed (or new data is available).
    Readable,
    /// The peer closed the link and all data has been consumed.
    Finished,
}

type EventHandler = Box<dyn FnMut(&mut SimWorld, VLinkEvent)>;

struct VLinkState {
    buffer: SegBuf,
    pending_reads: VecDeque<(u64, usize)>,
    completed_reads: HashMap<u64, Vec<u8>>,
    next_op: u64,
    handler: Option<EventHandler>,
    announced_connected: bool,
    announced_finished: bool,
    bytes_written: u64,
    bytes_read: u64,
    bytes_refused: u64,
}

/// A VLink descriptor.
#[derive(Clone)]
pub struct VLink {
    stream: Rc<dyn ByteStream>,
    state: Rc<RefCell<VLinkState>>,
    method: VLinkMethod,
    /// Fixed cost charged by the abstraction layer per write operation.
    op_overhead: SimDuration,
}

impl VLink {
    /// Default per-operation cost of the VLink layer.
    pub const DEFAULT_OP_OVERHEAD: SimDuration = SimDuration::from_nanos(350);

    /// Wraps an established (or connecting) byte stream as a VLink.
    pub fn from_stream(stream: Rc<dyn ByteStream>, method: VLinkMethod) -> VLink {
        let vlink = VLink {
            stream: stream.clone(),
            state: Rc::new(RefCell::new(VLinkState {
                buffer: SegBuf::new(),
                pending_reads: VecDeque::new(),
                completed_reads: HashMap::new(),
                next_op: 0,
                handler: None,
                announced_connected: false,
                announced_finished: false,
                bytes_written: 0,
                bytes_read: 0,
                bytes_refused: 0,
            })),
            method,
            op_overhead: Self::DEFAULT_OP_OVERHEAD,
        };
        let v = vlink.clone();
        stream.set_readable_callback(Box::new(move |world| {
            v.on_readable(world);
        }));
        vlink
    }

    /// The method carrying this link.
    pub fn method(&self) -> VLinkMethod {
        self.method
    }

    /// A weak handle on this link's state: it stops upgrading once every
    /// handle and every callback holding the link is gone.
    #[cfg(test)]
    pub(crate) fn state_probe(&self) -> std::rc::Weak<dyn std::any::Any> {
        let weak: std::rc::Weak<RefCell<VLinkState>> = Rc::downgrade(&self.state);
        weak
    }

    /// The underlying byte stream (for tests and adapters).
    pub fn stream(&self) -> Rc<dyn ByteStream> {
        self.stream.clone()
    }

    /// True once the link is established end to end.
    pub fn is_established(&self) -> bool {
        self.stream.is_established()
    }

    /// True once the peer closed and everything has been read.
    pub fn is_finished(&self) -> bool {
        self.stream.is_finished() && self.state.borrow().buffer.is_empty()
    }

    /// Bytes written / read through this descriptor so far.
    pub fn io_counters(&self) -> (u64, u64) {
        let st = self.state.borrow();
        (st.bytes_written, st.bytes_read)
    }

    /// Bytes a posted write lost because the driver refused them (the
    /// carrying stream died or was closed underneath). Flow-controlled
    /// drivers park instead of refusing, so this stays zero except across
    /// genuine faults.
    pub fn bytes_refused(&self) -> u64 {
        self.state.borrow().bytes_refused
    }

    /// Bytes the driver below has accepted but not yet delivered
    /// end-to-end (including bytes a flow-controlled trunk has parked
    /// waiting for credits): the occupancy signal store-and-forward
    /// splices use to pace themselves.
    pub fn driver_backlog(&self) -> u64 {
        self.stream.bytes_unacked()
    }

    /// Registers the completion handler. Events already due (connection,
    /// pending data) are re-announced on the next completion. The link
    /// drops its handler once it has announced [`VLinkEvent::Finished`].
    pub fn set_handler(&self, handler: impl FnMut(&mut SimWorld, VLinkEvent) + 'static) {
        self.state.borrow_mut().handler = Some(Box::new(handler));
    }

    /// Posts a write. The data is queued immediately; the VLink layer's
    /// fixed cost is charged before the bytes are handed to the driver.
    /// Returns the number of bytes accepted (always the full buffer for
    /// unbounded drivers).
    pub fn post_write(&self, world: &mut SimWorld, data: &[u8]) -> usize {
        self.post_write_bytes(world, Bytes::copy_from_slice(data))
    }

    /// Zero-copy variant of [`VLink::post_write`]: the chunk is handed to
    /// the driver by refcount, never copied. This is the fast path used by
    /// gateway relays to forward an arriving chunk onwards.
    pub fn post_write_bytes(&self, world: &mut SimWorld, data: Bytes) -> usize {
        let len = data.len();
        self.state.borrow_mut().bytes_written += len as u64;
        let stream = self.stream.clone();
        let state = self.state.clone();
        world.schedule_after(self.op_overhead, move |world| {
            let len = data.len();
            let sent = stream.send_bytes(world, data);
            if sent < len {
                // The driver died or closed under the posted write: the
                // bytes are lost and accounted, never silently retried.
                state.borrow_mut().bytes_refused += (len - sent) as u64;
            }
        });
        len
    }

    /// Posts a read of exactly `len` bytes. The operation completes once
    /// `len` bytes are available (or the link finishes early, in which case
    /// the completion holds whatever remained).
    pub fn post_read(&self, world: &mut SimWorld, len: usize) -> ReadOp {
        let op = {
            let mut st = self.state.borrow_mut();
            let id = st.next_op;
            st.next_op += 1;
            st.pending_reads.push_back((id, len));
            ReadOp(id)
        };
        // The read may already be satisfiable from buffered data.
        self.drain_completions(world);
        op
    }

    /// True if the read completed.
    pub fn test(&self, op: ReadOp) -> bool {
        self.state.borrow().completed_reads.contains_key(&op.0)
    }

    /// Takes the data of a completed read. Returns `None` while pending.
    pub fn complete_read(&self, op: ReadOp) -> Option<Vec<u8>> {
        self.state.borrow_mut().completed_reads.remove(&op.0)
    }

    /// Bytes available for immediate (synchronous) reading.
    pub fn available(&self) -> usize {
        self.state.borrow().buffer.len() + self.stream.available()
    }

    /// Reads up to `max` buffered bytes without posting an operation (used
    /// by the socket-like personalities).
    pub fn read_now(&self, world: &mut SimWorld, max: usize) -> Vec<u8> {
        if max == 0 {
            return Vec::new();
        }
        self.pull_from_stream(world);
        let mut st = self.state.borrow_mut();
        let n = max.min(st.buffer.len());
        st.bytes_read += n as u64;
        st.buffer.read_into(n)
    }

    /// Zero-copy variant of [`VLink::read_now`]: returns one buffered
    /// segment of at most `max` bytes, sharing the driver's storage. May
    /// return fewer bytes than are available; loop until empty to drain.
    pub fn read_now_bytes(&self, world: &mut SimWorld, max: usize) -> Bytes {
        if max == 0 {
            return Bytes::new();
        }
        self.pull_from_stream(world);
        let mut st = self.state.borrow_mut();
        let out = st.buffer.pop_chunk(max);
        st.bytes_read += out.len() as u64;
        out
    }

    /// Closes the link (pending writes are still delivered).
    pub fn close(&self, world: &mut SimWorld) {
        let stream = self.stream.clone();
        world.schedule_after(self.op_overhead, move |world| {
            stream.close(world);
        });
    }

    fn pull_from_stream(&self, world: &mut SimWorld) {
        // Drain the driver segment by segment; each chunk is queued by
        // refcount, not copied.
        loop {
            let data = self.stream.recv_bytes(world, usize::MAX);
            if data.is_empty() {
                break;
            }
            self.state.borrow_mut().buffer.push_bytes(data);
        }
    }

    fn drain_completions(&self, world: &mut SimWorld) {
        self.pull_from_stream(world);
        let finished = self.stream.is_finished();
        let mut completed_any = false;
        {
            let mut st = self.state.borrow_mut();
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(&(id, len)) = st.pending_reads.front() else {
                    break;
                };
                if st.buffer.len() >= len {
                    let data = st.buffer.read_into(len);
                    st.bytes_read += len as u64;
                    st.pending_reads.pop_front();
                    st.completed_reads.insert(id, data);
                    completed_any = true;
                } else if finished {
                    // Short read at end of stream.
                    let data = st.buffer.read_into(usize::MAX);
                    st.bytes_read += data.len() as u64;
                    st.pending_reads.pop_front();
                    st.completed_reads.insert(id, data);
                    completed_any = true;
                } else {
                    break;
                }
            }
        }
        let _ = completed_any;
    }

    fn on_readable(&self, world: &mut SimWorld) {
        self.drain_completions(world);
        // Announce events to the handler.
        let events = {
            let mut st = self.state.borrow_mut();
            let mut events = Vec::new();
            if !st.announced_connected && self.stream.is_established() {
                st.announced_connected = true;
                events.push(VLinkEvent::Connected);
            }
            if !st.buffer.is_empty() || !st.completed_reads.is_empty() {
                events.push(VLinkEvent::Readable);
            }
            if !st.announced_finished && self.stream.is_finished() && st.buffer.is_empty() {
                st.announced_finished = true;
                events.push(VLinkEvent::Finished);
            }
            events
        };
        let finished = events.last() == Some(&VLinkEvent::Finished);
        for ev in events {
            let handler = self.state.borrow_mut().handler.take();
            if let Some(mut h) = handler {
                h(world, ev);
                let mut st = self.state.borrow_mut();
                if st.handler.is_none() {
                    st.handler = Some(h);
                }
            }
        }
        if finished {
            // Nothing can follow Finished. The handler usually holds this
            // link and the driver's callback always does: release both so
            // the link and its driver are freed once the caller lets go.
            let handler = self.state.borrow_mut().handler.take();
            drop(handler);
            self.stream.set_readable_callback(Box::new(|_| {}));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimWorld;
    use transport::loopback_pair;

    fn vlink_pair() -> (SimWorld, VLink, VLink) {
        let mut world = SimWorld::new(0);
        let n = world.add_node("n");
        let (a, b) = loopback_pair(&world, n);
        let va = VLink::from_stream(Rc::new(a), VLinkMethod::Loopback);
        let vb = VLink::from_stream(Rc::new(b), VLinkMethod::Loopback);
        (world, va, vb)
    }

    #[test]
    fn post_write_and_read_exact() {
        let (mut world, va, vb) = vlink_pair();
        va.post_write(&mut world, b"0123456789");
        let op1 = vb.post_read(&mut world, 4);
        let op2 = vb.post_read(&mut world, 6);
        world.run();
        assert!(vb.test(op1));
        assert_eq!(vb.complete_read(op1).unwrap(), b"0123");
        assert_eq!(vb.complete_read(op2).unwrap(), b"456789");
        assert!(
            vb.complete_read(op2).is_none(),
            "completion is consumed once"
        );
        assert_eq!(va.io_counters().0, 10);
        assert_eq!(vb.io_counters().1, 10);
    }

    #[test]
    fn reads_posted_before_data_complete_later() {
        let (mut world, va, vb) = vlink_pair();
        let op = vb.post_read(&mut world, 5);
        world.run();
        assert!(!vb.test(op), "no data yet");
        va.post_write(&mut world, b"hello world");
        world.run();
        assert!(vb.test(op));
        assert_eq!(vb.complete_read(op).unwrap(), b"hello");
        assert_eq!(vb.read_now(&mut world, 100), b" world");
    }

    #[test]
    fn short_read_at_end_of_stream() {
        let (mut world, va, vb) = vlink_pair();
        va.post_write(&mut world, b"abc");
        va.close(&mut world);
        let op = vb.post_read(&mut world, 10);
        world.run();
        assert!(vb.test(op));
        assert_eq!(vb.complete_read(op).unwrap(), b"abc");
        assert!(vb.is_finished());
    }

    #[test]
    fn handler_receives_events() {
        let (mut world, va, vb) = vlink_pair();
        let events = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        vb.set_handler(move |_w, ev| e.borrow_mut().push(ev));
        va.post_write(&mut world, b"ping");
        world.run();
        assert!(events.borrow().contains(&VLinkEvent::Readable));
        va.close(&mut world);
        vb.read_now(&mut world, 100);
        world.run();
        assert!(events.borrow().contains(&VLinkEvent::Finished));
    }

    #[test]
    fn method_is_reported() {
        let (_world, va, _vb) = vlink_pair();
        assert_eq!(va.method(), VLinkMethod::Loopback);
    }

    #[test]
    fn write_charges_vlink_overhead() {
        let (mut world, va, _vb) = vlink_pair();
        va.post_write(&mut world, b"x");
        world.run();
        assert!(world.now().as_nanos() >= VLink::DEFAULT_OP_OVERHEAD.as_nanos());
    }
}
