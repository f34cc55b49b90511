//! Closed-loop virtual clients on byte streams: a client posts one
//! self-framing chunk, the peer acks it with one byte once the whole
//! chunk has arrived, the client records the op and posts the next.
//! Shared by `wan_relay_stream` and the three rungs of ladder B.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use padico_core::{VLink, VLinkEvent};
use simnet::{SimDuration, SimTime, SimWorld};
use transport::{ByteStream, ParallelStream, TcpConn};

use crate::harness::{Call, Spans};
use crate::rungs::{Deframer, Messages, Sink};
use crate::workloads::SharedLog;

/// The stream operations a flow needs, over a `VLink` or a raw transport
/// stream, so every rung of ladder B runs the same client.
pub trait Pipe: Clone + 'static {
    /// Span label of `write`.
    const WRITE: Call;
    fn write(&self, world: &mut SimWorld, data: Bytes);
    /// One buffered segment, empty when nothing is buffered.
    fn read(&self, world: &mut SimWorld) -> Bytes;
    fn on_readable(&self, f: impl FnMut(&mut SimWorld) + 'static);
    fn close(&self, world: &mut SimWorld);
}

impl Pipe for VLink {
    const WRITE: Call = Call::VlinkPostWrite;
    fn write(&self, world: &mut SimWorld, data: Bytes) {
        self.post_write_bytes(world, data);
    }
    fn read(&self, world: &mut SimWorld) -> Bytes {
        self.read_now_bytes(world, usize::MAX)
    }
    fn on_readable(&self, mut f: impl FnMut(&mut SimWorld) + 'static) {
        self.set_handler(move |w, ev| {
            if ev == VLinkEvent::Readable {
                f(w);
            }
        });
    }
    fn close(&self, world: &mut SimWorld) {
        VLink::close(self, world);
    }
}

macro_rules! pipe_for_stream {
    ($ty:ty, $call:expr) => {
        impl Pipe for $ty {
            const WRITE: Call = $call;
            fn write(&self, world: &mut SimWorld, data: Bytes) {
                self.send_bytes(world, data);
            }
            fn read(&self, world: &mut SimWorld) -> Bytes {
                self.recv_bytes(world, usize::MAX)
            }
            fn on_readable(&self, f: impl FnMut(&mut SimWorld) + 'static) {
                self.set_readable_callback(Box::new(f));
            }
            fn close(&self, world: &mut SimWorld) {
                ByteStream::close(self, world);
            }
        }
    };
}
pipe_for_stream!(TcpConn, Call::TcpSend);
pipe_for_stream!(ParallelStream, Call::ParallelSend);

/// Echo side of a flow: counts and checks what arrives on `pipe`, acks
/// every complete chunk with one byte.
pub fn serve<P: Pipe>(pipe: &P, sink: Rc<Sink>) {
    let p = pipe.clone();
    let mut deframer = Deframer::default();
    pipe.on_readable(move |w| loop {
        let chunk = p.read(w);
        if chunk.is_empty() {
            break;
        }
        for _ in 0..deframer.feed(&chunk, &sink) {
            p.write(w, Bytes::from_static(&[1]));
        }
    });
}

/// What the flows of one world share: the op budget, the inputs, the
/// log, and the first thing that went wrong.
pub struct Shared {
    /// Ops issued so far, over all flows.
    pub issued: Cell<u64>,
    /// Ops the run will issue in total (warm-up included).
    pub total: u64,
    pub flows: u64,
    /// Chunks each flow keeps in flight.
    pub depth: usize,
    /// An op slower than this in virtual time has failed.
    pub timeout: SimDuration,
    pub messages: Rc<RefCell<Messages>>,
    pub log: SharedLog,
    pub spans: Rc<Spans>,
    pub failure: RefCell<Option<String>>,
}

impl Shared {
    pub fn fail(&self, why: String) {
        self.failure.borrow_mut().get_or_insert(why);
    }
}

struct InFlight {
    op: u64,
    start: SimTime,
    len: u64,
    /// Checksum the receiver must report (`None`: length check only).
    checksum: Option<u64>,
}

/// One closed-loop client with up to `depth` chunks in flight.
pub struct Flow<P: Pipe> {
    pipe: P,
    sink: Rc<Sink>,
    shared: Rc<Shared>,
    in_flight: RefCell<VecDeque<InFlight>>,
    sent: Cell<u64>,
    sent_bytes: Cell<u64>,
    acks: Cell<u64>,
}

impl<P: Pipe> Flow<P> {
    /// Wires a client onto `pipe`; `sink` belongs to its server.
    pub fn new(pipe: P, sink: Rc<Sink>, shared: Rc<Shared>) -> Rc<Flow<P>> {
        let flow = Rc::new(Flow {
            pipe: pipe.clone(),
            sink,
            shared,
            in_flight: RefCell::default(),
            sent: Cell::new(0),
            sent_bytes: Cell::new(0),
            acks: Cell::new(0),
        });
        let f = flow.clone();
        pipe.on_readable(move |w| {
            let mut n = 0;
            loop {
                let chunk = f.pipe.read(w);
                if chunk.is_empty() {
                    break;
                }
                n += chunk.len() as u64;
            }
            for _ in 0..n {
                f.acked(w);
            }
        });
        flow
    }

    /// Posts chunks until `depth` are in flight or the run's op budget is
    /// spent. The flow's first chunk and the run's last few are probes.
    pub fn fill(&self, world: &mut SimWorld) {
        let s = &self.shared;
        while self.in_flight.borrow().len() < s.depth && s.issued.get() < s.total {
            let op = s.issued.get();
            s.issued.set(op + 1);
            let probe = self.sent.get() == 0 || op + s.flows >= s.total;
            let (msg, checksum) = s.messages.borrow_mut().next(probe);
            self.in_flight.borrow_mut().push_back(InFlight {
                op,
                start: world.now(),
                len: msg.len() as u64,
                checksum,
            });
            self.sent.set(self.sent.get() + 1);
            self.sent_bytes
                .set(self.sent_bytes.get() + msg.len() as u64);
            let g = s.spans.enter(P::WRITE, op);
            self.pipe.write(world, msg);
            s.spans.exit(g);
        }
    }

    fn acked(&self, world: &mut SimWorld) {
        self.acks.set(self.acks.get() + 1);
        let Some(done) = self.in_flight.borrow_mut().pop_front() else {
            self.shared.fail("ack with no chunk in flight".to_string());
            return;
        };
        if done
            .checksum
            .is_some_and(|sum| !self.sink.probe_matches(sum))
        {
            self.shared
                .fail(format!("op {}: payload checksum mismatch", done.op));
            return;
        }
        let latency = world.now().since(done.start);
        if latency > self.shared.timeout {
            self.shared
                .fail(format!("op {}: took {latency:?} of virtual time", done.op));
            return;
        }
        self.shared.log.borrow_mut().record(latency, done.len);
        self.fill(world);
    }

    /// Sent, acked and received counts and bytes all agree.
    pub fn balanced(&self) -> Result<(), String> {
        self.sink.balanced(
            "flow",
            self.sent.get(),
            self.sent_bytes.get(),
            self.acks.get(),
        )
    }

    pub fn close(&self, world: &mut SimWorld) {
        self.pipe.close(world);
    }
}

/// What a closed-loop world has done so far and what it may still do.
pub struct Progress<'a> {
    pub log: &'a SharedLog,
    /// Ops the run issues in total.
    pub total: u64,
    pub failure: &'a RefCell<Option<String>>,
}

impl Shared {
    pub fn progress(&self) -> Progress<'_> {
        Progress {
            log: &self.log,
            total: self.total,
            failure: &self.failure,
        }
    }
}

/// Runs `world` until `n` more ops are logged. `Err` if a client
/// reported a failure or the world went idle first (an op stalled).
pub fn run_until_logged(
    world: &mut SimWorld,
    p: Progress<'_>,
    n: u64,
    spans: &Spans,
) -> Result<(), String> {
    let target = (p.log.borrow().ops() + n).min(p.total);
    let g = spans.enter(Call::RunWhile, u64::MAX);
    world.run_while(|| p.log.borrow().ops() < target && p.failure.borrow().is_none());
    spans.exit(g);
    if let Some(why) = p.failure.borrow().clone() {
        return Err(why);
    }
    let done = p.log.borrow().ops();
    if done < target {
        return Err(format!(
            "world went idle with {done} of {target} ops complete"
        ));
    }
    Ok(())
}
