//! One request / 1-byte-ack exchange at each layer's own public entry
//! point on the SAN pair: the eight rungs of ladder A. The five top
//! rungs are also the five personalities that coexist in the `san_*`
//! workloads' world.
//!
//! Every rung sends the same self-framing message: its first four bytes
//! hold its total length (big-endian), so stream rungs need no extra
//! framing write and message rungs carry the identical buffer.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use madeleine::{Madeleine, SendMode};
use middleware::{IdlValue, JavaServerSocket, JavaSocket, MpiComm, Orb, OrbImpl};
use netaccess::{MadIOTag, NetAccess};
use padico_core::{PadicoRuntime, VLink, VLinkEvent};
use simnet::{Frame, NetworkId, NodeId, ProtoId, SimRng, SimWorld};

use crate::harness::{Call, Fnv, Spans};

/// The eight rungs, bottom up; `parent` gives the ladder's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    Frame,
    Madeleine,
    MadIo,
    Circuit,
    Mpi,
    VLink,
    Corba,
    Java,
}

impl Rung {
    pub const ALL: [Rung; 8] = [
        Rung::Frame,
        Rung::Madeleine,
        Rung::MadIo,
        Rung::Circuit,
        Rung::Mpi,
        Rung::VLink,
        Rung::Corba,
        Rung::Java,
    ];

    /// Layer name (`crate.module`) used in metric names.
    pub fn layer(self) -> &'static str {
        match self {
            Rung::Frame => "simnet.frame",
            Rung::Madeleine => "madeleine.channel",
            Rung::MadIo => "netaccess.madio",
            Rung::Circuit => "core.circuit",
            Rung::Mpi => "middleware.mpi",
            Rung::VLink => "core.vlink",
            Rung::Corba => "middleware.corba",
            Rung::Java => "middleware.javasock",
        }
    }

    /// The rung this one is built on (`None` for the bottom).
    pub fn parent(self) -> Option<Rung> {
        match self {
            Rung::Frame => None,
            Rung::Madeleine => Some(Rung::Frame),
            Rung::MadIo => Some(Rung::Madeleine),
            Rung::Circuit | Rung::VLink => Some(Rung::MadIo),
            Rung::Mpi => Some(Rung::Circuit),
            Rung::Corba | Rung::Java => Some(Rung::VLink),
        }
    }

    fn send_call(self) -> Call {
        match self {
            Rung::Frame => Call::SendFrame,
            Rung::Madeleine => Call::MadPack,
            Rung::MadIo => Call::MadIoSend,
            Rung::Circuit => Call::CircuitSend,
            Rung::Mpi => Call::MpiSend,
            Rung::VLink => Call::VlinkPostWrite,
            Rung::Corba => Call::OrbInvoke,
            Rung::Java => Call::JavaWrite,
        }
    }
}

// --------------------------------------------------------------------- //
// Messages
// --------------------------------------------------------------------- //

/// The messages one run sends: a few variants of slightly different
/// length plus one *probe*, built once, outside any timed region.
/// Lengths and contents both come from the seed, but the variant lengths
/// always average exactly `centre`: a seed changes which sizes a run
/// sees (so its latency percentiles differ in the low digits) without
/// changing how many bytes it moves (so goodput does not ride on the
/// draw).
///
/// A message's first word is its own length. The probe also has that
/// word's top bit set, which asks the receiver to checksum it: the first
/// and last ops of a run send the probe, every other op a variant, and
/// no flag has to be shared between the two ends.
pub struct Messages {
    variants: Vec<Bytes>,
    probe: (Bytes, u64),
    rng: SimRng,
}

const PROBE_BIT: u32 = 1 << 31;

impl Messages {
    pub const VARIANTS: usize = 16;

    /// `VARIANTS` messages with lengths in `centre ± spread`, and a probe
    /// of length `centre`.
    pub fn new(seed: u64, centre: usize, spread: usize) -> Messages {
        assert!(
            centre - spread >= 8,
            "a message holds at least its own length"
        );
        assert!(centre + spread < PROBE_BIT as usize);
        let mut rng = SimRng::seeded(seed ^ 0x6d65_7373_6167_6573);
        let (lo, hi) = ((centre - spread) as u64, (centre + spread) as u64);
        let lengths = loop {
            let mut l: Vec<u64> = (1..Self::VARIANTS)
                .map(|_| rng.gen_range(lo, hi + 1))
                .collect();
            let last = (Self::VARIANTS * centre) as i64 - l.iter().sum::<u64>() as i64;
            if (lo as i64..=hi as i64).contains(&last) {
                l.push(last as u64);
                break l;
            }
        };
        let mut message = |len: usize, flag: u32| {
            let mut buf = vec![0u8; len];
            for chunk in buf.chunks_mut(8) {
                let word = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
            buf[..4].copy_from_slice(&(len as u32 | flag).to_be_bytes());
            buf
        };
        let variants = lengths
            .into_iter()
            .map(|len| Bytes::from(message(len as usize, 0)))
            .collect();
        let probe = message(centre, PROBE_BIT);
        let sum = Fnv::of(&probe);
        Messages {
            variants,
            probe: (Bytes::from(probe), sum),
            rng,
        }
    }

    /// Draws the next message.
    fn draw(&mut self) -> Bytes {
        let i = self.rng.gen_range(0, Self::VARIANTS as u64) as usize;
        self.variants[i].clone()
    }

    /// The probe and its checksum when `probe` is set, else a draw.
    pub fn next(&mut self, probe: bool) -> (Bytes, Option<u64>) {
        if probe {
            (self.probe.0.clone(), Some(self.probe.1))
        } else {
            (self.draw(), None)
        }
    }
}

// --------------------------------------------------------------------- //
// Receiver-side accounting
// --------------------------------------------------------------------- //

/// What the echo side of one rung or flow received. Lengths are checked
/// on every message (the embedded length against what arrived); probes
/// are also checksummed, in arrival order.
#[derive(Default)]
pub struct Sink {
    pub messages: Cell<u64>,
    pub bytes: Cell<u64>,
    /// Messages whose embedded length disagreed with what arrived.
    pub bad_length: Cell<u64>,
    /// Checksums of the probes received and not yet compared.
    checksums: RefCell<VecDeque<u64>>,
}

impl Sink {
    pub fn new() -> Rc<Sink> {
        Rc::default()
    }

    /// True if an uncompared probe arrived with checksum `sum` (and
    /// forgets it). Concurrent clients may complete in any order.
    pub fn probe_matches(&self, sum: u64) -> bool {
        let mut seen = self.checksums.borrow_mut();
        let at = seen.iter().position(|&s| s == sum);
        at.is_some_and(|i| seen.remove(i).is_some())
    }

    fn bad(&self) {
        self.bad_length.set(self.bad_length.get() + 1);
    }

    /// Checks that what arrived here is exactly what `who` sent and saw
    /// acked, and that no length check failed.
    pub fn balanced(&self, who: &str, sent: u64, sent_bytes: u64, acks: u64) -> Result<(), String> {
        if acks == sent
            && self.messages.get() == sent
            && self.bytes.get() == sent_bytes
            && self.bad_length.get() == 0
        {
            return Ok(());
        }
        Err(format!(
            "{who}: sent {sent} messages / {sent_bytes} B, acked {acks}, received {} messages / \
             {} B, {} bad lengths",
            self.messages.get(),
            self.bytes.get(),
            self.bad_length.get()
        ))
    }

    /// Accounts one whole message delivered as `segments`.
    fn message<'a>(&self, segments: impl Iterator<Item = &'a [u8]> + Clone) {
        let len: usize = segments.clone().map(<[u8]>::len).sum();
        let mut head = [0u8; 4];
        let mut have = 0;
        for s in segments.clone() {
            let n = s.len().min(4 - have);
            head[have..have + n].copy_from_slice(&s[..n]);
            have += n;
            if have == 4 {
                break;
            }
        }
        let word = u32::from_be_bytes(head);
        if have < 4 || (word & !PROBE_BIT) as usize != len {
            self.bad();
        }
        if word & PROBE_BIT != 0 {
            let mut h = Fnv::default();
            segments.for_each(|s| h.write(s));
            self.checksums.borrow_mut().push_back(h.0);
        }
        self.messages.set(self.messages.get() + 1);
        self.bytes.set(self.bytes.get() + len as u64);
    }
}

/// Splits a byte stream back into self-framing messages without
/// buffering them.
#[derive(Default)]
pub struct Deframer {
    head: [u8; 4],
    head_have: usize,
    remaining: usize,
    /// `Some` while the message being received is a probe.
    hash: Option<Fnv>,
}

impl Deframer {
    /// Feeds one chunk; returns how many messages it completed.
    pub fn feed(&mut self, mut chunk: &[u8], sink: &Sink) -> u32 {
        let mut completed = 0;
        while !chunk.is_empty() {
            if self.remaining == 0 {
                let n = chunk.len().min(4 - self.head_have);
                self.head[self.head_have..self.head_have + n].copy_from_slice(&chunk[..n]);
                self.head_have += n;
                chunk = &chunk[n..];
                if self.head_have < 4 {
                    break;
                }
                self.head_have = 0;
                let word = u32::from_be_bytes(self.head);
                let len = (word & !PROBE_BIT) as usize;
                if len <= 4 {
                    sink.bad();
                    continue;
                }
                self.remaining = len - 4;
                self.hash = (word & PROBE_BIT != 0).then(|| {
                    let mut h = Fnv::default();
                    h.write(&self.head);
                    h
                });
                sink.bytes.set(sink.bytes.get() + 4);
            }
            let n = chunk.len().min(self.remaining);
            if let Some(h) = &mut self.hash {
                h.write(&chunk[..n]);
            }
            sink.bytes.set(sink.bytes.get() + n as u64);
            self.remaining -= n;
            chunk = &chunk[n..];
            if self.remaining == 0 {
                if let Some(h) = self.hash.take() {
                    sink.checksums.borrow_mut().push_back(h.0);
                }
                sink.messages.set(sink.messages.get() + 1);
                completed += 1;
            }
        }
        completed
    }
}

// --------------------------------------------------------------------- //
// Exchanges
// --------------------------------------------------------------------- //

type SendFn = Box<dyn Fn(&mut SimWorld, &Bytes)>;

/// A client that can send one message through a rung and see its ack.
pub struct Exchange {
    pub rung: Rung,
    send: SendFn,
    /// Acks the client has seen.
    pub acks: Rc<Cell<u64>>,
    /// Messages the client has sent.
    pub sent: u64,
    pub sent_bytes: u64,
    pub sink: Rc<Sink>,
}

impl Exchange {
    fn new(rung: Rung, send: SendFn, acks: Rc<Cell<u64>>, sink: Rc<Sink>) -> Exchange {
        Exchange {
            rung,
            send,
            acks,
            sent: 0,
            sent_bytes: 0,
            sink,
        }
    }

    /// Posts one message (does not run the world).
    pub fn post(&mut self, world: &mut SimWorld, spans: &Spans, op: u64, msg: &Bytes) {
        let g = spans.enter(self.rung.send_call(), op);
        (self.send)(world, msg);
        spans.exit(g);
        self.sent += 1;
        self.sent_bytes += msg.len() as u64;
    }

    /// True once every posted message has been acked.
    pub fn settled(&self) -> bool {
        self.acks.get() == self.sent
    }

    /// Sent, acked, and received counts and bytes all agree, and no
    /// length check failed.
    pub fn balanced(&self) -> Result<(), String> {
        self.sink.balanced(
            self.rung.layer(),
            self.sent,
            self.sent_bytes,
            self.acks.get(),
        )
    }
}

const ACK: &[u8] = &[1];
const PING: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 51);
const PONG: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 52);

fn counter() -> (Rc<Cell<u64>>, impl Fn() + Clone) {
    let c = Rc::new(Cell::new(0u64));
    let c2 = c.clone();
    (c, move || c2.set(c2.get() + 1))
}

/// `simnet.frame`: raw `send_frame` / `register_handler`.
pub fn frame_exchange(world: &mut SimWorld, san: NetworkId, a: NodeId, b: NodeId) -> Exchange {
    let sink = Sink::new();
    let s = sink.clone();
    world.register_handler(b, PING, move |w, net, f| {
        s.message(std::iter::once(&f.payload[..]));
        w.send_frame(net, Frame::new(b, a, PONG, Bytes::from_static(ACK)))
            .expect("ack frame");
    });
    let (acks, bump) = counter();
    world.register_handler(a, PONG, move |_w, _net, _f| bump());
    Exchange::new(
        Rung::Frame,
        Box::new(move |w, msg| {
            w.send_frame(san, Frame::new(a, b, PING, msg.clone()))
                .expect("request frame");
        }),
        acks,
        sink,
    )
}

/// `madeleine.channel`: `begin_packing` / `pack` / `end_packing`.
pub fn madeleine_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    san: NetworkId,
    nodes: [NodeId; 2],
) -> Exchange {
    let g = spans.enter(Call::MadOpen, u64::MAX);
    let open = |world: &mut SimWorld, n: NodeId| {
        Madeleine::new(world, n, san)
            .open_channel(nodes.to_vec())
            .expect("a free Myrinet hardware channel")
    };
    let c0 = open(world, nodes[0]);
    let c1 = open(world, nodes[1]);
    spans.exit(g);
    let sink = Sink::new();
    let s = sink.clone();
    let c1b = c1.clone();
    c1.set_message_callback(move |w, m| {
        s.message(m.segments.iter().map(|seg| &seg.data[..]));
        let mut pk = c1b.begin_packing(0).expect("rank 0 exists");
        pk.pack(Bytes::from_static(ACK), SendMode::Cheaper);
        pk.end_packing(w);
    });
    let (acks, bump) = counter();
    c0.set_message_callback(move |_w, _m| bump());
    Exchange::new(
        Rung::Madeleine,
        Box::new(move |w, msg| {
            let mut pk = c0.begin_packing(1).expect("rank 1 exists");
            pk.pack(msg.clone(), SendMode::Cheaper);
            pk.end_packing(w);
        }),
        acks,
        sink,
    )
}

/// `netaccess.madio`: `MadIO::send_bytes` / `register`.
pub fn madio_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    san: NetworkId,
    nodes: [NodeId; 2],
) -> Exchange {
    let g = spans.enter(Call::MadIoNew, u64::MAX);
    let io0 = NetAccess::new(world, nodes[0], Some((san, nodes.to_vec()))).madio();
    let io1 = NetAccess::new(world, nodes[1], Some((san, nodes.to_vec()))).madio();
    spans.exit(g);
    let tag = MadIOTag::user(0);
    let sink = Sink::new();
    let s = sink.clone();
    let io1b = io1.clone();
    io1.register(world, tag, move |w, m| {
        s.message(m.segments.iter().map(|seg| &seg[..]));
        io1b.send_bytes(w, 0, tag, Bytes::from_static(ACK));
    });
    let (acks, bump) = counter();
    io0.register(world, tag, move |_w, _m| bump());
    Exchange::new(
        Rung::MadIo,
        Box::new(move |w, msg| io0.send_bytes(w, 1, tag, msg.clone())),
        acks,
        sink,
    )
}

/// `core.circuit`: `circuit_create` on both runtimes, `send_bytes`.
pub fn circuit_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    let g = spans.enter(Call::CircuitCreate, u64::MAX);
    let c0 = rts[0].circuit_create(world, nodes.to_vec(), 70);
    let c1 = rts[1].circuit_create(world, nodes.to_vec(), 70);
    spans.exit(g);
    let sink = Sink::new();
    let s = sink.clone();
    let c1b = c1.clone();
    c1.set_message_callback(move |w, m| {
        s.message(m.segments.iter().map(|seg| &seg[..]));
        c1b.send_bytes(w, 0, Bytes::from_static(ACK));
    });
    let (acks, bump) = counter();
    c0.set_message_callback(move |_w, _m| bump());
    Exchange::new(
        Rung::Circuit,
        Box::new(move |w, msg| c0.send_bytes(w, 1, msg.clone())),
        acks,
        sink,
    )
}

/// `middleware.mpi`: `MpiComm` over its own Circuit, `send` / `recv`.
pub fn mpi_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    const REQUEST: i32 = 5;
    const REPLY: i32 = 6;
    let g = spans.enter(Call::CircuitCreate, u64::MAX);
    let c0 = rts[0].circuit_create(world, nodes.to_vec(), 71);
    let c1 = rts[1].circuit_create(world, nodes.to_vec(), 71);
    spans.exit(g);
    let g = spans.enter(Call::MpiNew, u64::MAX);
    let m0 = MpiComm::new(world, c0);
    let m1 = MpiComm::new(world, c1);
    spans.exit(g);

    // Rank 1 acks every request and re-posts its receive.
    fn serve(world: &mut SimWorld, comm: MpiComm, sink: Rc<Sink>) {
        let c = comm.clone();
        comm.recv(world, Some(0), Some(REQUEST), move |w, m| {
            sink.message(std::iter::once(&m.data[..]));
            c.send(w, 0, REPLY, ACK);
            serve(w, c.clone(), sink);
        });
    }
    let sink = Sink::new();
    serve(world, m1, sink.clone());

    fn collect(world: &mut SimWorld, comm: MpiComm, bump: impl Fn() + Clone + 'static) {
        let c = comm.clone();
        comm.recv(world, Some(1), Some(REPLY), move |w, _m| {
            bump();
            collect(w, c.clone(), bump);
        });
    }
    let (acks, bump) = counter();
    collect(world, m0.clone(), bump);
    Exchange::new(
        Rung::Mpi,
        Box::new(move |w, msg| m0.send(w, 1, REQUEST, msg)),
        acks,
        sink,
    )
}

/// `core.vlink`: `vlink_listen` / `vlink_connect`, `post_write_bytes`.
pub fn vlink_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    let sink = Sink::new();
    let s = sink.clone();
    let g = spans.enter(Call::VlinkListen, u64::MAX);
    rts[1].vlink_listen(world, 400, move |_w, server: VLink| {
        let (s, v) = (s.clone(), server.clone());
        let deframer = RefCell::new(Deframer::default());
        server.set_handler(move |w, ev| {
            if ev != VLinkEvent::Readable {
                return;
            }
            loop {
                let chunk = v.read_now_bytes(w, usize::MAX);
                if chunk.is_empty() {
                    break;
                }
                for _ in 0..deframer.borrow_mut().feed(&chunk, &s) {
                    v.post_write_bytes(w, Bytes::from_static(ACK));
                }
            }
        });
    });
    spans.exit(g);
    let g = spans.enter(Call::VlinkConnect, u64::MAX);
    let client = rts[0].vlink_connect(world, nodes[1], 400);
    spans.exit(g);
    let (acks, _) = counter();
    let (a, c) = (acks.clone(), client.clone());
    client.set_handler(move |w, ev| {
        if ev == VLinkEvent::Readable {
            a.set(a.get() + c.read_now(w, usize::MAX).len() as u64);
        }
    });
    Exchange::new(
        Rung::VLink,
        Box::new(move |w, msg| {
            client.post_write_bytes(w, msg.clone());
        }),
        acks,
        sink,
    )
}

/// `middleware.corba`: an omniORB-4 `Orb` pair, `invoke` with an octet
/// sequence; the (void) reply is the ack.
pub fn corba_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    let sink = Sink::new();
    let s = sink.clone();
    let server = Orb::new(rts[1].clone(), OrbImpl::OmniOrb4);
    server.register_servant("sink", move |_w, _op, arg| {
        match &arg {
            IdlValue::Octets(b) => s.message(std::iter::once(&b[..])),
            _ => s.bad(),
        }
        IdlValue::Void
    });
    let g = spans.enter(Call::OrbActivate, u64::MAX);
    server.activate(world, 410);
    spans.exit(g);
    let client = Orb::new(rts[0].clone(), OrbImpl::OmniOrb4);
    let objref = client.object_ref(nodes[1], 410, "sink");
    let (acks, bump) = counter();
    Exchange::new(
        Rung::Corba,
        Box::new(move |w, msg| {
            let bump = bump.clone();
            client.invoke(
                w,
                &objref,
                "put",
                IdlValue::Octets(msg.clone()),
                move |_w, _r| bump(),
            );
        }),
        acks,
        sink,
    )
}

/// `middleware.javasock`: `JavaServerSocket::bind` / `JavaSocket::connect`,
/// `write` / `on_data`.
pub fn java_exchange(
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    let sink = Sink::new();
    let s = sink.clone();
    let g = spans.enter(Call::JavaBind, u64::MAX);
    JavaServerSocket::bind(world, &rts[1], 420, move |_w, sock| {
        let (s, sock2) = (s.clone(), sock.clone());
        let mut deframer = Deframer::default();
        sock.on_data(move |w, data| {
            for _ in 0..deframer.feed(&data, &s) {
                sock2.write(w, ACK);
            }
        });
    });
    spans.exit(g);
    let g = spans.enter(Call::JavaConnect, u64::MAX);
    let client = JavaSocket::connect(world, &rts[0], nodes[1], 420);
    spans.exit(g);
    let (acks, _) = counter();
    let a = acks.clone();
    client.on_data(move |_w, data| a.set(a.get() + data.len() as u64));
    Exchange::new(
        Rung::Java,
        Box::new(move |w, msg| client.write(w, msg)),
        acks,
        sink,
    )
}

/// Builds the exchange of one runtime-level rung.
pub fn runtime_exchange(
    rung: Rung,
    world: &mut SimWorld,
    spans: &Spans,
    rts: &[PadicoRuntime],
    nodes: [NodeId; 2],
) -> Exchange {
    let build = match rung {
        Rung::Circuit => circuit_exchange,
        Rung::Mpi => mpi_exchange,
        Rung::VLink => vlink_exchange,
        Rung::Corba => corba_exchange,
        Rung::Java => java_exchange,
        Rung::Frame | Rung::Madeleine | Rung::MadIo => {
            panic!("{rung:?} sits below the runtime")
        }
    };
    build(world, spans, rts, nodes)
}
