//! MadIO: multiplexed access to parallel-oriented hardware.
//!
//! Madeleine exposes only as many channels as the hardware allows (two on
//! Myrinet-2000, one on SCI), which is not enough when several middleware
//! systems must share the SAN. MadIO adds logical multiplexing on top of a
//! single Madeleine channel: every module registers a *tag*, outgoing
//! messages carry the tag in a small header, and — thanks to *header
//! combining* — that header rides inside the same Madeleine message as the
//! payload, so multiplexing costs well under 0.1 µs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use madeleine::{MadChannel, MadMessage, SendMode};
use simnet::SimWorld;

use crate::core::{NetAccessCore, Subsystem};

/// Size of the MadIO multiplexing header, in bytes.
pub const MADIO_HEADER_BYTES: usize = 4;

/// A logical-channel tag identifying the module a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MadIOTag(pub u16);

impl MadIOTag {
    /// Tag used by the Circuit abstract interface.
    pub const CIRCUIT: MadIOTag = MadIOTag(1);
    /// Tag used by the VLink abstract interface.
    pub const VLINK: MadIOTag = MadIOTag(2);
    /// First tag available to user modules.
    pub const USER_BASE: MadIOTag = MadIOTag(100);

    /// The `n`-th user tag.
    pub fn user(n: u16) -> MadIOTag {
        MadIOTag(Self::USER_BASE.0 + n)
    }
}

/// A message delivered to a MadIO module.
#[derive(Debug, Clone)]
pub struct MadIOMessage {
    /// Rank of the sender in the underlying channel's group.
    pub src_rank: usize,
    /// Logical channel tag.
    pub tag: MadIOTag,
    /// Payload segments (the tag header has already been stripped).
    pub segments: Vec<Bytes>,
}

impl MadIOMessage {
    /// Total payload length.
    pub fn payload_len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Concatenated payload.
    pub fn concat(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.payload_len());
        for s in &self.segments {
            v.extend_from_slice(s);
        }
        v
    }
}

type MadIOCallback = Box<dyn FnMut(&mut SimWorld, MadIOMessage)>;

struct MadIOInner {
    core: NetAccessCore,
    channel: Option<MadChannel>,
    handlers: HashMap<MadIOTag, Rc<RefCell<MadIOCallback>>>,
    /// Messages whose tag had no handler yet, kept so late registrants do
    /// not lose traffic (bounded).
    stray: Vec<MadIOMessage>,
    /// Per-source pending tag header, used only when header combining is
    /// disabled (header and payload travel as two separate messages).
    pending_headers: HashMap<usize, MadIOTag>,
    messages_sent: u64,
    messages_received: u64,
}

/// Accounting of one MadIO instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MadIoStats {
    /// Tagged messages sent through this instance.
    pub messages_sent: u64,
    /// Tagged messages received and dispatched.
    pub messages_received: u64,
}

/// Multiplexed access to the parallel-oriented network of one node.
#[derive(Clone)]
pub struct MadIO {
    inner: Rc<RefCell<MadIOInner>>,
}

impl MadIO {
    pub(crate) fn new(core: NetAccessCore) -> MadIO {
        MadIO {
            inner: Rc::new(RefCell::new(MadIOInner {
                core,
                channel: None,
                handlers: HashMap::new(),
                stray: Vec::new(),
                pending_headers: HashMap::new(),
                messages_sent: 0,
                messages_received: 0,
            })),
        }
    }

    /// Binds MadIO to its Madeleine channel (the single hardware channel it
    /// multiplexes). All incoming messages of that channel are routed
    /// through the NetAccess dispatch loop.
    pub fn attach_channel(&self, world: &mut SimWorld, channel: MadChannel) {
        let node = {
            let mut inner = self.inner.borrow_mut();
            inner.channel = Some(channel.clone());
            inner.core.node()
        };
        let weak = Rc::downgrade(&self.inner);
        let node_label = node.0.to_string();
        world.metrics.register_collector(move |b| {
            let Some(inner) = weak.upgrade() else { return };
            let inner = inner.borrow();
            let labels: &[(&str, &str)] = &[("node", node_label.as_str())];
            b.counter("netaccess.madio.messages_sent", labels, inner.messages_sent);
            b.counter(
                "netaccess.madio.messages_received",
                labels,
                inner.messages_received,
            );
        });
        let this = self.clone();
        channel.set_message_callback(move |world, msg| {
            this.on_message(world, msg);
        });
    }

    /// The group of the attached channel (rank order).
    pub fn group(&self) -> Vec<simnet::NodeId> {
        self.inner
            .borrow()
            .channel
            .as_ref()
            .map(|c| c.group())
            .unwrap_or_default()
    }

    /// This node's rank in the attached channel.
    pub fn my_rank(&self) -> usize {
        self.inner
            .borrow()
            .channel
            .as_ref()
            .map(|c| c.my_rank())
            .unwrap_or(0)
    }

    /// Registers the handler for a logical tag. Any messages for this tag
    /// that arrived before registration are re-delivered immediately.
    pub fn register(
        &self,
        world: &mut SimWorld,
        tag: MadIOTag,
        cb: impl FnMut(&mut SimWorld, MadIOMessage) + 'static,
    ) {
        let strays = {
            let mut inner = self.inner.borrow_mut();
            inner
                .handlers
                .insert(tag, Rc::new(RefCell::new(Box::new(cb) as MadIOCallback)));
            let mut strays = Vec::new();
            let mut kept = Vec::new();
            for m in inner.stray.drain(..) {
                if m.tag == tag {
                    strays.push(m);
                } else {
                    kept.push(m);
                }
            }
            inner.stray = kept;
            strays
        };
        for m in strays {
            self.dispatch(world, m);
        }
    }

    /// Removes the handler for `tag`.
    pub fn unregister(&self, tag: MadIOTag) {
        self.inner.borrow_mut().handlers.remove(&tag);
    }

    /// Accounting snapshot of this MadIO instance.
    pub fn stats(&self) -> MadIoStats {
        let inner = self.inner.borrow();
        MadIoStats {
            messages_sent: inner.messages_sent,
            messages_received: inner.messages_received,
        }
    }

    /// Sends `segments` to `dst_rank` on logical channel `tag`.
    ///
    /// With header combining (the default), the 4-byte MadIO header is
    /// packed as the leading segment of the same Madeleine message. Without
    /// it, the header travels as its own Madeleine message, paying the full
    /// per-message overhead twice — the ablation the paper measures.
    pub fn send(
        &self,
        world: &mut SimWorld,
        dst_rank: usize,
        tag: MadIOTag,
        segments: Vec<(Bytes, SendMode)>,
    ) {
        let (channel, combining) = {
            let mut inner = self.inner.borrow_mut();
            inner.messages_sent += 1;
            (
                inner
                    .channel
                    .as_ref()
                    .cloned()
                    .expect("MadIO used before attach_channel"),
                inner.core.header_combining(),
            )
        };
        let mut header = BytesMut::with_capacity(MADIO_HEADER_BYTES);
        header.extend_from_slice(&tag.0.to_be_bytes());
        header.extend_from_slice(&(segments.len() as u16).to_be_bytes());

        if combining {
            let mut pk = channel
                .begin_packing(dst_rank)
                .expect("destination rank outside the channel group");
            // The 4-byte header is combined into the payload message and
            // sent straight from the MadIO-owned buffer (no copy).
            pk.pack(header.freeze(), SendMode::Cheaper);
            for (data, mode) in segments {
                pk.pack(data, mode);
            }
            pk.end_packing(world);
        } else {
            // Header as a separate message: costs a full extra message. The
            // header is packed as CHEAPER so the two messages keep their
            // send order (a SAFER copy would delay the header behind the
            // payload message).
            let mut pk = channel
                .begin_packing(dst_rank)
                .expect("destination rank outside the channel group");
            pk.pack(header.freeze(), SendMode::Cheaper);
            pk.end_packing(world);
            let mut pk = channel
                .begin_packing(dst_rank)
                .expect("destination rank outside the channel group");
            for (data, mode) in segments {
                pk.pack(data, mode);
            }
            pk.end_packing(world);
        }
    }

    /// Convenience for sending a single contiguous buffer.
    pub fn send_bytes(
        &self,
        world: &mut SimWorld,
        dst_rank: usize,
        tag: MadIOTag,
        data: impl Into<Bytes>,
    ) {
        self.send(world, dst_rank, tag, vec![(data.into(), SendMode::Cheaper)]);
    }

    fn on_message(&self, world: &mut SimWorld, msg: MadMessage) {
        let combining = self.inner.borrow().core.header_combining();
        if combining {
            // First segment is the MadIO header; the rest is payload.
            if msg.segments.is_empty() || msg.segments[0].data.len() < MADIO_HEADER_BYTES {
                return;
            }
            let tag = MadIOTag(u16::from_be_bytes(
                msg.segments[0].data[0..2].try_into().unwrap(),
            ));
            let payload = msg.segments[1..].iter().map(|s| s.data.clone()).collect();
            let m = MadIOMessage {
                src_rank: msg.src_rank,
                tag,
                segments: payload,
            };
            self.queue_dispatch(world, m);
        } else {
            // Without combining, headers and payloads alternate; keep the
            // pending header per source rank.
            let src = msg.src_rank;
            let is_header = {
                let inner = self.inner.borrow();
                msg.segments.len() == 1
                    && msg.segments[0].data.len() == MADIO_HEADER_BYTES
                    && !inner.pending_headers.contains_key(&src)
            };
            if is_header {
                let tag = MadIOTag(u16::from_be_bytes(
                    msg.segments[0].data[0..2].try_into().unwrap(),
                ));
                self.inner.borrow_mut().pending_headers.insert(src, tag);
                return;
            }
            let tag = self
                .inner
                .borrow_mut()
                .pending_headers
                .remove(&src)
                .unwrap_or(MadIOTag(0));
            let m = MadIOMessage {
                src_rank: src,
                tag,
                segments: msg.segments.iter().map(|s| s.data.clone()).collect(),
            };
            self.queue_dispatch(world, m);
        }
    }

    fn queue_dispatch(&self, world: &mut SimWorld, m: MadIOMessage) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.messages_received += 1;
        }
        let core = self.inner.borrow().core.clone();
        let this = self.clone();
        core.enqueue(
            world,
            Subsystem::MadIO,
            Box::new(move |world| this.dispatch(world, m)),
        );
    }

    fn dispatch(&self, world: &mut SimWorld, m: MadIOMessage) {
        let handler = self.inner.borrow().handlers.get(&m.tag).cloned();
        match handler {
            Some(h) => (h.borrow_mut())(world, m),
            None => {
                let mut inner = self.inner.borrow_mut();
                if inner.stray.len() < 10_000 {
                    inner.stray.push(m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::NetAccessConfig;
    use madeleine::Madeleine;
    use simnet::{topology, NetworkSpec};
    use std::cell::Cell;

    struct Setup {
        world: SimWorld,
        madio: Vec<MadIO>,
    }

    fn setup(n: usize) -> Setup {
        let mut world = SimWorld::new(9);
        let cluster = topology::build_san_cluster(&mut world, "n", n, NetworkSpec::myrinet_2000());
        let san = cluster.san.unwrap();
        let mut madio = Vec::new();
        for &node in &cluster.nodes {
            let mad = Madeleine::new(&mut world, node, san);
            let chan = mad.open_channel(cluster.nodes.clone()).unwrap();
            let core = NetAccessCore::new(node, NetAccessConfig::default());
            let io = MadIO::new(core);
            io.attach_channel(&mut world, chan);
            madio.push(io);
        }
        Setup { world, madio }
    }

    #[test]
    fn tagged_messages_reach_the_right_module() {
        let mut s = setup(2);
        let circuit_hits = Rc::new(Cell::new(0));
        let vlink_hits = Rc::new(Cell::new(0));
        let (c, v) = (circuit_hits.clone(), vlink_hits.clone());
        s.madio[1].register(&mut s.world, MadIOTag::CIRCUIT, move |_w, m| {
            assert_eq!(m.concat(), b"for circuit");
            c.set(c.get() + 1);
        });
        s.madio[1].register(&mut s.world, MadIOTag::VLINK, move |_w, m| {
            assert_eq!(m.concat(), b"for vlink");
            v.set(v.get() + 1);
        });
        s.madio[0].send_bytes(&mut s.world, 1, MadIOTag::CIRCUIT, &b"for circuit"[..]);
        s.madio[0].send_bytes(&mut s.world, 1, MadIOTag::VLINK, &b"for vlink"[..]);
        s.world.run();
        assert_eq!(circuit_hits.get(), 1);
        assert_eq!(vlink_hits.get(), 1);
    }

    #[test]
    fn messages_before_registration_are_not_lost() {
        let mut s = setup(2);
        s.madio[0].send_bytes(&mut s.world, 1, MadIOTag::user(3), &b"early"[..]);
        s.world.run();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        s.madio[1].register(&mut s.world, MadIOTag::user(3), move |_w, m| {
            assert_eq!(m.concat(), b"early");
            g.set(true);
        });
        s.world.run();
        assert!(got.get());
    }

    #[test]
    fn multi_segment_send_preserves_boundaries() {
        let mut s = setup(2);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.madio[1].register(&mut s.world, MadIOTag::user(0), move |_w, m| {
            *g.borrow_mut() = m.segments.iter().map(|b| b.len()).collect();
        });
        s.madio[0].send(
            &mut s.world,
            1,
            MadIOTag::user(0),
            vec![
                (Bytes::from_static(b"abc"), SendMode::Safer),
                (Bytes::from_static(b"defgh"), SendMode::Cheaper),
            ],
        );
        s.world.run();
        assert_eq!(*got.borrow(), vec![3, 5]);
    }

    #[test]
    fn header_combining_overhead_is_under_100ns() {
        // Compare MadIO latency against raw Madeleine latency on the same
        // topology: the difference must stay below 0.1 µs plus the dispatch
        // overhead budget, as the paper claims.
        let raw_latency = {
            let mut world = SimWorld::new(9);
            let cluster =
                topology::build_san_cluster(&mut world, "n", 2, NetworkSpec::myrinet_2000());
            let san = cluster.san.unwrap();
            let m0 = Madeleine::new(&mut world, cluster.nodes[0], san);
            let m1 = Madeleine::new(&mut world, cluster.nodes[1], san);
            let c0 = m0.open_channel(cluster.nodes.clone()).unwrap();
            let c1 = m1.open_channel(cluster.nodes.clone()).unwrap();
            let at = Rc::new(Cell::new(0.0));
            let a = at.clone();
            c1.set_message_callback(move |w, _| a.set(w.now().as_micros_f64()));
            let mut pk = c0.begin_packing(1).unwrap();
            pk.pack(vec![0u8; 16], SendMode::Cheaper);
            pk.end_packing(&mut world);
            world.run();
            at.get()
        };
        let madio_latency = {
            let mut s = setup(2);
            let at = Rc::new(Cell::new(0.0));
            let a = at.clone();
            s.madio[1].register(&mut s.world, MadIOTag::user(0), move |w, _| {
                a.set(w.now().as_micros_f64())
            });
            s.madio[0].send_bytes(&mut s.world, 1, MadIOTag::user(0), vec![0u8; 16]);
            s.world.run();
            at.get()
        };
        let overhead = madio_latency - raw_latency;
        assert!(
            overhead < 0.25,
            "MadIO adds {overhead:.3} µs over raw Madeleine (want < 0.25 µs incl. header bytes)"
        );
        assert!(overhead >= 0.0);
    }

    #[test]
    fn disabling_header_combining_costs_more() {
        let latency = |combining: bool| {
            let mut s = setup(2);
            for io in &s.madio {
                io.inner.borrow().core.set_header_combining(combining);
            }
            let at = Rc::new(Cell::new(0.0));
            let a = at.clone();
            s.madio[1].register(&mut s.world, MadIOTag::user(0), move |w, _| {
                a.set(w.now().as_micros_f64())
            });
            s.madio[0].send_bytes(&mut s.world, 1, MadIOTag::user(0), vec![0u8; 16]);
            s.world.run();
            at.get()
        };
        let with = latency(true);
        let without = latency(false);
        assert!(
            without > with + 0.3,
            "separate headers ({without:.2} µs) must cost clearly more than combining ({with:.2} µs)"
        );
    }
}
