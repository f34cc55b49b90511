//! The experiment harness: every table and figure of the paper's
//! evaluation section, re-implemented over the simulated testbed.
//!
//! Each function builds the relevant topology, runs the workload in virtual
//! time, and returns structured results; the `all_experiments` binary
//! prints them as the paper's tables/series.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use middleware::{IdlValue, JavaServerSocket, JavaSocket, MpiComm, Orb, OrbImpl};
use padico_core::{runtimes_for_cluster, PadicoRuntime, SelectorPreferences, VLink};
use simnet::{topology, NetworkSpec, NodeId, SimWorld};
use transport::{
    ByteStream, ByteStreamExt, ParallelStream, ParallelStreamConfig, TcpConn, TcpStack,
};
use transport::{UdpHost, VrpConfig, VrpReceiver, VrpSender};

/// The middleware/interface stacks measured by Figure 3 and Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The Circuit abstract interface (parallel side), straight on Myrinet.
    Circuit,
    /// The VLink abstract interface (distributed side) on Myrinet.
    VLink,
    /// The MPI middleware (MPICH role).
    Mpi,
    /// A CORBA ORB of the given implementation.
    Corba(OrbImpl),
    /// Java sockets.
    JavaSocket,
    /// Plain TCP over Ethernet-100 (the reference curve of Figure 3).
    TcpEthernet,
}

impl Stack {
    /// Display name matching the paper's labels.
    pub fn name(&self) -> String {
        match self {
            Stack::Circuit => "Circuit".to_string(),
            Stack::VLink => "VLink".to_string(),
            Stack::Mpi => "MPICH/Myrinet-2000".to_string(),
            Stack::Corba(orb) => format!("{}/Myrinet-2000", orb.name()),
            Stack::JavaSocket => "Java socket/Myrinet-2000".to_string(),
            Stack::TcpEthernet => "TCP/Ethernet-100 (reference)".to_string(),
        }
    }

    /// The stacks plotted in Figure 3, in the paper's legend order.
    pub fn figure3() -> Vec<Stack> {
        vec![
            Stack::Corba(OrbImpl::OmniOrb3),
            Stack::Corba(OrbImpl::OmniOrb4),
            Stack::Corba(OrbImpl::Mico),
            Stack::Corba(OrbImpl::Orbacus),
            Stack::Mpi,
            Stack::JavaSocket,
            Stack::TcpEthernet,
        ]
    }

    /// The columns of Table 1.
    pub fn table1() -> Vec<Stack> {
        vec![
            Stack::Circuit,
            Stack::VLink,
            Stack::Mpi,
            Stack::Corba(OrbImpl::OmniOrb3),
            Stack::Corba(OrbImpl::OmniOrb4),
            Stack::JavaSocket,
        ]
    }
}

/// One measured point: one-way time for a given payload size.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Payload size in bytes.
    pub size: usize,
    /// One-way transfer time in microseconds.
    pub one_way_us: f64,
}

impl Measurement {
    /// Bandwidth in MB/s implied by this measurement.
    pub fn bandwidth_mb_s(&self) -> f64 {
        if self.one_way_us <= 0.0 {
            0.0
        } else {
            self.size as f64 / self.one_way_us
        }
    }
}

/// Result of a latency/bandwidth characterization of one stack.
#[derive(Debug, Clone)]
pub struct StackProfile {
    /// The stack measured.
    pub stack: Stack,
    /// One-way latency of a 4-byte message, in µs.
    pub latency_us: f64,
    /// Measurements across the size sweep.
    pub points: Vec<Measurement>,
}

impl StackProfile {
    /// Peak bandwidth over the sweep, in MB/s.
    pub fn max_bandwidth_mb_s(&self) -> f64 {
        self.points
            .iter()
            .map(Measurement::bandwidth_mb_s)
            .fold(0.0, f64::max)
    }
}

// --------------------------------------------------------------------- //
// Generic ping/ack engine
// --------------------------------------------------------------------- //

/// An abstract "echo" fixture: a way to send `size` bytes to the peer and
/// be told (in virtual time) when the peer's acknowledgement came back.
trait PingFixture {
    fn round_trip_us(&mut self, size: usize) -> f64;
}

fn profile_with(fixture: &mut dyn PingFixture, stack: Stack, sizes: &[usize]) -> StackProfile {
    // One-way latency from a tiny message: half the round trip.
    let small_rtt = fixture.round_trip_us(4);
    let latency_us = small_rtt / 2.0;
    let mut points = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let rtt = fixture.round_trip_us(size);
        // The ack path carries ~no payload, so one way ≈ rtt − small one-way.
        let one_way = (rtt - latency_us).max(0.001);
        points.push(Measurement {
            size,
            one_way_us: one_way,
        });
    }
    StackProfile {
        stack,
        latency_us,
        points,
    }
}

/// The default size sweep of Figure 3 (32 B … 1 MB).
pub fn figure3_sizes() -> Vec<usize> {
    vec![32, 128, 1024, 8 * 1024, 32 * 1024, 256 * 1024, 1024 * 1024]
}

// ---- Stream-style fixtures (Circuit, VLink, Java, TCP) ----------------- //

struct StreamFixture {
    world: SimWorld,
    #[allow(clippy::type_complexity)]
    send: Box<dyn Fn(&mut SimWorld, &[u8])>,
    /// Bytes echoed back so far (the responder sends a 1-byte ack per
    /// completed message).
    acks: Rc<Cell<u64>>,
    expected_acks: u64,
}

impl PingFixture for StreamFixture {
    fn round_trip_us(&mut self, size: usize) -> f64 {
        let start = self.world.now();
        let payload = vec![0xA5u8; size];
        (self.send)(&mut self.world, &payload);
        self.expected_acks += 1;
        let want = self.expected_acks;
        let acks = self.acks.clone();
        self.world.run_while(|| acks.get() < want);
        self.world.now().since(start).as_micros_f64()
    }
}

/// Message framing used by the stream fixtures: 4-byte length prefix, and
/// the responder answers each complete message with a single byte.
fn spawn_echo_on_vlink(server: VLink, acker: bool) {
    let buf = Rc::new(RefCell::new(Vec::<u8>::new()));
    let server2 = server.clone();
    server.set_handler(move |world, event| {
        if event != padico_core::VLinkEvent::Readable {
            return;
        }
        let data = server2.read_now(world, usize::MAX);
        let mut buf = buf.borrow_mut();
        buf.extend_from_slice(&data);
        loop {
            if buf.len() < 4 {
                return;
            }
            let len = u32::from_be_bytes(buf[0..4].try_into().unwrap()) as usize;
            if buf.len() < 4 + len {
                return;
            }
            buf.drain(..4 + len);
            if acker {
                server2.post_write(world, &[1u8]);
            }
        }
    });
}

fn vlink_fixture(client: VLink, server: VLink, mut world: SimWorld) -> StreamFixture {
    spawn_echo_on_vlink(server, true);
    let acks = Rc::new(Cell::new(0u64));
    let a = acks.clone();
    let client2 = client.clone();
    client.set_handler(move |world, event| {
        if event == padico_core::VLinkEvent::Readable {
            let n = client2.read_now(world, usize::MAX).len() as u64;
            a.set(a.get() + n);
        }
    });
    world.run();
    let client_for_send = client.clone();
    StreamFixture {
        world,
        send: Box::new(move |world, payload| {
            let mut framed = Vec::with_capacity(4 + payload.len());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(payload);
            client_for_send.post_write(world, &framed);
        }),
        acks,
        expected_acks: 0,
    }
}

/// Builds the paper's two-node Myrinet+Ethernet testbed with runtimes.
pub fn testbed(seed: u64) -> (SimWorld, Vec<PadicoRuntime>, Vec<NodeId>) {
    let p = topology::san_pair(seed);
    let mut world = p.world;
    let nodes = vec![p.a, p.b];
    let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
    (world, rts, nodes)
}

fn vlink_over_san_fixture() -> StreamFixture {
    let (mut world, rts, nodes) = testbed(7);
    let server_slot: Rc<RefCell<Option<VLink>>> = Rc::new(RefCell::new(None));
    let s = server_slot.clone();
    rts[1].vlink_listen(&mut world, 400, move |_w, v| *s.borrow_mut() = Some(v));
    let client = rts[0].vlink_connect(&mut world, nodes[1], 400);
    world.run();
    let server = server_slot.borrow().clone().expect("accepted");
    vlink_fixture(client, server, world)
}

fn circuit_fixture() -> StreamFixture {
    let (mut world, rts, nodes) = testbed(9);
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 70);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 70);
    // Echo 1 byte per received message.
    let c1b = c1.clone();
    c1.set_message_callback(move |world, _msg| {
        c1b.send_bytes(world, 0, Bytes::from_static(&[1u8]));
    });
    let acks = Rc::new(Cell::new(0u64));
    let a = acks.clone();
    c0.set_message_callback(move |_w, _msg| a.set(a.get() + 1));
    let c0_send = c0.clone();
    StreamFixture {
        world,
        send: Box::new(move |world, payload| {
            c0_send.send_bytes(world, 1, Bytes::copy_from_slice(payload));
        }),
        acks,
        expected_acks: 0,
    }
}

fn mpi_fixture() -> StreamFixture {
    let (mut world, rts, nodes) = testbed(11);
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 71);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 71);
    let m0 = MpiComm::new(&mut world, c0);
    let m1 = MpiComm::new(&mut world, c1);
    // Rank 1 echoes a 1-byte ack for every message; re-post the receive in
    // the callback to keep the echo server alive.
    fn repost(world: &mut SimWorld, comm: MpiComm) {
        let c = comm.clone();
        comm.recv(world, Some(0), Some(5), move |world, _msg| {
            c.send(world, 0, 6, &[1u8]);
            repost(world, c.clone());
        });
    }
    repost(&mut world, m1);
    let acks = Rc::new(Cell::new(0u64));
    fn repost_ack(world: &mut SimWorld, comm: MpiComm, acks: Rc<Cell<u64>>) {
        let c = comm.clone();
        let a = acks.clone();
        comm.recv(world, Some(1), Some(6), move |world, _msg| {
            a.set(a.get() + 1);
            repost_ack(world, c.clone(), a.clone());
        });
    }
    repost_ack(&mut world, m0.clone(), acks.clone());
    StreamFixture {
        world,
        send: Box::new(move |world, payload| m0.send(world, 1, 5, payload)),
        acks,
        expected_acks: 0,
    }
}

fn corba_fixture(implementation: OrbImpl) -> StreamFixture {
    let (mut world, rts, nodes) = testbed(13);
    let server = Orb::new(rts[1].clone(), implementation);
    server.register_servant("sink", |_w, _op, _arg| IdlValue::Void);
    server.activate(&mut world, 410);
    let client = Orb::new(rts[0].clone(), implementation);
    let objref = client.object_ref(nodes[1], 410, "sink");
    let acks = Rc::new(Cell::new(0u64));
    let a = acks.clone();
    StreamFixture {
        world,
        send: Box::new(move |world, payload| {
            let a = a.clone();
            client.invoke(
                world,
                &objref,
                "put",
                IdlValue::Octets(Bytes::copy_from_slice(payload)),
                move |_w, _reply| a.set(a.get() + 1),
            );
        }),
        acks,
        expected_acks: 0,
    }
}

fn java_fixture() -> StreamFixture {
    let (mut world, rts, nodes) = testbed(15);
    JavaServerSocket::bind(&mut world, &rts[1], 420, |_world, sock| {
        // Echo a byte per complete length-prefixed message.
        let buf = Rc::new(RefCell::new(Vec::<u8>::new()));
        let s2 = sock.clone();
        sock.on_data(move |world, data| {
            let mut buf = buf.borrow_mut();
            buf.extend_from_slice(&data);
            loop {
                if buf.len() < 4 {
                    return;
                }
                let len = u32::from_be_bytes(buf[0..4].try_into().unwrap()) as usize;
                if buf.len() < 4 + len {
                    return;
                }
                buf.drain(..4 + len);
                s2.write(world, &[1u8]);
            }
        });
    });
    let client = JavaSocket::connect(&mut world, &rts[0], nodes[1], 420);
    let acks = Rc::new(Cell::new(0u64));
    let a = acks.clone();
    client.on_data(move |_w, data| a.set(a.get() + data.len() as u64));
    world.run();
    StreamFixture {
        world,
        send: Box::new(move |world, payload| {
            let mut framed = Vec::with_capacity(4 + payload.len());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(payload);
            client.write(world, &framed);
        }),
        acks,
        expected_acks: 0,
    }
}

fn tcp_ethernet_fixture() -> StreamFixture {
    let mut p = topology::pair_over(17, NetworkSpec::ethernet_100());
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let server_conn: Rc<RefCell<Option<TcpConn>>> = Rc::new(RefCell::new(None));
    let sc = server_conn.clone();
    sb.listen(80, move |world, conn| {
        let buf = Rc::new(RefCell::new(Vec::<u8>::new()));
        let c2 = conn.clone();
        conn.set_readable_callback(Box::new(move |world| {
            let data = c2.recv(world, usize::MAX);
            let mut buf = buf.borrow_mut();
            buf.extend_from_slice(&data);
            loop {
                if buf.len() < 4 {
                    return;
                }
                let len = u32::from_be_bytes(buf[0..4].try_into().unwrap()) as usize;
                if buf.len() < 4 + len {
                    return;
                }
                buf.drain(..4 + len);
                c2.send(world, &[1u8]);
            }
        }));
        let _ = world;
        *sc.borrow_mut() = Some(conn);
    });
    let client = sa.connect(&mut p.world, p.network, p.b, 80);
    let acks = Rc::new(Cell::new(0u64));
    let a = acks.clone();
    let c2 = client.clone();
    client.set_readable_callback(Box::new(move |world| {
        a.set(a.get() + c2.recv(world, usize::MAX).len() as u64);
    }));
    p.world.run();
    StreamFixture {
        world: p.world,
        send: Box::new(move |world, payload| {
            let mut framed = Vec::with_capacity(4 + payload.len());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(payload);
            client.send_all(world, &framed);
        }),
        acks,
        expected_acks: 0,
    }
}

/// Profiles one stack over a size sweep (the engine behind Figure 3 and
/// Table 1).
pub fn profile_stack(stack: Stack, sizes: &[usize]) -> StackProfile {
    let mut fixture: Box<dyn PingFixture> = match stack {
        Stack::Circuit => Box::new(circuit_fixture()),
        Stack::VLink => Box::new(vlink_over_san_fixture()),
        Stack::Mpi => Box::new(mpi_fixture()),
        Stack::Corba(orb) => Box::new(corba_fixture(orb)),
        Stack::JavaSocket => Box::new(java_fixture()),
        Stack::TcpEthernet => Box::new(tcp_ethernet_fixture()),
    };
    profile_with(fixture.as_mut(), stack, sizes)
}

// --------------------------------------------------------------------- //
// Figure 3 / Table 1
// --------------------------------------------------------------------- //

/// Figure 3: bandwidth vs message size for every middleware over
/// Myrinet-2000, plus the TCP/Ethernet-100 reference.
pub fn figure3(sizes: &[usize]) -> Vec<StackProfile> {
    Stack::figure3()
        .into_iter()
        .map(|s| profile_stack(s, sizes))
        .collect()
}

/// Table 1: one-way latency and peak bandwidth of the abstract interfaces
/// and middleware systems over Myrinet-2000.
pub fn table1() -> Vec<StackProfile> {
    let sizes = vec![1024 * 1024, 4 * 1024 * 1024];
    Stack::table1()
        .into_iter()
        .map(|s| profile_stack(s, &sizes))
        .collect()
}

// --------------------------------------------------------------------- //
// WAN experiment (VTHD): single stream vs Parallel Streams
// --------------------------------------------------------------------- //

/// Result of the VTHD WAN experiment.
#[derive(Debug, Clone, Copy)]
pub struct WanResult {
    /// Goodput of a single TCP stream, MB/s.
    pub single_stream_mb_s: f64,
    /// Goodput with Parallel Streams, MB/s.
    pub parallel_streams_mb_s: f64,
    /// Number of member streams used.
    pub streams: usize,
    /// One-way latency observed on the WAN, in milliseconds.
    pub latency_ms: f64,
}

fn wan_transfer(n_streams: usize, bytes: usize) -> f64 {
    let mut p = topology::wan_pair(21);
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let received = Rc::new(Cell::new(0usize));
    let cfg = ParallelStreamConfig {
        n_streams,
        chunk_size: 64 * 1024,
    };
    let r = received.clone();
    let server: Rc<RefCell<Option<ParallelStream>>> = Rc::new(RefCell::new(None));
    let s2 = server.clone();
    ParallelStream::listen(&mut p.world, &sb, 2811, cfg.clone(), move |_w, ps| {
        *s2.borrow_mut() = Some(ps);
    });
    let client = ParallelStream::connect(&mut p.world, &sa, p.network, p.b, 2811, cfg);
    p.world.run();
    let server = server.borrow().clone().expect("bundle accepted");
    let s3 = server.clone();
    server.set_readable_callback(Box::new(move |world| {
        r.set(r.get() + s3.recv(world, usize::MAX).len());
    }));
    let start = p.world.now();
    client.send_all(&mut p.world, &vec![0u8; bytes]);
    let rr = received.clone();
    p.world.run_while(|| rr.get() < bytes);
    let secs = p.world.now().since(start).as_secs_f64();
    bytes as f64 / secs / 1e6
}

/// Runs the VTHD experiment (§5): every middleware sees ≈9 MB/s with one
/// stream; Parallel Streams recover the 12 MB/s access-link limit.
pub fn wan_vthd(bytes: usize, streams: usize) -> WanResult {
    let single = wan_transfer(1, bytes);
    let parallel = wan_transfer(streams, bytes);
    let latency_ms = NetworkSpec::vthd_wan().latency.as_millis_f64();
    WanResult {
        single_stream_mb_s: single,
        parallel_streams_mb_s: parallel,
        streams,
        latency_ms,
    }
}

// --------------------------------------------------------------------- //
// VRP experiment: lossy trans-continental link
// --------------------------------------------------------------------- //

/// Result of the VRP-vs-TCP experiment.
#[derive(Debug, Clone, Copy)]
pub struct VrpResult {
    /// TCP goodput on the lossy link, KB/s.
    pub tcp_kb_s: f64,
    /// VRP goodput with the given tolerance, KB/s.
    pub vrp_kb_s: f64,
    /// Tolerated loss fraction.
    pub tolerance: f64,
    /// Fraction of the message actually delivered by VRP.
    pub delivered_fraction: f64,
}

impl VrpResult {
    /// Speed-up of VRP over TCP.
    pub fn speedup(&self) -> f64 {
        if self.tcp_kb_s <= 0.0 {
            0.0
        } else {
            self.vrp_kb_s / self.tcp_kb_s
        }
    }
}

fn lossy_tcp_goodput(bytes: usize) -> f64 {
    let mut p = topology::lossy_internet_pair(23);
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let received = Rc::new(Cell::new(0usize));
    let server: Rc<RefCell<Option<TcpConn>>> = Rc::new(RefCell::new(None));
    let sc = server.clone();
    let r = received.clone();
    sb.listen(99, move |_w, conn| {
        let c2 = conn.clone();
        let r = r.clone();
        conn.set_readable_callback(Box::new(move |world| {
            r.set(r.get() + c2.recv(world, usize::MAX).len());
        }));
        *sc.borrow_mut() = Some(conn);
    });
    let client = sa.connect(&mut p.world, p.network, p.b, 99);
    let start = p.world.now();
    client.send_all(&mut p.world, &vec![0u8; bytes]);
    let rr = received.clone();
    p.world.run_while(|| rr.get() < bytes);
    let secs = p.world.now().since(start).as_secs_f64();
    bytes as f64 / secs / 1e3
}

fn lossy_vrp_goodput(bytes: usize, tolerance: f64) -> (f64, f64) {
    let mut p = topology::lossy_internet_pair(25);
    let udp_a = UdpHost::new(&mut p.world, p.a);
    let udp_b = UdpHost::new(&mut p.world, p.b);
    let config = VrpConfig {
        tolerance,
        pacing_bytes_per_sec: NetworkSpec::lossy_internet().bytes_per_sec,
        ..Default::default()
    };
    let done: Rc<RefCell<Option<transport::VrpTransferStats>>> = Rc::new(RefCell::new(None));
    VrpReceiver::bind(
        &mut p.world,
        &udp_b,
        p.network,
        7000,
        config.clone(),
        |_w, _msg| {},
    );
    let d = done.clone();
    VrpSender::send(
        &mut p.world,
        &udp_a,
        p.network,
        p.b,
        7000,
        vec![0u8; bytes],
        config,
        move |_w, stats| *d.borrow_mut() = Some(stats),
    );
    let dd = done.clone();
    p.world.run_while(|| dd.borrow().is_none());
    let stats = done.borrow().expect("sender finished");
    (
        stats.goodput_bytes_per_sec() / 1e3,
        stats.delivered_fraction(),
    )
}

/// Runs the lossy-link experiment (§5): TCP ≈150 KB/s, VRP with 10 %
/// tolerated loss ≈3× faster.
pub fn vrp_lossy_link(bytes: usize, tolerance: f64) -> VrpResult {
    let tcp = lossy_tcp_goodput(bytes);
    let (vrp, delivered) = lossy_vrp_goodput(bytes, tolerance);
    VrpResult {
        tcp_kb_s: tcp,
        vrp_kb_s: vrp,
        tolerance,
        delivered_fraction: delivered,
    }
}

// --------------------------------------------------------------------- //
// MadIO overhead (§4.1) and framework overhead (§5)
// --------------------------------------------------------------------- //

/// Result of the MadIO / framework overhead measurements.
#[derive(Debug, Clone, Copy)]
pub struct OverheadResult {
    /// Small-message one-way latency of the lower layer alone, µs.
    pub baseline_us: f64,
    /// Latency through the layer under test, µs.
    pub layered_us: f64,
}

impl OverheadResult {
    /// The overhead added by the layer, µs.
    pub fn overhead_us(&self) -> f64 {
        self.layered_us - self.baseline_us
    }
}

/// Measures raw Madeleine latency vs MadIO latency (with header combining):
/// the paper reports an overhead under 0.1 µs.
pub fn madio_overhead() -> OverheadResult {
    use madeleine::{Madeleine, SendMode};
    use netaccess::{MadIOTag, NetAccess};

    // Raw Madeleine.
    let baseline_us = {
        let p = topology::san_pair(31);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let m0 = Madeleine::new(&mut world, nodes[0], p.san);
        let m1 = Madeleine::new(&mut world, nodes[1], p.san);
        let c0 = m0.open_channel(nodes.clone()).unwrap();
        let c1 = m1.open_channel(nodes.clone()).unwrap();
        let at = Rc::new(Cell::new(0.0));
        let a = at.clone();
        c1.set_message_callback(move |w, _| a.set(w.now().as_micros_f64()));
        let mut pk = c0.begin_packing(1).unwrap();
        pk.pack(vec![0u8; 16], SendMode::Cheaper);
        pk.end_packing(&mut world);
        world.run();
        at.get()
    };

    // MadIO on top.
    let layered_us = {
        let p = topology::san_pair(31);
        let mut world = p.world;
        let nodes = vec![p.a, p.b];
        let ios: Vec<_> = nodes
            .iter()
            .map(|&n| NetAccess::new(&mut world, n, Some((p.san, nodes.clone()))).madio())
            .collect();
        let at = Rc::new(Cell::new(0.0));
        let a = at.clone();
        ios[1].register(&mut world, MadIOTag::user(0), move |w, _m| {
            a.set(w.now().as_micros_f64())
        });
        ios[0].send_bytes(&mut world, 1, MadIOTag::user(0), vec![0u8; 16]);
        world.run();
        at.get()
    };

    OverheadResult {
        baseline_us,
        layered_us,
    }
}

/// Measures MPI latency directly over a raw Circuit wired to Madeleine vs
/// through the full PadicoTM runtime: the paper reports that MPICH in
/// PadicoTM performs like standalone MPICH.
pub fn mpich_overhead() -> OverheadResult {
    // "Standalone": MPI over a Circuit whose link goes straight to MadIO
    // with a dedicated NetAccess (nothing else sharing the node).
    let baseline_us = {
        let mut fixture = mpi_fixture();
        fixture.round_trip_us(4) / 2.0
    };
    // Through the full runtime with a CORBA ORB also active on both nodes
    // (sharing NetAccess and the SAN).
    let layered_us = {
        let (mut world, rts, nodes) = testbed(33);
        // A second middleware is active on the same nodes.
        let orb = Orb::new(rts[1].clone(), OrbImpl::OmniOrb4);
        orb.register_servant("noise", |_w, _op, _a| IdlValue::Void);
        orb.activate(&mut world, 950);
        let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 72);
        let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 72);
        let m0 = MpiComm::new(&mut world, c0);
        let m1 = MpiComm::new(&mut world, c1);
        let m1b = m1.clone();
        m1.recv(&mut world, Some(0), Some(5), move |world, _msg| {
            m1b.send(world, 0, 6, &[1u8]);
        });
        let at = Rc::new(Cell::new(0.0));
        let a = at.clone();
        m0.recv(&mut world, Some(1), Some(6), move |world, _msg| {
            a.set(world.now().as_micros_f64());
        });
        let start = world.now().as_micros_f64();
        m0.send(&mut world, 1, 5, &[0u8; 4]);
        world.run();
        (at.get() - start) / 2.0
    };
    OverheadResult {
        baseline_us,
        layered_us,
    }
}

// --------------------------------------------------------------------- //
// Coexistence / arbitration fairness
// --------------------------------------------------------------------- //

/// Result of the coexistence experiment: MPI and CORBA sharing one node
/// and one SAN.
#[derive(Debug, Clone, Copy)]
pub struct CoexistenceResult {
    /// MPI messages completed.
    pub mpi_messages: u64,
    /// CORBA requests completed.
    pub corba_requests: u64,
    /// MadIO events dispatched by the arbitration core on the server node.
    pub madio_events: u64,
    /// SysIO events dispatched by the arbitration core on the server node.
    pub sysio_events: u64,
}

/// Runs MPI traffic and CORBA requests concurrently between the same two
/// nodes and reports how the arbitration layer served both.
pub fn coexistence(mpi_messages: u64, corba_requests: u64) -> CoexistenceResult {
    let (mut world, rts, nodes) = testbed(35);
    // MPI between the two nodes.
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 73);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 73);
    let m0 = MpiComm::new(&mut world, c0);
    let m1 = MpiComm::new(&mut world, c1);
    let mpi_done = Rc::new(Cell::new(0u64));
    fn echo_loop(world: &mut SimWorld, comm: MpiComm) {
        let c = comm.clone();
        comm.recv(world, Some(0), Some(5), move |world, msg| {
            c.send(world, 0, 6, &msg.data);
            echo_loop(world, c.clone());
        });
    }
    echo_loop(&mut world, m1);
    fn pump_mpi(world: &mut SimWorld, comm: MpiComm, left: u64, done: Rc<Cell<u64>>) {
        if left == 0 {
            return;
        }
        comm.send(world, 1, 5, &vec![0u8; 4096]);
        let c = comm.clone();
        comm.recv(world, Some(1), Some(6), move |world, _msg| {
            done.set(done.get() + 1);
            pump_mpi(world, c.clone(), left - 1, done.clone());
        });
    }
    pump_mpi(&mut world, m0, mpi_messages, mpi_done.clone());

    // CORBA between the same two nodes, forced onto the Ethernet (the
    // client's preferences forbid the SAN) so both NetAccess subsystems are
    // exercised concurrently.
    rts[0].set_preferences(SelectorPreferences {
        forbid_san: true,
        ..Default::default()
    });
    let server = Orb::new(rts[1].clone(), OrbImpl::OmniOrb4);
    server.register_servant("echo", |_w, _op, arg| arg);
    server.activate(&mut world, 960);
    let client = Orb::new(rts[0].clone(), OrbImpl::OmniOrb4);
    let objref = client.object_ref(nodes[1], 960, "echo");
    let corba_done = Rc::new(Cell::new(0u64));
    fn pump_corba(
        world: &mut SimWorld,
        client: Orb,
        objref: middleware::ObjRef,
        left: u64,
        done: Rc<Cell<u64>>,
    ) {
        if left == 0 {
            return;
        }
        let c = client.clone();
        let o = objref.clone();
        client.invoke(
            world,
            &objref,
            "ping",
            IdlValue::Long(7),
            move |world, _r| {
                done.set(done.get() + 1);
                pump_corba(world, c.clone(), o.clone(), left - 1, done.clone());
            },
        );
    }
    pump_corba(
        &mut world,
        client,
        objref,
        corba_requests,
        corba_done.clone(),
    );

    world.run();
    let stats = rts[1].netaccess().stats();
    CoexistenceResult {
        mpi_messages: mpi_done.get(),
        corba_requests: corba_done.get(),
        madio_events: stats.madio_events,
        sysio_events: stats.sysio_events,
    }
}

// --------------------------------------------------------------------- //
// Adapter selection (§3.2 qualitative claims)
// --------------------------------------------------------------------- //

/// One adapter-selection observation.
#[derive(Debug, Clone)]
pub struct SelectionObservation {
    /// Description of the node pair.
    pub pair: String,
    /// Decision for distributed middleware (VLink).
    pub vlink_decision: String,
    /// Decision for parallel middleware (Circuit).
    pub circuit_decision: String,
}

/// Enumerates the selector's decisions across the paper's deployment
/// configurations (same cluster, across a WAN, lossy Internet).
pub fn adapter_selection() -> Vec<SelectionObservation> {
    let mut out = Vec::new();

    let g = topology::two_clusters_over_wan(41, 2);
    let kb = padico_core::TopologyKb::default();
    let a0 = g.cluster_a.node(0);
    let a1 = g.cluster_a.node(1);
    let b0 = g.cluster_b.node(0);
    for (label, x, y) in [
        ("same SAN cluster", a0, a1),
        ("across the VTHD WAN", a0, b0),
        ("same node", a0, a0),
    ] {
        out.push(SelectionObservation {
            pair: label.to_string(),
            vlink_decision: format!("{:?}", kb.select_vlink(&g.world, x, y)),
            circuit_decision: format!("{:?}", kb.select_circuit(&g.world, x, y)),
        });
    }

    let inet = topology::lossy_internet_pair(43);
    out.push(SelectionObservation {
        pair: "lossy trans-continental link".to_string(),
        vlink_decision: format!("{:?}", kb.select_vlink(&inet.world, inet.a, inet.b)),
        circuit_decision: format!("{:?}", kb.select_circuit(&inet.world, inet.a, inet.b)),
    });
    out
}
