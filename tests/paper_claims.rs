//! The paper's numeric claims, measured on the simulated testbed and
//! checked against the paper's bounds.
//!
//! Each row holds the paper section, the claim, the paper's value, the
//! tolerance, the measured value and the verdict written in the code:
//! `Holds`, or `Gap` with the reason the model misses the claim. The test
//! fails if any row's verdict differs from the written one, in either
//! direction — a claim that drifts out of bound fails, and so does a gap
//! that closes. Only then are the rows rendered to
//! `tests/golden/paper_claims.md` and compared byte for byte, so any
//! change to a measured value shows up in `git diff tests/golden`.
//!
//! Everything is virtual time: every run measures the same numbers.

mod common;

use std::cell::Cell;
use std::fmt::Write;
use std::rc::Rc;

use bytes::Bytes;
use common::check_golden;
use padicotm::core::{runtimes_for_cluster, PadicoRuntime, SelectorPreferences, VLinkEvent};
use padicotm::madeleine::{Madeleine, SendMode};
use padicotm::middleware::{IdlValue, JavaServerSocket, JavaSocket, MpiComm, ObjRef, Orb, OrbImpl};
use padicotm::netaccess::{MadIOTag, NetAccess, NetAccessStats};
use padicotm::simnet::{topology, NetworkSpec, NodeId, SimWorld};
use padicotm::transport::{
    ByteStream, ByteStreamExt, ParallelStream, ParallelStreamConfig, TcpStack, UdpHost, VrpConfig,
    VrpReceiver, VrpSender, VrpTransferStats,
};

const MIB: usize = 1024 * 1024;

/// The paper's two-node Myrinet-2000 + Ethernet-100 testbed, with runtimes.
fn testbed(seed: u64) -> (SimWorld, Vec<PadicoRuntime>, Vec<NodeId>) {
    let p = topology::san_pair(seed);
    let mut world = p.world;
    let nodes = vec![p.a, p.b];
    let rts = runtimes_for_cluster(&mut world, p.san, &nodes, SelectorPreferences::default());
    (world, rts, nodes)
}

/// Round trip in µs of one message of each of `sizes`, in order: `send`
/// posts a message, and every acknowledgement from the peer adds one to
/// `acks`.
fn round_trips(
    mut world: SimWorld,
    acks: Rc<Cell<u64>>,
    sizes: &[usize],
    send: impl Fn(&mut SimWorld, &[u8]),
) -> Vec<f64> {
    let mut rtts = Vec::with_capacity(sizes.len());
    for (sent, &size) in (1..).zip(sizes) {
        let start = world.now();
        send(&mut world, &vec![0xA5u8; size]);
        world.run_while(|| acks.get() < sent);
        rtts.push(world.now().since(start).as_micros_f64());
    }
    rtts
}

/// One-way latency (half the round trip of 4 B) and the one-way bandwidth
/// in MB/s at each of `sizes`, from one fixture run over `[4, sizes…]`.
fn profile(sizes: &[usize], fixture: impl FnOnce(&[usize]) -> Vec<f64>) -> (f64, Vec<f64>) {
    let all: Vec<usize> = std::iter::once(4).chain(sizes.iter().copied()).collect();
    let rtts = fixture(&all);
    let latency = rtts[0] / 2.0;
    // The ack carries almost nothing, so one way ≈ round trip − latency.
    let bandwidth = sizes
        .iter()
        .zip(&rtts[1..])
        .map(|(&size, rtt)| size as f64 / (rtt - latency).max(0.001))
        .collect();
    (latency, bandwidth)
}

fn peak(bandwidths: &[f64]) -> f64 {
    bandwidths.iter().copied().fold(0.0, f64::max)
}

/// A stream message: 4-byte big-endian length, then the payload.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// The server side of the stream fixtures: fed every byte received, it
/// calls `ack` once per complete length-prefixed message.
fn acker(mut ack: impl FnMut(&mut SimWorld)) -> impl FnMut(&mut SimWorld, &[u8]) {
    let mut buf = Vec::new();
    move |world, data| {
        buf.extend_from_slice(data);
        while buf.len() >= 4 {
            let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            if buf.len() < 4 + len {
                return;
            }
            buf.drain(..4 + len);
            ack(world);
        }
    }
}

/// The Circuit abstract interface straight on Myrinet; the peer answers
/// each message with a 1-byte message.
fn circuit(sizes: &[usize]) -> Vec<f64> {
    let (mut world, rts, nodes) = testbed(9);
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 70);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 70);
    let c1b = c1.clone();
    c1.set_message_callback(move |world, _msg| {
        c1b.send_bytes(world, 0, Bytes::from_static(&[1u8]));
    });
    let acks = Rc::new(Cell::new(0));
    let a = acks.clone();
    c0.set_message_callback(move |_w, _msg| a.set(a.get() + 1));
    round_trips(world, acks, sizes, move |world, payload| {
        c0.send_bytes(world, 1, Bytes::copy_from_slice(payload));
    })
}

/// The VLink abstract interface on Myrinet, length-prefixed messages.
fn vlink(sizes: &[usize]) -> Vec<f64> {
    let (mut world, rts, nodes) = testbed(7);
    rts[1].vlink_listen(&mut world, 400, |_w, server| {
        let (reader, writer) = (server.clone(), server.clone());
        let mut echo = acker(move |world| {
            writer.post_write(world, &[1u8]);
        });
        server.set_handler(move |world, event| {
            if event == VLinkEvent::Readable {
                let data = reader.read_now(world, usize::MAX);
                echo(world, &data);
            }
        });
    });
    let client = rts[0].vlink_connect(&mut world, nodes[1], 400);
    let acks = Rc::new(Cell::new(0));
    let (a, reader) = (acks.clone(), client.clone());
    client.set_handler(move |world, event| {
        if event == VLinkEvent::Readable {
            a.set(a.get() + reader.read_now(world, usize::MAX).len() as u64);
        }
    });
    world.run();
    round_trips(world, acks, sizes, move |world, payload| {
        client.post_write(world, &framed(payload));
    })
}

/// MPI over a Circuit on the testbed of `seed`, on Circuit port `port`;
/// rank 1 acks every message with a 1-byte message. With `orb`, an ORB of
/// that implementation is first activated on rank 1's node, sharing
/// NetAccess and the SAN with MPI.
fn mpi_beside(orb: Option<OrbImpl>, seed: u64, port: u16, sizes: &[usize]) -> Vec<f64> {
    let (mut world, rts, nodes) = testbed(seed);
    let _orb = orb.map(|implementation| {
        let orb = Orb::new(rts[1].clone(), implementation);
        orb.register_servant("noise", |_w, _op, _a| IdlValue::Void);
        orb.activate(&mut world, 950);
        orb
    });
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), port);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), port);
    let m0 = MpiComm::new(&mut world, c0);
    let m1 = MpiComm::new(&mut world, c1);
    // Each receive re-posts itself to keep the loop alive.
    fn echo(world: &mut SimWorld, comm: MpiComm) {
        let c = comm.clone();
        comm.recv(world, Some(0), Some(5), move |world, _msg| {
            c.send(world, 0, 6, &[1u8]);
            echo(world, c.clone());
        });
    }
    fn count_acks(world: &mut SimWorld, comm: MpiComm, acks: Rc<Cell<u64>>) {
        let c = comm.clone();
        comm.recv(world, Some(1), Some(6), move |world, _msg| {
            acks.set(acks.get() + 1);
            count_acks(world, c.clone(), acks.clone());
        });
    }
    echo(&mut world, m1);
    let acks = Rc::new(Cell::new(0));
    count_acks(&mut world, m0.clone(), acks.clone());
    round_trips(world, acks, sizes, move |world, payload| {
        m0.send(world, 1, 5, payload)
    })
}

fn mpi(sizes: &[usize]) -> Vec<f64> {
    mpi_beside(None, 11, 71, sizes)
}

/// One CORBA invocation per message, carrying it as an octet sequence.
fn corba(implementation: OrbImpl, sizes: &[usize]) -> Vec<f64> {
    let (mut world, rts, nodes) = testbed(13);
    let server = Orb::new(rts[1].clone(), implementation);
    server.register_servant("sink", |_w, _op, _arg| IdlValue::Void);
    server.activate(&mut world, 410);
    let client = Orb::new(rts[0].clone(), implementation);
    let objref = client.object_ref(nodes[1], 410, "sink");
    let acks = Rc::new(Cell::new(0));
    let a = acks.clone();
    round_trips(world, acks, sizes, move |world, payload| {
        let (a, arg) = (a.clone(), IdlValue::Octets(Bytes::copy_from_slice(payload)));
        client.invoke(world, &objref, "put", arg, move |_w, _| a.set(a.get() + 1));
    })
}

/// Java sockets, length-prefixed messages.
fn java(sizes: &[usize]) -> Vec<f64> {
    let (mut world, rts, nodes) = testbed(15);
    JavaServerSocket::bind(&mut world, &rts[1], 420, |_world, sock| {
        let writer = sock.clone();
        let mut echo = acker(move |world| writer.write(world, &[1u8]));
        sock.on_data(move |world, data| echo(world, &data));
    });
    let client = JavaSocket::connect(&mut world, &rts[0], nodes[1], 420);
    let acks = Rc::new(Cell::new(0));
    let a = acks.clone();
    client.on_data(move |_w, data| a.set(a.get() + data.len() as u64));
    world.run();
    round_trips(world, acks, sizes, move |world, payload| {
        client.write(world, &framed(payload))
    })
}

/// Plain TCP over Ethernet-100 (Fig. 3's reference curve).
fn tcp_ethernet(sizes: &[usize]) -> Vec<f64> {
    let mut p = topology::pair_over(17, NetworkSpec::ethernet_100());
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    sb.listen(80, |_world, conn| {
        let (reader, writer) = (conn.clone(), conn.clone());
        let mut echo = acker(move |world| {
            writer.send(world, &[1u8]);
        });
        conn.set_readable_callback(Box::new(move |world| {
            let data = reader.recv(world, usize::MAX);
            echo(world, &data);
        }));
    });
    let client = sa.connect(&mut p.world, p.network, p.b, 80);
    let acks = Rc::new(Cell::new(0));
    let (a, reader) = (acks.clone(), client.clone());
    client.set_readable_callback(Box::new(move |world| {
        a.set(a.get() + reader.recv(world, usize::MAX).len() as u64);
    }));
    p.world.run();
    round_trips(p.world, acks, sizes, move |world, payload| {
        client.send_all(world, &framed(payload))
    })
}

/// Goodput in MB/s of `bytes` over the VTHD WAN through `n_streams`
/// Parallel Streams.
fn vthd_goodput(n_streams: usize, bytes: usize) -> f64 {
    let mut p = topology::wan_pair(21);
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let cfg = ParallelStreamConfig {
        n_streams,
        chunk_size: 64 * 1024,
    };
    let received = Rc::new(Cell::new(0usize));
    let r = received.clone();
    ParallelStream::listen(&mut p.world, &sb, 2811, cfg.clone(), move |_w, server| {
        let (r, reader) = (r.clone(), server.clone());
        server.set_readable_callback(Box::new(move |world| {
            r.set(r.get() + reader.recv(world, usize::MAX).len());
        }));
    });
    let client = ParallelStream::connect(&mut p.world, &sa, p.network, p.b, 2811, cfg);
    p.world.run();
    let start = p.world.now();
    client.send_all(&mut p.world, &vec![0u8; bytes]);
    p.world.run_while(|| received.get() < bytes);
    bytes as f64 / p.world.now().since(start).as_secs_f64() / 1e6
}

/// Goodput in KB/s of `bytes` over one TCP connection on the lossy link.
fn lossy_tcp_goodput(bytes: usize) -> f64 {
    let mut p = topology::lossy_internet_pair(23);
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let received = Rc::new(Cell::new(0usize));
    let r = received.clone();
    sb.listen(99, move |_w, conn| {
        let (r, reader) = (r.clone(), conn.clone());
        conn.set_readable_callback(Box::new(move |world| {
            r.set(r.get() + reader.recv(world, usize::MAX).len());
        }));
    });
    let client = sa.connect(&mut p.world, p.network, p.b, 99);
    let start = p.world.now();
    client.send_all(&mut p.world, &vec![0u8; bytes]);
    p.world.run_while(|| received.get() < bytes);
    bytes as f64 / p.world.now().since(start).as_secs_f64() / 1e3
}

/// VRP on the lossy link, tolerating `tolerance` loss: goodput in KB/s
/// and the fraction of the message delivered.
fn lossy_vrp_goodput(bytes: usize, tolerance: f64) -> (f64, f64) {
    let mut p = topology::lossy_internet_pair(25);
    let udp_a = UdpHost::new(&mut p.world, p.a);
    let udp_b = UdpHost::new(&mut p.world, p.b);
    let config = VrpConfig {
        tolerance,
        pacing_bytes_per_sec: NetworkSpec::lossy_internet().bytes_per_sec,
        ..Default::default()
    };
    let (world, net) = (&mut p.world, p.network);
    VrpReceiver::bind(world, &udp_b, net, 7000, config.clone(), |_w, _msg| {});
    let done = Rc::new(Cell::new(None));
    let d = done.clone();
    let message = vec![0u8; bytes];
    let on_done = move |_: &mut SimWorld, stats: VrpTransferStats| d.set(Some(stats));
    VrpSender::send(world, &udp_a, net, p.b, 7000, message, config, on_done);
    world.run_while(|| done.get().is_none());
    let stats = done.get().expect("sender finished");
    let goodput = stats.goodput_bytes_per_sec() / 1e3;
    (goodput, stats.delivered_fraction())
}

/// A 16 B ping-pong on raw Madeleine: when the ping reaches the peer and
/// when the pong comes back, in µs.
fn madeleine_ping_pong() -> (f64, f64) {
    let p = topology::san_pair(31);
    let mut world = p.world;
    let nodes = vec![p.a, p.b];
    let m0 = Madeleine::new(&mut world, nodes[0], p.san);
    let m1 = Madeleine::new(&mut world, nodes[1], p.san);
    let c0 = m0.open_channel(nodes.clone()).unwrap();
    let c1 = m1.open_channel(nodes.clone()).unwrap();
    let (there, back) = (Rc::new(Cell::new(0.0)), Rc::new(Cell::new(0.0)));
    let (t, c1b) = (there.clone(), c1.clone());
    c1.set_message_callback(move |w, _| {
        t.set(w.now().as_micros_f64());
        let mut pk = c1b.begin_packing(0).unwrap();
        pk.pack(vec![0u8; 16], SendMode::Cheaper);
        pk.end_packing(w);
    });
    let b = back.clone();
    c0.set_message_callback(move |w, _| b.set(w.now().as_micros_f64()));
    let mut pk = c0.begin_packing(1).unwrap();
    pk.pack(vec![0u8; 16], SendMode::Cheaper);
    pk.end_packing(&mut world);
    world.run();
    (there.get(), back.get())
}

/// The same ping-pong through MadIO (header combining on).
fn madio_ping_pong() -> (f64, f64) {
    let p = topology::san_pair(31);
    let mut world = p.world;
    let nodes = vec![p.a, p.b];
    let ios: Vec<_> = nodes
        .iter()
        .map(|&n| NetAccess::new(&mut world, n, Some((p.san, nodes.clone()))).madio())
        .collect();
    let tag = MadIOTag::user(0);
    let (there, back) = (Rc::new(Cell::new(0.0)), Rc::new(Cell::new(0.0)));
    let (t, io1) = (there.clone(), ios[1].clone());
    ios[1].register(&mut world, tag, move |w, _| {
        t.set(w.now().as_micros_f64());
        io1.send_bytes(w, 0, tag, vec![0u8; 16]);
    });
    let b = back.clone();
    ios[0].register(&mut world, tag, move |w, _| b.set(w.now().as_micros_f64()));
    ios[0].send_bytes(&mut world, 1, tag, vec![0u8; 16]);
    world.run();
    (there.get(), back.get())
}

/// MPI exchanges over the SAN and CORBA requests forced onto the Ethernet,
/// concurrently between the same two nodes: exchanges completed of each,
/// and the server's NetAccess dispatch counters.
fn coexistence(exchanges: u64, requests: u64) -> (u64, u64, NetAccessStats) {
    let (mut world, rts, nodes) = testbed(35);
    let c0 = rts[0].circuit_create(&mut world, nodes.clone(), 73);
    let c1 = rts[1].circuit_create(&mut world, nodes.clone(), 73);
    let m0 = MpiComm::new(&mut world, c0);
    let m1 = MpiComm::new(&mut world, c1);
    fn echo_loop(world: &mut SimWorld, comm: MpiComm) {
        let c = comm.clone();
        comm.recv(world, Some(0), Some(5), move |world, msg| {
            c.send(world, 0, 6, &msg.data);
            echo_loop(world, c.clone());
        });
    }
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
    fn pump_corba(world: &mut SimWorld, orb: Orb, obj: ObjRef, left: u64, done: Rc<Cell<u64>>) {
        if left == 0 {
            return;
        }
        let (c, o) = (orb.clone(), obj.clone());
        orb.invoke(world, &obj, "ping", IdlValue::Long(7), move |world, _r| {
            done.set(done.get() + 1);
            pump_corba(world, c.clone(), o.clone(), left - 1, done.clone());
        });
    }
    let (mpi_done, corba_done) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    echo_loop(&mut world, m1);
    pump_mpi(&mut world, m0, exchanges, mpi_done.clone());
    // The client's preferences forbid the SAN, so CORBA exercises SysIO
    // while MPI exercises MadIO.
    rts[0].set_preferences(SelectorPreferences {
        forbid_san: true,
        ..Default::default()
    });
    let server = Orb::new(rts[1].clone(), OrbImpl::OmniOrb4);
    server.register_servant("echo", |_w, _op, arg| arg);
    server.activate(&mut world, 960);
    let client = Orb::new(rts[0].clone(), OrbImpl::OmniOrb4);
    let objref = client.object_ref(nodes[1], 960, "echo");
    pump_corba(&mut world, client, objref, requests, corba_done.clone());
    world.run();
    (mpi_done.get(), corba_done.get(), rts[1].netaccess().stats())
}

/// The verdict written for a row.
enum Verdict {
    /// The measurement is inside the paper's bound.
    Holds,
    /// The model misses the claim, for the given reason.
    Gap(&'static str),
}
use Verdict::{Gap, Holds};

/// The paper's value, the tolerance, the measured value, and whether the
/// measurement is inside the bound.
type Check = (String, String, String, bool);

fn check(paper: impl Into<String>, tolerance: &str, measured: String, holds: bool) -> Check {
    (paper.into(), tolerance.to_string(), measured, holds)
}

/// `measured` lies within `share` of the paper's value.
fn near(paper: f64, share: f64, measured: f64, unit: &str, decimals: usize) -> Check {
    let tolerance = format!("±{} %", share * 100.0);
    let shown = format!("{measured:.decimals$} {unit}");
    let holds = (measured - paper).abs() <= share * paper;
    check(format!("{paper} {unit}"), &tolerance, shown, holds)
}

/// `measured` is at least the paper's `bound`.
fn at_least(bound: f64, measured: f64, decimals: usize) -> Check {
    let shown = format!("{measured:.decimals$}");
    check(format!("≥ {bound}"), "bound", shown, measured >= bound)
}

/// `a` is faster than `b`.
fn beats(a: f64, b: f64, unit: &str, decimals: usize) -> Check {
    let shown = format!("{a:.decimals$} vs {b:.decimals$} {unit}");
    check("faster", "strict", shown, a > b)
}

/// All `of` exchanges or events happened.
fn all(done: u64, of: u64) -> Check {
    check(of.to_string(), "all", done.to_string(), done == of)
}

/// A Fig. 3 curve peaks at 85 % or more of the 250 MB/s Myrinet-2000 link.
fn wire(curve: &[f64]) -> Check {
    let max = peak(curve);
    let shown = format!("{max:.1} MB/s");
    check("250 MB/s link", "≥ 85 %", shown, max >= 0.85 * 250.0)
}

/// Paper section, claim, check, and the verdict written for it.
type Row = (&'static str, &'static str, Check, Verdict);

/// Why the model misses a claim. ROADMAP records the first and the last.
const RX_DOUBLE_CHARGE: &str =
    "a receiver stays busy one more serialisation after a frame has arrived (ROADMAP)";
const VTHD_LOSS: &str = "the modelled WAN loss rarely throttles one stream; uncalibrated";
const LOSSY_TCP: &str = "the modelled TCP backs off harder at 5 % loss; uncalibrated";
const SPEEDUP: &str = "follows from the lossy TCP gap";
const SYSIO_BYPASS: &str = "stream sockets bypass SysIO, which arbitrates accepts only (ROADMAP)";

fn render(rows: &[Row]) -> String {
    let mut md = String::from(
        "# The paper's claims, measured\n\
         \n\
         Generated by `tests/paper_claims.rs`. `cargo test` measures every row\n\
         on the simulated testbed (virtual time, so every run gives the same\n\
         numbers), checks it against the paper's bound, and fails if a verdict\n\
         changes: a claim that drifts out of bound, or a gap that closes. A\n\
         **gap** is a claim the model misses, with the reason.\n\
         \n\
         | Section | Paper | Tolerance | Measured | Verdict | Claim |\n\
         |---|---|---|---|---|---|\n",
    );
    for (section, claim, (paper, tolerance, measured, _), expected) in rows {
        let verdict = match expected {
            Holds => "holds".to_string(),
            Gap(reason) => format!("**gap**: {reason}"),
        };
        let line = format!("{section} | {paper} | {tolerance} | {measured} | {verdict} | {claim}");
        writeln!(md, "| {line} |").unwrap();
    }
    md
}

#[test]
fn paper_claims() {
    // §5 Table 1: one-way latency of 4 B, and peak bandwidth over 1 MiB
    // and 4 MiB; each stack on a fresh testbed.
    let t1 = [MIB, 4 * MIB];
    let (mpich, mpich_bw) = profile(&t1, mpi);
    let (orb3, orb3_bw) = profile(&t1, |s| corba(OrbImpl::OmniOrb3, s));
    let (orb4, orb4_bw) = profile(&t1, |s| corba(OrbImpl::OmniOrb4, s));
    let (javas, javas_bw) = profile(&t1, java);
    let circuit_latency = profile(&[], circuit).0;
    let vlink_latency = profile(&[], vlink).0;
    let ladder = [circuit_latency, vlink_latency, mpich, orb4, orb3, javas];
    let shown = ladder.map(|l| format!("{l:.2}")).join(", ");
    let ascending = ladder.windows(2).all(|w| w[0] < w[1]);
    let ascending = check("ascending", "strict", format!("{shown} µs"), ascending);

    // §5 Fig. 3: bandwidth over a size sweep; each curve on a fresh testbed.
    let sweep = [32, 128, 1024, 8 * 1024, 32 * 1024, 256 * 1024, MIB];
    let (at_256k, at_1m) = (5, 6);
    let orb = |implementation| profile(&sweep, |s| corba(implementation, s)).1;
    let (mico, orbacus) = (orb(OrbImpl::Mico)[at_1m], orb(OrbImpl::Orbacus)[at_1m]);
    let tcp = profile(&sweep, tcp_ethernet).1[at_1m];
    let (shown, holds) = (format!("{tcp:.1} MB/s"), (11.0..=12.5).contains(&tcp));
    let tcp = check("≈ 12 MB/s", "11 to 12.5 MB/s", shown, holds);
    let (orb3_curve, orb4_curve) = (orb(OrbImpl::OmniOrb3), orb(OrbImpl::OmniOrb4));
    let (mpi_curve, java_curve) = (profile(&sweep, mpi).1, profile(&sweep, java).1);
    let zero_copy = [orb3_curve, orb4_curve, mpi_curve, java_curve];
    let dips = zero_copy
        .each_ref()
        .map(|c| format!("{:.1} vs {:.1}", c[at_1m], c[at_256k]));
    let flat = zero_copy.iter().all(|c| c[at_1m] >= c[at_256k]);
    let dips = format!("{} MB/s (1 MiB vs 256 KiB)", dips.join(", "));
    let plateau = check("flat", "1 MiB ≥ 256 KiB", dips, flat);

    // §5 VTHD: 16 MB across the WAN, through one stream and through four.
    let (single, parallel) = (vthd_goodput(1, 16_000_000), vthd_goodput(4, 16_000_000));

    // §5 VRP: 2 MB across the lossy link; VRP tolerates 10 % loss.
    let lossy_tcp = lossy_tcp_goodput(2_000_000);
    let (vrp, delivered) = lossy_vrp_goodput(2_000_000, 0.10);

    // §4.1 MadIO: a 16 B ping-pong on raw Madeleine and through MadIO.
    let (raw_there, raw_back) = madeleine_ping_pong();
    let (madio_there, madio_back) = madio_ping_pong();
    let (one_way, round_trip) = (madio_there - raw_there, madio_back - raw_back);
    let shown = format!("{one_way:.3} µs ({madio_there:.3} − {raw_there:.3}, one way)");
    let under_100ns = check("< 0.1 µs", "bound", shown, one_way < 0.1);
    let shown = format!("{round_trip:.3} µs ({madio_back:.3} − {raw_back:.3})");
    let twice = (round_trip - 2.0 * one_way).abs() <= 0.001;
    let twice = check(format!("2 × {one_way:.3} µs"), "±1 ns", shown, twice);

    // §5 MPICH inside PadicoTM: Table 1's MPICH latency against the same
    // exchange on a testbed where a CORBA ORB is active too.
    let beside = mpi_beside(Some(OrbImpl::OmniOrb4), 33, 72, &[4])[0] / 2.0;
    let shown = format!("{beside:.2} µs");
    let holds = (beside - mpich).abs() <= 0.01 * mpich;
    let alike = check(format!("{mpich:.2} µs standalone"), "≤ 1 %", shown, holds);

    // §4 coexistence: MPI and CORBA between the same two nodes at once.
    let (mpi_done, corba_done, stats) = coexistence(200, 100);

    #[rustfmt::skip]
    let rows: Vec<Row> = vec![
        ("§5 Table 1", "MPICH one-way latency", near(12.06, 0.05, mpich, "µs", 2), Holds),
        ("§5 Table 1", "MPICH peak bandwidth", near(238.7, 0.05, peak(&mpich_bw), "MB/s", 1), Holds),
        ("§5 Table 1", "omniORB-3 one-way latency", near(20.3, 0.05, orb3, "µs", 2), Holds),
        ("§5 Table 1", "omniORB-3 peak bandwidth", near(238.4, 0.05, peak(&orb3_bw), "MB/s", 1), Holds),
        ("§5 Table 1", "omniORB-4 one-way latency", near(18.4, 0.05, orb4, "µs", 2), Holds),
        ("§5 Table 1", "omniORB-4 peak bandwidth", near(235.8, 0.05, peak(&orb4_bw), "MB/s", 1), Holds),
        ("§5 Table 1", "Java socket one-way latency", near(40.0, 0.05, javas, "µs", 2), Holds),
        ("§5 Table 1", "Java socket peak bandwidth", near(237.9, 0.05, peak(&javas_bw), "MB/s", 1), Holds),
        ("§5 Table 1", "Circuit < VLink < MPICH < omniORB-4 < omniORB-3 < Java socket", ascending, Holds),
        ("§5 Fig. 3", "Mico-2.3 copies and plateaus at 1 MiB", near(55.0, 0.10, mico, "MB/s", 1), Holds),
        ("§5 Fig. 3", "ORBacus-4.0 copies and plateaus at 1 MiB", near(63.0, 0.10, orbacus, "MB/s", 1), Holds),
        ("§5 Fig. 3", "TCP/Ethernet-100 reference at 1 MiB", tcp, Holds),
        ("§5 Fig. 3", "omniORB-3 does not copy and reaches the wire", wire(&zero_copy[0]), Holds),
        ("§5 Fig. 3", "omniORB-4 does not copy and reaches the wire", wire(&zero_copy[1]), Holds),
        ("§5 Fig. 3", "MPICH does not copy and reaches the wire", wire(&zero_copy[2]), Holds),
        ("§5 Fig. 3", "Java socket does not copy and reaches the wire", wire(&zero_copy[3]), Holds),
        ("§5 Fig. 3", "those four curves plateau up to 1 MiB", plateau, Gap(RX_DOUBLE_CHARGE)),
        ("§5 VTHD", "Parallel Streams ×4 reach the 12 MB/s access link", near(12.0, 0.05, parallel, "MB/s", 1), Holds),
        ("§5 VTHD", "Parallel Streams beat one stream", beats(parallel, single, "MB/s", 1), Holds),
        ("§5 VTHD", "one TCP stream gets about 9 MB/s", near(9.0, 0.10, single, "MB/s", 1), Gap(VTHD_LOSS)),
        ("§5 VRP", "VRP delivers all but the tolerated 10 %", at_least(0.9, delivered, 3), Holds),
        ("§5 VRP", "VRP is faster than TCP on the lossy link", beats(vrp, lossy_tcp, "KB/s", 0), Holds),
        ("§5 VRP", "TCP gets about 150 KB/s", near(150.0, 0.10, lossy_tcp, "KB/s", 0), Gap(LOSSY_TCP)),
        ("§5 VRP", "VRP is about 3 times faster than TCP", near(3.0, 0.10, vrp / lossy_tcp, "×", 2), Gap(SPEEDUP)),
        ("§4.1 MadIO", "multiplexing with header combining costs under 0.1 µs", under_100ns, Holds),
        ("§4.1 MadIO", "a round trip crosses MadIO twice (gridbench ladder A's netaccess.madio rung)", twice, Holds),
        ("§5 MPICH in PadicoTM", "MPICH beside an active ORB performs like standalone MPICH", alike, Holds),
        ("§4 coexistence", "MPI exchanges complete while CORBA shares the node", all(mpi_done, 200), Holds),
        ("§4 coexistence", "CORBA requests complete while MPI shares the node", all(corba_done, 100), Holds),
        ("§4 coexistence", "the server's MadIO dispatches each MPI message", all(stats.madio_events, 200), Holds),
        ("§4 coexistence", "the server's SysIO dispatches each CORBA request", at_least(100.0, stats.sysio_events as f64, 0), Gap(SYSIO_BYPASS)),
    ];

    let mut failures = String::new();
    for (section, claim, (paper, tolerance, measured, holds), expected) in &rows {
        let why = match expected {
            Holds if !holds => "is out of bound".to_string(),
            Gap(reason) if *holds => {
                format!("is inside it: gap \"{reason}\" closed, mark it Holds")
            }
            _ => continue,
        };
        let row = format!("{section} \"{claim}\": paper {paper} ({tolerance})");
        writeln!(failures, "{row}, measured {measured} {why}").unwrap();
    }
    assert!(failures.is_empty(), "claims changed verdict:\n{failures}");
    check_golden("paper_claims.md", &render(&rows));
}
