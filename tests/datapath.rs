//! End-to-end tests of the zero-copy segmented datapath: relayed streams
//! must deliver bytes in order regardless of how the writer chunks them.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use padicotm::core::{runtimes_for_grid, SelectorPreferences, VLink, VLinkEvent};
use padicotm::gridtopo::{GridTopology, SiteSpec};
use padicotm::simnet::{NetworkSpec, SimWorld};
use padicotm::transport::SegBuf;

/// Builds a two-site grid (3-hop relayed path: SAN, WAN backbone, SAN) and
/// streams `payload` through a relayed VLink in writes of `chunk` bytes.
fn relay_roundtrip(chunk: usize, payload: &[u8]) -> Vec<u8> {
    let mut world = SimWorld::new(77);
    let specs = [
        SiteSpec::san_cluster("s0", 3),
        SiteSpec::san_cluster("s1", 3),
    ];
    let grid = GridTopology::star(&mut world, &specs, NetworkSpec::vthd_wan());
    let (rts, _proxies) = runtimes_for_grid(&mut world, &grid, SelectorPreferences::default());
    let dst = grid.site(1).node(1);
    let src_rt = rts[1].clone();
    let dst_rt = rts[grid.site(0).len() + 1].clone();
    world.run(); // grid bring-up (trunks, listeners)

    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));
    let g = got.clone();
    let d = done.clone();
    dst_rt.vlink_listen(&mut world, 910, move |_w, v: VLink| {
        let v2 = v.clone();
        let g = g.clone();
        let d = d.clone();
        v.set_handler(move |world, ev| match ev {
            VLinkEvent::Readable => g.borrow_mut().extend(v2.read_now(world, usize::MAX)),
            VLinkEvent::Finished => d.set(true),
            VLinkEvent::Connected => {}
        });
    });
    let client = src_rt.vlink_connect(&mut world, dst, 910);
    let hops = match client.method() {
        padicotm::core::VLinkMethod::Relayed { hops } => hops,
        other => panic!("expected a relayed link, got {other:?}"),
    };
    assert_eq!(hops, 3, "two gateway-isolated sites give a 3-hop path");
    for piece in payload.chunks(chunk) {
        client.post_write(&mut world, piece);
    }
    client.close(&mut world);
    world.run();
    assert!(done.get(), "relayed stream should finish after close");
    let out = got.borrow().clone();
    out
}

#[test]
fn relayed_stream_delivers_in_order_across_chunk_boundaries() {
    let small: Vec<u8> = (0..40_000usize).map(|i| (i * 31 % 251) as u8).collect();
    let bulk: Vec<u8> = (0..256 * 1024usize).map(|i| (i * 31 % 251) as u8).collect();
    for (chunk, payload) in [
        (1usize, &small),
        (7, &small),
        (4096, &small),
        (64 * 1024, &bulk),
    ] {
        let got = relay_roundtrip(chunk, payload);
        assert_eq!(got.len(), payload.len(), "chunk size {chunk}: wrong length");
        assert_eq!(&got, payload, "chunk size {chunk}: bytes reordered");
    }
}

/// The `recv_bytes` fast path returns segments that concatenate to exactly
/// what `recv` would have returned.
#[test]
fn recv_bytes_segments_concatenate_to_recv() {
    use padicotm::simnet::topology;
    use padicotm::transport::{ByteStream, ByteStreamExt, TcpStack};

    let mut p = topology::pair_over(3, NetworkSpec::ethernet_100());
    let sa = TcpStack::new(&mut p.world, p.a);
    let sb = TcpStack::new(&mut p.world, p.b);
    let server: Rc<RefCell<Option<padicotm::transport::TcpConn>>> = Rc::new(RefCell::new(None));
    let s2 = server.clone();
    sb.listen(80, move |_w, c| *s2.borrow_mut() = Some(c));
    let client = sa.connect(&mut p.world, p.network, p.b, 80);
    p.world.run();
    let server = server.borrow().clone().unwrap();

    let payload: Vec<u8> = (0..50_000usize).map(|i| (i % 253) as u8).collect();
    client.send_all(&mut p.world, &payload);
    p.world.run();

    // Drain via the segment fast path into a SegBuf, then compare.
    let mut segs = SegBuf::new();
    loop {
        let chunk = server.recv_bytes(&mut p.world, usize::MAX);
        if chunk.is_empty() {
            break;
        }
        segs.push_bytes(chunk);
    }
    assert_eq!(segs.read_into(usize::MAX), payload);
}
