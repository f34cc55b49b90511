//! SysIO: cooperative, callback-based access to system sockets.
//!
//! The paper's observation is that using the raw socket API from several
//! middleware systems at once breaks: signal-driven I/O is not reentrant,
//! and one active poller starves everyone else. SysIO owns the node's TCP
//! stack and delivers accepted connections through the NetAccess dispatch
//! loop. A stream registered with [`SysIO::watch`] has its readiness
//! dispatched the same way, so fairness with MadIO is enforced in one
//! place — but only this module's tests call `watch`: the streams the
//! framework opens read from their own connection callbacks, so in
//! practice SysIO arbitrates accepts only.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simnet::{NetworkId, NodeId, SimWorld};
use transport::{ByteStream, TcpConn, TcpStack};

use crate::core::{NetAccessCore, Subsystem};

/// Identifier of a watched stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WatchId(pub u64);

/// Callback invoked when a watched stream becomes readable. The stream is
/// passed back so the callback can read from it without capturing it.
pub type StreamCallback = Box<dyn FnMut(&mut SimWorld, &Rc<dyn ByteStream>)>;

/// Callback invoked when a watched listener accepts a connection.
pub type AcceptCallback = Box<dyn FnMut(&mut SimWorld, TcpConn)>;

struct WatchEntry {
    stream: Rc<dyn ByteStream>,
    callback: Rc<RefCell<StreamCallback>>,
}

struct SysIOInner {
    core: NetAccessCore,
    node: NodeId,
    tcp: TcpStack,
    watches: HashMap<WatchId, WatchEntry>,
    next_watch: u64,
    events_dispatched: u64,
}

/// Cooperative socket access for one node.
#[derive(Clone)]
pub struct SysIO {
    inner: Rc<RefCell<SysIOInner>>,
}

impl SysIO {
    pub(crate) fn new(world: &mut SimWorld, core: NetAccessCore, node: NodeId) -> SysIO {
        let tcp = TcpStack::new(world, node);
        SysIO {
            inner: Rc::new(RefCell::new(SysIOInner {
                core,
                node,
                tcp,
                watches: HashMap::new(),
                next_watch: 0,
                events_dispatched: 0,
            })),
        }
    }

    /// The node this SysIO instance serves.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// The TCP stack owned by this SysIO (the arbitration layer is the only
    /// client of the system-level resources, so every TCP connection of the
    /// node goes through here).
    pub fn tcp(&self) -> TcpStack {
        self.inner.borrow().tcp.clone()
    }

    /// Number of readiness events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.inner.borrow().events_dispatched
    }

    /// Opens a TCP connection through the arbitrated stack.
    pub fn connect(
        &self,
        world: &mut SimWorld,
        network: NetworkId,
        remote_node: NodeId,
        remote_port: u16,
    ) -> TcpConn {
        let tcp = self.tcp();
        tcp.connect(world, network, remote_node, remote_port)
    }

    /// Starts listening on `port`; accepted connections are delivered
    /// through the NetAccess dispatch loop.
    pub fn listen(
        &self,
        port: u16,
        on_accept: impl FnMut(&mut SimWorld, TcpConn) + 'static,
    ) -> bool {
        let core = self.inner.borrow().core.clone();
        let on_accept: Rc<RefCell<AcceptCallback>> = Rc::new(RefCell::new(Box::new(on_accept)));
        self.tcp().listen(port, move |world, conn| {
            let on_accept = on_accept.clone();
            // Route the accept through the fair dispatch loop.
            core.enqueue(
                world,
                Subsystem::SysIO,
                Box::new(move |world| {
                    (on_accept.borrow_mut())(world, conn.clone());
                    // Data that arrived between the TCP-level accept and
                    // this deferred dispatch predates the readable callback
                    // the application just installed; re-announce it.
                    conn.announce_readable(world);
                }),
            );
        })
    }

    /// Watches a stream: `callback` runs (through the fair dispatch loop)
    /// every time the stream has new readable data.
    pub fn watch(
        &self,
        stream: Rc<dyn ByteStream>,
        callback: impl FnMut(&mut SimWorld, &Rc<dyn ByteStream>) + 'static,
    ) -> WatchId {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = WatchId(inner.next_watch);
            inner.next_watch += 1;
            inner.watches.insert(
                id,
                WatchEntry {
                    stream: stream.clone(),
                    callback: Rc::new(RefCell::new(Box::new(callback))),
                },
            );
            id
        };
        // Hook the stream's readability into the dispatch loop.
        let sysio = self.clone();
        stream.set_readable_callback(Box::new(move |world| {
            sysio.on_readable(world, id);
        }));
        id
    }

    /// Stops watching a stream.
    pub fn unwatch(&self, id: WatchId) {
        self.inner.borrow_mut().watches.remove(&id);
    }

    fn on_readable(&self, world: &mut SimWorld, id: WatchId) {
        let core = self.inner.borrow().core.clone();
        let sysio = self.clone();
        core.enqueue(
            world,
            Subsystem::SysIO,
            Box::new(move |world| {
                let entry = {
                    let mut inner = sysio.inner.borrow_mut();
                    inner.events_dispatched += 1;
                    inner
                        .watches
                        .get(&id)
                        .map(|e| (e.stream.clone(), e.callback.clone()))
                };
                if let Some((stream, callback)) = entry {
                    (callback.borrow_mut())(world, &stream);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::NetAccessConfig;
    use simnet::{topology, NetworkSpec};
    use std::cell::Cell;
    use transport::ByteStreamExt;

    fn setup() -> (SimWorld, SysIO, SysIO, simnet::NetworkId, NodeId, NodeId) {
        let mut p = topology::pair_over(31, NetworkSpec::ethernet_100());
        let core_a = NetAccessCore::new(p.a, NetAccessConfig::default());
        let core_b = NetAccessCore::new(p.b, NetAccessConfig::default());
        let sys_a = SysIO::new(&mut p.world, core_a, p.a);
        let sys_b = SysIO::new(&mut p.world, core_b, p.b);
        (p.world, sys_a, sys_b, p.network, p.a, p.b)
    }

    #[test]
    fn connect_listen_and_watch_roundtrip() {
        let (mut world, sys_a, sys_b, net, _a, b) = setup();
        let received = Rc::new(RefCell::new(Vec::new()));
        let r = received.clone();
        sys_b_clone_listen(&sys_b, r);
        fn sys_b_clone_listen(sys_b: &SysIO, r: Rc<RefCell<Vec<u8>>>) {
            let sysio = sys_b.clone();
            sys_b.listen(80, move |_world, conn| {
                let conn_rc: Rc<dyn ByteStream> = Rc::new(conn);
                let r = r.clone();
                sysio.watch(conn_rc, move |world, stream| {
                    r.borrow_mut().extend(stream.recv(world, usize::MAX));
                });
            });
        }
        let client = sys_a.connect(&mut world, net, b, 80);
        client.send_all(&mut world, b"through the arbitration layer");
        world.run();
        assert_eq!(*received.borrow(), b"through the arbitration layer");
        assert!(sys_b.events_dispatched() >= 1);
    }

    #[test]
    fn unwatch_stops_callbacks() {
        let (mut world, sys_a, sys_b, net, _a, b) = setup();
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let watch_id: Rc<RefCell<Option<WatchId>>> = Rc::new(RefCell::new(None));
        let wid = watch_id.clone();
        let sysio = sys_b.clone();
        sys_b.listen(81, move |_world, conn| {
            let conn_rc: Rc<dyn ByteStream> = Rc::new(conn);
            let h = h.clone();
            let id = sysio.watch(conn_rc, move |world, stream| {
                stream.recv(world, usize::MAX);
                h.set(h.get() + 1);
            });
            *wid.borrow_mut() = Some(id);
        });
        let client = sys_a.connect(&mut world, net, b, 81);
        client.send_all(&mut world, b"first");
        world.run();
        let first_hits = hits.get();
        assert!(first_hits >= 1);
        sys_b.unwatch(watch_id.borrow().unwrap());
        client.send_all(&mut world, b"second");
        world.run();
        assert_eq!(hits.get(), first_hits, "no callbacks after unwatch");
    }

    #[test]
    fn two_middleware_systems_share_one_node_without_interfering() {
        // Two independent listeners ("two middleware systems") on the same
        // SysIO: each only sees its own traffic.
        let (mut world, sys_a, sys_b, net, _a, b) = setup();
        let mw1 = Rc::new(RefCell::new(Vec::new()));
        let mw2 = Rc::new(RefCell::new(Vec::new()));
        for (port, sink) in [(9001u16, mw1.clone()), (9002u16, mw2.clone())] {
            let sysio = sys_b.clone();
            sys_b.listen(port, move |_world, conn| {
                let conn_rc: Rc<dyn ByteStream> = Rc::new(conn);
                let sink = sink.clone();
                sysio.watch(conn_rc, move |world, stream| {
                    sink.borrow_mut().extend(stream.recv(world, usize::MAX));
                });
            });
        }
        let c1 = sys_a.connect(&mut world, net, b, 9001);
        let c2 = sys_a.connect(&mut world, net, b, 9002);
        c1.send_all(&mut world, b"corba traffic");
        c2.send_all(&mut world, b"soap traffic");
        world.run();
        assert_eq!(*mw1.borrow(), b"corba traffic");
        assert_eq!(*mw2.borrow(), b"soap traffic");
    }
}
