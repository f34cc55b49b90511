//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the hardware substrate of PadicoTM-RS. The original
//! PadicoTM (IPDPS 2004) was evaluated on real Myrinet-2000, Ethernet-100,
//! the VTHD WAN and a lossy trans-continental Internet link; none of that
//! hardware is available here, so this crate models it: nodes, switched
//! network fabrics with bandwidth/latency/MTU/loss, a virtual clock, and a
//! deterministic event queue.
//!
//! Everything above this crate (transports, Madeleine, NetAccess, the
//! PadicoTM abstractions, the middleware systems) is ordinary protocol code
//! that happens to run against simulated time, which makes every experiment
//! in the paper reproducible on any machine, bit-for-bit for a given seed.
//!
//! ## Example
//!
//! ```
//! use simnet::prelude::*;
//!
//! let mut world = SimWorld::new(7);
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! let net = world.add_network(NetworkSpec::myrinet_2000());
//! world.attach(a, net);
//! world.attach(b, net);
//!
//! // Deliver one 1 kB frame and observe the virtual time it took.
//! world.register_handler(b, ProtoId::user(0), |world, _net, frame| {
//!     println!("got {} bytes at {}", frame.payload_len(), world.now());
//! });
//! world.send_frame(net, Frame::new(a, b, ProtoId::user(0), vec![0u8; 1024])).unwrap();
//! world.run();
//! assert!(world.now() > SimTime::ZERO);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod event;
pub mod frame;
pub mod loss;
pub mod network;
pub mod node;
pub mod rng;
pub mod shard;
pub mod spec;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod wheel;
pub mod world;

pub use arena::{FramePool, PoolStats};
pub use event::EventId;
pub use frame::{Frame, ProtoId};
pub use loss::LossModel;
pub use network::{Network, NetworkId, SendError};
pub use node::{Node, NodeId};
pub use rng::SimRng;
pub use shard::{
    run_partitioned, Partition, PartitionReport, PartitionStats, RemoteFrame, ShardOutcome,
    TrunkLookahead, REMOTE_NET,
};
pub use spec::{HostProfile, NetworkClass, NetworkSpec};
pub use stats::{NetworkStats, WorldStats};
pub use telemetry::{
    conservation_violations, CauseId, Counter, EventRing, FlightRecorder, Gauge, Histogram,
    Log2Histogram, MetricValue, MetricsRegistry, MetricsSnapshot, SnapshotBuilder,
    StreamTransition, TimedEvent, TraceEvent,
};
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
pub use world::SimWorld;

/// Convenient glob import for users of the simulator.
pub mod prelude {
    pub use crate::frame::{Frame, ProtoId};
    pub use crate::loss::LossModel;
    pub use crate::network::{NetworkId, SendError};
    pub use crate::node::NodeId;
    pub use crate::spec::{HostProfile, NetworkClass, NetworkSpec};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology;
    pub use crate::world::SimWorld;
}
