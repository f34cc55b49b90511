//! # padicotm — Rust reproduction of the PadicoTM grid communication framework
//!
//! This facade crate re-exports the whole workspace so applications can use
//! a single dependency:
//!
//! * [`simnet`] — the deterministic network simulator standing in for the
//!   paper's hardware testbed (Myrinet-2000, Ethernet-100, VTHD WAN, lossy
//!   Internet links);
//! * [`gridtopo`] — multi-hop routing for hierarchical, multi-site grid
//!   topologies (sites behind gateways, WAN backbones); the gateways
//!   relay streams through [`core`]'s proxies and trunks;
//! * [`transport`] — TCP, UDP, VRP, Parallel Streams, AdOC compression and
//!   secure streams over the simulated networks;
//! * [`madeleine`] — the Madeleine-style SAN message library;
//! * [`netaccess`] — the arbitration layer (MadIO, SysIO, fair polling);
//! * [`core`] — the dual-abstraction framework itself (VLink,
//!   Circuit, selector, personalities, runtime);
//! * [`middleware`] — MPI, CORBA ORBs, Java sockets, SOAP and HLA ported on
//!   top of the framework.
//!
//! See `examples/` for runnable scenarios, and `tests/paper_claims.rs` for
//! the paper's claims measured and checked; its table is committed as
//! `tests/golden/paper_claims.md`.

#![deny(unsafe_code)]

pub use gridtopo;
pub use madeleine;
pub use middleware;
pub use netaccess;
pub use padico_core as core;
pub use simnet;
pub use transport;

/// Commonly used types for applications built on PadicoTM-RS.
pub mod prelude {
    pub use gridtopo::{
        GridRoutes, GridTopology, HierRouteTable, RouteTable, SiteLayout, SiteSpec,
    };
    pub use madeleine::{RecvMode, SendMode};
    pub use middleware::{IdlValue, MpiComm, Orb, OrbImpl, SoapCall, SoapEndpoint};
    pub use netaccess::{NetAccess, PollPolicy};
    pub use padico_core::{
        runtimes_for_cluster, runtimes_for_grid, runtimes_for_lan, Circuit, LinkDecision,
        PadicoRuntime, SelectorPreferences, VLink, VLinkMethod,
    };
    pub use simnet::{topology, NetworkSpec, NodeId, SimDuration, SimTime, SimWorld};
    pub use transport::{ByteStream, ByteStreamExt};
}
