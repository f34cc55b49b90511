//! # padico-core — the PadicoTM dual-abstraction communication framework
//!
//! This crate is the Rust reproduction of the paper's contribution: a
//! communication framework for grids that decouples middleware systems from
//! the networks they run on, organized in three layers:
//!
//! 1. **Arbitration** — provided by the [`netaccess`] crate (MadIO, SysIO,
//!    fair polling core), re-exported here for convenience.
//! 2. **Abstraction** — two paradigm-specific abstract interfaces:
//!    * [`vlink::VLink`] for the distributed paradigm (client/server,
//!      dynamic connections, streaming, asynchronous operations);
//!    * [`circuit::Circuit`] for the parallel paradigm (groups, incremental
//!      packing, per-link adapters);
//!      plus the [`selector`] that picks the adapter for each link from the
//!      topology knowledge base and user preferences, and the
//!      [`madio_stream`] cross-paradigm driver (streams over a SAN).
//! 3. **Personalities** — thin syntax adapters in [`personality`]: Vio,
//!    SysWrap, Aio, FastMessage and a virtual Madeleine API.
//!
//! The [`runtime::PadicoRuntime`] ties the three layers together on each
//! node; middleware systems (see the `middleware` crate) are written
//! against it and never touch the network directly.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod circuit;
pub mod madio_stream;
pub mod personality;
pub mod relay;
pub mod runtime;
pub mod selector;
pub mod trunk;
pub mod vlink;

pub use churn::{
    admit_site_live, apply_backbone_delta, drain_site_live, republish_routes, AdmittedSite,
    DrainReport,
};
pub use circuit::{
    Circuit, CircuitLink, CircuitLinkKind, CircuitMessage, MadIoCircuitLink, StreamCircuitLink,
};
pub use madio_stream::{MadStream, MadStreamDriver};
pub use relay::{install_gateway_proxy, GatewayProxy, GatewayProxyStats, GATEWAY_PROXY_SERVICE};
pub use runtime::{runtimes_for_cluster, runtimes_for_grid, runtimes_for_lan, PadicoRuntime};
pub use selector::{BackpressureMode, LinkDecision, SelectorPreferences, TopologyKb};
pub use trunk::{
    TrunkCreditStats, TrunkFlowConfig, TrunkHealthConfig, TrunkMemoryStats, TrunkMux, TrunkStream,
};
pub use vlink::{ReadOp, VLink, VLinkEvent, VLinkMethod};
