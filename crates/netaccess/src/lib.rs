//! # netaccess — the PadicoTM arbitration layer
//!
//! `NetAccess` is the lowest layer of the PadicoTM model: the *only* client
//! of the raw networking resources of a node. It provides consistent,
//! reentrant, multiplexed, callback-based access to:
//!
//! * **MadIO** — parallel-oriented hardware reached through the Madeleine
//!   library, with logical multiplexing and *header combining* so that
//!   sharing the SAN between several middleware systems costs < 0.1 µs;
//! * **SysIO** — the node's TCP stack, with accepted connections delivered
//!   through the dispatch loop and an optional `watch` that routes a
//!   stream's readiness through it too;
//! * a **core dispatch loop** that interleaves the two with a
//!   user-tunable fairness policy.
//!
//! Everything above (the Circuit and VLink abstract interfaces, the
//! personalities, the middleware systems) opens its SAN channels and its
//! TCP connections through this crate. Only MadIO traffic and SysIO
//! accepts are arbitrated, though: no layer calls `SysIO::watch` yet, so
//! every TCP-based stream (plain TCP, Parallel Streams, AdOC, secure
//! links) reads straight from its own connection callback.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod core;
pub mod madio;
#[allow(clippy::module_inception)]
mod netaccess;
pub mod sysio;

pub use crate::core::{NetAccessConfig, NetAccessCore, NetAccessStats, PollPolicy, Subsystem};
pub use crate::madio::{MadIO, MadIOMessage, MadIOTag, MadIoStats, MADIO_HEADER_BYTES};
pub use crate::netaccess::NetAccess;
pub use crate::sysio::{AcceptCallback, StreamCallback, SysIO, WatchId};
