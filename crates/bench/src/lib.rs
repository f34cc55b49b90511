//! # padico-bench — multi-site scenarios and the routing bench for PadicoTM-RS
//!
//! [`multi_site`] runs the seeded multi-site scenarios (site sweeps,
//! incast, failover, churn), whose output the root package's
//! `tests/golden.rs` checks byte for byte against the committed corpus in
//! `tests/golden/`. [`routing`] and the `routing` binary time flat
//! against hierarchical routing. The paper's own claims are measured and
//! checked by the root package's `tests/paper_claims.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod multi_site;
pub mod routing;

pub use multi_site::{
    churn_run, churn_snapshot, churn_sweep, failover_metrics, failover_run, failover_snapshot,
    failover_sweep, incast_run, incast_snapshot, incast_sweep, multi_site_json, multi_site_run,
    multi_site_sweep, ChurnResult, FailoverResult, IncastResult, MultiSiteResult,
};
