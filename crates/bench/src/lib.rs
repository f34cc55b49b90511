//! # padico-bench — experiment harness for PadicoTM-RS
//!
//! Regenerates every table and figure of the paper's evaluation section
//! over the simulated testbed. See [`experiments`] for the individual
//! experiments and the `src/bin/*` binaries for printable output; the
//! multi-site scenarios are checked byte for byte against the committed
//! corpus in `tests/golden/` by the root package's `tests/golden.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod fullstack;
pub mod multi_site;
pub mod routing;

pub use experiments::*;
pub use multi_site::{
    churn_run, churn_snapshot, churn_sweep, conservation_violations, failover_metrics,
    failover_run, failover_snapshot, failover_sweep, incast_run, incast_snapshot, incast_sweep,
    multi_site_json, multi_site_run, multi_site_sweep, ChurnResult, FailoverResult, IncastResult,
    MultiSiteResult,
};

/// Formats a byte size the way the paper's axes do.
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}
