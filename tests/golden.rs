//! The golden corpus: every seeded multi-site scenario regenerated and
//! compared byte for byte with its committed output in `tests/golden/`.
//!
//! A renamed or vanished snapshot key, or a counter that drifts, fails
//! here. On a difference (or a missing file) the test writes the
//! regenerated bytes over the committed file and fails, naming the file
//! and the first line that differs: a rerun passes, and
//! `git diff tests/golden` is the review of the behaviour change.
//!
//! Before any comparison each run must pass its safety checks —
//! conservation, exact delivery, recovery — so a regenerated file can
//! never quietly accept a leak.

mod common;

use common::check_golden;
use padico_bench::multi_site::INCAST_STREAM_BYTES;
use padico_bench::{
    churn_snapshot, churn_sweep, failover_metrics, failover_snapshot, failover_sweep,
    incast_snapshot, incast_sweep, multi_site_json, multi_site_sweep,
};
use padicotm::simnet::{conservation_violations, MetricsSnapshot};

/// Checks conservation on `snap`, then compares its JSON with the golden.
fn check_snapshot(name: &str, snap: &MetricsSnapshot) {
    let violations = conservation_violations(snap);
    assert!(violations.is_empty(), "{name}: {violations:?}");
    check_golden(name, &snap.to_json());
}

#[test]
fn incast_credit() {
    check_snapshot(
        "incast_credit.json",
        &incast_snapshot(4, INCAST_STREAM_BYTES, 4242),
    );
}

#[test]
fn failover_fa17() {
    let (snap, completed) = failover_snapshot(4, 0xFA17);
    assert!(completed, "an acknowledged byte was lost or duplicated");
    check_snapshot("failover_fa17.json", &snap);
}

#[test]
fn failover_99() {
    let (snap, completed) = failover_snapshot(4, 99);
    assert!(completed, "an acknowledged byte was lost or duplicated");
    check_snapshot("failover_99.json", &snap);
}

#[test]
fn churn_c09e() {
    check_snapshot("churn_c09e.json", &churn_snapshot(4, 4, 0xC09E));
}

#[test]
fn churn_1234() {
    check_snapshot("churn_1234.json", &churn_snapshot(4, 4, 0x1234));
}

/// The failover run preceded by a CORBA invocation and an MPI exchange in
/// the same world, so its snapshot holds every telemetry namespace: the
/// golden file pins each key.
#[test]
fn failover_instrumented() {
    let (snap, completed, recovery_ms, _) = failover_metrics(4);
    assert!(completed, "an acknowledged byte was lost or duplicated");
    assert!(
        recovery_ms.is_some(),
        "streams did not resume through the surviving gateway"
    );
    check_snapshot("failover_instrumented.json", &snap);
}

/// The multi-site sweeps: site count × layout × backbone, incast,
/// failover and churn.
#[test]
fn multi_site() {
    let failover = failover_sweep();
    let churn = churn_sweep();
    for r in &failover {
        assert!(r.completed, "{r:?}");
    }
    for r in &churn {
        assert_eq!(r.conservation_violations, 0, "{r:?}");
        assert_eq!(r.transient_violations, 0, "{r:?}");
    }
    check_golden(
        "multi_site.json",
        &multi_site_json(&multi_site_sweep(), &incast_sweep(), &failover, &churn),
    );
}
