//! Executor equivalence: the partitioned executor must produce
//! **byte-identical** telemetry to the single-queue executor.
//!
//! Partitioning only changes which world executes a node — each shard
//! world pops its own ordinary queue in `(time, seq)` order and frames
//! cross the cut at their true delivery time, so the delivery order and
//! every counter are bit-for-bit the same. The
//! comparison is on `MetricsSnapshot::to_json_excluding(&["sim.executor."])`
//! output, which covers the full metric namespace of a quiesced run;
//! only the shard worlds' own cut bookkeeping (`sim.executor.*`) has no
//! single-queue counterpart and is excluded.

use padico_bench::fullstack::{mirror_equivalence, MirrorConfig};

/// The partitioned executor on the *full stack*: every shard world runs
/// the real relay/credit machinery over a mirrored two-site grid, and
/// the merged snapshot must be byte-identical to the single-queue run —
/// including credits consumed in one shard world and returned through a
/// wire credit frame from another. The unit tests cover
/// `MirrorConfig::smoke()`; this runs twice its fan-in into a gateway
/// queue a quarter its size, on another seed.
#[test]
fn full_stack_partitioned_run_is_bit_identical_to_single_queue() {
    for threads in [1usize, 2] {
        let cfg = MirrorConfig {
            senders: 16,
            queue_capacity: 2,
            threads,
            seed: 0x5EED,
            ..MirrorConfig::smoke()
        };
        let eq = mirror_equivalence(&cfg);
        assert!(
            eq.identical,
            "partitioned full-stack snapshot diverged ({threads} threads): {eq:?}"
        );
        assert_eq!(eq.delivered, eq.frames_total, "{eq:?}");
        assert_eq!(eq.lookahead_violations, 0, "{eq:?}");
        assert_eq!(eq.conservation, Vec::<String>::new());
        assert_eq!(eq.cross_out, eq.cross_in, "cross-shard frame leak: {eq:?}");
        assert!(
            eq.frames_crossed >= 2 * eq.frames_total,
            "every frame crosses as data and returns a wire credit: {eq:?}"
        );
    }
}
