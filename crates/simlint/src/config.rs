//! Rule scoping: which parts of the workspace each rule applies to.
//!
//! Scopes are deliberately spelled out as path predicates in code rather
//! than read from a config file — the scope *is* part of the invariant
//! ("wall clock only in the routing bench" is meaningless if a config edit
//! can silently widen it), and a scope change should show up in review
//! as a diff to this file. All paths are workspace-relative with `/`
//! separators.

/// Files simlint never scans: its own source (the rule patterns must
/// mention every banned token by name — scanning the scanner is pure
/// noise, the same reason clippy does not lint its own lint names),
/// the intentionally-bad fixture corpus, and build output.
pub fn skip_entirely(path: &str) -> bool {
    path.starts_with("crates/simlint/")
        || path.starts_with("target/")
        || path.contains("/fixtures/")
}

/// Test-only code paths (integration test trees). `#[cfg(test)]`
/// modules inside library files are detected token-wise in `scan`.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// D1 (hash-iteration) scope: every file whose behavior feeds
/// `MetricsSnapshot` JSON, bench digests, trace rings, or frame/event
/// scheduling. That is the whole tree except the demo examples.
pub fn d1_in_scope(path: &str) -> bool {
    !path.starts_with("examples/")
}

/// D2 (wall clock / OS entropy) exemptions: the routing bench times
/// flat-vs-hier builds and lookups by design. Everything else must be
/// seeded and clock-free, or carry an allow with a reason.
pub fn d2_exempt(path: &str) -> bool {
    path == "crates/bench/src/routing.rs" || path.starts_with("examples/")
}

/// D3 (pointer formatting/hashing) scope: same as D1 — anything that
/// can end up serialized or digested.
pub fn d3_in_scope(path: &str) -> bool {
    d1_in_scope(path)
}

/// D4 (threads / std::sync) exemptions: the partitioned executor, the
/// only place the simulator is allowed to be multi-threaded, and the
/// vendored `bytes` stand-in, whose `Arc` refcount *is* the primitive
/// it vendors.
pub fn d4_exempt(path: &str) -> bool {
    path == "crates/simnet/src/shard.rs"
        || path.starts_with("crates/bytes/")
        || path.starts_with("examples/")
}

/// C1 (conservation pairs) gate files: the dynamic checkers a
/// registered pair must be cross-referenced in. A counter family
/// registered anywhere but never named in one of these is
/// registered-but-ungated.
pub const C1_GATE_FILES: &[&str] = &["crates/simnet/src/telemetry.rs"];

/// H1 (hygiene) scope for the unwrap/expect density cap: non-test
/// hot-path library code. Benches, examples, and the vendored stand-ins
/// are exempt; integration test trees and `#[cfg(test)]` modules are
/// excluded by the scanner itself.
pub fn h1_density_in_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/")
        && !path.starts_with("crates/bytes/")
        && !path.starts_with("examples/")
        && !is_test_path(path)
}

/// H1 `println!` scope: stdout belongs to benches and examples. Library
/// code reports through stats/telemetry, and diagnostics go to stderr.
pub fn h1_println_in_scope(path: &str) -> bool {
    h1_density_in_scope(path)
}

/// H1 density cap: a file may carry at most `max(10, code_lines / 40)`
/// `unwrap()`/`expect()` calls outside test modules. The floor keeps
/// small files honest without forbidding idiomatic borrow-panic
/// patterns; the slope scales with module size.
pub fn h1_unwrap_cap(code_lines: usize) -> usize {
    (code_lines / 40).max(10)
}
