//! simlint — workspace-native static analysis for determinism and
//! conservation invariants.
//!
//! The reproduction rests on one property: a seeded run is a pure
//! function of its seed — sharded, partitioned, and multi-threaded
//! executions must produce byte-identical `MetricsSnapshot` JSON and
//! digest-stable bench rows, and every credit/frame counter must obey
//! its conservation law. The replay and equivalence suites enforce this
//! *dynamically*, when a seed happens to expose a violation; simlint
//! enforces the underlying conventions *statically*, at review time:
//!
//! - **D1** — no HashMap/HashSet iteration in snapshot/digest/trace/
//!   scheduling paths (hash order is not part of the seed).
//! - **D2** — no wall clock or OS entropy outside the routing bench.
//! - **D3** — no pointer-address formatting or hashing in anything
//!   serialized.
//! - **D4** — threads and `std::sync` only in the partitioned executor.
//! - **C1** — every conservation-family counter has its partner
//!   registered and the pair is gated in `conservation_violations`.
//! - **H1** — unwrap/expect density caps in hot-path modules, no
//!   `println!` outside benches/examples.
//! - **U1** — every `unsafe` carries a `// SAFETY:` justification.
//! - **A1** — allow annotations must be well-formed (with a reason) and
//!   must still suppress something.
//!
//! Violations are suppressed inline with
//! `// simlint: allow(<rule>, reason = "…")` (next line or trailing) or
//! `// simlint: allow-file(<rule>, reason = "…")` (whole file); the
//! reason is mandatory. See `crates/simlint/RULES.md` for the full
//! catalogue and rationale.
//!
//! Everything is hand-rolled on std — no dependencies, in the spirit of
//! the vendored `bytes` stand-in.

#![deny(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use report::Report;
use scan::CounterReg;

/// Scan an entire workspace rooted at `root`. Deterministic: files are
/// visited in sorted path order and findings are canonically sorted.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = rust_files(root)?;
    files.sort();
    let mut report = Report::default();
    let mut counters: Vec<CounterReg> = Vec::new();
    let mut gate_texts: Vec<String> = vec![String::new(); config::C1_GATE_FILES.len()];
    for path in &files {
        let rel = rel_path(root, path);
        if config::skip_entirely(&rel) {
            continue;
        }
        let src = fs::read_to_string(path)?;
        if let Some(i) = config::C1_GATE_FILES.iter().position(|g| *g == rel) {
            gate_texts[i] = src.clone();
        }
        let scanned = scan::scan_file(&rel, &src);
        report.findings.extend(scanned.findings);
        counters.extend(scanned.counters);
        report.files_scanned += 1;
    }
    report.findings.extend(rules::resolve_conservation(
        &counters,
        config::C1_GATE_FILES,
        &gate_texts,
    ));
    report.sort();
    Ok(report)
}

/// Scan a single file (fixture tests use this). C1 is resolved against
/// the file's own registrations with no gate files.
pub fn run_single(rel: &str, src: &str) -> Report {
    let scanned = scan::scan_file(rel, src);
    let mut report = Report {
        findings: scanned.findings,
        files_scanned: 1,
    };
    report
        .findings
        .extend(rules::resolve_conservation(&scanned.counters, &[], &[]));
    report.sort();
    report
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every `.rs` file under the workspace's source trees, skipping build
/// output and hidden directories.
fn rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    Ok(out)
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
