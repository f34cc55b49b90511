//! `gridbench selfcheck`: does the benchmark agree with itself?
//!
//! Runs every workload 3 + 3 times on the same code (two sets, A and B,
//! interleaved, workload order reversed every round), each run a fresh
//! process exactly as the driver starts it, and fails unless
//!
//! * each end-to-end median of set A is within that metric's bound of
//!   set B's;
//! * every virtual metric, count and `statistics_digest` is bit-identical
//!   across all six runs;
//! * `sim_partitioned_ring` has the same digest at 1 and at 2 threads;
//! * a second seed also passes every correctness check.

use std::process::{Command, ExitCode};

use crate::harness::median;
use crate::json::Json;
use crate::workloads::Kind;
use crate::{emit, END_TO_END};

const SEED: u64 = 1;
const SECOND_SEED: u64 = 2;
const RUNS_PER_SET: usize = 3;

/// One run in a child process; returns its `report` object.
fn child(kind: Kind, seed: u64, threads: usize, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seconds", "10", "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--threads",
            &threads.to_string(),
        ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"report\""))
        .ok_or_else(|| format!("{}: no report line", kind.name()))?;
    let report = Json::parse(line)?
        .get("report")
        .cloned()
        .ok_or("no report")?;
    if !out.status.success() || report.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run failed: {}",
            kind.name(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(report)
}

fn end_to_end(report: &Json, name: &str) -> f64 {
    report
        .get("end_to_end")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn digest(report: &Json) -> String {
    report
        .get("statistics_digest")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// What must be bit-identical between runs of one seed: the digest, the
/// virtual end-to-end metrics and the exact counts.
fn exact_part(report: &Json) -> String {
    let virt: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.0.starts_with("virt_"))
        .map(|m| format!("{}={}", m.0, end_to_end(report, m.0)))
        .collect();
    format!(
        "{} {} {}",
        digest(report),
        virt.join(" "),
        report.get("counts").map(Json::render).unwrap_or_default()
    )
}

pub fn run(quick: bool) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let mut sets: Vec<[Vec<Json>; 2]> =
        Kind::ALL.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    for round in 0..RUNS_PER_SET {
        let mut order: Vec<usize> = (0..Kind::ALL.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for set in 0..2 {
            for &k in &order {
                eprintln!(
                    "selfcheck: round {round} set {} {}",
                    ["A", "B"][set],
                    Kind::ALL[k].name()
                );
                match child(Kind::ALL[k], SEED, 1, quick) {
                    Ok(r) => sets[k][set].push(r),
                    Err(e) => problems.push(e),
                }
            }
        }
    }

    emit("| workload | metric | median A | median B | A vs B | bound | ok |");
    emit("|---|---|---|---|---|---|---|");
    for (k, kind) in Kind::ALL.iter().enumerate() {
        let [a, b] = &sets[k];
        if a.len() < RUNS_PER_SET || b.len() < RUNS_PER_SET {
            continue;
        }
        for &(name, _, _, bound) in &END_TO_END {
            let med =
                |set: &[Json]| median(&set.iter().map(|r| end_to_end(r, name)).collect::<Vec<_>>());
            let (ma, mb) = (med(a), med(b));
            let off = (mb - ma).abs() / ma;
            let ok = off <= bound;
            emit(&format!(
                "| {} | {name} | {ma:.6} | {mb:.6} | {:.4} | {bound} | {} |",
                kind.name(),
                off,
                if ok { "yes" } else { "NO" }
            ));
            if !ok {
                problems.push(format!(
                    "{} {name}: sets differ by {off:.4} (bound {bound})",
                    kind.name()
                ));
            }
        }
        let first = exact_part(&a[0]);
        if a.iter().chain(b).any(|r| exact_part(r) != first) {
            problems.push(format!(
                "{}: virtual metrics, counts or digest differ between runs",
                kind.name()
            ));
        }
        let spreads: Vec<f64> = a
            .iter()
            .chain(b)
            .filter_map(|r| r.get("run")?.get("batch_spread")?.as_f64())
            .collect();
        emit(&format!(
            "| {} | harness.batch_spread | {:.4} (median of 6) | | | | |",
            kind.name(),
            median(&spreads)
        ));
        emit(&format!(
            "| {} | statistics_digest | {} | identical in all 6 | | | yes |",
            kind.name(),
            digest(&a[0])
        ));
    }

    // Thread-count independence of the partitioned executor.
    let ring = Kind::SimPartitionedRing;
    match (child(ring, SEED, 1, quick), child(ring, SEED, 2, quick)) {
        (Ok(one), Ok(two)) => {
            let same = digest(&one) == digest(&two);
            emit(&format!(
                "| {} | digest at 1 vs 2 threads | {} | {} | | | {} |",
                ring.name(),
                digest(&one),
                digest(&two),
                if same { "yes" } else { "NO" }
            ));
            if !same {
                problems
                    .push("sim_partitioned_ring: digest differs between 1 and 2 threads".into());
            }
        }
        (a, b) => problems.extend([a.err(), b.err()].into_iter().flatten()),
    }

    // A seed the numbers above were not looked at on.
    for kind in Kind::ALL {
        match child(kind, SECOND_SEED, 1, quick) {
            Ok(r) => emit(&format!(
                "| {} | seed {SECOND_SEED} correct | {} | | | | yes |",
                kind.name(),
                digest(&r)
            )),
            Err(e) => problems.push(e),
        }
    }

    if problems.is_empty() {
        emit(&format!(
            "\nselfcheck passed{}",
            if quick {
                " (--quick: numbers not comparable)"
            } else {
                ""
            }
        ));
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            emit(&format!("selfcheck: {p}"));
        }
        ExitCode::FAILURE
    }
}
