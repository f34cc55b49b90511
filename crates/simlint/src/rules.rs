//! Workspace-level rule resolution: C1, the conservation-pair check.
//!
//! Every counter whose name puts it in a conservation family must have
//! its partner registered in the same namespace, and the pair must be
//! cross-referenced in one of the dynamic gate files
//! ([`crate::config::C1_GATE_FILES`], i.e. `conservation_violations`) —
//! a pair that is registered but never gated would let a leak ship
//! silently even though the accounting exists.

use crate::report::Finding;
use crate::scan::CounterReg;

/// A conservation family: how to derive the partner(s) a primary
/// counter requires. Only the *primary* side emits findings so a broken
/// pair reads as one decision, not two.
fn partners(name: &str) -> Option<Vec<String>> {
    if let Some(base) = name.strip_suffix("_consumed") {
        return Some(vec![format!("{base}_returned")]);
    }
    if let Some(base) = name.strip_suffix("cross_in") {
        return Some(vec![format!("{base}cross_out")]);
    }
    if let Some(ns) = name.strip_suffix("frames_sent") {
        // Sent must be decomposable: at least one of delivered/dropped
        // registered beside it (`sent == delivered + dropped` families).
        return Some(vec![
            format!("{ns}frames_delivered"),
            format!("{ns}frames_dropped"),
        ]);
    }
    None
}

/// `frames_sent` is satisfied by *any* partner; the suffix pairs need
/// their exact partner.
fn any_partner_suffices(name: &str) -> bool {
    name.ends_with("frames_sent")
}

/// Resolve C1 over the whole workspace's registrations.
///
/// `gate_texts` are the raw sources of the gate files; a pair is gated
/// iff the primary name appears verbatim in one of them. Registrations
/// *inside* gate files are ignored — a gate file's `snap.counter("x")`
/// lookups are reads, not registrations.
pub fn resolve_conservation(
    regs: &[CounterReg],
    gate_paths: &[&str],
    gate_texts: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let regs: Vec<&CounterReg> = regs
        .iter()
        .filter(|r| !gate_paths.contains(&r.path.as_str()))
        .collect();
    let mut seen_primary: Vec<&str> = Vec::new();
    for reg in &regs {
        let Some(partner_names) = partners(&reg.name) else {
            continue;
        };
        if seen_primary.contains(&reg.name.as_str()) {
            continue;
        }
        seen_primary.push(&reg.name);
        let have = |n: &str| regs.iter().any(|r| r.name == n);
        let partner_ok = if any_partner_suffices(&reg.name) {
            partner_names.iter().any(|p| have(p))
        } else {
            partner_names.iter().all(|p| have(p))
        };
        if !partner_ok {
            findings.push(Finding::new(
                "C1",
                &reg.path,
                reg.line,
                format!(
                    "conservation pair incomplete: `{}` is registered but its partner \
                     ({}) is not; a one-sided counter cannot be balance-checked",
                    reg.name,
                    partner_names.join(" / ")
                ),
            ));
            continue;
        }
        let gated = gate_texts.iter().any(|t| t.contains(reg.name.as_str()));
        if !gated {
            findings.push(Finding::new(
                "C1",
                &reg.path,
                reg.line,
                format!(
                    "conservation pair registered but ungated: `{}` never appears in \
                     a conservation gate ({}); add it to `conservation_violations`",
                    reg.name,
                    gate_paths.join(", ")
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(name: &str, line: u32) -> CounterReg {
        CounterReg {
            name: name.into(),
            path: "crates/x/src/lib.rs".into(),
            line,
        }
    }

    #[test]
    fn missing_partner_fires_once() {
        let regs = vec![reg("a.credits_consumed", 3)];
        let f = resolve_conservation(&regs, &[], &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("a.credits_returned"));
    }

    #[test]
    fn complete_and_gated_pair_is_clean() {
        let regs = vec![reg("a.credits_consumed", 3), reg("a.credits_returned", 4)];
        let gates = vec!["if snap.counter(\"a.credits_consumed\") … ".to_string()];
        assert!(resolve_conservation(&regs, &["g.rs"], &gates).is_empty());
    }

    #[test]
    fn complete_but_ungated_pair_fires() {
        let regs = vec![reg("a.cross_in", 1), reg("a.cross_out", 2)];
        let f = resolve_conservation(&regs, &["g.rs"], &[String::new()]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("ungated"));
    }

    #[test]
    fn frames_sent_accepts_either_partner() {
        let regs = vec![reg("n.frames_sent", 1), reg("n.frames_dropped", 2)];
        let gates = vec!["\"n.frames_sent\"".to_string()];
        assert!(resolve_conservation(&regs, &["g.rs"], &gates).is_empty());
    }
}
