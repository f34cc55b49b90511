//! Per-file analysis: allow annotations, `#[cfg(test)]` regions, hash
//! collection tracking, and the token-pattern rules D1–D4, H1, U1.
//!
//! Rule C1 (conservation pairs) needs a workspace-wide view of every
//! registered counter, so this module only *collects* registrations;
//! [`crate::rules::resolve_conservation`] turns them into findings.

use crate::config;
use crate::lexer::{lex, Tok, TokKind};
use crate::report::Finding;

/// The iteration adaptors D1 forbids on hash collections.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// One parsed `// simlint: allow(...)` annotation.
#[derive(Debug)]
struct Allow {
    rule: String,
    reason: Option<String>,
    /// Line of the comment itself.
    line: u32,
    /// Lines a finding may sit on to match this allow.
    target_lo: u32,
    target_hi: u32,
    file_scope: bool,
    malformed: Option<String>,
    used: bool,
}

/// A `counter("name", ...)` registration site, for C1.
#[derive(Debug, Clone)]
pub struct CounterReg {
    pub name: String,
    pub path: String,
    pub line: u32,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub counters: Vec<CounterReg>,
    /// Raw source, kept so C1 can substring-search gate files.
    pub raw: String,
}

/// Scan one file. `path` must be workspace-relative with `/` separators.
pub fn scan_file(path: &str, src: &str) -> FileScan {
    let toks = lex(src);
    // Indices of non-comment tokens, in order.
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = code.iter().map(|&i| toks[i].line).collect();
        v.dedup();
        v
    };
    let whole_file_is_test = config::is_test_path(path);
    // Ranges of `#[cfg(test)]` items (unit-test modules/functions) in
    // code-token index space. Whole-file test trees (tests/) are handled
    // by path scoping instead, so their own code is still analyzed with
    // file-local context.
    let test_ranges = cfg_test_ranges(&toks, &code);
    let in_test = |ci: usize| test_ranges.iter().any(|&(lo, hi)| ci >= lo && ci < hi);

    let mut allows = parse_allows(&toks, &code_lines);
    let mut raw_findings: Vec<Finding> = Vec::new();
    let push = |f: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String| {
        // At most one finding per (rule, line): a single `use` line full of
        // atomics is one decision, not five.
        if !f.iter().any(|x| x.rule == rule && x.line == line) {
            f.push(Finding::new(rule, path, line, msg));
        }
    };

    let hash_names = collect_hash_names(&toks, &code, &test_ranges);
    let d1 = config::d1_in_scope(path);
    let d2 = !config::d2_exempt(path);
    let d3 = config::d3_in_scope(path);
    let d4 = !config::d4_exempt(path);
    let h1_density = config::h1_density_in_scope(path);
    let h1_println = config::h1_println_in_scope(path);

    let mut unwraps: Vec<u32> = Vec::new();

    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        let at = |off: usize| -> Option<&Tok> { code.get(ci + off).map(|&j| &toks[j]) };

        // ---- D1: hash-collection iteration ------------------------------
        // `#[cfg(test)]` items are skipped: unit tests routinely declare
        // locals that shadow hash-typed field names (the tracker is
        // file-scoped), and a unit test's own iteration order feeds no
        // snapshot. Integration test trees (tests/) stay in scope with
        // their own file-local tracking.
        let d1_here = d1 && !in_test(ci);
        if d1_here && t.kind == TokKind::Ident && hash_names.contains(&t.text) {
            // name.method( where method is an iteration adaptor, or
            // self.name.method( — the `self.` prefix lands on the same name.
            if let (Some(dot), Some(m), Some(paren)) = (at(1), at(2), at(3)) {
                if dot.is_punct('.')
                    && m.kind == TokKind::Ident
                    && HASH_ITER_METHODS.contains(&m.text.as_str())
                    && paren.is_punct('(')
                {
                    push(
                        &mut raw_findings,
                        "D1",
                        t.line,
                        format!(
                            "nondeterministic hash iteration: `{}.{}()` on a HashMap/HashSet \
                             in a snapshot/digest/trace/scheduling path; use BTreeMap or a \
                             sorted collection",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        if d1_here && t.is_ident("for") {
            if let Some((name, line)) = for_loop_hash_target(&toks, &code, ci, &hash_names) {
                push(
                    &mut raw_findings,
                    "D1",
                    line,
                    format!(
                        "nondeterministic hash iteration: `for … in {name}` iterates a \
                         HashMap/HashSet in a snapshot/digest/trace/scheduling path; use \
                         BTreeMap or a sorted collection"
                    ),
                );
            }
        }

        // ---- D2: wall clock / OS entropy --------------------------------
        if d2 && t.kind == TokKind::Ident {
            let banned = match t.text.as_str() {
                "SystemTime" | "Instant" => Some("wall clock"),
                "thread_rng" | "from_entropy" => Some("OS entropy"),
                _ => None,
            };
            if let Some(kind) = banned {
                push(
                    &mut raw_findings,
                    "D2",
                    t.line,
                    format!(
                        "{kind} (`{}`) outside the routing bench: seeded \
                         simulations must be replayable from the seed alone",
                        t.text
                    ),
                );
            }
            // rand:: paths and env-dependent lookups.
            if t.text == "rand" && at(1).is_some_and(|x| x.is_punct(':')) {
                push(
                    &mut raw_findings,
                    "D2",
                    t.line,
                    "`rand::` outside the routing bench: use the seeded \
                     `simnet::SimRng`"
                        .into(),
                );
            }
            if t.text == "env"
                && at(1).is_some_and(|x| x.is_punct(':'))
                && at(2).is_some_and(|x| x.is_punct(':'))
                && at(3).is_some_and(|x| x.kind == TokKind::Ident && x.text.starts_with("var"))
            {
                push(
                    &mut raw_findings,
                    "D2",
                    t.line,
                    "environment-dependent behavior (`env::var`) outside the routing \
                     bench: a run must be a pure function of its seed and inputs"
                        .into(),
                );
            }
        }

        // ---- D3: pointer-address formatting / hashing -------------------
        if d3 && t.kind == TokKind::Str && (t.text.contains(":p}") || t.text.contains("{:p")) {
            push(
                &mut raw_findings,
                "D3",
                t.line,
                "pointer-address formatting (`{:p}`) in a serializable path: addresses \
                 differ across runs and machines"
                    .into(),
            );
        }
        if d3 && t.is_ident("as") && at(1).is_some_and(|x| x.is_ident("usize")) {
            // `… as *const _ as usize` or `Rc::as_ptr(…) as usize`: look a
            // short window back for a pointer cast or as_ptr call.
            let lo = ci.saturating_sub(12);
            let window = &code[lo..ci];
            let mut ptrish = false;
            for (k, &wi) in window.iter().enumerate() {
                let w = &toks[wi];
                if w.kind == TokKind::Ident && (w.text == "as_ptr" || w.text == "as_mut_ptr") {
                    ptrish = true;
                }
                if w.is_punct('*')
                    && window
                        .get(k + 1)
                        .is_some_and(|&ni| toks[ni].is_ident("const") || toks[ni].is_ident("mut"))
                {
                    ptrish = true;
                }
            }
            if ptrish {
                push(
                    &mut raw_findings,
                    "D3",
                    t.line,
                    "pointer-to-usize cast in a serializable path: addresses are not \
                     stable across runs; derive identity from ids, not addresses"
                        .into(),
                );
            }
        }

        // ---- D4: threads / std::sync outside the partitioned executors --
        if d4 && t.kind == TokKind::Ident {
            let hit = matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar" | "mpsc")
                || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len());
            if hit {
                push(
                    &mut raw_findings,
                    "D4",
                    t.line,
                    format!(
                        "`{}` outside the partitioned executor: the simulator is \
                         single-threaded by construction; concurrency belongs to \
                         simnet::shard",
                        t.text
                    ),
                );
            }
            if t.text == "thread"
                && at(1).is_some_and(|x| x.is_punct(':'))
                && at(2).is_some_and(|x| x.is_punct(':'))
                && at(3).is_some_and(|x| x.is_ident("spawn") || x.is_ident("scope"))
            {
                push(
                    &mut raw_findings,
                    "D4",
                    t.line,
                    "`thread::spawn`/`thread::scope` outside the partitioned executor".into(),
                );
            }
            if t.text == "std"
                && at(1).is_some_and(|x| x.is_punct(':'))
                && at(2).is_some_and(|x| x.is_punct(':'))
                && at(3).is_some_and(|x| x.is_ident("sync"))
            {
                push(
                    &mut raw_findings,
                    "D4",
                    t.line,
                    "`std::sync` outside the partitioned executor".into(),
                );
            }
        }

        // ---- H1: unwrap/expect density, println! ------------------------
        if t.is_punct('.')
            && at(1).is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"))
            && at(2).is_some_and(|x| x.is_punct('('))
            && !in_test(ci)
            && h1_density
        {
            unwraps.push(t.line);
        }
        if h1_println
            && t.is_ident("println")
            && at(1).is_some_and(|x| x.is_punct('!'))
            && !in_test(ci)
        {
            push(
                &mut raw_findings,
                "H1",
                t.line,
                "`println!` outside benches/examples: library code reports through \
                 telemetry, diagnostics go to stderr"
                    .into(),
            );
        }

        // ---- U1: unsafe requires a SAFETY: comment ----------------------
        if t.is_ident("unsafe") && !has_safety_comment(&toks, ti) {
            push(
                &mut raw_findings,
                "U1",
                t.line,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines \
                 justifying why the invariants hold"
                    .into(),
            );
        }
    }

    // Counter registrations (separate pass: the closure above can't both
    // borrow `raw_findings` and collect).
    let mut counters = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if t.is_ident("counter") && !in_test(ci) && !whole_file_is_test {
            let paren = code.get(ci + 1).map(|&j| &toks[j]);
            let lit = code.get(ci + 2).map(|&j| &toks[j]);
            if let (Some(p), Some(s)) = (paren, lit) {
                if p.is_punct('(') && s.kind == TokKind::Str && s.text.contains('.') {
                    counters.push(CounterReg {
                        name: s.text.clone(),
                        path: path.to_string(),
                        line: s.line,
                    });
                }
            }
        }
    }

    // H1 density verdict.
    if h1_density {
        let cap = config::h1_unwrap_cap(code_lines.len());
        if unwraps.len() > cap {
            let line = unwraps[0];
            raw_findings.push(Finding::new(
                "H1",
                path,
                line,
                format!(
                    "unwrap/expect density: {} calls in non-test code (cap {} for {} \
                     code lines); hot-path modules must handle errors or justify the \
                     panic sites",
                    unwraps.len(),
                    cap,
                    code_lines.len()
                ),
            ));
        }
    }

    // Match findings against allows.
    let mut findings = Vec::new();
    for mut f in raw_findings {
        if let Some(a) = allows.iter_mut().find(|a| {
            a.malformed.is_none()
                && a.rule == f.rule
                && (a.file_scope || (f.line >= a.target_lo && f.line <= a.target_hi))
        }) {
            a.used = true;
            f.allow_reason = a.reason.clone();
        }
        findings.push(f);
    }
    // A1: malformed and unused allows.
    for a in &allows {
        if let Some(why) = &a.malformed {
            findings.push(Finding::new(
                "A1",
                path,
                a.line,
                format!("malformed simlint allow: {why}"),
            ));
        } else if !a.used {
            findings.push(Finding::new(
                "A1",
                path,
                a.line,
                format!(
                    "unused simlint allow for {}: the finding it suppressed is gone; \
                     remove the annotation",
                    a.rule
                ),
            ));
        }
    }

    FileScan {
        findings,
        counters,
        raw: src.to_string(),
    }
}

/// Find `#[cfg(test)]`-gated items (`mod`, `fn`, `impl`, `struct`) and
/// return their spans as ranges over the *code-token index* space. The
/// range starts at the attribute so the item's signature is covered too.
fn cfg_test_ranges(toks: &[Tok], code: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut ci = 0usize;
    while ci + 5 < code.len() {
        let t = |k: usize| &toks[code[ci + k]];
        if t(0).is_punct('#')
            && t(1).is_punct('[')
            && t(2).is_ident("cfg")
            && t(3).is_punct('(')
            && t(4).is_ident("test")
        {
            let start = ci;
            // Skip to the closing `]`, then over any further attributes.
            let mut j = ci + 5;
            while j < code.len() && !toks[code[j]].is_punct(']') {
                j += 1;
            }
            j += 1;
            while j < code.len() && toks[code[j]].is_punct('#') {
                while j < code.len() && !toks[code[j]].is_punct(']') {
                    j += 1;
                }
                j += 1;
            }
            // Any braced item (mod/fn/impl/struct/…): find the opening
            // brace and match it. A brace-less item (`use`, `type`) ends
            // at its semicolon instead.
            let mut k = j;
            let mut found_brace = false;
            while k < code.len() && k - j < 96 {
                if toks[code[k]].is_punct('{') {
                    found_brace = true;
                    break;
                }
                if toks[code[k]].is_punct(';') {
                    break;
                }
                k += 1;
            }
            if found_brace {
                let mut depth = 0i64;
                while k < code.len() {
                    if toks[code[k]].is_punct('{') {
                        depth += 1;
                    } else if toks[code[k]].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
            }
            ranges.push((start, (k + 1).min(code.len())));
            ci = k;
        }
        ci += 1;
    }
    ranges
}

/// Parse every `simlint: allow(...)` / `allow-file(...)` annotation out of
/// the comment tokens.
fn parse_allows(toks: &[Tok], code_lines: &[u32]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in toks {
        if !t.is_comment() || !t.text.contains("simlint:") {
            continue;
        }
        let text = &t.text;
        let after = &text[text.find("simlint:").unwrap() + "simlint:".len()..];
        let after = after.trim_start();
        let file_scope = after.starts_with("allow-file(");
        let is_allow = file_scope || after.starts_with("allow(");
        if !is_allow {
            out.push(Allow {
                rule: String::new(),
                reason: None,
                line: t.line,
                target_lo: 0,
                target_hi: 0,
                file_scope: false,
                malformed: Some(format!(
                    "expected `allow(<rule>, reason = \"…\")`, got `{}`",
                    after.chars().take(40).collect::<String>()
                )),
                used: false,
            });
            continue;
        }
        let body_start = after.find('(').unwrap() + 1;
        let Some(body_end) = after[body_start..].rfind(')') else {
            out.push(Allow {
                rule: String::new(),
                reason: None,
                line: t.line,
                target_lo: 0,
                target_hi: 0,
                file_scope,
                malformed: Some("unclosed allow annotation".into()),
                used: false,
            });
            continue;
        };
        let body = &after[body_start..body_start + body_end];
        let rule = body.split(',').next().unwrap_or("").trim().to_string();
        let reason = body.find("reason").and_then(|r| {
            let rest = &body[r + "reason".len()..];
            let rest = rest.trim_start().strip_prefix('=')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            let end = rest.rfind('"')?;
            let s = rest[..end].trim();
            (!s.is_empty()).then(|| s.to_string())
        });
        let malformed = if rule.is_empty() {
            Some("missing rule id".into())
        } else if reason.is_none() {
            Some(format!(
                "allow({rule}) without a reason: every allow must say why the \
                 invariant holds anyway"
            ))
        } else {
            None
        };
        // Target: the comment's own line (trailing form) and the next line
        // that carries code (standalone form).
        let next_code = code_lines
            .iter()
            .copied()
            .find(|&l| l > t.line)
            .unwrap_or(t.line);
        out.push(Allow {
            rule,
            reason,
            line: t.line,
            target_lo: t.line,
            target_hi: next_code,
            file_scope,
            malformed,
            used: false,
        });
    }
    out
}

/// Collect identifiers declared (or initialized) as HashMap/HashSet in
/// this file: `name: HashMap<..>` field/let/param declarations, struct
/// literal fields, and `let name = HashMap::new()`-style bindings.
/// Declarations inside `#[cfg(test)]` items are ignored so a unit test's
/// reference model cannot pollute the tracker for production code.
fn collect_hash_names(toks: &[Tok], code: &[usize], test_ranges: &[(usize, usize)]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let is_hash = |t: &Tok| t.is_ident("HashMap") || t.is_ident("HashSet");
    for ci in 0..code.len() {
        if test_ranges.iter().any(|&(lo, hi)| ci >= lo && ci < hi) {
            continue;
        }
        let t = &toks[code[ci]];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name :` (but not `name ::`), previous token not `:`.
        let next = code.get(ci + 1).map(|&j| &toks[j]);
        let next2 = code.get(ci + 2).map(|&j| &toks[j]);
        let prev = ci
            .checked_sub(1)
            .and_then(|k| code.get(k))
            .map(|&j| &toks[j]);
        let decl_colon = next.is_some_and(|x| x.is_punct(':'))
            && !next2.is_some_and(|x| x.is_punct(':'))
            && !prev.is_some_and(|x| x.is_punct(':'));
        let let_eq = next.is_some_and(|x| x.is_punct('='))
            && prev.is_some_and(|x| x.is_ident("let") || x.is_ident("mut"));
        if !decl_colon && !let_eq {
            continue;
        }
        // Walk the type/initializer until the declaration plausibly ends,
        // tracking angle-bracket depth so `HashMap` nested in generics is
        // still seen.
        let mut depth = 0i64;
        let mut j = ci + 2;
        let mut found = false;
        while let Some(&tj) = code.get(j) {
            let w = &toks[tj];
            match w.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(',')
                | TokKind::Punct(';')
                | TokKind::Punct('{')
                | TokKind::Punct('}')
                | TokKind::Punct(')')
                    if depth == 0 =>
                {
                    break;
                }
                _ => {}
            }
            if is_hash(w) {
                found = true;
            }
            if j - ci > 64 {
                break; // declarations don't run this long; bail out
            }
            j += 1;
        }
        if found && !names.contains(&t.text) {
            names.push(t.text.clone());
        }
    }
    names
}

/// If the `for` at code index `ci` iterates a bare hash-typed binding
/// (`for x in &self.map` / `for x in map`), return (name, line).
fn for_loop_hash_target(
    toks: &[Tok],
    code: &[usize],
    ci: usize,
    hash_names: &[String],
) -> Option<(String, u32)> {
    // Find `in` after the pattern, then take tokens up to the body `{`.
    let mut j = ci + 1;
    let mut guard = 0;
    while let Some(&tj) = code.get(j) {
        if toks[tj].is_ident("in") {
            break;
        }
        j += 1;
        guard += 1;
        if guard > 24 {
            return None;
        }
    }
    let expr_start = j + 1;
    let mut k = expr_start;
    let mut expr: Vec<&Tok> = Vec::new();
    while let Some(&tk) = code.get(k) {
        let w = &toks[tk];
        if w.is_punct('{') {
            break;
        }
        expr.push(w);
        k += 1;
        if k - expr_start > 16 {
            return None;
        }
    }
    // Accept only a plain place expression: [&][mut][self.]…name — any call
    // parentheses mean an adaptor chain which the method-pattern rule covers.
    if expr.iter().any(|w| w.is_punct('(') || w.is_punct(')')) {
        return None;
    }
    let last = expr.last()?;
    if last.kind == TokKind::Ident && hash_names.contains(&last.text) {
        return Some((last.text.clone(), last.line));
    }
    None
}

/// Does a `SAFETY:` comment sit on the `unsafe` token's line or the three
/// lines above it?
fn has_safety_comment(toks: &[Tok], ti: usize) -> bool {
    let line = toks[ti].line;
    toks.iter().any(|t| {
        t.is_comment() && t.text.contains("SAFETY:") && t.line <= line && t.line + 3 >= line
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        scan_file(path, src).findings
    }

    #[test]
    fn d1_fires_on_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                     fn get(&self) -> Option<&u32> { self.m.get(&1) }\n\
                     fn all(&self) { for v in self.m.values() { let _ = v; } }\n\
                   }\n";
        let f = findings("crates/simnet/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D1");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn d1_for_loop_over_hash() {
        let src = "use std::collections::HashSet;\n\
                   fn f() { let s: HashSet<u32> = HashSet::new();\n\
                   for v in &s { let _ = v; } }\n";
        let f = findings("crates/simnet/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D1");
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> u64 {\n\
                   // simlint: allow(D1, reason = \"order folded through a commutative sum\")\n\
                   m.values().map(|v| *v as u64).sum() }\n";
        let f = findings("crates/simnet/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].allow_reason.is_some());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// simlint: allow(D1)\nfn f() {}\n";
        let f = findings("crates/simnet/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "A1");
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// simlint: allow(D2, reason = \"no longer needed\")\nfn f() {}\n";
        let f = findings("crates/simnet/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "A1");
        assert!(f[0].message.contains("unused"));
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_h1() {
        let mut src = String::from("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
        src.push_str("#[cfg(test)]\nmod tests {\n");
        for i in 0..40 {
            src.push_str(&format!("#[test] fn t{i}() {{ Some({i}).unwrap(); }}\n"));
        }
        src.push_str("}\n");
        let f = findings("crates/simnet/src/x.rs", &src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn u1_needs_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let good = "// SAFETY: the branch above proves the slot is initialized.\n\
                    fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(findings("crates/simnet/src/x.rs", bad).len(), 1);
        assert!(findings("crates/simnet/src/x.rs", good).is_empty());
    }

    #[test]
    fn d2_and_d4_respect_scope() {
        let src = "use std::time::Instant;\nuse std::sync::Mutex;\n";
        // Instant on line 1; Mutex + std::sync dedup to one D4 on line 2.
        assert_eq!(findings("crates/simnet/src/x.rs", src).len(), 2);
        assert!(findings("examples/x.rs", src).is_empty());
    }
}
