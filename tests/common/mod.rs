//! The golden-file comparison shared by `tests/golden.rs` and
//! `tests/paper_claims.rs`: both compare what they regenerate with the
//! committed corpus in `tests/golden/`.

use std::path::PathBuf;

/// Compares `actual` with `tests/golden/<name>`; on any difference,
/// rewrites the file and fails.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let committed = std::fs::read_to_string(&path).ok();
    if committed.as_deref() == Some(actual) {
        return;
    }
    std::fs::write(&path, actual).expect("rewrite the golden file");
    let what = match committed {
        None => "was missing".to_string(),
        Some(old) => first_difference(&old, actual),
    };
    panic!(
        "{} {what}\nrewrote it with the regenerated bytes; review with `git diff tests/golden`",
        path.display()
    );
}

/// Where `new` first departs from `old`: line and column, with an excerpt
/// of each side around that column (the multi-site `metrics` object is a
/// single long line).
fn first_difference(old: &str, new: &str) -> String {
    let (mut old_lines, mut new_lines) = (old.lines(), new.lines());
    let mut line = 1;
    loop {
        match (old_lines.next(), new_lines.next()) {
            (None, None) => return "differs only in line endings".to_string(),
            (a, b) if a == b => line += 1,
            (a, b) => {
                let col = a
                    .unwrap_or("")
                    .chars()
                    .zip(b.unwrap_or("").chars())
                    .take_while(|(x, y)| x == y)
                    .count();
                let excerpt = |side: Option<&str>| -> String {
                    side.map_or("<end of file>".to_string(), |s| {
                        s.chars().skip(col.saturating_sub(40)).take(100).collect()
                    })
                };
                return format!(
                    "differs first at line {line}, column {}:\n  committed: {}\n  now:       {}",
                    col + 1,
                    excerpt(a),
                    excerpt(b),
                );
            }
        }
    }
}
