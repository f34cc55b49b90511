// Fixture: D2 fires exactly once — wall clock outside the routing bench.
pub fn stamp() -> bool {
    let now = std::time::SystemTime::now();
    let _ = now;
    true
}
