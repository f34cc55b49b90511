// Fixture: D4 fires exactly once — a thread spawned outside the
// partitioned executor.
pub fn off_thread() {
    let handle = std::thread::spawn(|| 7u64);
    let _ = handle;
}
