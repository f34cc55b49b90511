//! Records the compiler and profile the benchmark was built with, so
//! every result carries them (see `harness::fingerprint`).

// simlint: allow-file(H1, reason = "build script: cargo reads its directives from stdout")
// simlint: allow-file(D2, reason = "build script: reads cargo's RUSTC/PROFILE to stamp the machine fingerprint; not simulation code")

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=GRIDBENCH_RUSTC={version}");
    println!("cargo:rustc-env=GRIDBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
