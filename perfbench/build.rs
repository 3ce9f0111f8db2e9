//! Records the compiler version and, when built from a git checkout,
//! the commit, so every result names the code it measured.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8(out.stdout).ok()?.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Look for a repository at the checkout root only, never above it.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let root = Path::new(&manifest_dir)
        .parent()
        .expect("package inside the checkout");
    let mut git = Command::new("git");
    git.arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let commit = stdout_of(&mut git).unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
