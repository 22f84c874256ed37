//! Records what a benchmark result needs to be compared across builds:
//! the rustc version, the git commit (when the sources are a git
//! checkout) and a digest of the program's sources (always, so a result
//! from an exported tree still names the code it measured).

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Every regular file under `dir`, sorted.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            files(&p, out);
        } else if p.is_file() {
            out.push(p);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"], &root).unwrap_or_else(|| "unknown".into());
    let commit = run("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(|| "unknown".into());

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dir in ["crates", "vendor"] {
        let mut list = Vec::new();
        files(&root.join(dir), &mut list);
        for f in list {
            let rel = f
                .strip_prefix(&root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            let body = std::fs::read(&f).unwrap_or_default();
            for b in rel.bytes().chain(body) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        println!("cargo:rerun-if-changed=../{dir}");
    }
    println!("cargo:rerun-if-changed=../Cargo.lock");
    if root.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
}
