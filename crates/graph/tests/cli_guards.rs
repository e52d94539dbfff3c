//! `perfdojo-lib` argument and output-file guards, run against the built
//! binary: `build` and `graph-build` never save over an `--out` that exists
//! but does not load, `graph-check` refuses a seed range that overflows
//! instead of reporting graphs it never checked, a flag the subcommand does
//! not take is an error, and `serve` refuses a batch size of 0.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh temporary directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("pdl-cli-guards-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn perfdojo_lib(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_perfdojo-lib");
    Command::new(bin).args(args).output().expect("run perfdojo-lib")
}

/// A library file of a format version this build does not read.
const FUTURE_LIBRARY: &[u8] = b"perfdojo-library v2\nentry precious\n";

#[test]
fn an_unreadable_out_is_left_untouched() {
    let dir = TempDir::new("unreadable");
    let (lib, graph) = (dir.0.join("lib.pdl"), dir.0.join("g.pdl"));
    let (lib_path, graph_path) = (lib.to_str().unwrap(), graph.to_str().unwrap());
    for (out, args) in [
        (&lib, &["build", "--out", lib_path, "--kernels", "relu", "--strategy", "heuristic"][..]),
        (&graph, &["graph-build", "--out", graph_path, "--graphs", "ffn"]),
    ] {
        std::fs::write(out, FUTURE_LIBRARY).unwrap();
        let run = perfdojo_lib(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?} succeeded over an unreadable --out");
        assert!(stderr.contains(&out.display().to_string()), "error does not name it: {stderr}");
        assert_eq!(std::fs::read(out).unwrap(), FUTURE_LIBRARY, "{args:?} changed the file");
    }
}

#[test]
fn a_missing_out_still_builds() {
    let dir = TempDir::new("missing");
    let (lib, graph) = (dir.0.join("lib.pdl"), dir.0.join("g.pdl"));
    let (lib_path, graph_path) = (lib.to_str().unwrap(), graph.to_str().unwrap());
    for args in [
        &["build", "--out", lib_path, "--kernels", "relu", "--strategy", "heuristic"][..],
        &["graph-build", "--out", graph_path, "--graphs", "ffn"],
    ] {
        let run = perfdojo_lib(args);
        assert!(run.status.success(), "{args:?}: {}", String::from_utf8_lossy(&run.stderr));
    }
    for out in [&lib, &graph] {
        let (built, stats) = perfdojo_library::Library::load(out).expect("the output loads");
        assert_eq!((built.len(), stats.corrupt_entries), (1, 0), "{}", out.display());
    }
}

#[test]
fn graph_check_refuses_an_overflowing_seed_range() {
    let run = perfdojo_lib(&["graph-check", "--seed", &u64::MAX.to_string(), "--count", "3"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(!run.status.success(), "an overflowing seed range passed: {stdout}");
    assert!(!stdout.contains("passed the differential oracle"), "{stdout}");
    assert!(String::from_utf8_lossy(&run.stderr).contains("overflows"));
}

#[test]
fn an_unknown_flag_is_refused_before_any_work() {
    let dir = TempDir::new("unknown-flag");
    let (lib, graph) = (dir.0.join("lib.pdl"), dir.0.join("g.pdl"));
    let (lib_path, graph_path) = (lib.to_str().unwrap(), graph.to_str().unwrap());
    let build = ["build", "--out", lib_path, "--kernels", "relu", "--seeed", "5"];
    // `build`'s spelling; `graph-build` takes `--target`
    let graph_build = ["graph-build", "--out", graph_path, "--graphs", "ffn", "--targets", "gh200"];
    for (out, args, flag) in [(&lib, &build, "--seeed"), (&graph, &graph_build, "--targets")] {
        let run = perfdojo_lib(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?} accepted {flag}");
        assert!(stderr.contains(flag), "the error does not name {flag}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote its --out");
    }
}

#[test]
fn serve_refuses_a_zero_batch() {
    let dir = TempDir::new("zero-batch");
    let lib = dir.0.join("lib.pdl");
    let lib_path = lib.to_str().unwrap();
    let build = perfdojo_lib(&["build", "--out", lib_path, "--kernels", "relu"]);
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));
    let built = std::fs::read(&lib).unwrap();
    let serve = ["serve", "--lib", lib_path, "--target", "x86", "--requests", "4", "--batch", "0"];
    let run = perfdojo_lib(&serve);
    assert!(!run.status.success(), "{}", String::from_utf8_lossy(&run.stdout));
    assert!(String::from_utf8_lossy(&run.stderr).contains("--batch"));
    assert_eq!(std::fs::read(&lib).unwrap(), built, "a refused serve changed the library");
}
