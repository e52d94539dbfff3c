//! `perfdojo-lib` argument and output-file guards, run against the built
//! binary: `build` and `graph-build` never save over an `--out` that exists
//! but does not load, `graph-check` refuses a seed range that overflows
//! instead of reporting graphs it never checked, every subcommand refuses
//! an unknown flag, a repeated flag, a bare word and a flag without its
//! value before it touches a file, `serve` refuses a batch size of 0
//! and a Zipf exponent that is negative or not finite, `query` refuses a
//! convolution shape whose filter is larger than its image, the fleet
//! commands other than `init` create nothing under a `--dir` that holds no
//! fleet, and a re-run `fleet init` removes the files of a job it drops
//! unless a worker holds that job's lock, which it names.

use std::path::{Path, PathBuf};
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

fn perfdojo_lib(args: &[impl AsRef<std::ffi::OsStr>]) -> Output {
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

#[test]
fn query_refuses_a_conv_image_smaller_than_its_filter() {
    let dir = TempDir::new("conv-shape");
    let lib = dir.0.join("lib.pdl");
    perfdojo_library::Library::new().save(&lib).unwrap();
    let lib_path = lib.to_str().unwrap();
    let shape = ["--target", "x86", "--kernel", "conv", "--shape", "1x1x1x1x3x3"];
    let run = perfdojo_lib(&[&["query", "--lib", lib_path][..], &shape].concat());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "a 1x3 image under a 3x3 filter: {stderr}");
    assert!(stderr.contains("no kernel \"conv\" at shape [1, 1, 1, 1, 3, 3]"), "{stderr}");
}

/// Every file under `dir` with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files.push((path.clone(), Vec::new()));
            files.extend(snapshot(&path));
        } else {
            let bytes = std::fs::read(&path).unwrap();
            files.push((path, bytes));
        }
    }
    files
}

#[test]
fn every_subcommand_refuses_a_malformed_line_before_touching_a_file() {
    let dir = TempDir::new("malformed");
    perfdojo_library::Library::new().save(&dir.0.join("lib.pdl")).unwrap();
    let before = snapshot(&dir.0);
    // one well-formed line per subcommand, each ending in a value flag;
    // `@` stands for the test directory
    let lines = [
        "build --out @/out.pdl --kernels relu --seed 1",
        "query --lib @/lib.pdl --target x86 --kernel relu",
        "stats --lib @/lib.pdl",
        "gc --lib @/lib.pdl",
        "serve --lib @/lib.pdl --target x86 --requests 1 --seed 1",
        "fleet init --dir @/farm --kernels relu --seed 1",
        "fleet run --dir @/farm --workers 1",
        "fleet work --dir @/farm --worker w0",
        "fleet status --dir @/farm",
        "fleet merge --dir @/farm --out @/out.pdl",
        "graph-build --out @/out.pdl --graphs ffn --seed 1",
        "graph-query --lib @/lib.pdl --target x86 --graph ffn",
        "graph-check --seed 1 --count 1",
    ];
    let at = dir.0.to_str().unwrap();
    for line in lines {
        let line: Vec<String> = line.split(' ').map(|t| t.replace('@', at)).collect();
        let words = if line[0] == "fleet" { 2 } else { 1 };
        let last_flag = line[line.len() - 2].clone();
        let with = |extra: &[&str]| {
            let mut l = line.clone();
            l.extend(extra.iter().map(|t| t.to_string()));
            l
        };
        let mut stray = line.clone();
        stray.insert(words, "stray".to_string());
        for (args, token) in [
            (with(&["--bogus", "1"]), "--bogus"),
            (with(&[&last_flag, &line[line.len() - 1]]), last_flag.as_str()),
            (stray, "stray"),
            (line[..line.len() - 1].to_vec(), last_flag.as_str()),
        ] {
            let run = perfdojo_lib(&args);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(token), "{args:?}: the error does not name {token}: {stderr}");
            assert!(run.stdout.is_empty(), "{args:?} printed output");
            assert!(snapshot(&dir.0) == before, "{args:?} wrote a file");
        }
    }
}

#[test]
fn fleet_commands_create_nothing_under_a_dir_that_holds_no_fleet() {
    let dir = TempDir::new("no-fleet");
    let empty = dir.0.join("empty");
    std::fs::create_dir(&empty).unwrap();
    let missing = dir.0.join("missing");
    let out = dir.0.join("out.pdl");
    let out = out.to_str().unwrap();
    for path in [&empty, &missing] {
        let path = path.to_str().unwrap();
        for args in [
            &["fleet", "status", "--dir", path][..],
            &["fleet", "merge", "--dir", path, "--out", out],
            &["fleet", "run", "--dir", path, "--workers", "1"],
            &["fleet", "work", "--dir", path, "--worker", "w0"],
        ] {
            let run = perfdojo_lib(args);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("init first"), "{args:?}: {stderr}");
        }
    }
    assert!(std::fs::read_dir(&empty).unwrap().next().is_none(), "the empty --dir was written");
    assert!(!missing.exists(), "the missing --dir was created");
    assert!(!Path::new(out).exists(), "a refused merge wrote its --out");
}

#[test]
fn serve_refuses_a_bad_zipf_exponent_before_loading_the_library() {
    let dir = TempDir::new("zipf");
    let lib = dir.0.join("lib.pdl");
    perfdojo_library::Library::new().save(&lib).unwrap();
    let built = std::fs::read(&lib).unwrap();
    let lib_path = lib.to_str().unwrap();
    let missing = dir.0.join("missing.pdl");
    let serve = |lib: &str, s: &str| {
        perfdojo_lib(&["serve", "--lib", lib, "--target", "x86", "--requests", "1", "--zipf-s", s])
    };
    for s in ["nan", "-1", "inf", "-inf"] {
        // a library that does not exist is never read: the exponent is
        // checked first
        for lib in [lib_path, missing.to_str().unwrap()] {
            let run = serve(lib, s);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "--zipf-s {s}: {stderr}");
            assert!(stderr.contains("--zipf-s"), "--zipf-s {s}: {stderr}");
        }
        assert_eq!(std::fs::read(&lib).unwrap(), built, "a refused serve changed the library");
    }
    // an exponent of 0 is uniform traffic
    let run = serve(lib_path, "0");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
}

#[test]
fn fleet_reinit_removes_a_dropped_job_unless_its_lock_is_held() {
    let dir = TempDir::new("reinit");
    let farm = dir.0.join("farm");
    let path = farm.to_str().unwrap();
    let init = |seed: &str| {
        let run = perfdojo_lib(&[
            "fleet",
            "init",
            "--dir",
            path,
            "--kernels",
            "relu",
            "--strategy",
            "heuristic",
            "--seed",
            seed,
        ]);
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        String::from_utf8_lossy(&run.stdout).into_owned()
    };
    init("1");
    let run = perfdojo_lib(&["fleet", "run", "--dir", path, "--workers", "1"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let fleet = perfdojo_library::FleetDir::open(&farm);
    let old = fleet.manifest().unwrap()[0].id();
    let lock = fleet.try_claim(&old).unwrap().expect("a drained job's lock is free");
    // another seed is another job: the old one is dropped, but held
    let stdout = init("2");
    assert!(stdout.contains(&format!("kept {old}")), "{stdout}");
    assert!(fleet.part(&old).is_some(), "a held job's part was removed");
    drop(lock);
    let stdout = init("2");
    assert!(!stdout.contains("kept"), "{stdout}");
    assert!(fleet.part(&old).is_none(), "a dropped job's part survived");
    assert!(!farm.join("locks").join(format!("{old}.lock")).exists());
}
