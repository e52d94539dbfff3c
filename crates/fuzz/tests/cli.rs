//! `fuzz` argument guards, run against the built binary: a malformed
//! command line is a usage error (exit code 2) that names its token and
//! runs nothing, and hex seeds and `-h` still work.

use std::process::{Command, Output};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuzz")).args(args).output().expect("run fuzz")
}

#[test]
fn a_malformed_line_is_a_usage_error_that_runs_nothing() {
    for (args, token) in [
        (&["--iters", "1", "--steps", "1", "--iters", "2"][..], "--iters"),
        (&["--no-codegen", "--iters", "1", "--no-codegen"], "--no-codegen"),
        (&["--iters", "1", "--bogus", "1"], "--bogus"),
        (&["--iters", "1", "stray"], "stray"),
        (&["--iters", "1", "--steps"], "--steps"),
        (&["--write-corpus", "--iters", "1"], "--write-corpus"),
        (&["--seed", "0xZZ", "--iters", "1"], "--seed"),
        (&["--sabotage", "nothing", "--iters", "1"], "--sabotage"),
    ] {
        let run = fuzz(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: the error does not name {token}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&run.stdout));
    }
}

#[test]
fn a_hex_seed_runs_and_help_prints_usage() {
    let run = fuzz(&["--seed", "0x1F", "--iters", "1", "--steps", "1", "--no-codegen"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}");
    assert!(stdout.starts_with("perfdojo-fuzz seed=0x1F iters=1 steps=1 lib=cpu codegen=off"));
    for help in ["-h", "--help"] {
        let run = fuzz(&[help]);
        assert!(run.status.success());
        assert!(String::from_utf8_lossy(&run.stdout).starts_with("usage: fuzz"));
    }
}
