//! `figures` argument guards, run against the built binary: anything but
//! one `--list` or one `--exp <id>` is a usage error (exit code 2) that
//! names its token, runs no experiment and writes no report; an experiment
//! that reports `error: …` makes the run exit 1.

use std::process::Command;

#[test]
fn a_malformed_line_is_a_usage_error_that_runs_nothing() {
    let dir = std::env::temp_dir().join(format!("figures-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, token) in [
        (&["--list", "--list"][..], "--list"),
        (&["--exp", "fig12", "--exp", "fig12"], "--exp"),
        (&["--exp"], "--exp"),
        (&["fig12"], "fig12"),
        (&["--list", "stray"], "stray"),
        (&["--list", "--exp", "fig12"], "--exp"),
        // the serve experiment's skew is a constant; `perfdojo-lib serve
        // --zipf-s` varies it
        (&["--exp", "serve", "--zipf-s", "1.4"], "--zipf-s"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: the error does not name {token}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&run.stdout));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args:?} wrote a report");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_prints_the_experiment_ids() {
    let run = Command::new(env!("CARGO_BIN_EXE_figures")).arg("--list").output().unwrap();
    assert!(run.status.success());
    let ids = String::from_utf8_lossy(&run.stdout);
    assert!(ids.lines().any(|id| id == "serve") && ids.lines().any(|id| id == "fig12"), "{ids}");
}

#[test]
fn an_experiment_that_reports_an_error_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("figures-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // the fleet experiment makes its fleets under the temp dir, and a temp
    // dir that is a regular file fails its `fleet init`; a directory where
    // the serve report goes fails the report's write
    let not_a_dir = dir.join("tmp-is-a-file");
    std::fs::write(&not_a_dir, "").unwrap();
    std::fs::create_dir(dir.join("BENCH_serve.json")).unwrap();
    for (exp, error) in
        [("fleet", "error: fleet init"), ("serve", "error: could not write BENCH_serve.json")]
    {
        let run = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--exp", exp])
            .env("TMPDIR", &not_a_dir)
            .current_dir(&dir)
            .output()
            .expect("run figures");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stdout.contains(error), "{exp}: {stdout}");
        assert_eq!(run.status.code(), Some(1), "{exp}: {stderr}");
        assert!(stderr.contains(&format!("failed: {exp}")), "{exp} is not named: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
