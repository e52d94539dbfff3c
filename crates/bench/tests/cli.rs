//! `figures` argument guards, run against the built binary: anything but
//! one `--list` or one `--exp <id>` is a usage error (exit code 2) that
//! names its token, runs no experiment and writes no report.

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
