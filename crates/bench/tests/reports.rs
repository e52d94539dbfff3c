//! The committed reports are pinned: `figures --exp <id>` for the serve,
//! graph, fleet and transfer experiments must write, byte for byte, the
//! `BENCH_<id>.json` committed at the repository root. Each run happens in
//! its own temporary directory, so no report lands in the crate. A change
//! that moves a report commits the new file and says why.

use std::path::Path;
use std::process::Command;

fn report_matches_committed(exp: &str) {
    let dir = std::env::temp_dir().join(format!("figures-report-{exp}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--exp", exp])
        .current_dir(&dir)
        .output()
        .expect("run figures");
    assert!(run.status.success(), "{exp}: {}", String::from_utf8_lossy(&run.stderr));
    let name = format!("BENCH_{exp}.json");
    let fresh = std::fs::read_to_string(dir.join(&name)).expect("fresh report");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join(&name)).expect("committed report");
    std::fs::remove_dir_all(&dir).unwrap();
    if let Some((i, (got, want))) =
        fresh.lines().zip(committed.lines()).enumerate().find(|(_, (a, b))| a != b)
    {
        panic!("{name} line {}: the run wrote {got:?}, the committed file has {want:?}", i + 1);
    }
    assert_eq!(fresh, committed, "{name}: the run and the committed file differ in length");
}

#[test]
fn serve_report_matches_the_committed_file() {
    report_matches_committed("serve");
}

#[test]
fn graph_report_matches_the_committed_file() {
    report_matches_committed("graph");
}

#[test]
fn fleet_report_matches_the_committed_file() {
    report_matches_committed("fleet");
}

#[test]
fn transfer_report_matches_the_committed_file() {
    report_matches_committed("transfer");
}
