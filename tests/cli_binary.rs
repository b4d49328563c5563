//! End-to-end tests of the `commsched` binary: spawn the compiled
//! executable and check its stdout/exit codes (the ultimate integration
//! layer a user touches).

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_commsched"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("commsched schedule"));
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn topology_ring_lists_links() {
    let (stdout, _, ok) = run(&["topology", "--kind", "ring", "--switches", "5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("switches: 5"));
    assert!(stdout.contains("0 -- 1"));
    assert!(stdout.contains("0 -- 4"));
}

#[test]
fn schedule_paper24_finds_rings() {
    let (stdout, _, ok) = run(&["schedule", "--kind", "paper24"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Cc = 6.890"), "{stdout}");
    assert!(stdout.contains("(0,1,2,3,4,5)"));
}

#[test]
fn save_load_roundtrip_through_binary() {
    let dir = std::env::temp_dir().join(format!("commsched-bin-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net.topo");
    let path = path.to_str().unwrap();

    let (stdout, _, ok) = run(&[
        "topology",
        "--kind",
        "ring",
        "--switches",
        "8",
        "--save",
        path,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("saved to"));

    // Schedule on the file-loaded network.
    let (stdout, _, ok) = run(&[
        "schedule",
        "--kind",
        "file",
        "--input",
        path,
        "--clusters",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("partition:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misspelled_flag_is_refused_with_its_subcommands_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_commsched"))
        .args(["schedule", "--kind", "paper24", "--clusers", "8"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--clusers"), "{stderr}");
    assert!(stderr.contains("commsched schedule"), "{stderr}");
    assert!(!stderr.contains("commsched cluster"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was scheduled first");
}
