//! `--help` is a successful request, not a parse error, in `party` and
//! `dp_triangles` (the six `cargo-bench` binaries hold the same
//! contract in `crates/bench/tests/cli_help.rs`).

use cargo_testutil::cli::assert_help_contract;
use std::process::Command;

const PARTY: &str = env!("CARGO_BIN_EXE_party");
const DP_TRIANGLES: &str = env!("CARGO_BIN_EXE_dp_triangles");

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    assert_help_contract("party", PARTY, "--n");
    assert_help_contract("dp_triangles", DP_TRIANGLES, "--n");
}

#[test]
fn dp_triangles_usage_lists_every_protocol_the_parser_accepts() {
    // `replay` was accepted (and `--deltas/--horizon/--composition`
    // exist only for it) but missing from the list.
    let out = Command::new(DP_TRIANGLES).arg("--help").output().expect("spawn");
    let usage = String::from_utf8(out.stdout).unwrap();
    assert!(usage.contains("cargo | central | local2rounds | localrr | exact | replay"), "{usage}");
}

#[test]
fn party_keeps_the_recv_timeout_its_links_wait_with() {
    // A party waits on a live peer, so it takes `--recv-timeout`;
    // `experiments` runs no link and refuses it (the help contract).
    let out = Command::new(PARTY).arg("--help").output().expect("spawn");
    let usage = String::from_utf8(out.stdout).unwrap();
    assert!(usage.contains("--recv-timeout <seconds=120>"), "{usage}");
    let out = Command::new(PARTY)
        .args(["--role", "local", "--n", "12", "--recv-timeout", "5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
