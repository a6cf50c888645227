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
