//! `--help` is a successful request, not a parse error, in every binary
//! of this package (`party` and `dp_triangles` hold the same contract
//! in `tests/cli_help.rs` of the umbrella crate).

use cargo_testutil::cli::assert_help_contract;

#[test]
fn help_prints_usage_on_stdout_and_exits_zero_in_every_binary() {
    for (name, exe, valued_flag) in [
        ("experiments", env!("CARGO_BIN_EXE_experiments"), "--out-dir"),
        ("bench_micro", env!("CARGO_BIN_EXE_bench_micro"), "--measure-ms"),
    ] {
        assert_help_contract(name, exe, valued_flag);
    }
}

#[test]
fn experiments_usage_names_the_default_batch() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .output()
        .expect("spawn experiments");
    let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
    let default = format!("--batch <b=0 (default {})>", cargo_core::DEFAULT_COUNT_BATCH);
    assert!(usage.contains(&default), "{usage}");
}
