//! `--help` is a successful request, not a parse error, in every binary
//! of this package (`party` and `dp_triangles` hold the same contract
//! in `tests/cli_help.rs` of the umbrella crate).

use cargo_testutil::cli::assert_help_contract;

#[test]
fn help_prints_usage_on_stdout_and_exits_zero_in_every_binary() {
    for (name, exe) in [
        ("experiments", env!("CARGO_BIN_EXE_experiments")),
        ("bench_compare", env!("CARGO_BIN_EXE_bench_compare")),
        ("bench_secure_count", env!("CARGO_BIN_EXE_bench_secure_count")),
        ("bench_offline", env!("CARGO_BIN_EXE_bench_offline")),
        ("bench_mg_kernel", env!("CARGO_BIN_EXE_bench_mg_kernel")),
        ("bench_micro", env!("CARGO_BIN_EXE_bench_micro")),
    ] {
        assert_help_contract(name, exe, "--out");
    }
}
