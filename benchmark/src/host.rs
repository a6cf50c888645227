//! Host metadata stamped on every record: a time is only comparable
//! with another taken on the same kind of machine.

use std::fs;
use std::process::Command;

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `key → value` facts about the machine and toolchain. `commit` reads
/// `unknown` in a checkout that is not a git repository.
pub fn metadata(pinned_cpu: usize) -> Vec<(String, String)> {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    [
        // Not `available_parallelism`: after pinning it says 1.
        ("nproc", first_line_of("nproc", &["--all"])),
        ("cpu_model", cpu_model()),
        ("kernel", kernel),
        ("pinned_cpu", pinned_cpu.to_string()),
        ("rustc", first_line_of("rustc", &["--version"])),
        ("commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}
