//! The `--help` contract every binary of the workspace holds, checked
//! on the built executable.

use std::process::Command;

/// Asserts that `exe` (whose usage text starts `usage: <name>`) treats
/// `--help`/`-h` as a successful request — usage on **stdout**, exit 0,
/// nothing on stderr, even beside an unknown flag or a flag missing its
/// value (`valued_flag`) — while an unknown flag alone stays a parse
/// error: usage on stderr, exit 2, nothing on stdout. A refused flag
/// value is a parse error too (exit 2, nothing on stdout), never a
/// panic, and stderr names the flag. Retired knobs — the triple pool's,
/// `--transport`, and `--recv-timeout` where no link waits (the
/// `experiments` binary) — are neither listed nor taken: each is an
/// unknown flag.
pub fn assert_help_contract(name: &str, exe: &str, valued_flag: &str) {
    for argv in [&["--help"][..], &["-h"], &["--wat", "--help"], &[valued_flag, "-h"]] {
        let out = Command::new(exe).args(argv).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{name} {argv:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(stdout.starts_with(&format!("usage: {name}")), "{name} {argv:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{name} {argv:?}");
    }
    let out = Command::new(exe).arg("--wat").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{name} --wat");
    assert!(out.stdout.is_empty(), "{name} --wat");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 error");
    assert!(stderr.contains("usage: "), "{name} --wat: {stderr}");
    let help = Command::new(exe).arg("--help").output().expect("spawn");
    let help = String::from_utf8(help.stdout).expect("utf-8 usage");
    let mut retired = vec![
        ("--factory-threads", "2"),
        ("--pool-depth", "2"),
        ("--pool-backpressure", "2"),
        ("--transport", "tcp"),
    ];
    if name == "experiments" {
        retired.push(("--recv-timeout", "5"));
    }
    for (retired, value) in retired {
        assert!(!help.contains(retired), "{name} --help lists {retired}");
        let out = Command::new(exe).args([retired, value]).output().expect("spawn");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 error");
        assert_eq!(out.status.code(), Some(2), "{name} {retired}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {retired}")), "{name}: {stderr}");
    }
    // The refused value comes last, after the flag it belongs to.
    let refused = match name {
        "party" => "--role local --recv-timeout 1e20",
        "experiments" => "table2 --batch 65537",
        "dp_triangles" => "--input toy.txt --epsilon nan",
        _ => "--measure-ms soon",
    };
    let argv: Vec<&str> = refused.split(' ').collect();
    let flag = argv[argv.len() - 2];
    let out = Command::new(exe).args(&argv).output().expect("spawn");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 error");
    assert_eq!(out.status.code(), Some(2), "{name} {refused}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {refused}");
    assert!(stderr.contains(flag), "{name} {refused}: {stderr}");
}
