//! The `--help` contract every binary of the workspace holds, checked
//! on the built executable.

use std::process::Command;

/// Asserts that `exe` (whose usage text starts `usage: <name>`) treats
/// `--help`/`-h` as a successful request — usage on **stdout**, exit 0,
/// nothing on stderr, even beside an unknown flag or a flag missing its
/// value (`valued_flag`) — while an unknown flag alone stays a parse
/// error: usage on stderr, exit 2, nothing on stdout.
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
}
