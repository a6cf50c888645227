//! The repo benchmark: five pinned workloads, six end-to-end metrics,
//! and the helpers the `trace` binary shares with the gate. See
//! `README.md` in this directory for what is measured and why.
//!
//! Only [`sut`] names the system under test.

pub mod cli;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod runner;
pub mod selfcheck;
pub mod stats;
pub mod sut;
pub mod workload;

#[cfg(test)]
mod tests {
    /// The lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .map(|line| {
                line.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|line| !line.is_empty())
            .collect();
        lines.sort();
        lines
    }

    /// A different release profile measures a different program: the
    /// benchmark package must build the crates exactly as the root
    /// workspace's release build does.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release]"
        );
        assert_eq!(ours, root);
        assert_eq!(root, ["codegen-units=1", "lto=\"thin\""]);
    }
}
