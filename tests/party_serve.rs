//! `party --mode serve` end to end, on the built binary: the in-process
//! reference, a two-process pair over loopback TCP, and both resumed
//! from cut journals must print byte-identical transcripts and journal
//! the same committed epochs.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const PARTY: &str = env!("CARGO_BIN_EXE_party");

/// The serve-smoke script: five epochs, the fifth refused at horizon 4.
const SCRIPT: &str =
    "# serve-smoke script\n+0 1\n+1 2\n+0 2\ncommit\n-0 1\ncommit\ncommit\ncommit\ncommit\n";

struct Run {
    dir: PathBuf,
    composition: &'static str,
}

impl Run {
    fn new(composition: &'static str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("party-serve-{composition}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("deltas.txt"), SCRIPT).unwrap();
        Run { dir, composition }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `party` with the serve flags, journalling to `journal`.
    fn party(&self, role: &[&str], journal: &str, resume: bool) -> Command {
        let mut cmd = Command::new(PARTY);
        cmd.args(role)
            .args(["--mode", "serve", "--dataset", "powerlaw", "--n", "60"])
            .args(["--seed", "7", "--epsilon", "2", "--horizon", "4"])
            .args(["--composition", self.composition, "--recv-timeout", "20"])
            .arg("--deltas")
            .arg(self.path("deltas.txt"))
            .arg("--journal")
            .arg(self.path(journal))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if resume {
            cmd.arg("--resume");
        }
        cmd
    }

    fn local(&self, journal: &str, resume: bool) -> String {
        transcript(
            self.party(&["--role", "local"], journal, resume)
                .output()
                .unwrap(),
        )
    }

    /// An `s1`/`s2` pair over a free loopback port.
    fn pair(&self, journals: [&str; 2], resume: bool) -> [String; 2] {
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let s1 = self
            .party(&["--role", "s1", "--listen", &addr], journals[0], resume)
            .spawn()
            .unwrap();
        let s2 = self
            .party(&["--role", "s2", "--connect", &addr], journals[1], resume)
            .output()
            .unwrap();
        [transcript(s1.wait_with_output().unwrap()), transcript(s2)]
    }

    /// Copies `from` to `to`, keeping its header and first `epochs`
    /// records — the journal of a party that crashed after them.
    fn cut_journal(&self, from: &str, to: &str, epochs: usize) {
        let full = std::fs::read_to_string(self.path(from)).unwrap();
        let kept: String = full.split_inclusive('\n').take(1 + epochs).collect();
        std::fs::write(self.path(to), kept).unwrap();
    }

    fn epoch_lines(&self, journal: &str) -> Vec<String> {
        epoch_lines(&self.path(journal))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn transcript(out: Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "party failed ({}): {stderr}",
        out.status
    );
    String::from_utf8(out.stdout).unwrap()
}

fn epoch_lines(journal: &Path) -> Vec<String> {
    std::fs::read_to_string(journal)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("epoch="))
        .map(str::to_string)
        .collect()
}

fn serve_transcripts_agree(composition: &'static str) {
    let run = Run::new(composition);
    let reference = run.local("ref.journal", false);
    assert!(reference.starts_with("RESULT baseline "), "{reference}");
    assert_eq!(reference.matches("noisy_count=").count(), 4, "{reference}");
    let committed = run.epoch_lines("ref.journal");
    assert_eq!(committed.len(), 4);

    let [s1, s2] = run.pair(["s1.journal", "s2.journal"], false);
    assert_eq!(s1, reference, "{composition}: s1 vs local");
    assert_eq!(s2, reference, "{composition}: s2 vs local");
    assert_eq!(run.epoch_lines("s1.journal"), committed);
    assert_eq!(run.epoch_lines("s2.journal"), committed);

    run.cut_journal("ref.journal", "local-cut.journal", 1);
    let resumed = run.local("local-cut.journal", true);
    assert_eq!(resumed, reference, "{composition}: local --resume");
    assert_eq!(run.epoch_lines("local-cut.journal"), committed);

    // S1 crashed after epoch 1, S2 after epoch 2: S1 catches epoch 2
    // up inside the resume handshake.
    run.cut_journal("s1.journal", "s1-cut.journal", 1);
    run.cut_journal("s2.journal", "s2-cut.journal", 2);
    let [s1, s2] = run.pair(["s1-cut.journal", "s2-cut.journal"], true);
    assert_eq!(s1, reference, "{composition}: s1 --resume");
    assert_eq!(s2, reference, "{composition}: s2 --resume");
    assert_eq!(run.epoch_lines("s1-cut.journal"), committed);
    assert_eq!(run.epoch_lines("s2-cut.journal"), committed);
}

#[test]
fn fixed_serve_transcripts_agree_across_roles_and_resumes() {
    serve_transcripts_agree("fixed");
}

#[test]
fn tree_serve_transcripts_agree_across_roles_and_resumes() {
    serve_transcripts_agree("tree");
}

#[test]
fn resume_refuses_a_v1_journal_naming_both_versions() {
    let dir = std::env::temp_dir().join(format!("party-serve-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("deltas.txt"), SCRIPT).unwrap();
    let run = Run { dir, composition: "fixed" };
    run.local("old.journal", false);
    let journal = std::fs::read_to_string(run.path("old.journal")).unwrap();
    assert!(journal.starts_with("cargo-journal v2 "), "{journal}");
    let v1 = journal.replacen("cargo-journal v2", "cargo-journal v1", 1);
    std::fs::write(run.path("old.journal"), v1).unwrap();

    let out = run.party(&["--role", "local"], "old.journal", true).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a v1 journal must not resume: {stderr}");
    assert!(stderr.contains("cargo-journal v1"), "{stderr}");
    assert!(stderr.contains("cargo-journal v2"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is published");
}
