//! Crash-safe continuous release: the epoch journal and replay.
//!
//! Serve mode's durability contract is **commit-then-publish**: after
//! an epoch's release opens, the party appends one record — committed
//! epoch id, cumulative ε spent, and a digest of the post-epoch public
//! state — to an append-only [`EpochJournal`] (flushed and fsynced)
//! *before* printing the epoch's transcript line. A crash at any frame
//! therefore loses at most the in-flight epoch, whose grant was never
//! durably spent.
//!
//! Restart is pure recomputation, not state restore: because every
//! Count is a deterministic function of the seed and its public plan —
//! its masks and product words are keyed by pair and by the Count seed
//! — and both parties build the full graph from the same public
//! deltas, [`replay_committed`] reruns the delta script *locally*
//! (zero wire traffic) and lands bit-identically on the pre-crash
//! session state — shares, kept pair openings, accountant, and
//! per-epoch outcomes. The
//! journal records are verified against the replay as it goes, so a
//! journal that disagrees with the deterministic recomputation (edited
//! script, wrong seed, different binary) fails typed instead of
//! silently double-spending ε or forking the release transcript.
//!
//! The file format is line-oriented text: a header line pinning the
//! config fingerprint, then one record per committed epoch. ε values
//! are stored as exact `f64` bit patterns (hex), never decimal — the
//! no-double-spend check is bit-level. A torn trailing line (crash
//! mid-append: no terminating newline) is ignored, which is exactly
//! the commit-then-publish semantics: an unterminated record was never
//! acknowledged.

use crate::config::CargoConfig;
use crate::delta::EdgeDelta;
use crate::session::{EpochOutcome, Session};
use cargo_graph::Graph;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic + version of the journal file format. v2 changed the
/// [`state_digest`] its records hold, so a v1 journal is refused at its
/// header.
const JOURNAL_MAGIC: &str = "cargo-journal v2";

/// splitmix64's finaliser over `h ^ w`: every input bit diffuses
/// through the whole word.
fn mix(h: u64, w: u64) -> u64 {
    let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edge `{u, v}`'s term of the [`state_digest`] edge sum, for `u < v`.
pub(crate) fn edge_word(u: u32, v: u32) -> u64 {
    mix(0x6A09_E667_F3BC_C908, (u64::from(u) << 32) | u64::from(v))
}

/// The [`state_digest`] of `epochs` committed epochs over an `n`-node
/// graph whose [`edge_word`]s sum (wrapping) to `edge_sum`.
pub(crate) fn digest_of(epochs: u64, n: usize, edge_sum: u64) -> u64 {
    mix(mix(mix(0x43A5_2D0A_8E5D_9B11, epochs), n as u64), edge_sum)
}

/// Digest of a session's public post-epoch state: the committed epoch
/// count, `n` and the live edge set, the last as the wrapping sum of a
/// hash of each edge. The sum does not depend on edge order, so
/// [`crate::IncrementalCounter::digest`] keeps it current from each
/// epoch's changed edges alone, in O(Δ); this function recomputes it
/// from the whole graph, in O(m). Role-independent (both parties build
/// the same graph from the public deltas), so it doubles as the
/// epoch-commit handshake's agreement check and the journal's replay
/// verification.
pub fn state_digest(epochs: u64, graph: &Graph) -> u64 {
    digest_of(epochs, graph.n(), edge_sum(graph))
}

/// The wrapping sum of `graph`'s [`edge_word`]s: each vertex's sorted
/// neighbours above it, one independent hash each.
pub(crate) fn edge_sum(graph: &Graph) -> u64 {
    let mut sum = 0u64;
    for u in 0..graph.n() {
        let nbrs = graph.neighbors(u);
        let above = &nbrs[nbrs.partition_point(|&v| v as usize <= u)..];
        for &v in above {
            sum = sum.wrapping_add(edge_word(u as u32, v));
        }
    }
    sum
}

/// One committed-epoch record of an [`EpochJournal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// 1-based committed epoch id.
    pub epoch: u64,
    /// Cumulative ε spent after this release (exact bit pattern).
    pub spent: f64,
    /// [`state_digest`] of the post-epoch session state.
    pub digest: u64,
}

impl From<&EpochOutcome> for EpochRecord {
    fn from(out: &EpochOutcome) -> Self {
        EpochRecord {
            epoch: out.epoch,
            spent: out.spent,
            digest: out.digest,
        }
    }
}

/// The journal line of a record (ε as its exact bit pattern).
impl fmt::Display for EpochRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch={} spent={:#018x} digest={:#018x}",
            self.epoch,
            self.spent.to_bits(),
            self.digest
        )
    }
}

/// Why journaling or recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem trouble reading or writing the journal.
    Io(String),
    /// [`EpochJournal::create`] found a journal already at the path.
    /// Overwriting would destroy the durable ε-spend record and
    /// double-spend the budget, so starting fresh over an existing
    /// journal must be an explicit operator action.
    Exists {
        /// The journal that already exists.
        path: PathBuf,
    },
    /// The journal's header line is missing, malformed, or pins a
    /// different config fingerprint than this run's.
    Header(String),
    /// A (non-trailing) record line failed to parse or broke the
    /// strictly-sequential epoch-id invariant.
    Record {
        /// 1-based line number in the journal file.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The deterministic replay disagreed with a journal record — the
    /// script, seed, or binary changed under the journal.
    Mismatch {
        /// The epoch whose record failed verification.
        epoch: u64,
        /// Which field disagreed.
        message: String,
    },
    /// The journal commits more epochs than the delta script holds.
    ScriptTooShort {
        /// Epochs the journal committed.
        committed: u64,
        /// Epoch batches the script parses to.
        epochs: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal io: {e}"),
            RecoveryError::Exists { path } => write!(
                f,
                "journal {} already exists; pass --resume to continue it, \
                 or delete it explicitly to start fresh (overwriting would \
                 destroy the durable \u{3b5}-spend record)",
                path.display()
            ),
            RecoveryError::Header(e) => write!(f, "journal header: {e}"),
            RecoveryError::Record { line, message } => {
                write!(f, "journal line {line}: {message}")
            }
            RecoveryError::Mismatch { epoch, message } => {
                write!(f, "replay of epoch {epoch} disagrees with the journal: {message}")
            }
            RecoveryError::ScriptTooShort { committed, epochs } => write!(
                f,
                "journal committed {committed} epochs but the script holds only {epochs}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e.to_string())
    }
}

/// The append-only committed-epoch journal of one serve run.
#[derive(Debug)]
pub struct EpochJournal {
    path: PathBuf,
    file: File,
    records: Vec<EpochRecord>,
}

/// The config fingerprint pinned in the header line: every knob that
/// participates in the deterministic replay.
fn header_line(cfg: &CargoConfig, n: usize) -> String {
    format!(
        "{JOURNAL_MAGIC} seed={} epsilon={:#018x} horizon={} composition={} frac_bits={} n={n}\n",
        cfg.seed,
        cfg.epsilon.to_bits(),
        cfg.horizon,
        cfg.composition,
        cfg.frac_bits,
    )
}

impl EpochJournal {
    /// Starts a fresh journal at `path` with the config fingerprint in
    /// the header. Refuses ([`RecoveryError::Exists`]) if a journal is
    /// already there — a restarted operator who forgot `--resume` must
    /// not silently wipe the durable commit record and re-spend ε
    /// against epochs the destroyed journal already published.
    pub fn create(path: &Path, cfg: &CargoConfig, n: usize) -> Result<Self, RecoveryError> {
        let mut file = match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                return Err(RecoveryError::Exists {
                    path: path.to_path_buf(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        file.write_all(header_line(cfg, n).as_bytes())?;
        file.sync_all()?;
        Ok(EpochJournal {
            path: path.to_path_buf(),
            file,
            records: Vec::new(),
        })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against this run's config, parses the committed records,
    /// truncates a torn trailing line (crash mid-append), and reopens
    /// in append mode.
    pub fn resume(path: &Path, cfg: &CargoConfig, n: usize) -> Result<Self, RecoveryError> {
        let mut content = String::new();
        File::open(path)?.read_to_string(&mut content)?;
        let want_header = header_line(cfg, n);
        let mut lines: Vec<&str> = content.split('\n').collect();
        // `split` leaves one trailing element: empty when the content
        // ends with a newline, otherwise the torn unterminated record
        // — either way it was never acknowledged, so it is dropped.
        let torn = lines.pop().unwrap_or_default();
        let mut records = Vec::new();
        for (idx, line) in lines.iter().enumerate() {
            if idx == 0 {
                let format = line.split(' ').take(2).collect::<Vec<_>>().join(" ");
                if format.starts_with("cargo-journal ") && format != JOURNAL_MAGIC {
                    return Err(RecoveryError::Header(format!(
                        "journal format {format:?} is not this binary's {JOURNAL_MAGIC:?}: \
                         its state digests are defined differently, so it cannot be resumed"
                    )));
                }
                if *line != want_header.trim_end_matches('\n') {
                    return Err(RecoveryError::Header(format!(
                        "journal pins {line:?}, this run is {:?}",
                        want_header.trim_end_matches('\n')
                    )));
                }
                continue;
            }
            let rec = parse_record(line).map_err(|message| RecoveryError::Record {
                line: idx + 1,
                message,
            })?;
            let want_epoch = records.len() as u64 + 1;
            if rec.epoch != want_epoch {
                return Err(RecoveryError::Record {
                    line: idx + 1,
                    message: format!("epoch {} out of sequence (want {want_epoch})", rec.epoch),
                });
            }
            records.push(rec);
        }
        if lines.is_empty() {
            return Err(RecoveryError::Header("journal file is empty".into()));
        }
        let file = OpenOptions::new().append(true).open(path)?;
        if !torn.is_empty() {
            // The torn bytes must not stay on disk: the next append
            // would concatenate onto the unterminated partial line,
            // leaving that committed epoch's record unparseable and
            // every later resume failing. Cut the file back to the
            // validated header + complete-records prefix (append-mode
            // writes land at the *current* EOF, so later appends start
            // exactly here).
            let parsed_len = (content.len() - torn.len()) as u64;
            file.set_len(parsed_len)?;
            file.sync_all()?;
        }
        Ok(EpochJournal {
            path: path.to_path_buf(),
            file,
            records,
        })
    }

    /// Appends one committed-epoch record, durably (flush + fsync)
    /// *before* returning — the commit-then-publish barrier.
    pub fn append(&mut self, record: EpochRecord) -> Result<(), RecoveryError> {
        let want = self.records.len() as u64 + 1;
        if record.epoch != want {
            return Err(RecoveryError::Mismatch {
                epoch: record.epoch,
                message: format!("append out of sequence (journal is at {want})"),
            });
        }
        self.file.write_all(format!("{record}\n").as_bytes())?;
        self.file.sync_all()?;
        self.records.push(record);
        Ok(())
    }

    /// The committed records, in epoch order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The last committed epoch id (0 if none).
    pub fn committed(&self) -> u64 {
        self.records.len() as u64
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn parse_record(line: &str) -> Result<EpochRecord, String> {
    let mut epoch = None;
    let mut spent = None;
    let mut digest = None;
    for field in line.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad field {field:?}"))?;
        let hex_u64 = |v: &str| {
            v.strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("bad hex value {v:?}"))
        };
        match key {
            "epoch" => epoch = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "spent" => spent = Some(f64::from_bits(hex_u64(value)?)),
            "digest" => digest = Some(hex_u64(value)?),
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    match (epoch, spent, digest) {
        (Some(epoch), Some(spent), Some(digest)) => Ok(EpochRecord {
            epoch,
            spent,
            digest,
        }),
        _ => Err("missing field (want epoch, spent, digest)".into()),
    }
}

/// Replays the first `journal.committed()` epoch batches of `script`
/// locally and verifies each against its journal record.
///
/// Zero wire traffic: the canonical-offset determinism means the local
/// [`Session`] recomputes the exact pre-crash state — the returned
/// session holds the live shares and the re-armed accountant (so no ε
/// is ever spent twice), and the returned outcomes are bit-identical
/// to the ones the crashed run published (a resumed transcript diffs
/// clean against an uninterrupted one).
pub fn replay_committed(
    graph: Graph,
    cfg: &CargoConfig,
    script: &[Vec<EdgeDelta>],
    journal: &EpochJournal,
) -> Result<(Session, Vec<EpochOutcome>), RecoveryError> {
    let committed = journal.committed();
    if (script.len() as u64) < committed {
        return Err(RecoveryError::ScriptTooShort {
            committed,
            epochs: script.len(),
        });
    }
    let mut session = Session::new(graph, cfg);
    let mut outcomes = Vec::with_capacity(committed as usize);
    for (record, batch) in journal.records().iter().zip(script) {
        let mismatch = |message| RecoveryError::Mismatch {
            epoch: record.epoch,
            message,
        };
        let out = session
            .step(batch)
            .map_err(|e| mismatch(format!("replay failed: {e}")))?;
        let replayed = EpochRecord::from(&out);
        // Bit-level: ε spent must match exactly, not just compare equal.
        if (replayed.epoch, replayed.spent.to_bits(), replayed.digest)
            != (record.epoch, record.spent.to_bits(), record.digest)
        {
            return Err(mismatch(format!("replay wrote {replayed}, journal holds {record}")));
        }
        outcomes.push(out);
    }
    Ok((session, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::EdgeDelta;
    use cargo_graph::generators;

    fn cfg() -> CargoConfig {
        CargoConfig::new(2.0).with_seed(11).with_horizon(4)
    }

    fn script() -> Vec<Vec<EdgeDelta>> {
        vec![
            vec![EdgeDelta::Add(0, 1), EdgeDelta::Add(1, 2), EdgeDelta::Add(0, 2)],
            vec![EdgeDelta::Remove(0, 1)],
            vec![],
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn journal_records_never_panic_on_hostile_text(
            text in cargo_testutil::text::operator_text(&["epoch=", "spent=0x", "digest=0x", "="])
        ) {
            let _ = parse_record(&text);
        }
    }

    #[test]
    fn journal_round_trips_and_replay_matches() {
        let dir = std::env::temp_dir().join(format!("cargo-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j1.journal");
        let g = generators::erdos_renyi(18, 0.3, 7);
        let cfg = cfg();

        // Reference run journals two of its three epochs.
        let mut session = Session::new(g.clone(), &cfg);
        let mut journal = EpochJournal::create(&path, &cfg, g.n()).unwrap();
        let mut reference = Vec::new();
        for batch in &script()[..2] {
            let out = session.step(batch).unwrap();
            journal
                .append(EpochRecord {
                    epoch: out.epoch,
                    spent: out.spent,
                    digest: state_digest(
                        session.counter().epochs(),
                        session.counter().graph(),
                    ),
                })
                .unwrap();
            reference.push(out);
        }
        drop(journal);

        // Resume: records parse back, replay is bit-identical, and the
        // resumed session continues exactly where the reference would.
        let journal = EpochJournal::resume(&path, &cfg, g.n()).unwrap();
        assert_eq!(journal.committed(), 2);
        let (mut resumed, outs) = replay_committed(g.clone(), &cfg, &script(), &journal).unwrap();
        assert_eq!(outs, reference);
        let next_ref = session.step(&script()[2]).unwrap();
        let next_resumed = resumed.step(&script()[2]).unwrap();
        assert_eq!(next_ref, next_resumed, "no ε double-spend, same release");

        // A torn trailing line (crash mid-append) is ignored — and
        // truncated from the file, so a post-resume append starts on a
        // fresh line instead of concatenating onto the partial record.
        let clean = std::fs::read_to_string(&path).unwrap();
        let mut content = clean.clone();
        content.push_str("epoch=3 spent=0x40000000");
        std::fs::write(&path, &content).unwrap();
        let mut torn = EpochJournal::resume(&path, &cfg, g.n()).unwrap();
        assert_eq!(torn.committed(), 2, "unterminated record never committed");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            clean,
            "torn bytes truncated on resume"
        );
        torn.append(EpochRecord {
            epoch: next_resumed.epoch,
            spent: next_resumed.spent,
            digest: state_digest(resumed.counter().epochs(), resumed.counter().graph()),
        })
        .unwrap();
        drop(torn);
        let again = EpochJournal::resume(&path, &cfg, g.n()).unwrap();
        assert_eq!(again.committed(), 3, "append after torn resume parses back");
        drop(again);

        // Creating over an existing journal is refused: a forgotten
        // --resume must not wipe the durable ε-spend record.
        assert!(matches!(
            EpochJournal::create(&path, &cfg, g.n()),
            Err(RecoveryError::Exists { .. })
        ));

        // A different config fingerprint is refused.
        let other = cfg.with_seed(99);
        assert!(matches!(
            EpochJournal::resume(&path, &other, g.n()),
            Err(RecoveryError::Header(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_journal_is_refused_at_its_header() {
        let dir = std::env::temp_dir().join(format!("cargo-journal-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j3.journal");
        let g = generators::erdos_renyi(18, 0.3, 7);
        let cfg = cfg();
        let mut journal = EpochJournal::create(&path, &cfg, g.n()).unwrap();
        let mut session = Session::new(g.clone(), &cfg);
        journal.append(EpochRecord::from(&session.step(&script()[0]).unwrap())).unwrap();
        drop(journal);
        // The same journal as the v1 format wrote it: only its magic
        // differs, and its digests would not verify.
        let v2 = std::fs::read_to_string(&path).unwrap();
        assert!(v2.starts_with("cargo-journal v2 "), "{v2}");
        std::fs::write(&path, v2.replacen("cargo-journal v2", "cargo-journal v1", 1)).unwrap();
        match EpochJournal::resume(&path, &cfg, g.n()) {
            Err(RecoveryError::Header(message)) => {
                assert!(message.contains("cargo-journal v1"), "{message}");
                assert!(message.contains("cargo-journal v2"), "{message}");
            }
            other => panic!("a v1 journal must be refused at its header: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_a_forged_journal() {
        let dir = std::env::temp_dir().join(format!("cargo-journal-forge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j2.journal");
        let g = generators::erdos_renyi(18, 0.3, 7);
        let cfg = cfg();
        let mut journal = EpochJournal::create(&path, &cfg, g.n()).unwrap();
        journal
            .append(EpochRecord {
                epoch: 1,
                spent: 0.5,
                digest: 0xDEAD,
            })
            .unwrap();
        let err = match replay_committed(g, &cfg, &script(), &journal) {
            Ok(_) => panic!("a forged journal must not replay"),
            Err(e) => e,
        };
        assert!(matches!(err, RecoveryError::Mismatch { epoch: 1, .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
