//! Workload inputs: generated from `(workload, seed)` by a separate
//! `bench gen` child process and cached on disk, so the measuring
//! process only ever *loads* files — its peak RSS and set-up time are
//! those of a party handed its inputs, not of a graph generator.

use crate::sut;
use crate::workload::{
    Workload, DENSE_N, OT_N, SERVE_ADD_PERCENT, SERVE_DELTAS_PER_EPOCH, SERVE_N,
    SERVE_SCRIPT_EPOCHS, SPARSE_N, STREAM_EDGES_PER_USER, STREAM_N,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The input files of one `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// SNAP edge list of the (base) graph.
    pub graph: PathBuf,
    /// Delta script (`serve-tcp` only; absent otherwise).
    pub deltas: PathBuf,
}

impl Inputs {
    fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            graph: dir.join("graph.txt"),
            deltas: dir.join("deltas.txt"),
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator, so a delta script
/// depends on nothing but its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias at these bounds is
    /// below 2⁻⁴⁰ and irrelevant to a workload generator).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Generates a serve delta script over a graph with `n` users and the
/// given live `edges`: `epochs` epochs of `per_epoch` deltas, each an
/// addition of a currently absent edge with probability
/// `add_percent` %, else a removal of a currently live one — so no
/// delta is redundant and every one costs the system real work. (A
/// complete graph only loses edges, an empty one only gains them.)
pub fn delta_script(
    n: usize,
    edges: &[(u32, u32)],
    epochs: usize,
    per_epoch: usize,
    add_percent: u64,
    seed: u64,
) -> String {
    assert!(n >= 2, "a delta needs two users");
    let complete = n * (n - 1) / 2;
    let mut rng = SplitMix64::new(seed ^ 0x5E17_E5C2_1B7D_E17A);
    let mut live: Vec<(u32, u32)> = edges.to_vec();
    let mut index: HashSet<(u32, u32)> = live.iter().copied().collect();
    let mut out = String::new();
    for epoch in 1..=epochs {
        writeln!(out, "# epoch {epoch}").expect("write to a String");
        for _ in 0..per_epoch {
            let wants_add = rng.below(100) < add_percent;
            let add = live.is_empty() || (wants_add && live.len() < complete);
            if add {
                let edge = loop {
                    let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
                    let edge = (u.min(v), u.max(v));
                    if u != v && !index.contains(&edge) {
                        break edge;
                    }
                };
                index.insert(edge);
                live.push(edge);
                writeln!(out, "+{} {}", edge.0, edge.1).expect("write to a String");
            } else {
                let edge = live.swap_remove(rng.below(live.len() as u64) as usize);
                index.remove(&edge);
                writeln!(out, "-{} {}", edge.0, edge.1).expect("write to a String");
            }
        }
        out.push_str("commit\n");
    }
    out
}

/// Writes the inputs of `(workload, seed)` into `dir` (which exists).
/// This is the body of the `bench gen` child process.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let inputs = Inputs::in_dir(dir);
    match workload {
        Workload::DenseMem => sut::write_facebook_prefix(DENSE_N, seed, &inputs.graph),
        Workload::OtMem => sut::write_facebook_prefix(OT_N, seed, &inputs.graph),
        Workload::SparseTcp => sut::write_facebook_prefix(SPARSE_N, seed, &inputs.graph),
        Workload::Stream1m => {
            sut::write_power_law(STREAM_N, STREAM_EDGES_PER_USER, seed, &inputs.graph)
        }
        Workload::ServeTcp => {
            sut::write_facebook_prefix(SERVE_N, seed, &inputs.graph)?;
            let graph = sut::LoadedGraph::read(&inputs.graph)?;
            let script = delta_script(
                graph.n(),
                &graph.edge_list(),
                SERVE_SCRIPT_EPOCHS,
                SERVE_DELTAS_PER_EPOCH,
                SERVE_ADD_PERCENT,
                seed,
            );
            fs::write(&inputs.deltas, script)
                .map_err(|e| format!("{}: {e}", inputs.deltas.display()))
        }
    }
}

/// Where the inputs of `(workload, seed)` are cached: keyed by the
/// workload's sizes too, so a changed constant is a cache miss.
fn cache_dir(workload: Workload, seed: u64, out: &Path) -> PathBuf {
    out.join("inputs")
        .join(format!("{workload}-{}-{seed}", workload.input_tag()))
}

/// Returns the inputs of `(workload, seed)` under `out/inputs/`,
/// generating them first — in a child process running `gen_exe gen` —
/// unless a complete set is already cached there.
pub fn ensure(workload: Workload, seed: u64, out: &Path, gen_exe: &Path) -> Result<Inputs, String> {
    let dir = cache_dir(workload, seed, out);
    if !dir.is_dir() {
        let status = Command::new(gen_exe)
            .arg("gen")
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--out")
            .arg(out)
            .status()
            .map_err(|e| format!("cannot run {} gen: {e}", gen_exe.display()))?;
        if !status.success() {
            return Err(format!("{} gen failed: {status}", gen_exe.display()));
        }
    }
    Ok(Inputs::in_dir(&dir))
}

/// The `bench gen` entry point: generates into a scratch directory and
/// renames it into place, so a cached directory is always complete.
pub fn generate_into_cache(workload: Workload, seed: u64, out: &Path) -> Result<(), String> {
    let dir = cache_dir(workload, seed, out);
    if dir.is_dir() {
        return Ok(());
    }
    let scratch = dir.with_extension(format!("tmp{}", std::process::id()));
    fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let made = generate(workload, seed, &scratch)
        .and_then(|()| fs::rename(&scratch, &dir).map_err(|e| format!("{}: {e}", dir.display())));
    if made.is_err() {
        let _ = fs::remove_dir_all(&scratch);
    }
    made
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| (i.min((i + 1) % n), i.max((i + 1) % n)))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_script_and_another_seed_another() {
        let a = delta_script(50, &ring(50), 20, 8, 60, 7);
        let b = delta_script(50, &ring(50), 20, 8, 60, 7);
        let c = delta_script(50, &ring(50), 20, 8, 60, 8);
        assert_eq!(a, b, "byte-identical under one seed");
        assert_ne!(a, c, "a different seed is a different script");
    }

    #[test]
    fn a_saturated_graph_only_loses_edges() {
        // 90 % adds on 10 users fills all 45 edges within a few epochs;
        // generation must go on (removing) instead of searching for an
        // absent edge that does not exist.
        let script = delta_script(10, &[(0, 1)], 50, 8, 90, 1);
        assert_eq!(script.lines().filter(|l| *l == "commit").count(), 50);
    }

    #[test]
    fn every_delta_is_effective_and_epochs_are_full() {
        let n = 40;
        let script = delta_script(n, &ring(n as u32), 30, 16, 60, 3);
        let mut live: HashSet<(u32, u32)> = ring(n as u32).into_iter().collect();
        let (mut epochs, mut in_epoch, mut adds, mut total) = (0, 0, 0, 0);
        for line in script.lines() {
            if line.starts_with('#') {
                continue;
            }
            if line == "commit" {
                assert_eq!(in_epoch, 16, "epoch {epochs} is short");
                epochs += 1;
                in_epoch = 0;
                continue;
            }
            let (sign, rest) = line.split_at(1);
            let mut ends = rest.split(' ').map(|t| t.parse::<u32>().unwrap());
            let (u, v) = (ends.next().unwrap(), ends.next().unwrap());
            assert!(u < v && (v as usize) < n, "{line}");
            match sign {
                "+" => {
                    assert!(live.insert((u, v)), "redundant add {line}");
                    adds += 1;
                }
                "-" => assert!(live.remove(&(u, v)), "redundant remove {line}"),
                _ => panic!("bad line {line:?}"),
            }
            in_epoch += 1;
            total += 1;
        }
        assert_eq!(epochs, 30);
        // 60 % adds within sampling noise of 480 draws.
        let share = adds as f64 / total as f64;
        assert!((0.5..0.7).contains(&share), "add share {share}");
    }
}
