//! The five workloads: names, sizes, and why each exists.
//!
//! Sizes are constants, not options: a workload is a fixed point that
//! later changes are compared on. The one-shot pipelines are sized so
//! one release takes ≈ 0.4–0.7 s pinned on the 2-vCPU reference box
//! (a serve epoch ≈ 30 ms): the box's speed moves in steps of +30–40 %
//! that last 4–15 s (other tenants of the host), so a run needs many
//! short samples for a good share of them to land between steps —
//! three 3 s releases, the first sizing, all land on one. `stream-1m`
//! keeps its million users and takes ≈ 1.3 s a release.

use std::fmt;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense cube over the in-memory link, trusted dealer.
    DenseMem,
    /// Dense cube over the in-memory link, OT-extension offline phase.
    OtMem,
    /// Streamed sparse schedule over loopback TCP.
    SparseTcp,
    /// Continuous release over loopback TCP with journals.
    ServeTcp,
    /// In-process streamed Count of a million-node graph.
    Stream1m,
}

/// Users of `dense-mem`: `C(200, 3)` = 1 313 400 triples.
pub const DENSE_N: usize = 200;
/// Users of `ot-mem`: `C(32, 3)` = 4 960 multiplication groups.
pub const OT_N: usize = 32;
/// Users of `sparse-tcp`.
pub const SPARSE_N: usize = 120;
/// Users of `serve-tcp`'s base graph.
pub const SERVE_N: usize = 300;
/// Edge deltas per `serve-tcp` epoch.
pub const SERVE_DELTAS_PER_EPOCH: usize = 24;
/// Share of a `serve-tcp` epoch's deltas that are additions, in
/// percent (the graph grows slowly, as a live social graph does).
pub const SERVE_ADD_PERCENT: u64 = 60;
/// Epochs in a generated `serve-tcp` delta script — the most a run may
/// step; `--seconds` picks a prefix.
pub const SERVE_SCRIPT_EPOCHS: usize = 1800;
/// Users of `stream-1m` before isolated nodes drop out on load.
pub const STREAM_N: usize = 1_000_000;
/// Edges per user of `stream-1m`: half the `party --dataset powerlaw`
/// density, so that one streamed Count of a million users takes ≈ 1 s
/// and a run fits a dozen.
pub const STREAM_EDGES_PER_USER: usize = 2;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::DenseMem,
        Workload::OtMem,
        Workload::SparseTcp,
        Workload::ServeTcp,
        Workload::Stream1m,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseMem => "dense-mem",
            Workload::OtMem => "ot-mem",
            Workload::SparseTcp => "sparse-tcp",
            Workload::ServeTcp => "serve-tcp",
            Workload::Stream1m => "stream-1m",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on what the workload stresses (mirrored in
    /// `BENCHMARK.json`, pinned by a test).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DenseMem => {
                "Dense cube n=200 over the in-memory link with the dealer: MG kernel, dealer PRG and frame codec do the work (1.3 M triples, 63 MB of payload); planning, TCP and OT do nothing."
            }
            Workload::OtMem => {
                "Dense cube n=32 with the OT-extension offline phase inline: the no-trusted-dealer setting, offline >> online (12.3 kB per MG); transpose, hash and the flight dialogue dominate."
            }
            Workload::SparseTcp => {
                "Streamed sparse schedule n=120 over loopback TCP: about 42 k rounds of small frames, so round latency and syscalls dominate - the opposite use of the transport from dense-mem."
            }
            Workload::ServeTcp => {
                "Continuous release over loopback TCP: epochs of 24 edge deltas through delta planning, the commit handshake, the release schedule and an fsynced journal; the baseline Count lands in setup_s."
            }
            Workload::Stream1m => {
                "In-process streamed Count of a power-law graph with a million users: O(n+m) chunk and candidate walking does the work and the wire none; carries the peak-RSS claim."
            }
        }
    }

    /// A short tag of everything the input generator derives this
    /// workload's files from besides the seed. It is part of the input
    /// cache's key, so changing a size can never pair this code with
    /// files generated for another size.
    pub fn input_tag(self) -> String {
        match self {
            Workload::DenseMem => format!("fb{DENSE_N}"),
            Workload::OtMem => format!("fb{OT_N}"),
            Workload::SparseTcp => format!("fb{SPARSE_N}"),
            Workload::ServeTcp => format!(
                "fb{SERVE_N}-{SERVE_SCRIPT_EPOCHS}x{SERVE_DELTAS_PER_EPOCH}a{SERVE_ADD_PERCENT}"
            ),
            Workload::Stream1m => format!("pl{STREAM_N}x{STREAM_EDGES_PER_USER}"),
        }
    }

    /// Seconds one operation (a release; for `serve-tcp` an epoch)
    /// takes on the reference box. Only used to turn `--seconds` into
    /// an operation count **without looking at the clock**, so the
    /// byte and round totals of a run are a pure function of its
    /// arguments.
    fn nominal_op_seconds(self) -> f64 {
        match self {
            Workload::DenseMem => 0.5,
            Workload::OtMem => 0.4,
            Workload::SparseTcp => 0.65,
            Workload::ServeTcp => 1.0 / 30.0,
            Workload::Stream1m => 1.25,
        }
    }

    /// Fewest operations a run may time: a quartile needs four samples,
    /// and a serve run needs enough epochs for a tail percentile.
    fn min_ops(self) -> usize {
        match self {
            Workload::ServeTcp => 100,
            _ => 4,
        }
    }

    /// How many operations a run of `seconds` seconds times.
    pub fn ops_for(self, seconds: u64) -> usize {
        let ops = (seconds as f64 / self.nominal_op_seconds()).round() as usize;
        let cap = match self {
            Workload::ServeTcp => SERVE_SCRIPT_EPOCHS,
            _ => usize::MAX,
        };
        ops.clamp(self.min_ops(), cap)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{w}: why is {} chars", w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("dense"), None);
    }

    #[test]
    fn op_counts_follow_seconds_with_a_floor() {
        assert_eq!(Workload::DenseMem.ops_for(10), 20);
        assert_eq!(Workload::DenseMem.ops_for(1), 4);
        assert_eq!(Workload::Stream1m.ops_for(10), 8);
        assert_eq!(Workload::ServeTcp.ops_for(1), 100);
        assert_eq!(Workload::ServeTcp.ops_for(10), 300);
        assert_eq!(Workload::ServeTcp.ops_for(60), SERVE_SCRIPT_EPOCHS);
    }
}
