//! Configuration of a CARGO run.

use cargo_dp::{Composition, EpsilonSplit, PrivacyBudget};
use cargo_mpc::{Backpressure, OfflineMode, PoolPolicy};

/// Selects the inner evaluation kernel of the in-process Count
/// ([`crate::CountJob::kernel`]).
///
/// Both kernels produce **bit-identical** shares, openings, and online
/// `NetStats` ledgers (pinned by `crates/core/tests/
/// kernel_equivalence.rs`); they differ only in wall-clock. The scalar
/// kernel is retained as the test oracle and the readable reference of
/// the batched arithmetic.
///
/// ```
/// use cargo_core::CountKernel;
/// assert_eq!(CountKernel::default(), CountKernel::Bitsliced);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountKernel {
    /// One Multiplication Group at a time: the direct transcription of
    /// the protocol arithmetic.
    Scalar,
    /// The default: structure-of-arrays batches over `u64xN` lanes
    /// ([`cargo_mpc::mul3_batch`]) — whole scheduler blocks per call,
    /// one slab opening per round.
    #[default]
    Bitsliced,
}

/// Selects the wire the Count phase's openings travel over.
///
/// Results are **bit-identical** across transports (pinned by
/// `crates/core/tests/transport_equivalence.rs`); only where the bytes
/// physically live changes — and with [`TransportKind::Tcp`] the
/// modeled byte ledger is *measured* against real sockets
/// ([`cargo_mpc::NetStats::wire_bytes`]).
///
/// ```
/// use cargo_core::TransportKind;
/// assert_eq!("memory".parse::<TransportKind>(), Ok(TransportKind::Memory));
/// assert_eq!("tcp".parse::<TransportKind>(), Ok(TransportKind::Tcp));
/// assert_eq!(TransportKind::default(), TransportKind::Memory);
/// assert_eq!(TransportKind::Tcp.to_string(), "tcp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// The default in-process path: the fast kernel's openings stay in
    /// memory and the wire is the modeled ledger (the message-passing
    /// runtime over the in-memory *byte* transport is exercised by the
    /// test suites and `party --role local`).
    #[default]
    Memory,
    /// The Count phase runs on the sharded message-passing runtime
    /// over **real loopback TCP sockets** — every opening crosses the
    /// kernel network stack as an encoded frame and is byte-counted.
    /// The two-OS-process deployment shape is the `party` binary.
    Tcp,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "memory" | "mem" => Ok(TransportKind::Memory),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!(
                "unknown transport {other:?} (expected \"memory\" or \"tcp\")"
            )),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Memory => "memory",
            TransportKind::Tcp => "tcp",
        })
    }
}

/// Selects which triples the Count phase schedules.
///
/// The dense cube is the paper's fully-oblivious `O(n³)` walk; the
/// sparse schedule evaluates only the triples a **public** candidate
/// structure (the degree-ordered wedge closure of the projected
/// support) admits. Shares of every surviving triple are
/// **bit-identical** across the two schedules (pinned by
/// `crates/core/tests/sparse_equivalence.rs`): MG material and input
/// shares are keyed per `(i, j, k)` triple, so the schedule changes
/// only *which* triples are touched, never their values. See
/// PROTOCOL.md § "Sparse Count schedule" for the leakage analysis.
///
/// ```
/// use cargo_core::ScheduleKind;
/// assert_eq!("dense".parse::<ScheduleKind>(), Ok(ScheduleKind::Dense));
/// assert_eq!("sparse".parse::<ScheduleKind>(), Ok(ScheduleKind::Sparse));
/// assert_eq!(
///     "sparse-stream".parse::<ScheduleKind>(),
///     Ok(ScheduleKind::SparseStream)
/// );
/// assert_eq!(ScheduleKind::default(), ScheduleKind::Dense);
/// assert_eq!(ScheduleKind::Sparse.to_string(), "sparse");
/// assert_eq!(ScheduleKind::SparseStream.to_string(), "sparse-stream");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleKind {
    /// The default: every ordered triple `i < j < k` of the full cube —
    /// fully oblivious, cost independent of the input graph.
    #[default]
    Dense,
    /// Candidate-driven: only the `(i, j, k)` triples admitted by the
    /// public candidate structure built from the projected support.
    /// Reveals the candidate set's shape (already public in the
    /// local-projection deployment), in exchange for triple counts
    /// proportional to the graph's wedge mass instead of `n³`.
    Sparse,
    /// The same triples as [`ScheduleKind::Sparse`] — same chunks, same
    /// shares, bit for bit — but streamed from the CSR adjacency (plus
    /// a 4-byte-per-edge index) instead of materialising every
    /// candidate pair and `k`-list up front: peak memory O(n + m +
    /// chunk) instead of O(#candidates), which is what makes
    /// million-node graphs fit. Evaluated by the hybrid
    /// dense-block tile kernel (see
    /// [`crate::count::DEFAULT_TILE_THRESHOLD`]).
    SparseStream,
}

impl std::str::FromStr for ScheduleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "dense" | "cube" => Ok(ScheduleKind::Dense),
            "sparse" => Ok(ScheduleKind::Sparse),
            "sparse-stream" | "stream" => Ok(ScheduleKind::SparseStream),
            other => Err(format!(
                "unknown schedule {other:?} (expected \"dense\", \"sparse\", or \"sparse-stream\")"
            )),
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScheduleKind::Dense => "dense",
            ScheduleKind::Sparse => "sparse",
            ScheduleKind::SparseStream => "sparse-stream",
        })
    }
}

/// Tunable parameters of the CARGO pipeline (defaults follow the
/// paper's experimental setting, Section V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CargoConfig {
    /// Total privacy budget `ε = ε₁ + ε₂`.
    pub epsilon: f64,
    /// Fraction of ε spent on the `Max` round (`ε₁ = fraction · ε`);
    /// the paper uses 0.1.
    pub split_fraction: f64,
    /// Fixed-point fractional bits for encoding noise in the ring.
    pub frac_bits: u32,
    /// Root seed for every random choice (dealer streams, user shares,
    /// noise) — fixed seed ⇒ bit-identical run.
    pub seed: u64,
    /// Worker threads for the `O(n³)` secure count (0 = all cores).
    /// Governs every Count executor: the fast kernel, the sharded
    /// message-passing runtime, and the sampled estimator.
    pub threads: usize,
    /// Triples per Count communication round
    /// (0 = [`crate::count_sched::DEFAULT_COUNT_BATCH`]). A round is
    /// filled across `k`-runs and pairs of a scheduler chunk — it is
    /// not capped by run length — so a chunk of `W` triples costs
    /// `⌈W/batch⌉` rounds; also the most one PRG block expands. Shares
    /// are identical for every batch size; only rounds and wall-clock
    /// change.
    pub batch: usize,
    /// Whether to run the similarity-based projection (disable only for
    /// ablation studies; without projection the sensitivity is `n`).
    pub projection: bool,
    /// How the Count phase's correlated randomness is precomputed:
    /// the seeded trusted dealer (default, zero offline cost) or the
    /// OT-extension offline phase (real preprocessing traffic,
    /// reported in [`cargo_mpc::NetStats::offline`]). Shares are
    /// bit-identical either way.
    pub offline: OfflineMode,
    /// Wire the Count openings travel over: in-process memory
    /// (default) or real loopback TCP sockets. Results are
    /// bit-identical either way; TCP additionally *measures* the byte
    /// ledger on a real wire.
    pub transport: TransportKind,
    /// Background offline triple-factory threads (OT mode only):
    /// `0` (the default) preprocesses inline on the query path; `>= 1`
    /// decouples generation onto a [`cargo_mpc::TriplePool`]. Shares
    /// are bit-identical at every setting.
    pub factory_threads: usize,
    /// Bounded triple-pool depth in chunks
    /// (0 = [`cargo_mpc::DEFAULT_POOL_DEPTH`]). Ignored when
    /// `factory_threads == 0`.
    pub pool_depth: usize,
    /// What a drained pool does to the query path: block until the
    /// chunk is ready (default) or fail fast with a loud error.
    pub pool_backpressure: Backpressure,
    /// Which triples the Count phase schedules: the fully-oblivious
    /// dense cube (default) or the candidate-driven sparse walk over
    /// the public support. Shares of surviving triples are
    /// bit-identical either way.
    pub schedule: ScheduleKind,
    /// Continuous-release horizon: how many delta epochs `--mode
    /// serve` budgets for. Ignored by the one-shot pipeline.
    pub horizon: u64,
    /// How per-epoch releases compose against ε in serve mode: an even
    /// fixed split or the binary-tree mechanism. Ignored by the
    /// one-shot pipeline.
    pub composition: Composition,
    /// How long a wire recv blocks on a silent peer before the epoch
    /// fails typed ([`cargo_mpc::RecvError::Timeout`]). Defaults to
    /// [`cargo_mpc::DEFAULT_RECV_TIMEOUT`]; threaded into every
    /// runtime recv path through [`cargo_mpc::Transport::recv_timeout`].
    pub recv_timeout: std::time::Duration,
}

impl CargoConfig {
    /// Creates a config with the paper's defaults and the given total ε.
    pub fn new(epsilon: f64) -> Self {
        CargoConfig {
            epsilon,
            split_fraction: 0.1,
            frac_bits: 16,
            seed: 0,
            threads: 0,
            batch: 0,
            projection: true,
            offline: OfflineMode::TrustedDealer,
            transport: TransportKind::Memory,
            factory_threads: 0,
            pool_depth: 0,
            pool_backpressure: Backpressure::Block,
            schedule: ScheduleKind::Dense,
            horizon: 16,
            composition: Composition::Fixed,
            recv_timeout: cargo_mpc::DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Sets the wire recv timeout (how long a party waits on a silent
    /// peer before failing the epoch typed).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// use std::time::Duration;
    /// let cfg = CargoConfig::new(2.0).with_recv_timeout(Duration::from_secs(5));
    /// assert_eq!(cfg.recv_timeout, Duration::from_secs(5));
    /// assert_eq!(CargoConfig::new(2.0).recv_timeout, cargo_mpc::DEFAULT_RECV_TIMEOUT);
    /// ```
    pub fn with_recv_timeout(mut self, recv_timeout: std::time::Duration) -> Self {
        self.recv_timeout = recv_timeout;
        self
    }

    /// Sets the continuous-release horizon (serve mode).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// assert_eq!(CargoConfig::new(2.0).with_horizon(8).horizon, 8);
    /// ```
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Selects the per-epoch composition scheme (serve mode).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// use cargo_dp::Composition;
    /// let cfg = CargoConfig::new(2.0).with_composition(Composition::BinaryTree);
    /// assert_eq!(cfg.composition, Composition::BinaryTree);
    /// ```
    pub fn with_composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the ε₁ fraction.
    pub fn with_split_fraction(mut self, fraction: f64) -> Self {
        self.split_fraction = fraction;
        self
    }

    /// Sets the secure-count worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the secure-count batch size (0 = default).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Disables projection (ablation).
    pub fn without_projection(mut self) -> Self {
        self.projection = false;
        self
    }

    /// Selects the offline-phase implementation.
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// use cargo_mpc::OfflineMode;
    /// let cfg = CargoConfig::new(2.0).with_offline(OfflineMode::OtExtension);
    /// assert_eq!(cfg.offline, OfflineMode::OtExtension);
    /// ```
    pub fn with_offline(mut self, offline: OfflineMode) -> Self {
        self.offline = offline;
        self
    }

    /// Selects the Count wire.
    ///
    /// ```
    /// use cargo_core::{CargoConfig, TransportKind};
    /// let cfg = CargoConfig::new(2.0).with_transport(TransportKind::Tcp);
    /// assert_eq!(cfg.transport, TransportKind::Tcp);
    /// ```
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the background triple-factory thread count (0 = inline
    /// preprocessing, the default).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// let cfg = CargoConfig::new(2.0).with_factory_threads(2);
    /// assert_eq!(cfg.factory_threads, 2);
    /// assert!(cfg.pool_policy().enabled());
    /// ```
    pub fn with_factory_threads(mut self, factory_threads: usize) -> Self {
        self.factory_threads = factory_threads;
        self
    }

    /// Sets the bounded triple-pool depth (0 = default).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// let cfg = CargoConfig::new(2.0).with_factory_threads(1).with_pool_depth(8);
    /// assert_eq!(cfg.pool_policy().depth, 8);
    /// ```
    pub fn with_pool_depth(mut self, pool_depth: usize) -> Self {
        self.pool_depth = pool_depth;
        self
    }

    /// Selects the drained-pool backpressure discipline.
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// use cargo_mpc::Backpressure;
    /// let cfg = CargoConfig::new(2.0).with_pool_backpressure(Backpressure::FailFast);
    /// assert_eq!(cfg.pool_backpressure, Backpressure::FailFast);
    /// ```
    pub fn with_pool_backpressure(mut self, backpressure: Backpressure) -> Self {
        self.pool_backpressure = backpressure;
        self
    }

    /// Selects the Count schedule.
    ///
    /// ```
    /// use cargo_core::{CargoConfig, ScheduleKind};
    /// let cfg = CargoConfig::new(2.0).with_schedule(ScheduleKind::Sparse);
    /// assert_eq!(cfg.schedule, ScheduleKind::Sparse);
    /// ```
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// The resolved [`PoolPolicy`] of this config: disabled (inline)
    /// when `factory_threads == 0`, otherwise the configured factory
    /// width, depth (0 ⇒ [`cargo_mpc::DEFAULT_POOL_DEPTH`]) and
    /// backpressure.
    pub fn pool_policy(&self) -> PoolPolicy {
        PoolPolicy {
            factory_threads: self.factory_threads,
            depth: if self.pool_depth == 0 {
                cargo_mpc::DEFAULT_POOL_DEPTH
            } else {
                self.pool_depth
            },
            backpressure: self.pool_backpressure,
        }
    }

    /// The validated budget split `(ε₁, ε₂)`.
    pub fn epsilon_split(&self) -> EpsilonSplit {
        PrivacyBudget::new(self.epsilon).split(self.split_fraction)
    }

    /// Effective thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Effective Count batch size.
    pub fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            crate::count_sched::DEFAULT_COUNT_BATCH
        } else {
            self.batch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CargoConfig::new(2.0);
        let s = c.epsilon_split();
        assert!((s.epsilon1 - 0.2).abs() < 1e-12);
        assert!((s.epsilon2 - 1.8).abs() < 1e-12);
        assert!(c.projection);
        assert_eq!(c.frac_bits, 16);
    }

    #[test]
    fn builder_methods_compose() {
        let c = CargoConfig::new(1.0)
            .with_seed(9)
            .with_split_fraction(0.5)
            .with_threads(2)
            .with_batch(16)
            .with_offline(OfflineMode::OtExtension)
            .without_projection();
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 2);
        assert_eq!(c.batch, 16);
        assert_eq!(c.offline, OfflineMode::OtExtension);
        assert!(!c.projection);
        assert!((c.epsilon_split().epsilon1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn offline_defaults_to_the_trusted_dealer() {
        assert_eq!(CargoConfig::new(1.0).offline, OfflineMode::TrustedDealer);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(CargoConfig::new(1.0).effective_threads() >= 1);
        assert_eq!(CargoConfig::new(1.0).with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn effective_batch_resolves_default() {
        assert_eq!(
            CargoConfig::new(1.0).effective_batch(),
            crate::count_sched::DEFAULT_COUNT_BATCH
        );
        assert_eq!(CargoConfig::new(1.0).with_batch(7).effective_batch(), 7);
    }

    #[test]
    fn schedule_defaults_to_dense_and_parses() {
        assert_eq!(CargoConfig::new(1.0).schedule, ScheduleKind::Dense);
        assert_eq!(
            CargoConfig::new(1.0)
                .with_schedule(ScheduleKind::Sparse)
                .schedule,
            ScheduleKind::Sparse
        );
        assert_eq!("cube".parse::<ScheduleKind>(), Ok(ScheduleKind::Dense));
        assert_eq!(
            "stream".parse::<ScheduleKind>(),
            Ok(ScheduleKind::SparseStream)
        );
        assert!("hexagonal".parse::<ScheduleKind>().is_err());
        assert_eq!(ScheduleKind::Dense.to_string(), "dense");
    }

    #[test]
    fn transport_defaults_to_memory_and_parses() {
        assert_eq!(CargoConfig::new(1.0).transport, TransportKind::Memory);
        assert_eq!(
            CargoConfig::new(1.0)
                .with_transport(TransportKind::Tcp)
                .transport,
            TransportKind::Tcp
        );
        assert_eq!("mem".parse::<TransportKind>(), Ok(TransportKind::Memory));
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Memory.to_string(), "memory");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_epsilon_rejected_at_split() {
        CargoConfig::new(-1.0).epsilon_split();
    }
}
