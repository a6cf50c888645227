//! # cargo-core — the CARGO protocol
//!
//! Implementation of **"CARGO: Crypto-Assisted Differentially Private
//! Triangle Counting without Trusted Servers"** (ICDE 2024). CARGO
//! computes a noisy triangle count `T'` of a distributed graph under
//! `(ε₁ + ε₂)`-Edge Distributed DP using two semi-honest non-colluding
//! servers — central-model utility without a trusted server.
//!
//! The public API mirrors Algorithm 1:
//!
//! | Paper | Module | What it does |
//! |---|---|---|
//! | Algorithm 1 | [`protocol`] | End-to-end orchestration ([`CargoSystem`]) |
//! | Algorithm 2 `Max` | [`max_degree`] | ε₁-Edge-LDP estimate of `d_max` |
//! | Algorithm 3 `Project` | [`projection`] | Similarity-based local projection |
//! | Algorithm 4 `Count` | [`count`] | ASS-based secure exact count: one [`CountJob`], run by [`count_local`] (in-process), [`count_party`] (one server over a link), [`count_two_party`] (two of those over a link pair) or [`count_sampled()`] |
//! | Algorithm 5 `Perturb` | [`mod@perturb`] | Distributed Laplace perturbation |
//! | Offline phase \[42, 43\] | [`cargo_mpc::offline`] via [`OfflineMode`] | Dealer or OT-extension MG precomputation |
//! | Deployment shape | [`party`] + [`count_runtime`] | The wire executors: one server per process over a real [`cargo_mpc::transport::Transport`] |
//! | Continuous release | [`delta`] + [`session`] | Edge-delta epochs, incremental Count, per-epoch DP budgeting |
//! | Crash recovery | [`recovery`] | Committed-epoch journal, deterministic replay, resumable serve |
//! | Section III-B ext. | [`node_dp`] | Node-DP variant (sensitivity updates) |
//! | Table II | [`theory`] | Closed-form utility/cost bounds |
//! | Section II-A3 | [`metrics`] | l2 loss and relative error |
//!
//! ## Quick start
//!
//! ```
//! use cargo_core::{CargoConfig, CargoSystem};
//! use cargo_graph::generators::barabasi_albert;
//!
//! // 200 users who each hold one row of the adjacency matrix.
//! let graph = barabasi_albert(200, 4, 7);
//! let config = CargoConfig::new(2.0).with_seed(42);
//! let output = CargoSystem::new(config).run(&graph);
//!
//! // The protocol's differentially private estimate:
//! let t_noisy = output.noisy_count;
//! // Ground truth (available here because this is a simulation):
//! let t_true = output.true_count as f64;
//! assert!((t_noisy - t_true).abs() / t_true < 0.5);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod count;
pub mod count_runtime;
pub mod count_sampled;
pub mod count_sched;
pub mod delta;
pub mod max_degree;
pub mod metrics;
pub mod node_dp;
pub mod party;
pub mod perturb;
pub mod projection;
pub mod recovery;
pub mod sensitivity;
pub mod session;
pub mod protocol;
pub mod theory;

pub use cargo_mpc::{Backpressure, OfflineMode, PoolPolicy, PoolStats};
pub use config::{CargoConfig, CountKernel, ScheduleKind, TransportKind};
pub use count::{
    count_local, secure_count_reference, secure_triangle_count_streamed, CountInput, CountJob,
    SecureCountResult, DEFAULT_TILE_THRESHOLD,
};
pub use count_runtime::{count_party, count_two_party, party_input_shares, run_party_count_planned};
pub use delta::{inline_evaluator, DeltaPlan, EdgeDelta, EpochCount, IncrementalCounter};
pub use party::{run_party, run_party_local, PartyReport};
pub use session::{
    classify_delta_line, parse_delta_script, DeltaLine, EpochOutcome, PartySession, Session,
    SessionError,
};
pub use count_sampled::{count_sampled, SampledCountResult};
pub use count_sched::{
    CandidateSet, CountScheduler, PairChunk, SchedulePlan, DEFAULT_COUNT_BATCH,
};
pub use max_degree::{estimate_max_degree, MaxDegreeEstimate};
pub use metrics::{l2_loss, peak_rss_bytes, relative_error};
pub use perturb::{aggregate_noise_shares, perturb, PerturbResult};
pub use projection::{project_matrix, project_user_row, ProjectionResult};
pub use recovery::{
    replay_committed, replay_committed_on, state_digest, EpochJournal, EpochRecord, RecoveryError,
};
pub use sensitivity::{local_sensitivity, smooth_sensitivity, smooth_sensitivity_mechanism};
pub use protocol::{CargoOutput, CargoSystem, StepTimings};
