//! # cargo-dp — differential privacy substrate
//!
//! Every noise source and accounting rule used by the CARGO
//! reproduction:
//!
//! * [`laplace`] — the Laplace mechanism (used by `Max`, `CentralLap△`,
//!   `Local2Rounds△`).
//! * [`gamma`] — a from-scratch Gamma(shape, scale) sampler
//!   (Marsaglia–Tsang, with the `G(α) = G(α+1)·U^{1/α}` boost for the
//!   `α = 1/n < 1` regime the distributed noise lives in). Implemented
//!   here because `rand_distr` is not in the approved offline
//!   dependency set (DESIGN.md §4).
//! * [`distributed`] — Lemma 1 (infinite divisibility): each user draws
//!   `γᵢ = Gam₁(1/n, λ) − Gam₂(1/n, λ)`; the sum of all `n` partial
//!   noises is exactly `Lap(λ)`. This is the noise of Algorithm 5.
//! * [`fixed_point`] — encodes real-valued noise into `Z_{2^64}` with a
//!   configurable binary scale so it can ride inside additive shares.
//! * [`budget`] — ε bookkeeping: the paper's `ε = ε₁ + ε₂` split
//!   (ε₁ = 0.1ε for `Max`, ε₂ = 0.9ε for `Perturb`) and sequential
//!   composition accounting.

pub mod budget;
pub mod cauchy;
pub mod distributed;
pub mod fixed_point;
pub mod gamma;
pub mod laplace;

pub use budget::{
    BudgetExceeded, Composition, EpsilonSplit, PrivacyAccountant, PrivacyBudget, ReleaseGrant,
    ReleaseRefused, ReleaseSchedule, TreeNode,
};
pub use cauchy::sample_std_cauchy;
pub use distributed::{partial_noise, DistributedLaplace};
pub use fixed_point::FixedPointCodec;
pub use gamma::sample_gamma;
pub use laplace::{laplace_variance, sample_laplace};
