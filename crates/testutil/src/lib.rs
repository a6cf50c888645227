//! # cargo-testutil — shared fixtures for the CARGO test suites
//!
//! Everything the integration suites (and future PRs) need to write
//! deterministic, statistically sound tests without re-rolling their
//! own scaffolding:
//!
//! * [`graphs`] — seeded fixture graphs with **golden triangle
//!   counts**: hand-countable micro graphs plus generator-backed
//!   fixtures whose counts are locked in as regression values.
//! * [`stats`] — statistical assertion helpers for DP noise:
//!   mean/variance tolerance checks sized by the CLT, and a sign test
//!   for unbiasedness.
//! * [`sharing`] — secret-sharing round-trip helpers: share/reconstruct
//!   identity over adversarially chosen and random ring values.
//! * [`cli`] — the `--help` contract all four binaries hold, checked
//!   on the built executables.
//! * [`text`] — hostile operator text for the never-panic properties of
//!   every parser of outside input.
//!
//! Everything here is deterministic: fixtures take explicit seeds and
//! all helpers are pure functions of their inputs.

pub mod cli;
pub mod graphs;
pub mod sharing;
pub mod stats;
pub mod text;

pub use graphs::{
    golden_fixtures, k4, path4, triangle, two_triangles_sharing_an_edge, GraphFixture,
};
pub use sharing::{assert_share_roundtrip, assert_share_vec_roundtrip, ring_test_values};
pub use stats::{
    assert_mean_close, assert_sign_balanced, assert_variance_close, mean, sample_stats, variance,
};
