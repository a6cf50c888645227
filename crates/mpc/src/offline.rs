//! The offline (preprocessing) phase: OT-extension generation of
//! Multiplication-Group material.
//!
//! The paper's protocol splits into an offline phase that precomputes
//! correlated randomness via oblivious transfer \[42, 43\] and an
//! online phase that consumes it. This module implements the offline
//! phase on top of [`crate::ot`] so a run can select either source
//! through [`OfflineMode`]:
//!
//! * **[`OfflineMode::TrustedDealer`]** — the seeded streaming dealer
//!   ([`crate::dealer`]): zero offline traffic, the modeling shortcut
//!   documented in DESIGN.md §4 item 6.
//! * **[`OfflineMode::OtExtension`]** — the two servers run IKNP
//!   correlated-OT extension and Gilboa share multiplication to build
//!   the same material, paying (and recording, via
//!   [`crate::OfflineLedger`]) the real offline bytes and rounds.
//!
//! ## Bit-identical material, honestly earned
//!
//! Both modes emit **bit-identical** shares, so every equivalence and
//! golden-fixture suite passes unchanged in either mode. The trick is
//! standard *derandomisation*: each server expands its own additive
//! mask shares `x_i, y_i, z_i` of each group — its shares of the masks
//! of the triple's three pairs, `λ_ij, λ_ik, λ_jk` ([`crate::mask_prf`],
//! the same masks the dealer mode and the online pair openings use) —
//! the product shares `o = xy, p = xz, q = yz, w = oz` are computed with
//! Gilboa multiplication over correlated OTs, and S₁ then shifts each
//! raw product share pair onto its canonical [`PairDealer`] stream word
//! by sending the public offset `c = raw₁ − canonical₁` (S₂ adds `c` to
//! its raw share). The offset is one-time-padded by the COT's fresh
//! randomness, so it leaks nothing — and S₂'s resulting share equals
//! the dealer's **only if** every OT multiplication was correct, which
//! is exactly what the cross-mode equivalence suites verify.
//!
//! ## Chunk-amortised sessions
//!
//! Extension is amortised across the Count scheduler's pair-space
//! **chunks**, not per pair: one OT session (seeded from the global
//! base-OT setup, keyed by the chunk id) preprocesses every
//! Multiplication Group of every pair in the chunk. A chunk's plan —
//! one [`MgDraw`] per pair, stating how many groups that pair's
//! canonical stream contributes — is split by [`plan_flights`] into
//! *flights* of at most [`MAX_FLIGHT_GROUPS`] groups (a message-size /
//! memory cap, split only at pair boundaries), and each flight is one
//! five-message dialogue. Since the scheduler cuts chunks by `n`
//! alone (never by worker count), the offline ledger stays invariant
//! across `threads × batch` like everything else. Each chunk's session
//! runs inline, on the Count worker that owns the chunk, just before
//! the chunk is combined: [`OtMgEngine`] drives both machines in one
//! process, [`mg_offline_over_wire`] one machine per party over the
//! link.
//!
//! Before this amortisation the engine ran one session per pair and
//! one five-round dialogue per online `k`-block — `5·Σ⌈len/b⌉` rounds
//! and a digest pair per block. Now a whole chunk costs
//! `5·⌈G/512⌉`-ish rounds, the per-pair base-OT re-derivation is
//! gone, and only the per-group payload bytes remain linear.
//!
//! ## Message flow per flight
//!
//! Four Gilboa multiplications per direction per MG (cross terms of
//! `o, p, q, w`; `w`'s second cross term needs S₂'s derandomised `o₂`,
//! which forces the two-step tail):
//!
//! ```text
//!   S₁                                           S₂
//!   ── u-columns (dir B: choice bits y₁,z₁) ──▶
//!   ◀── u-columns (dir A: choice bits y₂,z₂) ──     round 1
//!   ── corrections A₁..A₄ (+digest) ──────────▶
//!   ◀── corrections B₁..B₃ (+digest) ──────────     round 2
//!   ── derandomise c_o, c_p, c_q ─────────────▶     round 3
//!   ◀── corrections B₄ (a = o₂) ───────────────     round 4
//!   ── derandomise c_w ───────────────────────▶     round 5
//! ```
//!
//! ## What a machine keeps between steps
//!
//! Every Gilboa multiplication is one *unit* of 64 correlated OTs (one
//! choice word), and the one-pass extension ([`crate::ot`]) reduces
//! each unit to sums as it goes, so no per-OT hash, row or pad
//! outlives the step that computed it. Per flight of `g` groups a
//! machine keeps, besides its `3g` mask shares (S₁ also its `4g`
//! canonical stream words) and the messages it builds (in
//! [`WordBuffers`]):
//!
//! * its receiver direction's `4g` choice words and one
//!   `Σ_j H(j, t_j)` per choice word (from `ucols` until the
//!   corrections are finished);
//! * its sender direction's `4g` correlations and one `Σ m⁰` per unit
//!   (from `corrections` to the derandomisation);
//! * S₂ only: B₄'s `64g` words `m⁰_j − H(j, q_j ⊕ s)`, a quarter of a
//!   direction, held from `corrections` until `o₂` is known in
//!   `corrections_w`; then its finished direction-A sums and
//!   `o₂, p₂, q₂, w` raw shares (`4g` + `3g` + `g` words) until `groups`.
//!
//! These vectors live in the machine and are resized, not reallocated,
//! from flight to flight.
//!
//! Cost per MG (formula pinned by `ledger` tests and the golden fixture
//! of `crates/core/tests/offline_equivalence.rs`): 512 extended OTs,
//! [`MG_OFFLINE_BYTES_PER_GROUP`] bytes; per flight,
//! [`MG_FLIGHT_DIGEST_BYTES`] digest bytes and five rounds; plus one
//! global base-OT setup ([`ot_setup_ledger`]).

use crate::channel::OfflineLedger;
use crate::dealer::{PairDealer, GROUP_WORDS};
use crate::ot::{
    cot_correct_held, cot_finish, simulated_base_ots, transcript_digest, CotReceiver, CotSender,
    UnitSplit, BASE_OT_BYTES, BASE_OT_ROUNDS, OT_KAPPA,
};
use crate::prg::SplitMix64;
use crate::share::mask_prf;
use crate::simd::SimdTier;
use crate::transport::{recv_msg, send_msg, Transport};
use crate::triple_mul::MulGroupShare;
use crate::wire::OfflineMsg;
use crate::ServerId;

/// Selects how the offline phase produces correlated randomness.
///
/// ```
/// use cargo_mpc::OfflineMode;
/// // CLI spelling round-trips:
/// assert_eq!("ot".parse::<OfflineMode>(), Ok(OfflineMode::OtExtension));
/// assert_eq!("dealer".parse::<OfflineMode>(), Ok(OfflineMode::TrustedDealer));
/// assert_eq!(OfflineMode::default(), OfflineMode::TrustedDealer);
/// // Both modes produce bit-identical shares; only the offline cost
/// // ledger differs (zero for the dealer).
/// assert_eq!(OfflineMode::OtExtension.to_string(), "ot");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OfflineMode {
    /// Seeded streaming dealer (DESIGN.md §4 item 6): no offline cost is
    /// modelled. The default, and the fastest way to run experiments
    /// that only study the online phase.
    #[default]
    TrustedDealer,
    /// IKNP correlated-OT extension + Gilboa multiplication between
    /// the two servers: real offline traffic, tallied in
    /// [`crate::OfflineLedger`].
    OtExtension,
}

impl std::str::FromStr for OfflineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "dealer" | "trusted-dealer" => Ok(OfflineMode::TrustedDealer),
            "ot" | "ot-extension" => Ok(OfflineMode::OtExtension),
            other => Err(format!(
                "unknown offline mode {other:?} (expected \"dealer\" or \"ot\")"
            )),
        }
    }
}

impl std::fmt::Display for OfflineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OfflineMode::TrustedDealer => "dealer",
            OfflineMode::OtExtension => "ot",
        })
    }
}

/// Gilboa multiplications per Multiplication Group per direction
/// (cross terms of `o, p, q, w`).
pub const MG_MULTS_PER_DIR: usize = 4;

/// Extended correlated OTs per Multiplication Group
/// (2 directions × 4 multiplications × 64 bits).
pub const MG_EXT_OTS_PER_GROUP: u64 = 2 * (MG_MULTS_PER_DIR as u64) * 64;

/// Offline wire bytes per Multiplication Group: 512 OTs × (16 B of
/// extension columns + 8 B of correction) + 4 derandomisation words.
pub const MG_OFFLINE_BYTES_PER_GROUP: u64 = MG_EXT_OTS_PER_GROUP * (16 + 8) + 4 * 8;

/// Fixed per-flight overhead: the two transcript digests riding on the
/// correction messages.
pub const MG_FLIGHT_DIGEST_BYTES: u64 = 16;

/// Offline rounds per flight (see the module-level message flow).
const MG_FLIGHT_ROUNDS: u64 = 5;

/// Groups-per-flight cap of the chunk-amortised session: bounds the
/// per-message buffers (a flight of `g` groups carries `4g` 64-bit
/// choice words → `512·g` extension-column words per direction, ~2 MB
/// at the cap); the extension passes themselves work eight choice
/// words at a time whatever the flight size. Flights split only at
/// pair boundaries; a single pair larger than the cap gets one
/// oversized flight of its own.
pub const MAX_FLIGHT_GROUPS: u64 = 512;

/// The one-time setup cost of OT-extension mode: κ base OTs per
/// extension direction, paid once per protocol execution (per-chunk
/// session keys are then derived locally, as real deployments derive
/// sub-sessions from one extension setup).
pub fn ot_setup_ledger() -> OfflineLedger {
    OfflineLedger {
        base_ots: 2 * OT_KAPPA as u64,
        extended_ots: 0,
        bytes: 2 * OT_KAPPA as u64 * BASE_OT_BYTES,
        rounds: BASE_OT_ROUNDS,
    }
}

/// The offline cost of one flight of `groups` Multiplication Groups —
/// the formula every OT-mode Count path tallies per flight, pinned by
/// the byte-count fixtures.
pub fn mg_flight_ledger(groups: u64) -> OfflineLedger {
    OfflineLedger {
        base_ots: 0,
        extended_ots: MG_EXT_OTS_PER_GROUP * groups,
        bytes: MG_OFFLINE_BYTES_PER_GROUP * groups + MG_FLIGHT_DIGEST_BYTES,
        rounds: MG_FLIGHT_ROUNDS,
    }
}

/// One pair's contribution to a chunk's preprocessing plan: draw
/// `groups` Multiplication Groups from pair `(i, j)`'s canonical
/// [`PairDealer`] stream, starting `start` groups into it.
///
/// The dense cube and the full `k`-range of the exact count use
/// `start = 0`; a sparse or sampled schedule emits one draw per
/// *contiguous run* of surviving `k`s, with `start = k₀ − j − 1` —
/// the canonical position the dense cube would have used — so the
/// material of a surviving triple is bit-identical under every
/// schedule (the stream seek is O(1), see
/// [`PairDealer::skip_groups`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgDraw {
    /// Outer pair index `i`.
    pub i: u32,
    /// Outer pair index `j`.
    pub j: u32,
    /// Canonical group offset into the pair's stream at which this
    /// draw begins (`0` for the dense cube).
    pub start: u32,
    /// Multiplication Groups to draw from this pair's stream.
    pub groups: u32,
}

impl MgDraw {
    /// A draw of a pair's first `groups` canonical groups — the dense
    /// full-`k`-range shape.
    pub fn dense(i: u32, j: u32, groups: u32) -> Self {
        MgDraw {
            i,
            j,
            start: 0,
            groups,
        }
    }

    /// The `k` of the draw's group number `offset`: canonical stream
    /// position `start + offset` of pair `(i, j)` is triple
    /// `(i, j, j + 1 + start + offset)`.
    pub fn k_at(&self, offset: usize) -> usize {
        self.j as usize + 1 + self.start as usize + offset
    }
}

/// Splits a chunk plan into flights of at most [`MAX_FLIGHT_GROUPS`]
/// groups, cutting only at pair boundaries (an oversized single draw
/// becomes its own flight). Deterministic in the plan alone, so every
/// Count path — and the ledger fixtures — derive the same flight
/// structure.
///
/// # Panics
/// Panics if any draw contributes zero groups (callers filter those).
pub fn plan_flights(plan: &[MgDraw]) -> Vec<std::ops::Range<usize>> {
    let mut flights = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (idx, d) in plan.iter().enumerate() {
        assert!(d.groups > 0, "empty draw in offline plan");
        if acc > 0 && acc + d.groups as u64 > MAX_FLIGHT_GROUPS {
            flights.push(start..idx);
            start = idx;
            acc = 0;
        }
        acc += d.groups as u64;
    }
    if acc > 0 {
        flights.push(start..plan.len());
    }
    flights
}

/// The closed-form offline cost of preprocessing one chunk plan:
/// [`mg_flight_ledger`] summed over [`plan_flights`]. What
/// [`OtMgEngine::preprocess`] (and the sharded runtime's offline
/// dialogue) actually tallies; exported so the equivalence suites can
/// pin the ledger without re-running the OTs.
pub fn chunk_offline_ledger(plan: &[MgDraw]) -> OfflineLedger {
    let mut ledger = OfflineLedger::new();
    for flight in plan_flights(plan) {
        let groups: u64 = plan[flight].iter().map(|d| d.groups as u64).sum();
        ledger.merge(&mg_flight_ledger(groups));
    }
    ledger
}

/// Derives the two per-chunk extension session seeds (direction A:
/// S₁ sends, S₂ receives; direction B: the reverse) from the global
/// base-OT setup. Both servers derive the same seeds, domain-separated
/// from every pair stream.
fn chunk_ot_seeds(root: u64, session: u64) -> (u64, u64) {
    let mut mixer =
        SplitMix64::new(root ^ session.wrapping_mul(0x9FB21C651E98DF25) ^ 0x165667B19E3779F9);
    (mixer.next_u64(), mixer.next_u64())
}

/// Per-MG offsets of a machine's mask shares `x, y, z` (its shares of
/// `λ_ij, λ_ik, λ_jk`) …
const X: usize = 0;
const Y: usize = 1;
const Z: usize = 2;
/// … and of S₁'s canonical stream words (see [`GROUP_WORDS`]).
const O1: usize = 0;
const P1: usize = 1;
const Q1: usize = 2;
const W1: usize = 3;

/// Protocol-stage guard shared by both party machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Idle,
    SentColumns,
    SentCorrections,
    SentDerandOpq,
    Finishing,
}

fn advance(stage: &mut Stage, want: Stage, next: Stage) {
    assert_eq!(*stage, want, "offline protocol out of lockstep");
    *stage = next;
}

/// Draws `server`'s mask shares `x, y, z` of every group of one flight
/// into `masks`, three words per group in plan order: group `g` of
/// draw `(i, j)` is triple `(i, j, k)` with `k = draw.k_at(g)`, its
/// masks those of pairs `(i, j)`, `(i, k)` and `(j, k)`. Returns the
/// flight's groups.
fn draw_flight_masks(
    root: u64,
    server: ServerId,
    flight: &[MgDraw],
    masks: &mut Vec<u64>,
) -> usize {
    let total: usize = flight.iter().map(|d| d.groups as usize).sum();
    assert!(total > 0, "empty offline flight");
    masks.clear();
    for d in flight {
        let x = mask_prf(root, server, d.i, d.j);
        for g in 0..d.groups as usize {
            let k = d.k_at(g) as u32;
            masks.extend([x, mask_prf(root, server, d.i, k), mask_prf(root, server, d.j, k)]);
        }
    }
    total
}

/// Draws S₁'s canonical stream words `o₁ p₁ q₁ w₁` for one flight into
/// `words`: each [`MgDraw`]'s groups from its own pair stream — seeked
/// to the draw's canonical `start` offset — concatenated in plan order.
fn draw_flight_words(root: u64, flight: &[MgDraw], words: &mut Vec<u64>) {
    let total: usize = flight.iter().map(|d| d.groups as usize).sum();
    words.resize(GROUP_WORDS * total, 0);
    let mut off = 0usize;
    for d in flight {
        let span = GROUP_WORDS * d.groups as usize;
        PairDealer::for_draw(root, d).fill_words(&mut words[off..off + span]);
        off += span;
    }
}

/// Server S₁'s half of the chunk-amortised MG offline session.
///
/// S₁ is the *canonical* side: its product shares are its
/// [`PairDealer`] stream words, and it derandomises every product onto
/// them; its mask shares are its shares of the triples' pair masks.
/// One machine serves a whole scheduler chunk; drive the methods
/// strictly in the order [`ucols`](Self::ucols) →
/// [`corrections`](Self::corrections) →
/// [`derand_opq`](Self::derand_opq) → [`derand_w`](Self::derand_w) →
/// [`groups`](Self::groups) per flight; any other order panics.
#[derive(Debug, Clone)]
pub struct MgOfflineS1 {
    root: u64,
    sender: CotSender,
    receiver: CotReceiver,
    stage: Stage,
    block: usize,
    /// The flight's mask shares `x₁ y₁ z₁`, three per MG.
    masks: Vec<u64>,
    /// The flight's canonical stream words `o₁ p₁ q₁ w₁`, four per MG.
    words: Vec<u64>,
    /// Direction B's choice words, `y₁, z₁, z₁, z₁` per MG (one unit
    /// of 64 OTs each).
    choice: Vec<u64>,
    /// Direction B's receiver sums `Σ_j H(j, t_j)`, one per choice word.
    recv_sums: Vec<u64>,
    sent_ucols_digest: u64,
    /// Direction A's correlations, `x₁, x₁, y₁, o₁` per MG.
    a: Vec<u64>,
    /// Direction A's sender sums `Σ m⁰`, one per unit.
    m0_sums: Vec<u64>,
    /// Buffers for the messages this machine builds.
    spare: WordBuffers,
}

impl MgOfflineS1 {
    /// Creates S₁'s endpoint for the chunk session `session` under
    /// `root` (the Count seed). The session seeds stand in for the
    /// sub-keys a deployment would derive from the one global base-OT
    /// setup ([`ot_setup_ledger`]).
    pub fn for_chunk(root: u64, session: u64) -> Self {
        let (seed_a, seed_b) = chunk_ot_seeds(root, session);
        let (sender, _) = simulated_base_ots(seed_a);
        let (_, receiver) = simulated_base_ots(seed_b);
        MgOfflineS1 {
            root,
            sender,
            receiver,
            stage: Stage::Idle,
            block: 0,
            masks: Vec::new(),
            words: Vec::new(),
            choice: Vec::new(),
            recv_sums: Vec::new(),
            sent_ucols_digest: 0,
            a: Vec::new(),
            m0_sums: Vec::new(),
            spare: WordBuffers::default(),
        }
    }

    /// Step 1: draws the flight's mask shares and canonical words
    /// (every draw's groups from its pair stream) and returns S₁'s
    /// extension columns for its receiver role (direction B, choice
    /// bits `y₁, z₁, z₁, z₁` per MG).
    pub fn ucols(&mut self, flight: &[MgDraw]) -> Vec<u64> {
        advance(&mut self.stage, Stage::Idle, Stage::SentColumns);
        self.block = draw_flight_masks(self.root, ServerId::S1, flight, &mut self.masks);
        draw_flight_words(self.root, flight, &mut self.words);
        self.choice.clear();
        for m in self.masks.chunks_exact(3) {
            self.choice.extend_from_slice(&[m[Y], m[Z], m[Z], m[Z]]);
        }
        let mut u = self.spare.take_len(1, OT_KAPPA * self.choice.len());
        resize(&mut self.recv_sums, self.choice.len());
        self.receiver.extend(SimdTier::detect(), &self.choice, &mut u, &mut self.recv_sums);
        self.sent_ucols_digest = transcript_digest(&u);
        u
    }

    /// Step 2: absorbs S₂'s columns and returns the corrections for
    /// all four direction-A multiplications (`a = x₁, x₁, y₁, o₁`),
    /// with a transcript digest of the absorbed columns appended.
    pub fn corrections(&mut self, u_from_s2: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentColumns, Stage::SentCorrections);
        let units = MG_MULTS_PER_DIR * self.block;
        self.a.clear();
        for (m, w) in self.masks.chunks_exact(3).zip(self.words.chunks_exact(GROUP_WORDS)) {
            self.a.extend_from_slice(&[m[X], m[X], m[Y], w[O1]]);
        }
        let mut msg = self.spare.take_len(2, 64 * units + 1);
        resize(&mut self.m0_sums, units);
        let (d, digest) = msg.split_at_mut(64 * units);
        let (tier, split) = (SimdTier::detect(), UnitSplit::ALL_SENT);
        self.sender.absorb(tier, u_from_s2, &self.a, split, d, &mut [], &mut self.m0_sums);
        digest[0] = transcript_digest(u_from_s2);
        msg
    }

    /// Step 3: absorbs S₂'s corrections for B₁..B₃ (digest last) and
    /// returns the derandomisation offsets `c_o, c_p, c_q` per MG.
    pub fn derand_opq(&mut self, d_from_s2: &[u64]) -> Vec<u64> {
        advance(
            &mut self.stage,
            Stage::SentCorrections,
            Stage::SentDerandOpq,
        );
        let block = self.block;
        assert_eq!(d_from_s2.len(), 3 * 64 * block + 1, "B₁..B₃ corrections");
        let (digest, d) = d_from_s2.split_last().expect("non-empty");
        assert_eq!(
            *digest, self.sent_ucols_digest,
            "offline transcript diverged (consistency hash mismatch)"
        );
        let mut msg = self.spare.take(3, 3 * block);
        let groups = self.masks.chunks_exact(3).zip(self.words.chunks_exact(GROUP_WORDS));
        for (g, (m, w)) in groups.enumerate() {
            let local = [
                m[X].wrapping_mul(m[Y]),
                m[X].wrapping_mul(m[Z]),
                m[Y].wrapping_mul(m[Z]),
            ];
            let canonical = [w[O1], w[P1], w[Q1]];
            for (mult, (local, canonical)) in local.into_iter().zip(canonical).enumerate() {
                let unit = g * MG_MULTS_PER_DIR + mult;
                let d = &d[64 * (g * 3 + mult)..][..64];
                let raw = local
                    .wrapping_add(cot_finish(self.recv_sums[unit], self.choice[unit], d))
                    .wrapping_sub(self.m0_sums[unit]);
                msg.push(raw.wrapping_sub(canonical));
            }
        }
        msg
    }

    /// Step 4: absorbs S₂'s B₄ corrections (`a = o₂`) and returns the
    /// final derandomisation offset `c_w` per MG.
    pub fn derand_w(&mut self, d_b4: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentDerandOpq, Stage::Finishing);
        let block = self.block;
        assert_eq!(d_b4.len(), 64 * block, "B₄ corrections");
        let mut msg = self.spare.take(4, block);
        let groups = self.masks.chunks_exact(3).zip(self.words.chunks_exact(GROUP_WORDS));
        for (g, (m, w)) in groups.enumerate() {
            let unit = g * MG_MULTS_PER_DIR + 3;
            let d = &d_b4[64 * g..][..64];
            let w_raw1 = w[O1]
                .wrapping_mul(m[Z])
                .wrapping_add(cot_finish(self.recv_sums[unit], self.choice[unit], d))
                .wrapping_sub(self.m0_sums[unit]);
            msg.push(w_raw1.wrapping_sub(w[W1]));
        }
        msg
    }

    /// Step 5: S₁'s Multiplication-Group shares for the flight — by
    /// construction its mask shares and the canonical stream words, in
    /// plan order.
    pub fn groups(&mut self) -> Vec<MulGroupShare> {
        advance(&mut self.stage, Stage::Finishing, Stage::Idle);
        let groups = self.masks.chunks_exact(3).zip(self.words.chunks_exact(GROUP_WORDS));
        groups.map(|(m, w)| group_share(m, [w[W1], w[O1], w[P1], w[Q1]])).collect()
    }
}

/// Server S₂'s half of the chunk-amortised MG offline session.
///
/// Drive strictly [`ucols`](Self::ucols) →
/// [`corrections`](Self::corrections) →
/// [`absorb_corrections`](Self::absorb_corrections) →
/// [`corrections_w`](Self::corrections_w) → [`groups`](Self::groups)
/// per flight.
#[derive(Debug, Clone)]
pub struct MgOfflineS2 {
    root: u64,
    sender: CotSender,
    receiver: CotReceiver,
    stage: Stage,
    block: usize,
    /// The flight's mask shares `x₂ y₂ z₂`, three per MG.
    masks: Vec<u64>,
    /// Direction A's choice words, `y₂, z₂, z₂, z₂` per MG.
    choice: Vec<u64>,
    /// Direction A's receiver sums `Σ_j H(j, t_j)`, one per choice word.
    recv_sums: Vec<u64>,
    sent_ucols_digest: u64,
    /// Direction B's correlations, `x₂, x₂, y₂` and a held `0` per MG.
    a: Vec<u64>,
    /// Direction B's sender sums `Σ m⁰`, one per unit.
    m0_sums: Vec<u64>,
    /// B₄'s `m⁰_j − H(j, q_j ⊕ s)` per OT, 64 per MG, until `o₂` is
    /// known.
    held: Vec<u64>,
    /// Direction A's finished receiver sums, one per unit.
    r_a: Vec<u64>,
    /// Derandomised `o₂, p₂, q₂` per MG.
    opq2: Vec<u64>,
    /// `w` raw share per MG (awaiting `c_w`).
    w_raw2: Vec<u64>,
    /// Buffers for the messages this machine builds.
    spare: WordBuffers,
}

impl MgOfflineS2 {
    /// Creates S₂'s endpoint for the chunk session `session` under
    /// `root`.
    pub fn for_chunk(root: u64, session: u64) -> Self {
        let (seed_a, seed_b) = chunk_ot_seeds(root, session);
        let (_, receiver) = simulated_base_ots(seed_a);
        let (sender, _) = simulated_base_ots(seed_b);
        MgOfflineS2 {
            root,
            sender,
            receiver,
            stage: Stage::Idle,
            block: 0,
            masks: Vec::new(),
            choice: Vec::new(),
            recv_sums: Vec::new(),
            sent_ucols_digest: 0,
            a: Vec::new(),
            m0_sums: Vec::new(),
            held: Vec::new(),
            r_a: Vec::new(),
            opq2: Vec::new(),
            w_raw2: Vec::new(),
            spare: WordBuffers::default(),
        }
    }

    /// Step 1: draws the flight's mask shares `x₂, y₂, z₂` (S₂ reads
    /// no stream word) and returns its extension columns for direction A
    /// (choice bits `y₂, z₂, z₂, z₂` per MG).
    pub fn ucols(&mut self, flight: &[MgDraw]) -> Vec<u64> {
        advance(&mut self.stage, Stage::Idle, Stage::SentColumns);
        self.block = draw_flight_masks(self.root, ServerId::S2, flight, &mut self.masks);
        self.choice.clear();
        for m in self.masks.chunks_exact(3) {
            self.choice.extend_from_slice(&[m[Y], m[Z], m[Z], m[Z]]);
        }
        let mut u = self.spare.take_len(1, OT_KAPPA * self.choice.len());
        resize(&mut self.recv_sums, self.choice.len());
        self.receiver.extend(SimdTier::detect(), &self.choice, &mut u, &mut self.recv_sums);
        self.sent_ucols_digest = transcript_digest(&u);
        u
    }

    /// Step 2: absorbs S₁'s columns and returns the corrections for
    /// B₁..B₃ (`a = x₂, x₂, y₂`), with a transcript digest of the
    /// absorbed columns appended. B₄'s correlation (`a = o₂`) is not
    /// known yet: its words are held for
    /// [`corrections_w`](Self::corrections_w).
    pub fn corrections(&mut self, u_from_s1: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentColumns, Stage::SentCorrections);
        let block = self.block;
        self.a.clear();
        for m in self.masks.chunks_exact(3) {
            self.a.extend_from_slice(&[m[X], m[X], m[Y], 0]);
        }
        let mut msg = self.spare.take_len(2, 3 * 64 * block + 1);
        resize(&mut self.m0_sums, MG_MULTS_PER_DIR * block);
        resize(&mut self.held, 64 * block);
        let (d, digest) = msg.split_at_mut(3 * 64 * block);
        let split = UnitSplit { period: MG_MULTS_PER_DIR, sent: 3 };
        let tier = SimdTier::detect();
        self.sender.absorb(tier, u_from_s1, &self.a, split, d, &mut self.held, &mut self.m0_sums);
        digest[0] = transcript_digest(u_from_s1);
        msg
    }

    /// Step 3: absorbs S₁'s direction-A corrections (digest last),
    /// computing S₂'s receiver shares of all four multiplications.
    pub fn absorb_corrections(&mut self, d_from_s1: &[u64]) {
        advance(
            &mut self.stage,
            Stage::SentCorrections,
            Stage::SentDerandOpq,
        );
        let block = self.block;
        assert_eq!(
            d_from_s1.len(),
            MG_MULTS_PER_DIR * 64 * block + 1,
            "A₁..A₄ corrections"
        );
        let (digest, d) = d_from_s1.split_last().expect("non-empty");
        assert_eq!(
            *digest, self.sent_ucols_digest,
            "offline transcript diverged (consistency hash mismatch)"
        );
        self.r_a.clear();
        let units = self.recv_sums.iter().zip(&self.choice).zip(d.chunks_exact(64));
        for ((&sum, &choice), d) in units {
            self.r_a.push(cot_finish(sum, choice, d));
        }
    }

    /// Step 4: absorbs S₁'s derandomisation offsets `c_o, c_p, c_q`,
    /// fixing `o₂, p₂, q₂`, and returns the B₄ corrections
    /// (`a = o₂`).
    pub fn corrections_w(&mut self, c_opq: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentDerandOpq, Stage::Finishing);
        let block = self.block;
        assert_eq!(c_opq.len(), 3 * block, "c_o, c_p, c_q per MG");
        self.opq2.clear();
        self.w_raw2.clear();
        let mut msg = self.spare.take(3, 64 * block);
        for (g, m) in self.masks.chunks_exact(3).enumerate() {
            let local = [
                m[X].wrapping_mul(m[Y]),
                m[X].wrapping_mul(m[Z]),
                m[Y].wrapping_mul(m[Z]),
            ];
            for (mult, local) in local.into_iter().enumerate() {
                let unit = g * MG_MULTS_PER_DIR + mult;
                let raw = local.wrapping_add(self.r_a[unit]).wrapping_sub(self.m0_sums[unit]);
                self.opq2.push(raw.wrapping_add(c_opq[g * 3 + mult]));
            }
            let o2 = self.opq2[g * 3];
            cot_correct_held(&self.held[64 * g..][..64], o2, &mut msg);
            let unit = g * MG_MULTS_PER_DIR + 3;
            self.w_raw2.push(
                o2.wrapping_mul(m[Z])
                    .wrapping_add(self.r_a[unit])
                    .wrapping_sub(self.m0_sums[unit]),
            );
        }
        msg
    }

    /// Step 5: absorbs S₁'s final offset `c_w` and returns S₂'s
    /// Multiplication-Group shares for the flight, in plan order.
    pub fn groups(&mut self, c_w: &[u64]) -> Vec<MulGroupShare> {
        advance(&mut self.stage, Stage::Finishing, Stage::Idle);
        let block = self.block;
        assert_eq!(c_w.len(), block, "c_w per MG");
        (0..block)
            .map(|g| {
                let w = self.w_raw2[g].wrapping_add(c_w[g]);
                let [o, p, q] = [0, 1, 2].map(|f| self.opq2[g * 3 + f]);
                group_share(&self.masks[3 * g..3 * g + 3], [w, o, p, q])
            })
            .collect()
    }
}

/// One server's Multiplication-Group share from its mask shares
/// `[x, y, z]` and product shares `[w, o, p, q]`.
fn group_share(masks: &[u64], [w, o, p, q]: [u64; 4]) -> MulGroupShare {
    let ring = crate::Ring64;
    MulGroupShare {
        x: ring(masks[X]),
        y: ring(masks[Y]),
        z: ring(masks[Z]),
        w: ring(w),
        o: ring(o),
        p: ring(p),
        q: ring(q),
    }
}

/// Empties a per-flight vector and zero-fills it to `len` words (it is
/// kept across flights, so only growth allocates).
fn resize(words: &mut Vec<u64>, len: usize) {
    words.clear();
    words.resize(len, 0);
}

/// The buffers one party of the offline dialogue builds its messages
/// in, one per dialogue step, kept for a worker's whole session (pass
/// the same value to every [`mg_offline_over_wire`] call of a worker).
///
/// The wire moves a payload's vector to the receiver, so once a party
/// has consumed the peer's step-`s` message it owns that buffer, and it
/// builds its own next step-`s` message in it. Both directions of a step
/// carry messages of about one size, so after a flight or two every
/// buffer fits both and the dialogue's megabyte payloads circulate
/// between the parties with no allocation at all — instead of being
/// allocated, page-faulted and freed once per message, churn that let
/// the allocator hand tens of megabytes a release back to the kernel,
/// to be faulted in again, on some runs and not others.
#[derive(Debug, Clone, Default)]
pub struct WordBuffers([Vec<u64>; 4]);

impl WordBuffers {
    /// The step-`step` buffer, emptied, with room for `len` words.
    fn take(&mut self, step: u8, len: usize) -> Vec<u64> {
        let mut words = std::mem::take(&mut self.0[usize::from(step) - 1]);
        words.clear();
        words.reserve(len);
        words
    }

    /// The step-`step` buffer holding `len` words, for a message whose
    /// every word the caller overwrites: the recycled words are not
    /// zeroed again, only growth is.
    fn take_len(&mut self, step: u8, len: usize) -> Vec<u64> {
        let mut words = std::mem::take(&mut self.0[usize::from(step) - 1]);
        words.truncate(len);
        words.resize(len, 0);
        words
    }

    /// Keeps a consumed step-`step` message's vector for this party's
    /// next step-`step` message.
    fn give(&mut self, step: u8, words: Vec<u64>) {
        self.0[usize::from(step) - 1] = words;
    }
}

/// Sends one offline-phase message under the chunk's tag; `words` move
/// into the frame uncopied.
fn send_off<T: Transport>(link: &T, chunk: u32, flight: u32, step: u8, words: Vec<u64>) {
    send_msg(
        link,
        OfflineMsg {
            chunk,
            flight,
            step,
            words,
        },
    )
    .expect("peer hung up (offline)");
}

/// Receives the peer's next offline message for the chunk, asserting
/// protocol lockstep.
fn recv_off<T: Transport>(link: &T, chunk: u32, flight: u32, step: u8) -> Vec<u64> {
    let m: OfflineMsg = recv_msg(link, chunk, Some(link.recv_timeout()))
        .unwrap_or_else(|e| panic!("peer lost during offline dialogue: {e}"));
    assert_eq!(m.chunk, chunk, "demux routed a foreign chunk");
    assert_eq!(m.flight, flight, "offline flight out of lockstep");
    assert_eq!(m.step, step, "offline step out of lockstep");
    m.words
}

/// Drives one server's half of the chunk-amortised MG offline session
/// against the peer over `link` — the five-message dialogue per
/// flight ([`plan_flights`]) documented at the top of this module —
/// and returns this server's Multiplication-Group shares in plan
/// order. Each flight's [`mg_flight_ledger`] — the full bidirectional
/// cost — is merged into `ledger` on either side, so both parties
/// report the same ledger. Messages are built in, and consumed ones
/// returned to, `spare`.
pub fn mg_offline_over_wire<T: Transport>(
    link: &T,
    id: ServerId,
    root: u64,
    chunk: u32,
    plan: &[MgDraw],
    ledger: &mut OfflineLedger,
    spare: &mut WordBuffers,
) -> Vec<MulGroupShare> {
    let total: usize = plan.iter().map(|d| d.groups as usize).sum();
    let mut groups = Vec::with_capacity(total);
    match id {
        ServerId::S1 => {
            let mut s1 = MgOfflineS1::for_chunk(root, chunk as u64);
            s1.spare = std::mem::take(spare);
            for (f, range) in plan_flights(plan).into_iter().enumerate() {
                let flight = &plan[range];
                let weight: u64 = flight.iter().map(|d| d.groups as u64).sum();
                let f = f as u32;
                send_off(link, chunk, f, 1, s1.ucols(flight));
                let u2 = recv_off(link, chunk, f, 1);
                send_off(link, chunk, f, 2, s1.corrections(&u2));
                s1.spare.give(1, u2);
                let d_b = recv_off(link, chunk, f, 2);
                send_off(link, chunk, f, 3, s1.derand_opq(&d_b));
                s1.spare.give(2, d_b);
                let d_b4 = recv_off(link, chunk, f, 3);
                send_off(link, chunk, f, 4, s1.derand_w(&d_b4));
                s1.spare.give(3, d_b4);
                ledger.merge(&mg_flight_ledger(weight));
                groups.extend(s1.groups());
            }
            *spare = s1.spare;
        }
        ServerId::S2 => {
            let mut s2 = MgOfflineS2::for_chunk(root, chunk as u64);
            s2.spare = std::mem::take(spare);
            for (f, range) in plan_flights(plan).into_iter().enumerate() {
                let flight = &plan[range];
                let weight: u64 = flight.iter().map(|d| d.groups as u64).sum();
                let f = f as u32;
                send_off(link, chunk, f, 1, s2.ucols(flight));
                let u1 = recv_off(link, chunk, f, 1);
                send_off(link, chunk, f, 2, s2.corrections(&u1));
                s2.spare.give(1, u1);
                let d_a = recv_off(link, chunk, f, 2);
                s2.absorb_corrections(&d_a);
                s2.spare.give(2, d_a);
                let c_opq = recv_off(link, chunk, f, 3);
                send_off(link, chunk, f, 3, s2.corrections_w(&c_opq));
                s2.spare.give(3, c_opq);
                let c_w = recv_off(link, chunk, f, 4);
                ledger.merge(&mg_flight_ledger(weight));
                groups.extend(s2.groups(&c_w));
            }
            *spare = s2.spare;
        }
    }
    groups
}

/// The preprocessed Multiplication-Group material of one chunk: both
/// servers' share vectors in plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgChunkMaterial {
    g1: Vec<MulGroupShare>,
    g2: Vec<MulGroupShare>,
}

impl MgChunkMaterial {
    /// Total Multiplication Groups in the chunk.
    pub fn len(&self) -> usize {
        self.g1.len()
    }

    /// True when the chunk preprocessed nothing.
    pub fn is_empty(&self) -> bool {
        self.g1.is_empty()
    }

    /// Both servers' groups of the whole chunk in plan order, S₁'s
    /// column first.
    pub fn columns(&self) -> [&[MulGroupShare]; 2] {
        [&self.g1, &self.g2]
    }
}

/// In-process driver of the chunk-amortised MG offline session: runs
/// both party machines back to back flight by flight, checks the
/// transcript digests, and tallies the offline ledger. The in-process
/// Count uses this, each server combining its own column of the
/// material; the message-passing runtime drives the same machines over
/// its multiplexed links instead.
#[derive(Debug, Clone)]
pub struct OtMgEngine {
    s1: MgOfflineS1,
    s2: MgOfflineS2,
    ledger: OfflineLedger,
}

impl OtMgEngine {
    /// Creates the engine for the chunk session `session` under
    /// `root` (the Count paths key sessions by scheduler chunk id).
    pub fn for_chunk(root: u64, session: u64) -> Self {
        OtMgEngine {
            s1: MgOfflineS1::for_chunk(root, session),
            s2: MgOfflineS2::for_chunk(root, session),
            ledger: OfflineLedger::new(),
        }
    }

    /// Preprocesses a whole chunk plan in one amortised session —
    /// [`plan_flights`] flights of the five-message dialogue — and
    /// returns both servers' material, bit-identical to the same draws
    /// from the pairs' [`PairDealer`] streams.
    pub fn preprocess(&mut self, plan: &[MgDraw]) -> MgChunkMaterial {
        let mut g1 = Vec::new();
        let mut g2 = Vec::new();
        for flight in plan_flights(plan) {
            let flight = &plan[flight];
            let u1 = self.s1.ucols(flight);
            let u2 = self.s2.ucols(flight);
            let d_a = self.s1.corrections(&u2);
            let d_b123 = self.s2.corrections(&u1);
            let c_opq = self.s1.derand_opq(&d_b123);
            self.s2.absorb_corrections(&d_a);
            let d_b4 = self.s2.corrections_w(&c_opq);
            let c_w = self.s1.derand_w(&d_b4);
            let f2 = self.s2.groups(&c_w);
            let f1 = self.s1.groups();
            let wire_words = u1.len()
                + u2.len()
                + d_a.len()
                + d_b123.len()
                + c_opq.len()
                + d_b4.len()
                + c_w.len();
            let tally = mg_flight_ledger(f1.len() as u64);
            debug_assert_eq!(8 * wire_words as u64, tally.bytes, "ledger formula drifted");
            self.ledger.merge(&tally);
            g1.extend(f1);
            g2.extend(f2);
        }
        MgChunkMaterial { g1, g2 }
    }

    /// The offline traffic this engine has generated so far (excludes
    /// the global base-OT setup, which is tallied once per run).
    pub fn ledger(&self) -> OfflineLedger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::reconstruct;

    /// Each draw's slice of both columns of `material`, in plan order.
    fn per_draw<'m>(
        material: &'m MgChunkMaterial,
        plan: &[MgDraw],
    ) -> Vec<[&'m [MulGroupShare]; 2]> {
        let mut at = 0;
        plan.iter()
            .map(|d| {
                let range = at..at + d.groups as usize;
                at = range.end;
                material.columns().map(|column| &column[range.clone()])
            })
            .collect()
    }

    #[test]
    fn ot_groups_are_bit_identical_to_the_dealer_streams() {
        // The headline property: the chunk engine reproduces the
        // trusted dealer's share pairs exactly for every pair in the
        // plan — which requires every Gilboa multiplication to be
        // correct (S₂'s shares are built from OT outputs, not from the
        // stream).
        let plan = [
            MgDraw::dense(0, 1, 3),
            MgDraw::dense(3, 7, 1),
            MgDraw::dense(100, 2, 8),
        ];
        let mut engine = OtMgEngine::for_chunk(42, 9);
        let material = engine.preprocess(&plan);
        assert_eq!(material.len(), 12);
        assert!(!material.is_empty());
        for (d, [g1s, g2s]) in plan.iter().zip(per_draw(&material, &plan)) {
            let mut dealer = PairDealer::for_pair(42, d.i, d.j);
            for (k, (g1, g2)) in g1s.iter().zip(g2s).enumerate() {
                let (d1, d2) = dealer.next_group_pair();
                assert_eq!(*g1, d1, "S1 pair ({},{}) group {k}", d.i, d.j);
                assert_eq!(*g2, d2, "S2 pair ({},{}) group {k}", d.i, d.j);
            }
        }
    }

    #[test]
    fn start_offset_draws_land_on_the_canonical_stream_positions() {
        // A sparse schedule draws a pair's groups at their *canonical*
        // offsets (k − j − 1), not packed from zero. A draw with
        // `start: s` must therefore equal the dealer stream skipped
        // past s groups — byte-for-byte, on both shares — and mixing
        // offset draws with dense ones in one flight must not disturb
        // either.
        let plan = [
            MgDraw { i: 4, j: 9, start: 17, groups: 3 },
            MgDraw::dense(4, 9, 2),
            MgDraw { i: 8, j: 1, start: 1, groups: 5 },
        ];
        let mut engine = OtMgEngine::for_chunk(99, 3);
        let material = engine.preprocess(&plan);
        for (d, [g1s, g2s]) in plan.iter().zip(per_draw(&material, &plan)) {
            let mut dealer = PairDealer::for_pair(99, d.i, d.j);
            dealer.skip_groups(d.start as usize);
            assert_eq!(g1s.len(), d.groups as usize);
            for (k, (g1, g2)) in g1s.iter().zip(g2s).enumerate() {
                let (d1, d2) = dealer.next_group_pair();
                assert_eq!(*g1, d1, "S1 pair ({},{}) offset {}", d.i, d.j, d.start as usize + k);
                assert_eq!(*g2, d2, "S2 pair ({},{}) offset {}", d.i, d.j, d.start as usize + k);
            }
        }
        // skip_groups(s) then draw == draw s+g then discard the prefix.
        let mut skipped = PairDealer::for_pair(99, 4, 9);
        skipped.skip_groups(17);
        let mut walked = PairDealer::for_pair(99, 4, 9);
        for _ in 0..17 {
            walked.next_group_pair();
        }
        assert_eq!(skipped.next_group_pair(), walked.next_group_pair());
    }

    #[test]
    fn session_keying_does_not_leak_into_the_shares() {
        // Different session ids (as different chunk partitions would
        // produce) must still derandomise onto the same canonical
        // streams — the reason the offline ledger can amortise by
        // chunk while the shares stay schedule-invariant.
        let plan = [MgDraw::dense(2, 5, 4)];
        let a = OtMgEngine::for_chunk(7, 0).preprocess(&plan);
        let b = OtMgEngine::for_chunk(7, 31).preprocess(&plan);
        assert_eq!(a.columns(), b.columns());
    }

    #[test]
    fn ot_groups_satisfy_all_product_relations() {
        let plan = [MgDraw::dense(1, 2, 16)];
        let mut engine = OtMgEngine::for_chunk(7, 0);
        let material = engine.preprocess(&plan);
        let [g1s, g2s] = material.columns();
        for (m1, m2) in g1s.iter().zip(g2s) {
            let x = reconstruct(m1.x, m2.x);
            let y = reconstruct(m1.y, m2.y);
            let z = reconstruct(m1.z, m2.z);
            assert_eq!(reconstruct(m1.o, m2.o), x * y, "o = xy");
            assert_eq!(reconstruct(m1.p, m2.p), x * z, "p = xz");
            assert_eq!(reconstruct(m1.q, m2.q), y * z, "q = yz");
            assert_eq!(reconstruct(m1.w, m2.w), x * y * z, "w = xyz");
        }
    }

    #[test]
    fn ledger_matches_the_pinned_formula() {
        // 5 groups across 2 pairs fit one flight: ONE digest pair, ONE
        // five-round dialogue — the amortisation the per-pair engine
        // could not offer.
        let plan = [
            MgDraw::dense(0, 1, 4),
            MgDraw::dense(0, 2, 1),
        ];
        let mut engine = OtMgEngine::for_chunk(1, 0);
        engine.preprocess(&plan);
        let l = engine.ledger();
        assert_eq!(l.extended_ots, 512 * 5);
        assert_eq!(l.bytes, MG_OFFLINE_BYTES_PER_GROUP * 5 + MG_FLIGHT_DIGEST_BYTES);
        assert_eq!(l.rounds, MG_FLIGHT_ROUNDS);
        assert_eq!(l.base_ots, 0, "base OTs are a per-run setup cost");
        assert_eq!(l, chunk_offline_ledger(&plan), "closed form agrees");
        let setup = ot_setup_ledger();
        assert_eq!(setup.base_ots, 256);
        assert_eq!(setup.bytes, 256 * BASE_OT_BYTES);
    }

    #[test]
    fn oversized_plans_split_into_flights_at_pair_boundaries() {
        let plan = [
            MgDraw::dense(0, 1, 300),
            MgDraw::dense(0, 2, 200),
            MgDraw::dense(0, 3, 600), // alone over the cap
            MgDraw::dense(0, 4, 5),
        ];
        let flights = plan_flights(&plan);
        assert_eq!(flights, vec![0..2, 2..3, 3..4]);
        let ledger = chunk_offline_ledger(&plan);
        assert_eq!(ledger.rounds, 3 * MG_FLIGHT_ROUNDS);
        assert_eq!(
            ledger.bytes,
            MG_OFFLINE_BYTES_PER_GROUP * 1105 + 3 * MG_FLIGHT_DIGEST_BYTES
        );
        assert_eq!(ledger.extended_ots, 512 * 1105);
    }

    #[test]
    fn flight_split_does_not_change_the_material() {
        // A plan big enough to split must yield the same shares as the
        // same draws in separate small sessions.
        let big = [
            MgDraw::dense(1, 2, 1500),
            MgDraw::dense(1, 3, 1500),
        ];
        let mut engine = OtMgEngine::for_chunk(5, 2);
        let material = engine.preprocess(&big);
        assert_eq!(engine.ledger().rounds, 2 * MG_FLIGHT_ROUNDS, "two flights");
        for (d, [g1s, g2s]) in big.iter().zip(per_draw(&material, &big)) {
            let mut dealer = PairDealer::for_pair(5, d.i, d.j);
            assert_eq!(g1s.len(), 1500);
            for (g1, g2) in g1s.iter().zip(g2s) {
                let (d1, d2) = dealer.next_group_pair();
                assert_eq!(*g1, d1);
                assert_eq!(*g2, d2);
            }
        }
    }

    #[test]
    fn party_machines_over_an_explicit_wire_match_the_dealer() {
        // Simulate the runtime's message-passing shape: every value
        // that crosses between the machines goes through an explicit
        // "wire" Vec, proving the API carries everything each side
        // needs — across consecutive flights of one session.
        let root = 0xFEED;
        let mut s1 = MgOfflineS1::for_chunk(root, 3);
        let mut s2 = MgOfflineS2::for_chunk(root, 3);
        let flights = [
            vec![MgDraw::dense(2, 9, 2)],
            vec![
                MgDraw::dense(2, 10, 3),
                MgDraw::dense(2, 11, 2),
            ],
        ];
        for flight in &flights {
            let wire_u1: Vec<u64> = s1.ucols(flight);
            let wire_u2: Vec<u64> = s2.ucols(flight);
            let wire_da: Vec<u64> = s1.corrections(&wire_u2);
            let wire_db: Vec<u64> = s2.corrections(&wire_u1);
            let wire_copq: Vec<u64> = s1.derand_opq(&wire_db);
            s2.absorb_corrections(&wire_da);
            let wire_db4: Vec<u64> = s2.corrections_w(&wire_copq);
            let wire_cw: Vec<u64> = s1.derand_w(&wire_db4);
            let g2 = s2.groups(&wire_cw);
            let g1 = s1.groups();
            let mut at = 0usize;
            for d in flight {
                let mut dealer = PairDealer::for_pair(root, d.i, d.j);
                for k in 0..d.groups as usize {
                    let (d1, d2) = dealer.next_group_pair();
                    assert_eq!(g1[at], d1, "pair ({},{}) group {k}", d.i, d.j);
                    assert_eq!(g2[at], d2, "pair ({},{}) group {k}", d.i, d.j);
                    at += 1;
                }
            }
        }
    }

    #[test]
    fn offline_dialogue_over_a_real_transport_matches_the_dealer() {
        // The transport-generic driver must reproduce the in-process
        // engine exactly: same groups, same per-flight ledger, and the
        // measured offline payload bytes equal the modeled ledger.
        use crate::transport::{memory_pair, Transport};
        let plan = [
            MgDraw::dense(0, 1, 3),
            MgDraw::dense(4, 7, 5),
        ];
        let (end1, end2) = memory_pair();
        let (g1, g2, l1) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| {
                let mut ledger = OfflineLedger::new();
                let g = mg_offline_over_wire(
                    &end1,
                    ServerId::S1,
                    11,
                    5,
                    &plan,
                    &mut ledger,
                    &mut WordBuffers::default(),
                );
                (g, ledger)
            });
            let h2 = scope.spawn(|| {
                let mut ledger = OfflineLedger::new();
                mg_offline_over_wire(
                    &end2,
                    ServerId::S2,
                    11,
                    5,
                    &plan,
                    &mut ledger,
                    &mut WordBuffers::default(),
                )
            });
            let (g1, l1) = h1.join().unwrap();
            (g1, h2.join().unwrap(), l1)
        });
        let mut engine = OtMgEngine::for_chunk(11, 5);
        let material = engine.preprocess(&plan);
        assert_eq!(material.columns(), [&g1[..], &g2[..]]);
        assert_eq!(l1, engine.ledger(), "wire dialogue tallies the same ledger");
        assert_eq!(
            end1.stats().offline_payload_both(),
            l1.bytes,
            "measured offline payload == modeled ledger"
        );
    }

    #[test]
    #[should_panic(expected = "out of lockstep")]
    fn out_of_order_calls_panic() {
        let mut s1 = MgOfflineS1::for_chunk(1, 0);
        s1.corrections(&[0u64; OT_KAPPA * 4]);
    }

    #[test]
    #[should_panic(expected = "consistency hash")]
    fn tampered_transcript_is_detected() {
        let flight = [MgDraw::dense(0, 1, 1)];
        let mut s1 = MgOfflineS1::for_chunk(3, 0);
        let mut s2 = MgOfflineS2::for_chunk(3, 0);
        let u1 = s1.ucols(&flight);
        let u2 = s2.ucols(&flight);
        let _ = s1.corrections(&u2);
        let mut tampered = u1.clone();
        tampered[0] ^= 1;
        let db = s2.corrections(&tampered);
        let _ = s1.derand_opq(&db); // digest of tampered ≠ digest of sent
    }

    #[test]
    fn a_bit_flipped_in_transit_anywhere_in_a_u_message_kills_the_flight() {
        // The lane digest end to end: whichever direction's columns
        // lose a bit on the way — first word, a lane deep inside a
        // later row, last word — the party that sent them sees its
        // peer's digest disagree when the corrections come back.
        let flight = [MgDraw::dense(0, 1, 2), MgDraw::dense(0, 2, 1)];
        let u_words = OT_KAPPA * MG_MULTS_PER_DIR * 3;
        for tamper_s1 in [true, false] {
            for (word, bit) in [(0, 0), (5 * 32 + 17, 63), (u_words - 1, 31)] {
                let died = std::panic::catch_unwind(|| {
                    let mut s1 = MgOfflineS1::for_chunk(3, 0);
                    let mut s2 = MgOfflineS2::for_chunk(3, 0);
                    let mut u1 = s1.ucols(&flight);
                    let mut u2 = s2.ucols(&flight);
                    assert_eq!(u1.len(), u_words);
                    let hit = if tamper_s1 { &mut u1 } else { &mut u2 };
                    hit[word] ^= 1 << bit;
                    let d_a = s1.corrections(&u2);
                    let d_b = s2.corrections(&u1);
                    if tamper_s1 {
                        s1.derand_opq(&d_b);
                    } else {
                        s2.absorb_corrections(&d_a);
                    }
                })
                .expect_err("a corrupted transcript must not be absorbed");
                let msg = died.downcast_ref::<String>().expect("assert message");
                assert!(
                    msg.contains("offline transcript diverged (consistency hash mismatch)"),
                    "S{} word {word} bit {bit}: {msg}",
                    if tamper_s1 { 1 } else { 2 }
                );
            }
        }
    }

    #[test]
    fn a_consumed_message_carries_the_next_one_of_its_step() {
        let mut spare = WordBuffers::default();
        let received = vec![7u64; 64];
        let at = received.as_ptr();
        spare.give(2, received);
        assert!(spare.take(3, 8).is_empty(), "another step's buffer");
        let next = spare.take(2, 48);
        assert_eq!(next.as_ptr(), at, "the peer's allocation, reused");
        assert!(next.is_empty() && next.capacity() >= 48);
        let grown = spare.take(2, 100);
        assert!(grown.is_empty() && grown.capacity() >= 100, "taken twice: a fresh buffer");
    }

    #[test]
    #[should_panic(expected = "empty draw")]
    fn zero_group_draws_are_rejected() {
        plan_flights(&[MgDraw::dense(0, 1, 0)]);
    }

    #[test]
    fn offline_mode_parses_and_displays() {
        assert_eq!("dealer".parse::<OfflineMode>(), Ok(OfflineMode::TrustedDealer));
        assert_eq!("ot-extension".parse::<OfflineMode>(), Ok(OfflineMode::OtExtension));
        assert!("quantum".parse::<OfflineMode>().is_err());
        assert_eq!(OfflineMode::TrustedDealer.to_string(), "dealer");
    }
}
