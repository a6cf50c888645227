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
//! mask shares `x_i, y_i, z_i` from its pair-keyed PRG stream (the
//! same [`PairDealer`] words the dealer mode uses), the product shares
//! `o = xy, p = xz, q = yz, w = oz` are computed with Gilboa
//! multiplication over correlated OTs, and S₁ then shifts each raw
//! product share pair onto its canonical stream word by sending the
//! public offset `c = raw₁ − canonical₁` (S₂ adds `c` to its raw
//! share). The offset is one-time-padded by the COT's fresh
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
//! across `threads × batch` like everything else.
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
//! Cost per MG (formula pinned by `ledger` tests and the committed
//! `BENCH_offline.json` baseline): 512 extended OTs,
//! [`MG_OFFLINE_BYTES_PER_GROUP`] bytes; per flight,
//! [`MG_FLIGHT_DIGEST_BYTES`] digest bytes and [`MG_FLIGHT_ROUNDS`]
//! rounds; plus one global base-OT setup ([`ot_setup_ledger`]).

use crate::channel::OfflineLedger;
use crate::dealer::{split_mg_words, PairDealer, MG_WORDS};
use crate::ot::{
    simulated_base_ots, transcript_digest, CotReceiver, CotSender, RecvBatch, SendBatch,
    BASE_OT_BYTES, BASE_OT_ROUNDS, OT_KAPPA,
};
use crate::prg::SplitMix64;
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
pub const MG_FLIGHT_ROUNDS: u64 = 5;

/// Groups-per-flight cap of the chunk-amortised session: bounds the
/// per-message buffers (a flight of `g` groups carries `4g` 64-bit
/// choice words → `512·g` extension-column words per direction, ~2 MB
/// at the cap) so the extension stays cache-friendly; the internal
/// passes additionally slab at `ot::EXT_SLAB_WORDS`. Flights split
/// only at pair boundaries; a single pair larger than the cap gets
/// one oversized flight of its own.
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

/// Prefix offsets of a chunk plan: draw `idx` owns groups
/// `offsets[idx]..offsets[idx+1]` of the material produced in plan
/// order — how [`MgChunkMaterial`] finds a draw's slice. (The wire
/// runtime needs no offsets: an online round is the next `batch` groups
/// of that same plan-ordered material.)
fn plan_offsets(plan: &[MgDraw]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(plan.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for d in plan {
        acc += d.groups as usize;
        offsets.push(acc);
    }
    offsets
}

/// One piece of an online round: `len` consecutive groups of plan draw
/// `draw`, starting `offset` groups into it — i.e. the triples
/// `k = j + 1 + start + offset ..` of that draw's pair `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSegment {
    /// Index of the draw in the chunk plan.
    pub draw: usize,
    /// Groups of the draw that earlier rounds already opened.
    pub offset: usize,
    /// Groups of the draw this round opens (≥ 1).
    pub len: usize,
}

/// Cuts a chunk plan into **online rounds**: every round takes the
/// next `batch` groups in plan order, across draw and pair boundaries,
/// so only the chunk's last round is short and a chunk of `W` groups
/// costs exactly `⌈W/batch⌉` rounds ([`crate::NetStats::exchange_triples`]
/// is the same cut in closed form). A pure function of `(plan, batch)`
/// — both public — which is what lets S₁, S₂ and the dealer derive
/// identical rounds with no negotiation.
///
/// The rounds are lent one at a time ([`PlanRounds::next_round`]) out
/// of a buffer the cutter reuses.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn plan_rounds(plan: &[MgDraw], batch: usize) -> PlanRounds<'_> {
    assert!(batch > 0, "a round opens at least one triple");
    PlanRounds { plan, batch, draw: 0, offset: 0, round: Vec::new() }
}

/// The round cutter [`plan_rounds`] returns.
#[derive(Debug)]
pub struct PlanRounds<'a> {
    plan: &'a [MgDraw],
    batch: usize,
    /// The first draw with groups no round has taken yet …
    draw: usize,
    /// … and how many of its groups are taken.
    offset: usize,
    round: Vec<RoundSegment>,
}

impl PlanRounds<'_> {
    /// The next round's segments in plan order (their `len`s sum to
    /// `batch`, or to what is left of the plan), or `None` once the
    /// plan is exhausted.
    pub fn next_round(&mut self) -> Option<&[RoundSegment]> {
        self.round.clear();
        let mut room = self.batch;
        while room > 0 && self.draw < self.plan.len() {
            let left = self.plan[self.draw].groups as usize - self.offset;
            let len = left.min(room);
            if len > 0 {
                self.round.push(RoundSegment { draw: self.draw, offset: self.offset, len });
            }
            room -= len;
            if len == left {
                self.draw += 1;
                self.offset = 0;
            } else {
                self.offset += len;
            }
        }
        (!self.round.is_empty()).then_some(&self.round[..])
    }
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

/// Per-MG canonical-word offsets (see [`crate::dealer::MG_WORDS`]).
const X1: usize = 0;
const X2: usize = 1;
const Y1: usize = 2;
const Y2: usize = 3;
const Z1: usize = 4;
const Z2: usize = 5;
const O1: usize = 6;
const P1: usize = 7;
const Q1: usize = 8;
const W1: usize = 9;

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

/// Draws the canonical dealer words for one flight into `words`:
/// each [`MgDraw`]'s groups from its own pair stream — seeked to the
/// draw's canonical `start` offset — concatenated in plan order. Both
/// party machines call this with the same plan, so both hold the same
/// canonical buffer (each uses only its own share columns of it).
fn draw_flight_words(root: u64, flight: &[MgDraw], words: &mut Vec<u64>) -> usize {
    let total: usize = flight.iter().map(|d| d.groups as usize).sum();
    assert!(total > 0, "empty offline flight");
    words.resize(MG_WORDS * total, 0);
    let mut off = 0usize;
    for d in flight {
        let span = MG_WORDS * d.groups as usize;
        let mut dealer = PairDealer::for_pair(root, d.i, d.j);
        dealer.skip_groups(d.start as usize);
        dealer.fill_words(&mut words[off..off + span]);
        off += span;
    }
    total
}

/// Server S₁'s half of the chunk-amortised MG offline session.
///
/// S₁ is the *canonical* side: its mask shares and product shares are
/// its [`PairDealer`] stream words, and it derandomises every product
/// onto them. One machine serves a whole scheduler chunk; drive the
/// methods strictly in the order [`ucols`](Self::ucols) →
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
    words: Vec<u64>,
    /// The flight's packed choice bits (scratch of [`Self::ucols`],
    /// kept across flights like `words` and `s_a`).
    choice: Vec<u64>,
    recv_batch: Option<RecvBatch>,
    sent_ucols_digest: u64,
    /// `−Σ m⁰` per (g, mult) of direction A (S₁'s sender shares).
    s_a: Vec<u64>,
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
            words: Vec::new(),
            choice: Vec::new(),
            recv_batch: None,
            sent_ucols_digest: 0,
            s_a: Vec::new(),
        }
    }

    /// Step 1: draws the flight's canonical words (every draw's groups
    /// from its pair stream) and returns S₁'s extension columns for
    /// its receiver role (direction B, choice bits `y₁, z₁, z₁, z₁`
    /// per MG).
    pub fn ucols(&mut self, flight: &[MgDraw]) -> Vec<u64> {
        advance(&mut self.stage, Stage::Idle, Stage::SentColumns);
        self.block = draw_flight_words(self.root, flight, &mut self.words);
        self.choice.clear();
        for w in self.words.chunks_exact(MG_WORDS) {
            self.choice.extend_from_slice(&[w[Y1], w[Z1], w[Z1], w[Z1]]);
        }
        let (batch, u) = self.receiver.extend(&self.choice);
        self.recv_batch = Some(batch);
        self.sent_ucols_digest = transcript_digest(&u);
        u
    }

    /// Step 2: absorbs S₂'s columns and returns the corrections for
    /// all four direction-A multiplications (`a = x₁, x₁, y₁, o₁`),
    /// with a transcript digest of the absorbed columns appended.
    pub fn corrections(&mut self, u_from_s2: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentColumns, Stage::SentCorrections);
        let sb = self.sender.absorb(u_from_s2);
        let block = self.block;
        let mut msg = Vec::with_capacity(MG_MULTS_PER_DIR * 64 * block + 1);
        self.s_a.clear();
        self.s_a.resize(MG_MULTS_PER_DIR * block, 0);
        for g in 0..block {
            let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
            let a_vals = [w[X1], w[X1], w[Y1], w[O1]];
            for (mult, &a) in a_vals.iter().enumerate() {
                let mut sum0 = 0u64;
                for bit in 0..64 {
                    let j = (g * MG_MULTS_PER_DIR + mult) * 64 + bit;
                    sum0 = sum0.wrapping_add(sb.m0(j));
                    msg.push(sb.correction(j, a.wrapping_shl(bit as u32)));
                }
                self.s_a[g * MG_MULTS_PER_DIR + mult] = 0u64.wrapping_sub(sum0);
            }
        }
        msg.push(transcript_digest(u_from_s2));
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
        let rb = self.recv_batch.as_ref().expect("columns sent");
        let mut msg = Vec::with_capacity(3 * block);
        for g in 0..block {
            let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
            let mut raw = [0u64; 3];
            let local = [
                w[X1].wrapping_mul(w[Y1]),
                w[X1].wrapping_mul(w[Z1]),
                w[Y1].wrapping_mul(w[Z1]),
            ];
            for (mult, slot) in raw.iter_mut().enumerate() {
                let mut sum = 0u64;
                for bit in 0..64 {
                    let j = (g * MG_MULTS_PER_DIR + mult) * 64 + bit;
                    let d_idx = (g * 3 + mult) * 64 + bit;
                    sum = sum.wrapping_add(rb.output_at(j, d[d_idx]));
                }
                *slot = local[mult]
                    .wrapping_add(self.s_a[g * MG_MULTS_PER_DIR + mult])
                    .wrapping_add(sum);
            }
            msg.push(raw[0].wrapping_sub(w[O1]));
            msg.push(raw[1].wrapping_sub(w[P1]));
            msg.push(raw[2].wrapping_sub(w[Q1]));
        }
        msg
    }

    /// Step 4: absorbs S₂'s B₄ corrections (`a = o₂`) and returns the
    /// final derandomisation offset `c_w` per MG.
    pub fn derand_w(&mut self, d_b4: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentDerandOpq, Stage::Finishing);
        let block = self.block;
        assert_eq!(d_b4.len(), 64 * block, "B₄ corrections");
        let rb = self.recv_batch.as_ref().expect("columns sent");
        let mut msg = Vec::with_capacity(block);
        for g in 0..block {
            let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
            let mut sum = 0u64;
            for bit in 0..64 {
                let j = (g * MG_MULTS_PER_DIR + 3) * 64 + bit;
                sum = sum.wrapping_add(rb.output_at(j, d_b4[g * 64 + bit]));
            }
            let w_raw1 = w[O1]
                .wrapping_mul(w[Z1])
                .wrapping_add(self.s_a[g * MG_MULTS_PER_DIR + 3])
                .wrapping_add(sum);
            msg.push(w_raw1.wrapping_sub(w[W1]));
        }
        msg
    }

    /// Step 5: S₁'s Multiplication-Group shares for the flight — by
    /// construction the canonical stream words, in plan order.
    pub fn groups(&mut self) -> Vec<MulGroupShare> {
        advance(&mut self.stage, Stage::Finishing, Stage::Idle);
        (0..self.block)
            .map(|g| {
                let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
                split_mg_words(w).0
            })
            .collect()
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
    words: Vec<u64>,
    /// The flight's packed choice bits (scratch of [`Self::ucols`]).
    choice: Vec<u64>,
    recv_batch: Option<RecvBatch>,
    send_batch: Option<SendBatch>,
    sent_ucols_digest: u64,
    /// `−Σ m⁰` per (g, mult) of direction B (S₂'s sender shares).
    s_b: Vec<u64>,
    /// Σ receiver outputs per (g, mult) of direction A.
    r_a: Vec<u64>,
    /// Derandomised `o₂, p₂, q₂` per MG.
    opq2: Vec<u64>,
    /// `w` raw share per MG (awaiting `c_w`).
    w_raw2: Vec<u64>,
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
            words: Vec::new(),
            choice: Vec::new(),
            recv_batch: None,
            send_batch: None,
            sent_ucols_digest: 0,
            s_b: Vec::new(),
            r_a: Vec::new(),
            opq2: Vec::new(),
            w_raw2: Vec::new(),
        }
    }

    /// Step 1: draws the flight's stream words (S₂ uses only its own
    /// mask shares `x₂, y₂, z₂`) and returns its extension columns for
    /// direction A (choice bits `y₂, z₂, z₂, z₂` per MG).
    pub fn ucols(&mut self, flight: &[MgDraw]) -> Vec<u64> {
        advance(&mut self.stage, Stage::Idle, Stage::SentColumns);
        self.block = draw_flight_words(self.root, flight, &mut self.words);
        self.choice.clear();
        for w in self.words.chunks_exact(MG_WORDS) {
            self.choice.extend_from_slice(&[w[Y2], w[Z2], w[Z2], w[Z2]]);
        }
        let (batch, u) = self.receiver.extend(&self.choice);
        self.recv_batch = Some(batch);
        self.sent_ucols_digest = transcript_digest(&u);
        u
    }

    /// Step 2: absorbs S₁'s columns and returns the corrections for
    /// B₁..B₃ (`a = x₂, x₂, y₂`; B₄ waits for the derandomised `o₂`),
    /// with a transcript digest of the absorbed columns appended.
    pub fn corrections(&mut self, u_from_s1: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentColumns, Stage::SentCorrections);
        let sb = self.sender.absorb(u_from_s1);
        let block = self.block;
        let mut msg = Vec::with_capacity(3 * 64 * block + 1);
        self.s_b.clear();
        self.s_b.resize(MG_MULTS_PER_DIR * block, 0);
        for g in 0..block {
            let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
            let a_vals = [w[X2], w[X2], w[Y2]];
            for mult in 0..MG_MULTS_PER_DIR {
                // B₄'s correlation (a = o₂) is not known yet; its
                // corrections go out in `corrections_w`.
                let a = a_vals.get(mult).copied();
                let mut sum0 = 0u64;
                for bit in 0..64 {
                    let j = (g * MG_MULTS_PER_DIR + mult) * 64 + bit;
                    sum0 = sum0.wrapping_add(sb.m0(j));
                    if let Some(a) = a {
                        msg.push(sb.correction(j, a.wrapping_shl(bit as u32)));
                    }
                }
                self.s_b[g * MG_MULTS_PER_DIR + mult] = 0u64.wrapping_sub(sum0);
            }
        }
        msg.push(transcript_digest(u_from_s1));
        self.send_batch = Some(sb);
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
        let rb = self.recv_batch.as_ref().expect("columns sent");
        self.r_a.clear();
        self.r_a.resize(MG_MULTS_PER_DIR * block, 0);
        for (gm, slot) in self.r_a.iter_mut().enumerate() {
            let mut sum = 0u64;
            for bit in 0..64 {
                let j = gm * 64 + bit;
                sum = sum.wrapping_add(rb.output_at(j, d[j]));
            }
            *slot = sum;
        }
    }

    /// Step 4: absorbs S₁'s derandomisation offsets `c_o, c_p, c_q`,
    /// fixing `o₂, p₂, q₂`, and returns the B₄ corrections
    /// (`a = o₂`).
    pub fn corrections_w(&mut self, c_opq: &[u64]) -> Vec<u64> {
        advance(&mut self.stage, Stage::SentDerandOpq, Stage::Finishing);
        let block = self.block;
        assert_eq!(c_opq.len(), 3 * block, "c_o, c_p, c_q per MG");
        let sb = self.send_batch.as_ref().expect("corrections sent");
        self.opq2.clear();
        self.w_raw2.clear();
        let mut msg = Vec::with_capacity(64 * block);
        for g in 0..block {
            let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
            let local = [
                w[X2].wrapping_mul(w[Y2]),
                w[X2].wrapping_mul(w[Z2]),
                w[Y2].wrapping_mul(w[Z2]),
            ];
            for mult in 0..3 {
                let raw = local[mult]
                    .wrapping_add(self.r_a[g * MG_MULTS_PER_DIR + mult])
                    .wrapping_add(self.s_b[g * MG_MULTS_PER_DIR + mult]);
                self.opq2.push(raw.wrapping_add(c_opq[g * 3 + mult]));
            }
            let o2 = self.opq2[g * 3];
            for bit in 0..64 {
                let j = (g * MG_MULTS_PER_DIR + 3) * 64 + bit;
                msg.push(sb.correction(j, o2.wrapping_shl(bit as u32)));
            }
            self.w_raw2.push(
                o2.wrapping_mul(w[Z2])
                    .wrapping_add(self.r_a[g * MG_MULTS_PER_DIR + 3])
                    .wrapping_add(self.s_b[g * MG_MULTS_PER_DIR + 3]),
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
                let w = &self.words[MG_WORDS * g..MG_WORDS * (g + 1)];
                MulGroupShare {
                    x: crate::Ring64(w[X2]),
                    y: crate::Ring64(w[Y2]),
                    z: crate::Ring64(w[Z2]),
                    w: crate::Ring64(self.w_raw2[g].wrapping_add(c_w[g])),
                    o: crate::Ring64(self.opq2[g * 3]),
                    p: crate::Ring64(self.opq2[g * 3 + 1]),
                    q: crate::Ring64(self.opq2[g * 3 + 2]),
                }
            })
            .collect()
    }
}

/// Sends one offline-phase message under the chunk's tag.
fn send_off<T: Transport>(link: &T, chunk: u32, flight: u32, step: u8, words: Vec<u64>) {
    send_msg(
        link,
        &OfflineMsg {
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
/// report the same ledger.
pub fn mg_offline_over_wire<T: Transport>(
    link: &T,
    id: ServerId,
    root: u64,
    chunk: u32,
    plan: &[MgDraw],
    ledger: &mut OfflineLedger,
) -> Vec<MulGroupShare> {
    let total: usize = plan.iter().map(|d| d.groups as usize).sum();
    let mut groups = Vec::with_capacity(total);
    match id {
        ServerId::S1 => {
            let mut s1 = MgOfflineS1::for_chunk(root, chunk as u64);
            for (f, range) in plan_flights(plan).into_iter().enumerate() {
                let flight = &plan[range];
                let weight: u64 = flight.iter().map(|d| d.groups as u64).sum();
                let f = f as u32;
                send_off(link, chunk, f, 1, s1.ucols(flight));
                let u2 = recv_off(link, chunk, f, 1);
                send_off(link, chunk, f, 2, s1.corrections(&u2));
                let d_b = recv_off(link, chunk, f, 2);
                send_off(link, chunk, f, 3, s1.derand_opq(&d_b));
                let d_b4 = recv_off(link, chunk, f, 3);
                send_off(link, chunk, f, 4, s1.derand_w(&d_b4));
                ledger.merge(&mg_flight_ledger(weight));
                groups.extend(s1.groups());
            }
        }
        ServerId::S2 => {
            let mut s2 = MgOfflineS2::for_chunk(root, chunk as u64);
            for (f, range) in plan_flights(plan).into_iter().enumerate() {
                let flight = &plan[range];
                let weight: u64 = flight.iter().map(|d| d.groups as u64).sum();
                let f = f as u32;
                send_off(link, chunk, f, 1, s2.ucols(flight));
                let u1 = recv_off(link, chunk, f, 1);
                send_off(link, chunk, f, 2, s2.corrections(&u1));
                let d_a = recv_off(link, chunk, f, 2);
                s2.absorb_corrections(&d_a);
                let c_opq = recv_off(link, chunk, f, 3);
                send_off(link, chunk, f, 3, s2.corrections_w(&c_opq));
                let c_w = recv_off(link, chunk, f, 4);
                ledger.merge(&mg_flight_ledger(weight));
                groups.extend(s2.groups(&c_w));
            }
        }
    }
    groups
}

/// The preprocessed Multiplication-Group material of one chunk: both
/// servers' share vectors in plan order, sliceable per pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgChunkMaterial {
    g1: Vec<MulGroupShare>,
    g2: Vec<MulGroupShare>,
    /// Prefix offsets: draw `idx` owns groups `offsets[idx]..offsets[idx+1]`.
    offsets: Vec<usize>,
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

    /// Both servers' group slices for plan entry `idx`.
    pub fn pair(&self, idx: usize) -> (&[MulGroupShare], &[MulGroupShare]) {
        let range = self.offsets[idx]..self.offsets[idx + 1];
        (&self.g1[range.clone()], &self.g2[range])
    }
}

/// In-process driver of the chunk-amortised MG offline session: runs
/// both party machines back to back flight by flight, checks the
/// transcript digests, and tallies the offline ledger. The fast Count
/// kernel uses this; the message-passing runtime drives the same
/// machines over its multiplexed links instead.
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
        let offsets = plan_offsets(plan);
        debug_assert_eq!(*offsets.last().expect("non-empty"), g1.len());
        MgChunkMaterial { g1, g2, offsets }
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
        for (idx, d) in plan.iter().enumerate() {
            let (g1s, g2s) = material.pair(idx);
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
        for (idx, d) in plan.iter().enumerate() {
            let mut dealer = PairDealer::for_pair(99, d.i, d.j);
            dealer.skip_groups(d.start as usize);
            let (g1s, g2s) = material.pair(idx);
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
        assert_eq!(a.pair(0), b.pair(0));
    }

    #[test]
    fn ot_groups_satisfy_all_product_relations() {
        let plan = [MgDraw::dense(1, 2, 16)];
        let mut engine = OtMgEngine::for_chunk(7, 0);
        let material = engine.preprocess(&plan);
        let (g1s, g2s) = material.pair(0);
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
        for (idx, d) in big.iter().enumerate() {
            let mut dealer = PairDealer::for_pair(5, d.i, d.j);
            let (g1s, g2s) = material.pair(idx);
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
                let g = mg_offline_over_wire(&end1, ServerId::S1, 11, 5, &plan, &mut ledger);
                (g, ledger)
            });
            let h2 = scope.spawn(|| {
                let mut ledger = OfflineLedger::new();
                mg_offline_over_wire(&end2, ServerId::S2, 11, 5, &plan, &mut ledger)
            });
            let (g1, l1) = h1.join().unwrap();
            (g1, h2.join().unwrap(), l1)
        });
        let mut engine = OtMgEngine::for_chunk(11, 5);
        let material = engine.preprocess(&plan);
        for (idx, d) in plan.iter().enumerate() {
            let (e1, e2) = material.pair(idx);
            let base = plan_offsets(&plan)[idx];
            assert_eq!(&g1[base..base + d.groups as usize], e1);
            assert_eq!(&g2[base..base + d.groups as usize], e2);
        }
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
    #[should_panic(expected = "empty draw")]
    fn zero_group_draws_are_rejected() {
        plan_flights(&[MgDraw::dense(0, 1, 0)]);
    }

    #[test]
    fn rounds_fill_across_draws_and_split_long_ones() {
        // Runs of 3, 1, 9 and 2 groups at batch 4: the second round
        // starts mid-pair, the 9-run is split twice, the last is short.
        let plan = [
            MgDraw { i: 0, j: 1, start: 0, groups: 3 },
            MgDraw { i: 0, j: 1, start: 5, groups: 1 },
            MgDraw { i: 0, j: 2, start: 0, groups: 9 },
            MgDraw { i: 1, j: 2, start: 4, groups: 2 },
        ];
        let seg = |draw, offset, len| RoundSegment { draw, offset, len };
        let mut rounds = plan_rounds(&plan, 4);
        let mut got = Vec::new();
        while let Some(round) = rounds.next_round() {
            got.push(round.to_vec());
        }
        assert_eq!(
            got,
            vec![
                vec![seg(0, 0, 3), seg(1, 0, 1)],
                vec![seg(2, 0, 4)],
                vec![seg(2, 4, 4)],
                vec![seg(2, 8, 1), seg(3, 0, 2)],
            ]
        );
        assert_eq!(plan[2].k_at(8), 11, "triple (0, 2, 11)");
        assert_eq!(plan[3].k_at(0), 7, "runs start at their canonical offset");
        // A batch above the plan's weight is one round; no plan, none.
        let mut one = plan_rounds(&plan, 1000);
        assert_eq!(one.next_round().map(<[_]>::len), Some(4));
        assert!(one.next_round().is_none());
        assert!(plan_rounds(&[], 4).next_round().is_none());
    }

    #[test]
    fn offline_mode_parses_and_displays() {
        assert_eq!("dealer".parse::<OfflineMode>(), Ok(OfflineMode::TrustedDealer));
        assert_eq!("ot-extension".parse::<OfflineMode>(), Ok(OfflineMode::OtExtension));
        assert!("quantum".parse::<OfflineMode>().is_err());
        assert_eq!(OfflineMode::TrustedDealer.to_string(), "dealer");
    }
}
