//! The offline (preprocessing) phase: a Count's correlated randomness
//! made by OT extension, with no trusted dealer.
//!
//! The paper's protocol splits into an offline phase that precomputes
//! correlated randomness via oblivious transfer \[42, 43\] and an
//! online phase that consumes it. This module implements the offline
//! phase on top of [`crate::ot`] so a run can select either source
//! through [`OfflineMode`]:
//!
//! * **[`OfflineMode::TrustedDealer`]** — the seeded dealer
//!   ([`crate::dealer`]): zero offline traffic, the modeling shortcut
//!   documented in DESIGN.md §4 item 6.
//! * **[`OfflineMode::OtExtension`]** — the two servers run IKNP
//!   correlated-OT extension and Gilboa vector OLE to make the same
//!   material, paying (and recording, via [`crate::OfflineLedger`]) the
//!   real offline bytes and rounds.
//!
//! ## The material: `P + 1` words a Count
//!
//! A Count's masks are keyed by pair, so each server's share of
//! `Σₜ sₜ·dₜ` regroups by pair ([`crate::triple_mul`]): besides its own
//! mask shares it needs `⟨M_p⟩` for every pair `p` of the plan, where
//! `M_p = Σ_{t∋p} sₜ·λ_a·λ_b` over the other two pairs `a, b` of each
//! triple `t` through `p`, and `⟨W⟩` once, `W = Σₜ sₜ·λ_a·λ_b·λ_c`
//! (SecureML's aggregated correlations, <https://eprint.iacr.org/2017/396>,
//! over ABY2.0's pair masks, <https://eprint.iacr.org/2020/1225>).
//! With `λ = λ⁽¹⁾ + λ⁽²⁾` every term a server cannot compute alone is a
//! product of an S₁ value and an S₂ value, and every S₂ factor is one of
//! two **keys** per pair:
//!
//! * `M_p`'s cross part `Σ sₜ·(λ⁽¹⁾_a·λ⁽²⁾_b + λ⁽²⁾_a·λ⁽¹⁾_b)`: six
//!   *elements* per triple, `sₜ·λ⁽¹⁾_a` under key `λ⁽²⁾_b`, each landing
//!   on the `M` of the triple's third pair;
//! * `W`'s mixed part `Σ_q λ⁽²⁾_q·Y⁽¹⁾_q + Σ_q λ⁽¹⁾_q·Y⁽²⁾_q`, where
//!   `Y⁽ˢ⁾_q = Σ_{t∋q} sₜ·λ⁽ˢ⁾·λ⁽ˢ⁾` over the other two pairs — computed
//!   by each server alone — is two elements per pair: `Y⁽¹⁾_q` under key
//!   `λ⁽²⁾_q` and `λ⁽¹⁾_q` under the second key `Y⁽²⁾_q`.
//!
//! So S₂ is the only extension receiver: its choice words are its `2P`
//! keys, one *unit* of 64 correlated OTs each, extended **once per
//! Count**. Every element is one Gilboa product over its key's unit
//! ([`crate::ot::CotSender::correct`]), hashed under its own tweak —
//! its key unit and the pair it lands on ([`OfflineS1`]) — so any number
//! of elements share a unit and any flight of elements can be corrected
//! on its own. S₁ then shifts its raw shares onto the dealer's
//! ([`PairDealer::pair_word`], [`PairDealer::count_word`]) by sending
//! the `P + 1` offsets `raw₁ − dealer₁`, one-time-padded by its Gilboa
//! randomness. S₂ adds them to its raw shares and holds `M_p − ⟨M_p⟩₁`
//! per pair and `W − ⟨W⟩₁`: both servers' shares are then **bit-identical**
//! to dealer mode's — which holds only if every OT product was right,
//! what the equivalence suites check at every fixture.
//!
//! ## Message flow
//!
//! The dialogue reads no input bit. It runs once per Count, after the
//! pair rounds, so each server reads its mask shares (and S₁ its dealer
//! words) from its [`PairTable`]:
//!
//! ```text
//!   S₁                                               S₂
//!   ◀── key columns u (κ × 2 words a pair)  ────────    round 1
//!   ── corrections (64 words an element) ──────────▶
//!   ── W corrections, P + 1 offsets, digest ───────▶    round 2
//! ```
//!
//! Each message is cut into flights so no frame outgrows a few
//! megabytes: key columns and the tail by [`MAX_FLIGHT_PAIRS`] pairs,
//! corrections by [`MAX_FLIGHT_TRIPLES`] triples. The tail's last word is
//! S₁'s digest of the key columns it absorbed; S₂ compares it with its
//! own, so a corrupted or desynchronised transcript fails loudly.
//!
//! Cost per Count of `P` pairs and `T` triples (pinned by
//! [`count_offline_ledger`], the golden fixture of
//! `crates/core/tests/offline_equivalence.rs` and measured == modeled on
//! every link): `2·64·P` extended OTs and
//! `16·(2·64·P) + 8·64·(6T + 2P) + 8·(P + 1) + 8` bytes in two rounds,
//! plus one base-OT setup in one direction ([`ot_setup_ledger`]).

use crate::channel::OfflineLedger;
use crate::dealer::PairDealer;
use crate::ot::{
    simulated_base_ots, transcript_digest, CotReceiver, CotSender, OleElement, BASE_OT_BYTES,
    BASE_OT_ROUNDS, OT_KAPPA,
};
use crate::prg::SplitMix64;
use crate::simd::SimdTier;
use crate::transport::{recv_msg, send_msg, Transport};
use crate::triple_mul::{mask_round, pair_key, PairRun, PairTable};
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


/// Pairs per key-column and tail flight: a key flight carries
/// `κ · 2 · 1 024` words (2 MiB), a tail flight `129 · 1 024`.
pub const MAX_FLIGHT_PAIRS: usize = 1024;

/// Triples per correction flight: `6 · 64 · 512` words (1.5 MiB).
pub const MAX_FLIGHT_TRIPLES: usize = 512;

/// Key units per pair: S₂'s `λ⁽²⁾_p` is unit `2p`, its `Y⁽²⁾_p` unit
/// `2p + 1`.
const UNITS_PER_PAIR: usize = 2;

/// The elements of a triple `[a, b, c]`, as indices into its slots:
/// (the S₂ key's pair, S₁'s factor's pair, the pair whose `M` it lands
/// on).
const TRIPLE_ELEMENTS: [(usize, usize, usize); 6] =
    [(1, 0, 2), (0, 1, 2), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 2, 0)];

/// The one-time setup cost of OT-extension mode: κ base OTs for the one
/// extension direction (S₂ receives), paid once per protocol execution.
pub fn ot_setup_ledger() -> OfflineLedger {
    OfflineLedger {
        base_ots: OT_KAPPA as u64,
        extended_ots: 0,
        bytes: OT_KAPPA as u64 * BASE_OT_BYTES,
        rounds: BASE_OT_ROUNDS,
    }
}

/// The offline cost of one Count's dialogue over `pairs` pairs and
/// `triples` triples — the formula every OT-mode Count path tallies,
/// pinned by the byte-count fixtures: `2·64·P` extended OTs, their key
/// columns (16 B an OT), 64 correction words for each of the `6T + 2P`
/// elements, `P + 1` offsets and one digest word, in two rounds.
pub fn count_offline_ledger(pairs: u64, triples: u64) -> OfflineLedger {
    let ots = UNITS_PER_PAIR as u64 * 64 * pairs;
    let elements = 6 * triples + UNITS_PER_PAIR as u64 * pairs;
    OfflineLedger {
        base_ots: 0,
        extended_ots: ots,
        bytes: 16 * ots + 8 * 64 * elements + 8 * (pairs + 1) + 8,
        rounds: 2,
    }
}

/// The key-column and tail flights of a Count over `pairs` pairs: runs
/// of at most [`MAX_FLIGHT_PAIRS`] slots, and one empty run if there
/// are none (the tail still carries the Count word and the digest).
pub fn pair_flights(pairs: usize) -> Vec<std::ops::Range<usize>> {
    let mut flights: Vec<_> =
        (0..pairs).step_by(MAX_FLIGHT_PAIRS).map(|p| p..(p + MAX_FLIGHT_PAIRS).min(pairs)).collect();
    if flights.is_empty() {
        flights.push(0..0);
    }
    flights
}

/// One pair's contribution to a chunk's plan: the triples
/// `(i, j, k)` for `groups` consecutive `k`, starting `start` past
/// `j + 1` — the dense cube's whole `k`-range, or one contiguous run of
/// surviving `k`s of a sparse plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgDraw {
    /// Outer pair index `i`.
    pub i: u32,
    /// Outer pair index `j`.
    pub j: u32,
    /// Offset of the run's first `k` past `j + 1` (`0` for the dense
    /// cube).
    pub start: u32,
    /// Triples in the run.
    pub groups: u32,
}

impl MgDraw {
    /// A draw of a pair's first `groups` triples — the dense
    /// full-`k`-range shape.
    pub fn dense(i: u32, j: u32, groups: u32) -> Self {
        MgDraw {
            i,
            j,
            start: 0,
            groups,
        }
    }

    /// The `k` of the draw's triple number `offset`:
    /// `(i, j, j + 1 + start + offset)`.
    pub fn k_at(&self, offset: usize) -> usize {
        self.j as usize + 1 + self.start as usize + offset
    }
}

/// One triple of a Count's plan as the offline phase reads it: the pair
/// table slots of its pairs `(i, j)`, `(i, k)`, `(j, k)` and its sign
/// mask (`0` adds the triple, `!0` subtracts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTriple {
    /// The slots of `(i, j)`, `(i, k)` and `(j, k)`.
    pub slots: [usize; 3],
    /// The sign mask.
    pub minus: u64,
}

/// Appends the triples of `runs` to `out` in run order, each with its
/// sign from `signs` (plan order, [`PairRun::at`]); none means every
/// triple adds.
pub fn push_triples(runs: &[PairRun], signs: Option<&[u64]>, out: &mut Vec<SlotTriple>) {
    for run in runs {
        let [ij, ik, jk] = run.slots;
        out.extend((0..run.len).map(|t| SlotTriple {
            slots: [ij, ik + t, jk + t],
            minus: signs.map_or(0, |s| s[run.at + t]),
        }));
    }
}

/// `v` under the sign mask `minus`.
#[inline]
fn signed(minus: u64, v: u64) -> u64 {
    (v ^ minus).wrapping_sub(minus)
}

/// What one server computes alone: its mask shares `λ⁽ˢ⁾` by slot,
/// `Y⁽ˢ⁾_p = Σ_{t∋p} sₜ·λ⁽ˢ⁾·λ⁽ˢ⁾` over the other two pairs of each
/// triple through `p` — its own part of `M_p` — and its own part of
/// `W`, `Σₜ sₜ·λ⁽ˢ⁾_a·λ⁽ˢ⁾_b·λ⁽ˢ⁾_c`.
#[derive(Debug, Clone)]
struct Local {
    lam: Vec<u64>,
    y: Vec<u64>,
    w: u64,
}

impl Local {
    fn new(table: &PairTable, triples: &[SlotTriple]) -> Self {
        let lam = table.mask_shares().to_vec();
        let mut local = Local { y: vec![0; lam.len()], lam, w: 0 };
        for t in triples {
            let [a, b, c] = t.slots;
            let [la, lb, lc] = t.slots.map(|s| local.lam[s]);
            for (p, product) in [(a, lb.wrapping_mul(lc)), (b, la.wrapping_mul(lc)), (c, la.wrapping_mul(lb))] {
                local.y[p] = local.y[p].wrapping_add(signed(t.minus, product));
            }
            local.w = local.w.wrapping_add(signed(t.minus, la.wrapping_mul(lb).wrapping_mul(lc)));
        }
        local
    }

    fn pairs(&self) -> usize {
        self.lam.len()
    }

    /// The hash tweak of the element under key unit `unit` landing on
    /// slot `dest` (`P` for `W`): unique per element, whichever flight or
    /// worker corrects it.
    fn tweak(&self, unit: usize, dest: usize) -> u64 {
        (unit as u64).wrapping_mul(self.pairs() as u64 + 1).wrapping_add(dest as u64) << 6
    }

    /// The `M` elements of `triples` in order, with the slot each lands
    /// on; S₁'s correlations into `a` when given.
    fn m_elements(&self, triples: &[SlotTriple], mut a: Option<&mut Vec<u64>>) -> (Vec<OleElement>, Vec<usize>) {
        let n = 6 * triples.len();
        let (mut elements, mut dests) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for t in triples {
            for (key, factor, dest) in TRIPLE_ELEMENTS {
                let unit = UNITS_PER_PAIR * t.slots[key];
                elements.push(OleElement { unit: unit as u32, tweak: self.tweak(unit, t.slots[dest]) });
                dests.push(t.slots[dest]);
                if let Some(a) = a.as_deref_mut() {
                    a.push(signed(t.minus, self.lam[t.slots[factor]]));
                }
            }
        }
        (elements, dests)
    }

    /// The two `W` elements of each pair of `range`: key units `2q`
    /// and `2q + 1`.
    fn w_elements(&self, range: std::ops::Range<usize>) -> Vec<OleElement> {
        let w = self.pairs();
        range
            .flat_map(|q| [UNITS_PER_PAIR * q, UNITS_PER_PAIR * q + 1])
            .map(|unit| OleElement { unit: unit as u32, tweak: self.tweak(unit, w) })
            .collect()
    }
}

/// The single extension direction's base-OT seed of a Count under
/// `root`, domain-separated from every pair stream.
fn base_ot_seed(root: u64) -> u64 {
    SplitMix64::new(root ^ 0x165667B19E3779F9).next_u64()
}

/// Folds one key flight into a running transcript digest.
fn fold_digest(digest: u64, u: &[u64]) -> u64 {
    transcript_digest(&[digest, transcript_digest(u)])
}

/// Server S₁'s half of a Count's offline dialogue: the OT sender.
///
/// Build it from S₁'s opened [`PairTable`] (its mask shares and dealer
/// words) and the plan's triples, then drive
/// [`absorb_keys`](Self::absorb_keys) once per key flight,
/// [`corrections`](Self::corrections) once per correction flight, and
/// [`tail`](Self::tail); out of order, it panics.
#[derive(Debug, Clone)]
pub struct OfflineS1 {
    root: u64,
    local: Local,
    /// S₁'s dealer words `⟨M_p⟩₁` by slot: the derandomisation targets.
    words: Vec<u64>,
    sender: CotSender,
    /// Key flights absorbed so far, and the digest of their columns.
    keys: usize,
    digest: u64,
    /// `Σ −Σm⁰` per slot over the `M` elements corrected so far.
    raw: Vec<u64>,
}

impl OfflineS1 {
    /// S₁'s endpoint over `table` (S₁'s, preprocessed, every pair
    /// opened) and the plan's `triples`.
    ///
    /// # Panics
    /// Panics unless `table` is such a table.
    pub fn new(table: &PairTable, triples: &[SlotTriple]) -> Self {
        let words = table.pair_words().to_vec();
        assert_eq!(words.len(), table.len(), "S₁'s preprocessed table keeps every pair word");
        let local = Local::new(table, triples);
        OfflineS1 {
            root: table.seed(),
            sender: simulated_base_ots(base_ot_seed(table.seed())).0,
            keys: 0,
            digest: 0,
            raw: vec![0; local.pairs()],
            local,
            words,
        }
    }

    /// Step 1: absorbs S₂'s next key flight.
    pub fn absorb_keys(&mut self, tier: SimdTier, u: &[u64]) {
        let flights = pair_flights(self.local.pairs());
        let flight = flights.get(self.keys).expect("offline protocol out of lockstep: a key flight too many");
        assert_eq!(u.len(), OT_KAPPA * UNITS_PER_PAIR * flight.len(), "key flight {} size", self.keys);
        self.sender.absorb(tier, u);
        self.digest = fold_digest(self.digest, u);
        self.keys += 1;
    }

    /// Step 2: the corrections of one flight of triples (64 words per
    /// element, six elements a triple, in order), each element's share
    /// added to the `M` it lands on.
    pub fn corrections(&mut self, tier: SimdTier, triples: &[SlotTriple]) -> Vec<u64> {
        assert_eq!(self.keys, pair_flights(self.local.pairs()).len(), "offline protocol out of lockstep");
        let mut a = Vec::with_capacity(6 * triples.len());
        let (elements, dests) = self.local.m_elements(triples, Some(&mut a));
        let (mut d, mut sums) = (vec![0; 64 * elements.len()], vec![0; elements.len()]);
        self.sender.correct(tier, &elements, &a, &mut d, &mut sums);
        for (dest, m0) in dests.into_iter().zip(sums) {
            self.raw[dest] = self.raw[dest].wrapping_sub(m0);
        }
        d
    }

    /// Step 3: the tail flights — per pair the corrections of its two
    /// `W` elements, then per pair its offset `raw₁ − ⟨M_p⟩₁`; the last
    /// flight ends with the `W` offset and the key columns' digest.
    pub fn tail(&self, tier: SimdTier) -> Vec<Vec<u64>> {
        assert_eq!(self.keys, pair_flights(self.local.pairs()).len(), "offline protocol out of lockstep");
        let Local { lam, y, w, .. } = &self.local;
        let mut w_raw = *w;
        let mut flights = Vec::new();
        for range in pair_flights(self.local.pairs()) {
            let a: Vec<u64> = range.clone().flat_map(|q| [y[q], lam[q]]).collect();
            let elements = self.local.w_elements(range.clone());
            let mut msg = vec![0; 64 * elements.len()];
            let mut sums = vec![0; elements.len()];
            self.sender.correct(tier, &elements, &a, &mut msg, &mut sums);
            w_raw = sums.into_iter().fold(w_raw, u64::wrapping_sub);
            msg.extend(range.map(|p| y[p].wrapping_add(self.raw[p]).wrapping_sub(self.words[p])));
            flights.push(msg);
        }
        let last = flights.last_mut().expect("at least one tail flight");
        last.extend([w_raw.wrapping_sub(PairDealer::count_word(self.root)), self.digest]);
        flights
    }
}

/// Server S₂'s half of a Count's offline dialogue: the OT receiver.
///
/// Build it from S₂'s opened [`PairTable`] and the plan's triples, then
/// drive [`keys`](Self::keys), [`receive`](Self::receive) once per
/// correction flight and [`finish`](Self::finish).
#[derive(Debug, Clone)]
pub struct OfflineS2 {
    local: Local,
    receiver: CotReceiver,
    extended: bool,
    digest: u64,
    /// `Σ` finished sums per slot over the `M` elements received so far.
    raw: Vec<u64>,
}

impl OfflineS2 {
    /// S₂'s endpoint over its opened `table` and the plan's `triples`.
    pub fn new(table: &PairTable, triples: &[SlotTriple]) -> Self {
        let local = Local::new(table, triples);
        OfflineS2 {
            receiver: simulated_base_ots(base_ot_seed(table.seed())).1,
            extended: false,
            digest: 0,
            raw: vec![0; local.pairs()],
            local,
        }
    }

    /// Step 1: extends one unit per key — `λ⁽²⁾_p` and `Y⁽²⁾_p` of every
    /// pair — and returns the key flights' columns.
    pub fn keys(&mut self, tier: SimdTier) -> Vec<Vec<u64>> {
        assert!(!self.extended, "offline protocol out of lockstep: keys extended twice");
        self.extended = true;
        let Local { lam, y, .. } = &self.local;
        let mut flights = Vec::new();
        for range in pair_flights(lam.len()) {
            let choice: Vec<u64> = range.flat_map(|q| [lam[q], y[q]]).collect();
            let mut u = vec![0; OT_KAPPA * choice.len()];
            self.receiver.extend(tier, &choice, &mut u);
            self.digest = fold_digest(self.digest, &u);
            flights.push(u);
        }
        flights
    }

    /// Step 2: finishes one flight of triples against S₁'s corrections
    /// `d`, each element's share added to the `M` it lands on.
    ///
    /// # Panics
    /// Panics if `d` is not 64 words per element of the flight.
    pub fn receive(&mut self, tier: SimdTier, triples: &[SlotTriple], d: &[u64]) {
        assert!(self.extended, "offline protocol out of lockstep");
        let (elements, dests) = self.local.m_elements(triples, None);
        assert_eq!(d.len(), 64 * elements.len(), "offline correction flight size mismatch");
        let mut sums = vec![0; elements.len()];
        self.receiver.receive(tier, &elements, d, &mut sums);
        for (dest, sum) in dests.into_iter().zip(sums) {
            self.raw[dest] = self.raw[dest].wrapping_add(sum);
        }
    }

    /// Step 3: absorbs S₁'s tail flights and returns S₂'s material:
    /// `M_p − ⟨M_p⟩₁` by slot and `W − ⟨W⟩₁`.
    ///
    /// # Panics
    /// Panics if the tail is off the flight structure or its digest
    /// disagrees with the key columns S₂ sent.
    pub fn finish(&self, tier: SimdTier, tail: &[Vec<u64>]) -> (Vec<u64>, u64) {
        let flights = pair_flights(self.local.pairs());
        assert_eq!(tail.len(), flights.len(), "offline tail flights");
        let Local { y, w, .. } = &self.local;
        let (mut words, mut w_raw) = (Vec::with_capacity(self.local.pairs()), *w);
        for (f, (range, msg)) in flights.into_iter().zip(tail).enumerate() {
            let elements = self.local.w_elements(range.clone());
            let last = if f + 1 == tail.len() { 2 } else { 0 };
            assert_eq!(msg.len(), 64 * elements.len() + range.len() + last, "offline tail flight {f} size");
            let (d, offsets) = msg.split_at(64 * elements.len());
            let mut sums = vec![0; elements.len()];
            self.receiver.receive(tier, &elements, d, &mut sums);
            w_raw = sums.into_iter().fold(w_raw, u64::wrapping_add);
            words.extend(range.zip(offsets).map(|(p, c)| y[p].wrapping_add(self.raw[p]).wrapping_add(*c)));
        }
        let end = tail.last().expect("at least one tail flight");
        let &[c_w, digest] = &end[end.len() - 2..] else { unreachable!() };
        assert_eq!(digest, self.digest, "offline transcript diverged (consistency hash mismatch)");
        (words, w_raw.wrapping_add(c_w))
    }
}

/// Sends one offline-phase message; `words` move into the frame
/// uncopied.
fn send_off<T: Transport>(link: &T, flight: usize, step: u8, words: Vec<u64>) {
    let msg = OfflineMsg { chunk: 0, flight: flight as u32, step, words };
    send_msg(link, msg).expect("peer hung up (offline)");
}

/// Receives the peer's next offline message, asserting lockstep.
fn recv_off<T: Transport>(link: &T, flight: usize, step: u8) -> Vec<u64> {
    let m: OfflineMsg = recv_msg(link, 0, Some(link.recv_timeout()))
        .unwrap_or_else(|e| panic!("peer lost during offline dialogue: {e}"));
    assert_eq!((m.flight, m.step), (flight as u32, step), "offline flight out of lockstep");
    m.words
}

/// Runs `table`'s server's half of the Count's offline dialogue against
/// the peer over `link`, after the pair rounds, over the plan's
/// `triples` (both servers list them alike), and installs the material
/// in `table` ([`PairTable::count_term`]). Tally
/// [`count_offline_ledger`] beside it: the payload it moves is exactly
/// that.
pub fn pair_offline_over_wire<T: Transport>(link: &T, table: &mut PairTable, triples: &[SlotTriple]) {
    let tier = SimdTier::detect();
    match table.server() {
        ServerId::S1 => {
            let mut s1 = OfflineS1::new(table, triples);
            for f in 0..pair_flights(table.len()).len() {
                s1.absorb_keys(tier, &recv_off(link, f, 1));
            }
            for (f, flight) in triples.chunks(MAX_FLIGHT_TRIPLES).enumerate() {
                send_off(link, f, 2, s1.corrections(tier, flight));
            }
            for (f, msg) in s1.tail(tier).into_iter().enumerate() {
                send_off(link, f, 3, msg);
            }
            table.install(None);
        }
        ServerId::S2 => {
            let mut s2 = OfflineS2::new(table, triples);
            for (f, u) in s2.keys(tier).into_iter().enumerate() {
                send_off(link, f, 1, u);
            }
            for (f, flight) in triples.chunks(MAX_FLIGHT_TRIPLES).enumerate() {
                s2.receive(tier, flight, &recv_off(link, f, 2));
            }
            let tail: Vec<_> = (0..pair_flights(table.len()).len()).map(|f| recv_off(link, f, 3)).collect();
            let (words, count) = s2.finish(tier, &tail);
            table.install(Some((&words, count)));
        }
    }
}

/// Both servers' halves of the offline dialogue in one process, over
/// their opened `tables` and the plan's `triples`: the wire dialogue
/// with the link cut out. Installs each server's material and returns
/// S₂'s.
pub fn pair_offline_in_process(tables: &mut [PairTable; 2], triples: &[SlotTriple]) -> (Vec<u64>, u64) {
    let tier = SimdTier::detect();
    let mut s1 = OfflineS1::new(&tables[0], triples);
    let mut s2 = OfflineS2::new(&tables[1], triples);
    for u in s2.keys(tier) {
        s1.absorb_keys(tier, &u);
    }
    for flight in triples.chunks(MAX_FLIGHT_TRIPLES) {
        let d = s1.corrections(tier, flight);
        s2.receive(tier, flight, &d);
    }
    let (words, count) = s2.finish(tier, &s1.tail(tier));
    tables[0].install(None);
    tables[1].install(Some((&words, count)));
    (words, count)
}

/// Both servers' opened pair tables over the pairs `draws` read, and
/// the draws' triples over them: the Count a plan of draws is, slot
/// `p` opened to `p · step` (the offline phase reads no opening).
pub(crate) fn draw_tables(root: u64, draws: &[MgDraw], step: u64) -> ([PairTable; 2], Vec<SlotTriple>) {
    let mut pairs: Vec<(u32, u32)> = draws
        .iter()
        .flat_map(|d| (0..d.groups as usize).flat_map(move |g| {
            let k = d.k_at(g) as u32;
            [(d.i, d.j), (d.i, k), (d.j, k)]
        }))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let slot = |p: (u32, u32)| pairs.binary_search(&p).expect("a pair of the plan");
    let (mut runs, mut at) = (Vec::new(), 0);
    for d in draws {
        assert!(d.groups > 0, "empty draw in offline plan");
        let k = d.k_at(0) as u32;
        runs.push(PairRun { slots: [slot((d.i, d.j)), slot((d.i, k)), slot((d.j, k))], len: d.groups as usize, at });
        at += d.groups as usize;
    }
    let mut triples = Vec::new();
    push_triples(&runs, None, &mut triples);
    let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
    let opened: Vec<u64> = (0..keys.len() as u64).map(|p| p.wrapping_mul(step)).collect();
    let tables = [ServerId::S1, ServerId::S2].map(|s| {
        let mut table = PairTable::new(root, s, true);
        mask_round(&mut table, &keys, &opened, &mut vec![0; keys.len()]);
        table.push(&opened);
        table
    });
    (tables, triples)
}

/// In-process driver of the offline dialogue over a plan of draws: the
/// Count those draws are, both servers in turn
/// ([`pair_offline_in_process`]), its ledger tallied.
///
/// Pinned by the benchmark's trace probes, which call
/// [`Self::for_chunk`], [`Self::preprocess`] and [`Self::ledger`] on a
/// chunk's draws.
#[derive(Debug, Clone)]
pub struct OtMgEngine {
    root: u64,
    ledger: OfflineLedger,
}

impl OtMgEngine {
    /// The engine for Counts under `root`; `_session` is ignored (a
    /// Count extends its keys once, whatever its chunks).
    pub fn for_chunk(root: u64, _session: u64) -> Self {
        OtMgEngine { root, ledger: OfflineLedger::new() }
    }

    /// Runs the dialogue over the Count of `plan`'s triples and returns
    /// S₂'s material: `M_p − ⟨M_p⟩₁` by pair (pairs in sorted order) and
    /// `W − ⟨W⟩₁`.
    pub fn preprocess(&mut self, plan: &[MgDraw]) -> (Vec<u64>, u64) {
        let (mut tables, triples) = draw_tables(self.root, plan, 0);
        let material = pair_offline_in_process(&mut tables, &triples);
        self.ledger.merge(&count_offline_ledger(tables[0].len() as u64, triples.len() as u64));
        material
    }

    /// The offline traffic this engine has generated so far (excludes
    /// the base-OT setup, which is tallied once per run).
    pub fn ledger(&self) -> OfflineLedger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::mask_prf;
    use crate::transport::memory_pair;

    /// The material a plan of draws must derandomise onto, by the naive
    /// triple loop over the full masks: `M_p − ⟨M_p⟩₁` by sorted pair and
    /// `W − ⟨W⟩₁`.
    fn naive_material(root: u64, draws: &[MgDraw]) -> (Vec<u64>, u64) {
        let triples: Vec<[(u32, u32); 3]> = draws
            .iter()
            .flat_map(|d| (0..d.groups as usize).map(move |g| {
                let k = d.k_at(g) as u32;
                [(d.i, d.j), (d.i, k), (d.j, k)]
            }))
            .collect();
        let mut pairs: Vec<(u32, u32)> = triples.iter().flatten().copied().collect();
        pairs.sort_unstable();
        pairs.dedup();
        let lambda = |(i, j): (u32, u32)| {
            mask_prf(root, ServerId::S1, i, j).wrapping_add(mask_prf(root, ServerId::S2, i, j))
        };
        let mut m = vec![0u64; pairs.len()];
        let mut w = 0u64;
        for t in &triples {
            let [a, b, c] = t.map(lambda);
            for (p, product) in [(t[0], b.wrapping_mul(c)), (t[1], a.wrapping_mul(c)), (t[2], a.wrapping_mul(b))] {
                let slot = pairs.binary_search(&p).unwrap();
                m[slot] = m[slot].wrapping_add(product);
            }
            w = w.wrapping_add(a.wrapping_mul(b).wrapping_mul(c));
        }
        let words = pairs.iter().zip(m).map(|(&(i, j), m)| m.wrapping_sub(PairDealer::pair_word(root, i, j)));
        (words.collect(), w.wrapping_sub(PairDealer::count_word(root)))
    }

    #[test]
    fn ot_groups_are_bit_identical_to_the_dealer_streams() {
        // The headline property: S₂'s words are M_p less S₁'s dealer
        // word for every pair of the plan, and W less its Count word —
        // which requires every Gilboa product to be right (S₂'s words
        // are built from OT outputs, not from the dealer's words).
        let plan = [MgDraw::dense(0, 1, 3), MgDraw::dense(3, 7, 1), MgDraw::dense(100, 102, 8)];
        let material = OtMgEngine::for_chunk(42, 9).preprocess(&plan);
        assert_eq!(material.0.len(), 7 + 3 + 17, "one word per pair read");
        assert_eq!(material, naive_material(42, &plan));
    }

    #[test]
    fn start_offset_draws_land_on_the_canonical_stream_positions() {
        // A sparse plan's run starts `start` past `j + 1`: its triples
        // are (i, j, j + 1 + start + g), whatever the draws beside it.
        let plan = [
            MgDraw { i: 4, j: 9, start: 17, groups: 3 },
            MgDraw::dense(4, 9, 2),
            MgDraw { i: 8, j: 1, start: 1, groups: 5 },
        ];
        assert_eq!(OtMgEngine::for_chunk(99, 3).preprocess(&plan), naive_material(99, &plan));
        assert_eq!(plan[0].k_at(0), 27);
    }

    #[test]
    fn session_keying_does_not_leak_into_the_shares() {
        // The engine's session id keys nothing: a Count extends its keys
        // once, whatever its chunks.
        let plan = [MgDraw::dense(2, 5, 4)];
        let a = OtMgEngine::for_chunk(7, 0).preprocess(&plan);
        let b = OtMgEngine::for_chunk(7, 31).preprocess(&plan);
        assert_eq!(a, b);
    }

    #[test]
    fn ot_groups_satisfy_all_product_relations() {
        // With openings that are not zero, both servers' Count terms sum
        // to the Count-level part of Σ d: W + Σ_p e_p·M_p.
        let plan = [MgDraw::dense(1, 2, 16), MgDraw::dense(2, 3, 5)];
        let step = 0x9E37_79B9;
        let (mut tables, triples) = draw_tables(7, &plan, step);
        let opened: Vec<u64> = (0..tables[0].len() as u64).map(|p| p.wrapping_mul(step)).collect();
        pair_offline_in_process(&mut tables, &triples);
        let (words, count) = naive_material(7, &plan);
        let s1_words = tables[0].pair_words().to_vec();
        let want = opened.iter().zip(words.iter().zip(&s1_words)).fold(
            count.wrapping_add(PairDealer::count_word(7)),
            |sum, (e, (m2, m1))| sum.wrapping_add(e.wrapping_mul(m2.wrapping_add(*m1))),
        );
        assert_eq!(tables[0].count_term().wrapping_add(tables[1].count_term()), want);
    }

    #[test]
    fn ledger_matches_the_pinned_formula() {
        // 5 triples over 11 pairs: 128 OTs a pair, 6 elements a triple
        // and 2 a pair, 11 + 1 offsets and one digest, two rounds.
        let plan = [MgDraw::dense(0, 1, 4), MgDraw::dense(0, 2, 1)];
        let mut engine = OtMgEngine::for_chunk(1, 0);
        let (words, _) = engine.preprocess(&plan);
        assert_eq!(words.len(), 10);
        let l = engine.ledger();
        assert_eq!(l.extended_ots, 128 * 10);
        assert_eq!(l.bytes, 2048 * 10 + 512 * (6 * 5 + 2 * 10) + 8 * 11 + 8);
        assert_eq!(l.rounds, 2);
        assert_eq!(l.base_ots, 0, "base OTs are a per-run setup cost");
        assert_eq!(l, count_offline_ledger(10, 5), "closed form agrees");
        let setup = ot_setup_ledger();
        assert_eq!(setup.base_ots, 128);
        assert_eq!(setup.bytes, 128 * BASE_OT_BYTES);
    }

    #[test]
    fn oversized_plans_split_into_flights_at_pair_boundaries() {
        assert_eq!(pair_flights(2500), vec![0..1024, 1024..2048, 2048..2500]);
        assert_eq!(pair_flights(1024), vec![0..1024]);
        assert_eq!(pair_flights(0), vec![0..0], "the tail always flies");
    }

    #[test]
    fn flight_split_does_not_change_the_material() {
        // 1 500 triples through (0, 1): 3 001 pairs, so three key and
        // tail flights and three correction flights.
        let plan = [MgDraw::dense(0, 1, 1500)];
        let mut engine = OtMgEngine::for_chunk(5, 2);
        let material = engine.preprocess(&plan);
        assert_eq!(pair_flights(material.0.len()).len(), 3);
        assert_eq!(1500usize.div_ceil(MAX_FLIGHT_TRIPLES), 3);
        assert_eq!(material, naive_material(5, &plan));
    }

    /// Both machines of one Count over `plan`, every message through an
    /// explicit "wire" Vec, `tamper` applied to the key columns on the
    /// way; S₂'s material.
    fn explicit_wire(root: u64, plan: &[MgDraw], tamper: impl Fn(&mut Vec<u64>)) -> (Vec<u64>, u64) {
        let (tables, triples) = draw_tables(root, plan, 0);
        let tier = SimdTier::detect();
        let mut s1 = OfflineS1::new(&tables[0], &triples);
        let mut s2 = OfflineS2::new(&tables[1], &triples);
        for mut wire_u in s2.keys(tier) {
            tamper(&mut wire_u);
            s1.absorb_keys(tier, &wire_u);
        }
        for flight in triples.chunks(MAX_FLIGHT_TRIPLES) {
            let wire_d: Vec<u64> = s1.corrections(tier, flight);
            s2.receive(tier, flight, &wire_d);
        }
        let wire_tail: Vec<Vec<u64>> = s1.tail(tier);
        s2.finish(tier, &wire_tail)
    }

    #[test]
    fn party_machines_over_an_explicit_wire_match_the_dealer() {
        // Every value that crosses between the machines goes through an
        // explicit wire Vec: the API carries everything each side needs.
        let plan = [MgDraw::dense(2, 9, 2), MgDraw::dense(2, 10, 3), MgDraw::dense(2, 11, 2)];
        assert_eq!(explicit_wire(0xFEED, &plan, |_| {}), naive_material(0xFEED, &plan));
    }

    #[test]
    fn offline_dialogue_over_a_real_transport_matches_the_dealer() {
        // The transport driver must reproduce the in-process dialogue
        // exactly — same Count terms — and the measured offline payload
        // is the modeled ledger.
        let plan = [MgDraw::dense(0, 1, 3), MgDraw::dense(4, 7, 5)];
        let (mut local, triples) = draw_tables(11, &plan, 0);
        pair_offline_in_process(&mut local, &triples);
        let (end1, end2) = memory_pair();
        let [mut t1, mut t2] = draw_tables(11, &plan, 0).0;
        std::thread::scope(|scope| {
            scope.spawn(|| pair_offline_over_wire(&end1, &mut t1, &triples));
            scope.spawn(|| pair_offline_over_wire(&end2, &mut t2, &triples));
        });
        assert_eq!([t1.count_term(), t2.count_term()], local.each_ref().map(|t| t.count_term()));
        let modeled = count_offline_ledger(local[0].len() as u64, triples.len() as u64);
        assert_eq!(end1.stats().offline_payload_both(), modeled.bytes, "measured offline payload == modeled ledger");
    }

    #[test]
    #[should_panic(expected = "out of lockstep")]
    fn out_of_order_calls_panic() {
        let (tables, triples) = draw_tables(1, &[MgDraw::dense(0, 1, 1)], 0);
        let mut s1 = OfflineS1::new(&tables[0], &triples);
        s1.corrections(SimdTier::detect(), &triples);
    }

    #[test]
    #[should_panic(expected = "consistency hash")]
    fn tampered_transcript_is_detected() {
        explicit_wire(3, &[MgDraw::dense(0, 1, 1)], |u| u[0] ^= 1);
    }

    #[test]
    fn a_bit_flipped_in_transit_anywhere_in_a_u_message_kills_the_flight() {
        // The digest end to end: whichever word of the key columns
        // loses a bit on the way — first word, one deep inside, last
        // word — S₂ sees S₁'s digest disagree when the tail comes back.
        let plan = [MgDraw::dense(0, 1, 2), MgDraw::dense(0, 2, 1)];
        let u_words = OT_KAPPA * UNITS_PER_PAIR * 6;
        for (word, bit) in [(0, 0), (5 * 32 + 17, 63), (u_words - 1, 31)] {
            let died = std::panic::catch_unwind(|| {
                explicit_wire(3, &plan, |u| {
                    assert_eq!(u.len(), u_words);
                    u[word] ^= 1 << bit;
                })
            })
            .expect_err("a corrupted transcript must not be absorbed");
            let msg = died.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("offline transcript diverged (consistency hash mismatch)"), "word {word} bit {bit}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "empty draw")]
    fn zero_group_draws_are_rejected() {
        OtMgEngine::for_chunk(1, 0).preprocess(&[MgDraw::dense(0, 1, 0)]);
    }

    #[test]
    fn offline_mode_parses_and_displays() {
        assert_eq!("dealer".parse::<OfflineMode>(), Ok(OfflineMode::TrustedDealer));
        assert_eq!("ot-extension".parse::<OfflineMode>(), Ok(OfflineMode::OtExtension));
        assert!("quantum".parse::<OfflineMode>().is_err());
        assert_eq!(OfflineMode::TrustedDealer.to_string(), "dealer");
    }
}
