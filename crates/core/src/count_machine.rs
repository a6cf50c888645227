//! One server's Count as a machine with no I/O in it: its pair rounds
//! ([`PairPhase`], [`mask_round`], [`PairTable::push`]) and, in OT mode,
//! its half of the offline dialogue ([`OfflineS1`], [`OfflineS2`]).
//! [`ServerCount::poll`] takes the peer's message it awaited, if any,
//! and names the next [`Step`]. Two drivers run the machines:
//! `count_local` both in one thread, `count_party` one against its peer
//! on a link. Every check on the peer's data is a [`CountError`] value;
//! a failed machine returns its error on every later poll and sends
//! nothing more.

use crate::count::AdjacencyBits;
use crate::pair_phase::PairPhase;
use cargo_mpc::{
    mask_round, pair_flights, Mismatch, OfflineError, OfflineMsg, OfflineS1, OfflineS2,
    PairOpeningMsg, PairTable, RecvError, ServerId, SimdTier, SlotTriple, MAX_FLIGHT_TRIPLES,
};
use std::fmt;

/// A message between two servers' machines.
#[derive(Debug)]
pub(crate) enum CountMsg {
    Pair(PairOpeningMsg),
    Offline(OfflineMsg),
}

/// What a machine awaits: the peer's words of pair round `round`, headed
/// by `pair`, or its flight `flight` of offline step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Awaited {
    Pair { round: u32, pair: (u32, u32) },
    Offline { flight: u32, step: u8 },
}

/// What a machine's driver does next: send the message, poll again with
/// the awaited message, or take the finished table
/// ([`ServerCount::into_parts`]).
#[derive(Debug)]
pub(crate) enum Step {
    Send(CountMsg),
    Await(Awaited),
    Done,
}

/// Why a Count stopped: a driver's link failed a send (`offline` for an
/// offline flight) or a receive; the peer's data is off this server's
/// cut — a pair round's, an offline flight of another `(flight, step)`,
/// offline words that do not fit; or a machine was handed a message it
/// did not await. Its text is one line naming the check it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CountError {
    Send { offline: bool, error: RecvError },
    Recv { awaited: Awaited, error: RecvError },
    Round { round: u32, pair: (u32, u32), check: RoundCheck },
    Flight(Mismatch<(u32, u8)>),
    Offline(OfflineError),
    Unexpected,
}

/// The lockstep check a pair round's words failed: another round, first
/// pair, number of words, or fold of the new pair keys (the peer keeps
/// other openings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundCheck {
    Round(Mismatch<u32>),
    Pair(Mismatch<(u32, u32)>),
    Slab(Mismatch<usize>),
    Fold(Mismatch<u32>),
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Send { offline: false, error } => write!(f, "peer hung up: {error:?}"),
            CountError::Send { offline: true, error } => write!(f, "peer hung up (offline): {error:?}"),
            CountError::Recv { awaited, error } => {
                // A frame that arrived out of step is a diverged peer, not a lost one.
                let peer = if matches!(error, RecvError::Unexpected { .. }) { "peer out of lockstep" } else { "peer lost" };
                match awaited {
                    Awaited::Pair { round, pair } => {
                        write!(f, "{peer} in the online round at pair round {round}, first pair {pair:?}: {error}")
                    }
                    Awaited::Offline { .. } => write!(f, "{peer} during offline dialogue: {error}"),
                }
            }
            CountError::Round { round, pair, check } => {
                let at = format_args!("pair round {round}, first pair {pair:?}");
                match check {
                    RoundCheck::Round(m) => m.write(f, format_args!("peer answered with another round ({at})")),
                    RoundCheck::Pair(m) => m.write(f, format_args!("peer out of lockstep in the round at {at}")),
                    RoundCheck::Slab(m) => m.write(f, format_args!("peer slab size mismatch in the round at {at}")),
                    RoundCheck::Fold(m) => {
                        m.write(f, format_args!("peer out of lockstep past the first pair of the round at {at}"))
                    }
                }
            }
            CountError::Flight(m) => m.write(f, format_args!("offline flight out of lockstep")),
            CountError::Offline(error) => error.fmt(f),
            CountError::Unexpected => f.write_str("a message the Count awaited none for"),
        }
    }
}

/// One server's Count, from its first pair round to its finished
/// [`PairTable`].
pub(crate) struct ServerCount<'a, B> {
    phase: PairPhase<'a, B>,
    table: PairTable,
    /// The plan's triples, where the offline dialogue follows the rounds.
    triples: Option<&'a [SlotTriple]>,
    /// This server's masking of every pair of the round walked last.
    masked: Vec<u64>,
    round: Option<u32>,
    opened: Vec<u64>,
    state: State<'a>,
}

enum State<'a> {
    /// The next poll walks the next pair round.
    Rounds,
    /// This server's words of a round are out.
    Round { round: u32, pair: (u32, u32), fold: u32, len: usize },
    Offline(Box<Offline<'a>>),
    Done,
    Failed(CountError),
}

/// One server's half of the offline dialogue, by step: 1 the key columns
/// S₂ sends, 2 the corrections and 3 the tail S₁ sends.
struct Offline<'a> {
    half: Half,
    triples: &'a [SlotTriple],
    tier: SimdTier,
    /// Each step's flights; the step, and its flight next sent or awaited.
    flights: [usize; 3],
    step: u8,
    flight: usize,
}

enum Half {
    S1(OfflineS1),
    S2(OfflineS2),
}

impl<'a, B: AdjacencyBits> ServerCount<'a, B> {
    /// The machine of `table`'s server over `phase`, running the offline
    /// dialogue over `triples` after the pair rounds where given.
    pub(crate) fn new(phase: PairPhase<'a, B>, table: PairTable, triples: Option<&'a [SlotTriple]>) -> Self {
        let (masked, opened, state) = (Vec::new(), Vec::new(), State::Rounds);
        ServerCount { phase, table, triples, masked, round: None, opened, state }
    }

    /// Moves the machine on, taking `inbox` where it awaits the peer's
    /// message, to its next send or await, or to its end. A message it
    /// does not await is an error.
    pub(crate) fn poll(&mut self, mut inbox: Option<CountMsg>) -> Result<Step, CountError> {
        let step = self.advance(&mut inbox);
        let step = step.and_then(|step| inbox.map_or(Ok(step), |_| Err(CountError::Unexpected)));
        if let Err(error) = &step {
            self.state = State::Failed(error.clone());
        }
        step
    }

    /// In process, `peer` the other server's machine: once both have
    /// masked a round not yet `checked`, checks its kept openings against
    /// the sums of the two maskings, which stay until the next round.
    pub(crate) fn recheck_kept(&self, peer: &Self, checked: &mut Option<u32>) {
        if self.round.is_some() && self.round == peer.round && self.round != *checked {
            self.phase.check_kept([&self.masked, &peer.masked]);
            *checked = self.round;
        }
    }

    /// The finished table, the pairs exchanged, and the new pairs by
    /// slot and key ([`PairPhase::into_fresh`]).
    pub(crate) fn into_parts(self) -> (PairTable, u64, Vec<(usize, u64)>) {
        (self.table, self.phase.exchanged(), self.phase.into_fresh())
    }

    fn advance(&mut self, inbox: &mut Option<CountMsg>) -> Result<Step, CountError> {
        let ServerCount { phase, table, triples, masked, round, opened, state } = self;
        loop {
            match state {
                State::Rounds => {
                    let Some(r) = phase.next_round() else {
                        *state = match triples.take() {
                            Some(triples) => State::Offline(Box::new(Offline::new(table, triples))),
                            None => State::Done,
                        };
                        continue;
                    };
                    let (keys, plain) = phase.read();
                    masked.resize(keys.len(), 0);
                    mask_round(table, keys, plain, masked);
                    *round = Some(r);
                    let Some((pair, fold)) = phase.header() else {
                        // A last round of kept pairs only sends nothing.
                        phase.openings(masked, &[], opened);
                        table.push(opened);
                        continue;
                    };
                    let words = phase.new_words(masked);
                    *state = State::Round { round: r, pair, fold, len: words.len() };
                    return Ok(Step::Send(CountMsg::Pair(PairOpeningMsg { round: r, pair, fold, words })));
                }
                &mut State::Round { round, pair, fold, len } => {
                    let theirs = match inbox.take() {
                        None => return Ok(Step::Await(Awaited::Pair { round, pair })),
                        Some(CountMsg::Pair(theirs)) => theirs,
                        Some(CountMsg::Offline(_)) => return Err(CountError::Unexpected),
                    };
                    let off = |check| CountError::Round { round, pair, check };
                    Mismatch::check(theirs.round, round).map_err(|m| off(RoundCheck::Round(m)))?;
                    Mismatch::check(theirs.pair, pair).map_err(|m| off(RoundCheck::Pair(m)))?;
                    Mismatch::check(theirs.words.len(), len).map_err(|m| off(RoundCheck::Slab(m)))?;
                    Mismatch::check(theirs.fold, fold).map_err(|m| off(RoundCheck::Fold(m)))?;
                    phase.openings(masked, &theirs.words, opened);
                    table.push(opened);
                    *state = State::Rounds;
                }
                State::Offline(off) => match off.next(table, inbox)? {
                    Some(step) => return Ok(step),
                    None => *state = State::Done,
                },
                State::Done => return Ok(Step::Done),
                State::Failed(error) => return Err(error.clone()),
            }
        }
    }
}

impl<'a> Offline<'a> {
    /// The half of `table`'s server.
    fn new(table: &PairTable, triples: &'a [SlotTriple]) -> Self {
        let half = match table.server() {
            ServerId::S1 => Half::S1(OfflineS1::new(table, triples)),
            ServerId::S2 => Half::S2(OfflineS2::new(table, triples)),
        };
        let keys = pair_flights(table.len()).len();
        let flights = [keys, triples.len().div_ceil(MAX_FLIGHT_TRIPLES), keys];
        Offline { half, triples, tier: SimdTier::detect(), flights, step: 1, flight: 0 }
    }

    /// The dialogue's next send or await, taking `inbox` where it awaits;
    /// `None` once its last flight is taken and the material installed in
    /// `table`.
    fn next(&mut self, table: &mut PairTable, inbox: &mut Option<CountMsg>) -> Result<Option<Step>, CountError> {
        loop {
            let (step, flight) = (self.step, self.flight);
            if flight == self.flights[step as usize - 1] {
                if step == 3 {
                    let material = match &mut self.half {
                        Half::S1(_) => None,
                        Half::S2(s2) => Some(s2.finish()),
                    };
                    table.install(material.as_ref().map(|(words, count)| (&words[..], *count)));
                    return Ok(None);
                }
                (self.step, self.flight) = (step + 1, 0);
                continue;
            }
            // S₁ takes the key columns, S₂ the rest.
            if matches!((&self.half, step), (Half::S1(_), 2 | 3) | (Half::S2(_), 1)) {
                let words = match &mut self.half {
                    Half::S1(s1) if step == 2 => s1.corrections(self.tier, flight_triples(self.triples, flight)),
                    Half::S1(s1) => s1.tail(self.tier),
                    Half::S2(s2) => s2.keys(self.tier),
                };
                self.flight += 1;
                return Ok(Some(Step::Send(CountMsg::Offline(OfflineMsg { flight: flight as u32, step, words }))));
            }
            let theirs = match inbox.take() {
                None => return Ok(Some(Step::Await(Awaited::Offline { flight: flight as u32, step }))),
                Some(CountMsg::Offline(theirs)) => theirs,
                Some(CountMsg::Pair(_)) => return Err(CountError::Unexpected),
            };
            Mismatch::check((theirs.flight, theirs.step), (flight as u32, step)).map_err(CountError::Flight)?;
            match &mut self.half {
                Half::S1(s1) => s1.absorb_keys(self.tier, &theirs.words),
                Half::S2(s2) if step == 2 => s2.receive(self.tier, flight_triples(self.triples, flight), &theirs.words),
                Half::S2(s2) => s2.absorb_tail(self.tier, &theirs.words),
            }
            .map_err(CountError::Offline)?;
            self.flight += 1;
        }
    }
}

/// The triples of correction flight `flight`.
fn flight_triples(triples: &[SlotTriple], flight: usize) -> &[SlotTriple] {
    &triples[flight * MAX_FLIGHT_TRIPLES..((flight + 1) * MAX_FLIGHT_TRIPLES).min(triples.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::plan_triples;
    use crate::count_sched::{CountScheduler, PairSet};
    use cargo_graph::generators::erdos_renyi;
    use cargo_graph::BitMatrix;
    use cargo_mpc::ot::{CORRECTION_BYTES, OT_KAPPA};
    use std::sync::Arc;

    /// A Count over the cube of `n` users under seed 5, `batch` pairs a
    /// round, whose machines the tests step by hand.
    struct Cube {
        bits: BitMatrix,
        sched: CountScheduler,
        pairs: Arc<PairSet>,
        triples: Vec<SlotTriple>,
    }

    impl Cube {
        fn new(n: usize, batch: usize) -> Self {
            let sched = CountScheduler::new(n, 1, batch);
            let pairs = sched.pair_set();
            let triples = plan_triples(&pairs, &sched);
            Cube { bits: erdos_renyi(n, 0.5, 3).to_bit_matrix(), sched, pairs, triples }
        }

        /// Server `id`'s machine, with dealer material or, `ot`, the
        /// offline dialogue.
        fn machine(&self, id: ServerId, ot: bool) -> ServerCount<'_, BitMatrix> {
            let bits = (id == ServerId::S2).then_some(&self.bits);
            let phase = PairPhase::new((&self.sched, &self.pairs), bits, (5, None));
            ServerCount::new(phase, PairTable::new(5, id, ot), ot.then_some(&self.triples[..]))
        }
    }

    /// Steps both machines in turn, every message through `tamper` on its
    /// way, until both are done or one fails: that one's index and error.
    fn exchange(machines: &mut [ServerCount<'_, BitMatrix>; 2], mut tamper: impl FnMut(&mut CountMsg)) -> Result<(), (usize, CountError)> {
        let mut inboxes: [Vec<CountMsg>; 2] = Default::default();
        let (mut done, mut awaits) = ([false; 2], [false; 2]);
        while done != [true; 2] {
            let mut moved = false;
            for s in 0..2 {
                if done[s] || awaits[s] && inboxes[s].is_empty() {
                    continue;
                }
                moved = true;
                let inbox = awaits[s].then(|| inboxes[s].remove(0));
                let step = machines[s].poll(inbox).map_err(|e| (s, e))?;
                awaits[s] = matches!(step, Step::Await(_));
                match step {
                    Step::Send(mut msg) => {
                        tamper(&mut msg);
                        inboxes[1 - s].push(msg);
                    }
                    Step::Await(_) => {}
                    Step::Done => done[s] = true,
                }
            }
            assert!(moved, "both machines await");
        }
        Ok(())
    }

    /// Polls a failed machine twice more, with and without a message:
    /// the same error each time, never another send.
    fn stays_failed(machine: &mut ServerCount<'_, BitMatrix>, error: &CountError) {
        assert_eq!(machine.poll(None).unwrap_err(), *error);
        let stray = CountMsg::Offline(OfflineMsg { flight: 0, step: 1, words: Vec::new() });
        assert_eq!(machine.poll(Some(stray)).unwrap_err(), *error);
    }

    #[test]
    fn a_pair_round_off_the_cut_is_an_error_naming_the_round() {
        // S₁ alone over the cube of 12: round 0 is 16 pairs from (0, 1).
        // Each scripted answer is off the cut one way at a time.
        let cube = Cube::new(12, 16);
        let mut honest = cube.machine(ServerId::S1, false);
        let Ok(Step::Send(CountMsg::Pair(mine))) = honest.poll(None) else { panic!("round 0 goes out first") };
        assert_eq!((mine.round, mine.pair, mine.fold, mine.words.len()), (0, (0, 1), 0, 16));
        let (round, pair) = (0, (0, 1));
        let cases = [
            (PairOpeningMsg { words: vec![0; 15], ..mine.clone() }, RoundCheck::Slab(Mismatch { theirs: 15, ours: 16 })),
            (PairOpeningMsg { pair: (0, 2), ..mine.clone() }, RoundCheck::Pair(Mismatch { theirs: (0, 2), ours: pair })),
            (PairOpeningMsg { fold: 7, ..mine.clone() }, RoundCheck::Fold(Mismatch { theirs: 7, ours: 0 })),
            (PairOpeningMsg { round: 1, ..mine.clone() }, RoundCheck::Round(Mismatch { theirs: 1, ours: 0 })),
        ];
        for (theirs, check) in cases {
            let mut machine = cube.machine(ServerId::S1, false);
            assert!(matches!(machine.poll(None), Ok(Step::Send(_))));
            assert!(matches!(machine.poll(None), Ok(Step::Await(Awaited::Pair { round: 0, pair: (0, 1) }))));
            let error = CountError::Round { round, pair, check };
            assert_eq!(machine.poll(Some(CountMsg::Pair(theirs))).unwrap_err(), error);
            stays_failed(&mut machine, &error);
        }
        let slab = CountError::Round { round, pair, check: RoundCheck::Slab(Mismatch { theirs: 15, ours: 16 }) };
        assert_eq!(
            slab.to_string(),
            "peer slab size mismatch in the round at pair round 0, first pair (0, 1): \
             peer sent 15, this server expects 16",
            "one line naming both values"
        );
        // A message answers an await; the honest answer then moves S₁ on
        // to round 1.
        let early = cube.machine(ServerId::S1, false).poll(Some(CountMsg::Pair(mine.clone())));
        assert_eq!(early.unwrap_err(), CountError::Unexpected);
        assert!(matches!(honest.poll(None), Ok(Step::Await(_))));
        let next = honest.poll(Some(CountMsg::Pair(mine)));
        assert!(matches!(next, Ok(Step::Send(CountMsg::Pair(PairOpeningMsg { round: 1, .. })))));
    }

    #[test]
    fn an_offline_flight_off_the_dialogue_is_an_error_naming_the_flight() {
        // OT mode over the cube of 6: one pair round, then one key flight
        // of 15 pairs, one correction flight of 20 triples and one tail
        // flight. Each case bends one message on its way.
        let cube = Cube::new(6, 0);
        let (keys, corrections) = (OT_KAPPA * 2 * 15, 6 * 20 * CORRECTION_BYTES / 8);
        type Bend = fn(&mut OfflineMsg);
        let cases: [(Bend, usize, CountError); 4] = [
            (|m| m.flight += u32::from(m.step == 1), 0, CountError::Flight(Mismatch { theirs: (1, 1), ours: (0, 1) })),
            (
                |m| if m.step == 1 { m.words.pop(); },
                0,
                CountError::Offline(OfflineError::FlightSize(1, 0, Mismatch { theirs: keys - 1, ours: keys })),
            ),
            (
                |m| if m.step == 2 { m.words.pop(); },
                1,
                CountError::Offline(OfflineError::FlightSize(2, 0, Mismatch { theirs: corrections - 1, ours: corrections })),
            ),
            (
                |m| if m.step == 3 { *m.words.last_mut().unwrap() ^= 1; },
                1,
                CountError::Offline(OfflineError::Digest(Mismatch { theirs: 0, ours: 0 })),
            ),
        ];
        for (bend, fails, want) in cases {
            let mut machines = [ServerId::S1, ServerId::S2].map(|id| cube.machine(id, true));
            let (at, error) = exchange(&mut machines, |msg| {
                if let CountMsg::Offline(m) = msg {
                    bend(m)
                }
            })
            .expect_err("a bent flight must stop the dialogue");
            assert_eq!(at, fails, "{want}");
            match (&error, &want) {
                // The digests are words of the transcript: one bit apart.
                (CountError::Offline(OfflineError::Digest(got)), CountError::Offline(OfflineError::Digest(_))) => {
                    assert_eq!(got.theirs ^ got.ours, 1)
                }
                _ => assert_eq!(error, want),
            }
            stays_failed(&mut machines[at], &error);
        }
        // Unbent, both machines finish.
        let mut machines = [ServerId::S1, ServerId::S2].map(|id| cube.machine(id, true));
        exchange(&mut machines, |_| {}).unwrap();
    }
}
