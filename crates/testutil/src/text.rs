//! Hostile operator text for never-panic properties: a parser of text
//! from outside the program (flags, fault plans, delta scripts, journal
//! lines) must return `Ok` or `Err` on any input, never panic.

use proptest::prelude::*;

/// Numbers at and past the edges of the types parsers read them into,
/// separated by spaces.
pub const EDGE_NUMBERS: &str =
    "0 -0 -1 1.5 1e20 1e-320 nan inf -inf 65537 4294967296 18446744073709551616";

/// Strings of up to eight pieces: words of the parser's grammar,
/// decimal and edge numbers, punctuation, and arbitrary bytes decoded
/// as lossy UTF-8 — near misses of valid input as well as noise.
pub fn operator_text(words: &'static [&'static str]) -> impl Strategy<Value = String> {
    let numbers: Vec<&str> = EDGE_NUMBERS.split(' ').collect();
    let punctuation: Vec<char> = " \t,=@:+-.#x".chars().collect();
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..8).prop_map(move |pieces| {
        let mut text = String::new();
        for (kind, x) in pieces {
            match kind % 5 {
                0 if !words.is_empty() => text += words[x as usize % words.len()],
                1 => text += &x.to_string(),
                2 => text.push(punctuation[x as usize % punctuation.len()]),
                3 => text += numbers[x as usize % numbers.len()],
                _ => text += &String::from_utf8_lossy(&x.to_le_bytes()[..kind as usize % 9]),
            }
        }
        text
    })
}
