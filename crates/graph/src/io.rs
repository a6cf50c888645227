//! SNAP edge-list IO.
//!
//! The paper's datasets ship as whitespace-separated edge lists with
//! `#`-prefixed comment lines (snap.stanford.edu format). The reader:
//!
//! * accepts tab or space separators,
//! * skips comments and blank lines,
//! * relabels arbitrary (possibly sparse) node ids to `0..n` in first-
//!   appearance order,
//! * symmetrizes (SNAP directed graphs like wiki-Vote become the
//!   undirected graphs the paper preprocesses them into), and
//! * drops self-loops and duplicate edges — **reporting** how many it
//!   dropped ([`LoadStats`]), because a dataset that loses 30% of its
//!   lines to cleanup is usually the wrong dataset, not a clean one.
//!
//! Both loaders ([`read_edge_list_from_stats`] into a [`Graph`],
//! [`read_edge_list_csr_from_stats`] into a [`CsrGraph`]) are one front
//! half feeding a different builder:
//!
//! * **one tokenizer** walks the reader's own buffer a line at a time
//!   (no per-line `String`; only a line that straddles a refill is
//!   copied). A pure-ASCII line whose first two tokens are 1–19 decimal
//!   digits is parsed from the bytes; *every other line* — a `+5`, a
//!   20-digit token, a non-ASCII blank, a missing column, invalid
//!   UTF-8 — goes through the `str` code path for that one line, which
//!   therefore defines the accepted language and every error.
//! * **one relabeller** keeps first-appearance labels in a table
//!   indexed by the raw id (grown on demand, for ids below 2²⁴: 4 MB
//!   for a million-node SNAP file, never more than 64 MB) and in a hash
//!   map only above that, and refuses a list with more distinct ids
//!   than `u32` labels can tell apart instead of wrapping.
//!
//! The two meet in batches. The tokenizer collects the raw ids of
//! 1 024 edge lines (16 kB); the relabeller then labels them in one
//! tight loop that prefetches the table slots of the line 16 ahead. A
//! slot is a random read into a table larger than L2: line by line,
//! behind the tokenizer's branches, each such miss was waited on alone,
//! and in the batch loop they overlap. Ids above the table's bound take
//! the map and no prefetch. A batch is tokenized before it is labelled,
//! so on a tokenizer or I/O error the lines batched before it are
//! labelled first: the first error in file order wins, as it did line
//! by line (a `TooManyNodes` at one line beats a parse error at a later
//! one), and `edge` sees the same pairs in the same order.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// What the loader cleaned up while reading an edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadStats {
    /// Edges in the final (symmetrized, deduplicated) graph.
    pub edges: usize,
    /// Self-loop lines (`u u`) dropped.
    pub self_loops: usize,
    /// Edge lines collapsed as duplicates of an earlier line (either
    /// orientation — `1 0` after `0 1` counts).
    pub duplicates: usize,
}

impl LoadStats {
    /// True when every input line survived into the graph.
    pub fn is_clean(&self) -> bool {
        self.self_loops == 0 && self.duplicates == 0
    }
}

/// Reads a SNAP-format edge list from `path`, warning on stderr when
/// the input needed cleanup (see [`read_edge_list_stats`]).
pub fn read_edge_list(path: &Path) -> Result<Graph, GraphError> {
    let (g, stats) = read_edge_list_stats(path)?;
    if !stats.is_clean() {
        eprintln!(
            "warning: {}: dropped {} self-loop(s) and {} duplicate edge line(s) \
             ({} edges kept)",
            path.display(),
            stats.self_loops,
            stats.duplicates,
            stats.edges,
        );
    }
    Ok(g)
}

/// Reads a SNAP-format edge list from `path`, returning the graph
/// together with the cleanup counts.
pub fn read_edge_list_stats(path: &Path) -> Result<(Graph, LoadStats), GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list_from_stats(BufReader::new(file))
}

/// Reads a SNAP-format edge list from any buffered reader, returning
/// the graph together with the cleanup counts.
pub fn read_edge_list_from_stats<R: BufRead>(
    reader: R,
) -> Result<(Graph, LoadStats), GraphError> {
    load_graph::<BATCH_LINES, R>(reader)
}

/// [`read_edge_list_from_stats`] with relabel batches of `BATCH` lines.
fn load_graph<const BATCH: usize, R: BufRead>(
    reader: R,
) -> Result<(Graph, LoadStats), GraphError> {
    // Stream edges straight into the builder: peak memory is one
    // adjacency structure (plus the relabelling table), not a raw edge
    // Vec *and* the adjacency it is replayed into. Duplicates are
    // counted at build time (lines kept − edges surviving dedup), so
    // the counting costs no extra memory either.
    let mut b = GraphBuilder::new_growable();
    let mut kept = 0usize;
    let scan = scan_batched::<BATCH, R>(reader, Relabeller::default(), |u, v| {
        b.add_edge_growing(u as usize, v as usize)
            .expect("the scan reports self-loops, it does not forward them");
        kept += 1;
    })?;
    // Nodes that only ever appeared in self-loop lines still count.
    b.grow_to(scan.nodes);
    let g = b.build();
    let stats = LoadStats {
        edges: g.edge_count(),
        self_loops: scan.self_loops,
        duplicates: kept - g.edge_count(),
    };
    Ok((g, stats))
}

/// Reads a SNAP-format edge list from `path` straight into a
/// [`CsrGraph`] — see [`read_edge_list_csr_from_stats`].
pub fn read_edge_list_csr(path: &Path) -> Result<(CsrGraph, LoadStats), GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list_csr_from_stats(BufReader::new(file))
}

/// Reads a SNAP-format edge list from any buffered reader straight
/// into a [`CsrGraph`], never materialising a [`Graph`] adjacency.
///
/// This is the large-graph ingestion path: [`read_edge_list_from_stats`]
/// followed by [`CsrGraph::from_graph`] holds the `Vec<Vec<u32>>`
/// adjacency *and* the CSR arrays simultaneously at its peak (plus
/// per-node allocator overhead and growth slack). Here the only
/// intermediate is a flat pair list — one `(u32, u32)` per edge line,
/// as read and in file order — which [`CsrGraph::from_unsorted_pairs`]
/// scatters into rows and deduplicates row by row: no global sort, and
/// no orientation (that is built if and when a reference count asks).
/// The peak is the pair list (8 B per line) plus the CSR arrays (8 B
/// per edge and per node) — the relabelling table (4 B per id up to
/// the largest seen) is gone before the arrays exist — ≈ 40 MB for a
/// million users and two million edges. Same accepted format, same
/// [`LoadStats`] semantics, same first-appearance relabelling as
/// [`read_edge_list_from_stats`].
pub fn read_edge_list_csr_from_stats<R: BufRead>(
    reader: R,
) -> Result<(CsrGraph, LoadStats), GraphError> {
    load_csr::<BATCH_LINES, R>(reader)
}

/// [`read_edge_list_csr_from_stats`] with relabel batches of `BATCH`
/// lines.
fn load_csr<const BATCH: usize, R: BufRead>(
    reader: R,
) -> Result<(CsrGraph, LoadStats), GraphError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let scan = scan_batched::<BATCH, R>(reader, Relabeller::default(), |u, v| pairs.push((u, v)))?;
    // Nodes that only ever appeared in self-loop lines still count.
    let (csr, duplicates) = CsrGraph::from_unsorted_pairs(scan.nodes, &pairs);
    let stats = LoadStats {
        edges: csr.edge_count(),
        self_loops: scan.self_loops,
        duplicates,
    };
    Ok((csr, stats))
}

/// What [`scan_edge_list`] saw besides the edges it handed on.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeScan {
    /// Distinct node ids, self-loop-only ones included: labels are
    /// `0..nodes`.
    pub nodes: usize,
    /// Self-loop lines (`u u`), which are counted and not handed on.
    pub self_loops: usize,
}

/// The front half of both loaders: tokenizes `reader`, relabels the ids
/// in first-appearance order and calls `edge(u, v)` (`u ≠ v`, as read)
/// for every edge line. Public only so `bench_micro` can time it apart
/// from the builders; load through the `read_edge_list*` functions.
#[doc(hidden)]
pub fn scan_edge_list<R: BufRead>(
    reader: R,
    edge: impl FnMut(u32, u32),
) -> Result<EdgeScan, GraphError> {
    scan_batched::<BATCH_LINES, R>(reader, Relabeller::default(), edge)
}

/// Edge lines the tokenizer hands the relabeller at a time: 16 kB of
/// raw ids, which stay in L1 while they are labelled. 4 096 lines
/// labelled a million-user list no faster, and zeroing their 64 kB cost
/// a 500-line list ≈ 10 % after a cache flush.
const BATCH_LINES: usize = 1024;

/// How many lines ahead of the one it labels the relabeller prefetches
/// table slots: enough to cover a miss, few enough that the lines stay
/// on chip.
const RELABEL_AHEAD: usize = 16;

/// [`scan_edge_list`] with batches of `BATCH` lines, from a relabeller
/// that may already hold labels.
fn scan_batched<const BATCH: usize, R: BufRead>(
    reader: R,
    mut ids: Relabeller,
    mut edge: impl FnMut(u32, u32),
) -> Result<EdgeScan, GraphError> {
    // On the stack, and the table grows as ids arrive: a 64 kB heap
    // batch, or a table grown a batch ahead, moved the allocator's
    // layout under the growing pair list and table enough to cost
    // repeated million-user loads 7 MB of peak RSS.
    let mut batch = [(0u64, 0u64); BATCH];
    let mut batched = 0;
    let mut self_loops = 0usize;
    let tokenized = for_each_edge_line(reader, |u, v| {
        batch[batched] = (u, v);
        batched += 1;
        if batched == BATCH {
            batched = 0;
            self_loops += ids.label_batch(&batch, &mut edge)?;
        }
        Ok(())
    });
    // Whatever ended the tokenizer — the end of the list, a parse or
    // I/O error, or a full batch that failed to label (which leaves
    // none behind) — comes after every line still batched.
    self_loops += ids.label_batch(&batch[..batched], &mut edge)?;
    tokenized?;
    Ok(EdgeScan { nodes: ids.len(), self_loops })
}

/// Raw ids below this bound are relabelled through a table indexed by
/// the id itself (4 B per id up to the largest one seen: at most 64 MB,
/// 4 MB for a million-node SNAP file); larger ones through a hash map.
const DIRECT_IDS: u64 = 1 << 24;

/// First-appearance relabelling of raw `u64` node ids to `0..n`.
#[derive(Default)]
struct Relabeller {
    /// `direct[id]` is the label of `id < DIRECT_IDS`, or
    /// [`Relabeller::UNSEEN`].
    direct: Vec<u32>,
    sparse: HashMap<u64, u32>,
    /// The next label to hand out: the number of distinct ids so far.
    next: u32,
}

impl Relabeller {
    /// Marks an id that has no label yet, so it is never a label: a
    /// graph holds at most `u32::MAX` nodes, labelled `0..u32::MAX`.
    const UNSEEN: u32 = u32::MAX;

    fn label(&mut self, id: u64) -> Result<u32, GraphError> {
        let slot = if id < DIRECT_IDS {
            let id = id as usize;
            if id >= self.direct.len() {
                self.direct.resize(id + 1, Self::UNSEEN);
            }
            &mut self.direct[id]
        } else {
            self.sparse.entry(id).or_insert(Self::UNSEEN)
        };
        if *slot == Self::UNSEEN {
            if self.next == Self::UNSEEN {
                return Err(GraphError::TooManyNodes { limit: Self::UNSEEN.into() });
            }
            *slot = self.next;
            self.next += 1;
        }
        Ok(*slot)
    }

    /// Labels a batch of edge lines in order and calls `edge(u, v)` for
    /// each that is not a self-loop, up to the first error; returns the
    /// self-loops. While it labels a line it prefetches the table slots
    /// of the line [`RELABEL_AHEAD`] on.
    fn label_batch(
        &mut self,
        batch: &[(u64, u64)],
        edge: &mut impl FnMut(u32, u32),
    ) -> Result<usize, GraphError> {
        let mut self_loops = 0;
        for (t, &(u, v)) in batch.iter().enumerate() {
            if let Some(&(a, b)) = batch.get(t + RELABEL_AHEAD) {
                for id in [a, b] {
                    // An id past the table (above `DIRECT_IDS`, or not
                    // seen yet) has no slot to fetch.
                    if let Some(slot) = usize::try_from(id).ok().and_then(|id| self.direct.get(id)) {
                        crate::prefetch(slot);
                    }
                }
            }
            let (u, v) = (self.label(u)?, self.label(v)?);
            if u != v {
                edge(u, v);
            } else {
                self_loops += 1;
            }
        }
        Ok(self_loops)
    }

    fn len(&self) -> usize {
        self.next as usize
    }
}

/// The tokenizer: calls `edge(u, v)` with the two raw ids of every
/// edge line of `reader`, in order. Lines are cut out of the reader's
/// own buffer; only one that straddles a refill is copied (`carry`).
fn for_each_edge_line<R: BufRead>(
    mut reader: R,
    mut edge: impl FnMut(u64, u64) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    let mut line = |bytes: &[u8]| -> Result<(), GraphError> {
        lineno += 1;
        match parse_line(bytes, lineno)? {
            Some((u, v)) => edge(u, v),
            None => Ok(()),
        }
    };
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            break;
        }
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            if carry.is_empty() {
                line(&rest[..nl])?;
            } else {
                carry.extend_from_slice(&rest[..nl]);
                line(&carry)?;
                carry.clear();
            }
            rest = &rest[nl + 1..];
        }
        carry.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
    // A last line without its newline is still a line.
    if !carry.is_empty() {
        line(&carry)?;
    }
    Ok(())
}

/// One line (without its `\n`): `None` for a blank or comment line,
/// the two raw ids of an edge line, or the parse error. The byte-level
/// fast path only ever *accepts*; whatever it does not recognise is
/// decided by [`parse_line_str`].
fn parse_line(line: &[u8], lineno: usize) -> Result<Option<(u64, u64)>, GraphError> {
    if let Some(parsed) = parse_ascii_line(line) {
        return Ok(parsed);
    }
    // What `BufRead::lines` reports for such a line.
    let line = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    parse_line_str(line, lineno)
}

/// The fast path: `Some` only for a pure-ASCII line that is blank, a
/// comment, or starts with two tokens of 1–19 decimal digits (which
/// cannot overflow a `u64`) — on those it agrees with
/// [`parse_line_str`] by construction. Columns after the second are
/// ignored there and here, but must be ASCII here.
fn parse_ascii_line(line: &[u8]) -> Option<Option<(u64, u64)>> {
    let s = skip_blanks(line);
    if s.is_empty() {
        return Some(None);
    }
    if s[0] == b'#' {
        return s.is_ascii().then_some(None);
    }
    let (u, s) = ascii_id(s)?;
    let (v, s) = ascii_id(skip_blanks(s))?;
    s.is_ascii().then_some(Some((u, v)))
}

/// The ASCII members of `char::is_whitespace` — note `\x0b`, which
/// `u8::is_ascii_whitespace` leaves out.
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

fn skip_blanks(s: &[u8]) -> &[u8] {
    &s[s.iter().take_while(|&&b| is_blank(b)).count()..]
}

/// Splits a token of 1–19 decimal digits, ended by a blank or the end
/// of the line, off the front of `s`.
fn ascii_id(s: &[u8]) -> Option<(u64, &[u8])> {
    let digits = s.iter().take_while(|b| b.is_ascii_digit()).count();
    let (token, rest) = s.split_at(digits);
    if !(1..=19).contains(&digits) || rest.first().is_some_and(|&b| !is_blank(b)) {
        return None;
    }
    let id = token.iter().fold(0u64, |id, &b| id * 10 + u64::from(b - b'0'));
    Some((id, rest))
}

/// The `str` code path of one line (without its line terminator): the
/// definition of the accepted format.
fn parse_line_str(line: &str, lineno: usize) -> Result<Option<(u64, u64)>, GraphError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let mut id = || -> Result<u64, GraphError> {
        let tok = it.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            message: "expected two node ids".into(),
        })?;
        tok.parse::<u64>().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid node id {tok:?}"),
        })
    };
    Ok(Some((id()?, id()?)))
}

/// Writes `g` as a SNAP-format edge list (one `u\tv` line per edge,
/// with a header comment).
pub fn write_edge_list(g: &Graph, path: &Path) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "# Undirected graph: {} nodes, {} edges", g.n(), g.edge_count())?;
    writeln!(w, "# FromNodeId\tToNodeId")?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;

    type Loaded<G> = (G, LoadStats);

    /// The loaders as they were before the byte-level tokenizer, kept
    /// as the differential reference: `BufRead::lines`, `str` parsing,
    /// a `HashMap` relabel — then the `Graph` builder, and for the CSR
    /// a global pair sort feeding `from_pairs`.
    fn reference_load<R: BufRead>(
        reader: R,
    ) -> Result<(Loaded<Graph>, Loaded<CsrGraph>), GraphError> {
        let mut ids: HashMap<u64, usize> = HashMap::new();
        let mut b = GraphBuilder::new_growable();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut self_loops = 0usize;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let parse = |tok: Option<&str>, lineno: usize| -> Result<u64, GraphError> {
                let tok = tok.ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    message: "expected two node ids".into(),
                })?;
                tok.parse::<u64>().map_err(|_| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("invalid node id {tok:?}"),
                })
            };
            let u = parse(it.next(), lineno)?;
            let v = parse(it.next(), lineno)?;
            let next_id = ids.len();
            let ui = *ids.entry(u).or_insert(next_id);
            let next_id = ids.len();
            let vi = *ids.entry(v).or_insert(next_id);
            if ui != vi {
                b.add_edge_growing(ui, vi)?;
                pairs.push((ui.min(vi) as u32, ui.max(vi) as u32));
            } else {
                self_loops += 1;
            }
        }
        let kept = pairs.len();
        b.grow_to(ids.len());
        let g = b.build();
        pairs.sort_unstable();
        pairs.dedup();
        let csr = CsrGraph::from_pairs(ids.len(), &pairs);
        let stats = |edges| LoadStats { edges, self_loops, duplicates: kept - edges };
        let (gstats, cstats) = (stats(g.edge_count()), stats(pairs.len()));
        Ok(((g, gstats), (csr, cstats)))
    }

    /// A reader that hands out at most `chunk` bytes per `fill_buf`,
    /// and fails every other call with `Interrupted` when asked to.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
        interrupts: bool,
        calls: usize,
    }

    impl io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Chunked<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.calls += 1;
            if self.interrupts && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            Ok(&self.data[..self.chunk.min(self.data.len())])
        }

        fn consume(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    /// An outcome two loaders can be compared on: the value, or the
    /// error's variant, line number and message.
    fn outcome<T>(r: Result<T, GraphError>) -> Result<T, String> {
        r.map_err(|e| match e {
            GraphError::Io(io) => format!("io {:?}: {io}", io.kind()),
            other => format!("{other:?}"),
        })
    }

    const IDS: &[&str] = &[
        "0", "1", "2", "3", "4", "5", "007", "42", "70000", "4000000000", "1234567890123456789",
        "9999999999999999999",
    ];
    /// Tokens the fast path must hand to the `str` code: signs, 20- and
    /// 21-digit runs around `u64::MAX`, 22 digits that are a small
    /// number, non-digits, non-ASCII blanks inside a token, and bytes
    /// that are not UTF-8.
    const HOSTILE: &[&[u8]] = &[
        b"+5", b"-3", b"+", b"-", b"++1", b"12a", b"x", b"1#", b"0x10", b"1.5",
        b"12345678901234567890", b"18446744073709551615", b"18446744073709551616",
        b"123456789012345678901", b"0000000000000000000007",
        "1\u{a0}2".as_bytes(), "\u{2003}".as_bytes(), "é".as_bytes(),
        b"\xff", b"\x80", b"\xc3", b"7\xff",
    ];
    const BLANKS: &[&[u8]] = &[
        b" ", b" ", b"\t", b"\t", b"  ", b"\x0b", b"\x0c", b"\r", b" \r\t",
        "\u{a0}".as_bytes(), "\u{2003}".as_bytes(),
    ];

    /// A random edge list over the alphabets above: mostly well-formed
    /// `u v` lines on a handful of ids (so loops and duplicates in both
    /// orientations occur), with blank lines, comments after leading
    /// blanks, missing and extra columns, `\r\n` endings, hostile
    /// tokens, and a last line that may lack its newline.
    fn hostile_edge_list(rng: &mut StdRng, lines: usize, hostile: f64) -> Vec<u8> {
        let mut text = Vec::new();
        for line in 0..lines {
            if rng.gen_bool(0.3) {
                text.extend_from_slice(BLANKS.choose(rng).unwrap());
            }
            if rng.gen_bool(0.1) {
                text.extend_from_slice(b"# Nodes: 6 \xc3\xa9dges");
                if rng.gen_bool(hostile) {
                    text.push(0xff);
                }
            }
            let columns = if rng.gen_bool(hostile) {
                1
            } else {
                *[0, 2, 2, 2, 2, 2, 2, 3, 4].choose(rng).unwrap()
            };
            for column in 0..columns {
                if column > 0 {
                    text.extend_from_slice(BLANKS.choose(rng).unwrap());
                }
                if rng.gen_bool(hostile) {
                    text.extend_from_slice(HOSTILE.choose(rng).unwrap());
                } else {
                    text.extend_from_slice(IDS.choose(rng).unwrap().as_bytes());
                }
            }
            if rng.gen_bool(0.2) {
                text.extend_from_slice(BLANKS.choose(rng).unwrap());
            }
            if line + 1 < lines || rng.gen_bool(0.5) {
                text.extend_from_slice(if rng.gen_bool(0.2) { b"\r\n" } else { b"\n" });
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both loaders ≡ the retained line-based loop on hostile bytes,
        /// whatever the reader's refill size — 1 cuts every line at
        /// every byte, 7 is shorter than most lines (and interrupts
        /// every other refill), 4096 holds the whole list — and
        /// whatever the relabel batch: 1 labels each line as it is
        /// read, 3 cuts the list into several batches with a partial
        /// last one, and the production size holds it whole.
        #[test]
        fn loaders_equal_the_reference_loop_on_hostile_bytes(
            seed: u64,
            lines in 0usize..14,
            hostile in 0.0f64..0.12,
        ) {
            let text = hostile_edge_list(&mut StdRng::seed_from_u64(seed), lines, hostile);
            let shown = String::from_utf8_lossy(&text).into_owned();
            let (want_graph, want_csr) = match reference_load(Cursor::new(&text)) {
                Ok((g, c)) => (Ok(g), Ok(c)),
                Err(e) => {
                    let e = outcome::<()>(Err(e)).unwrap_err();
                    (Err(e.clone()), Err(e))
                }
            };
            type Loaders<'a> = (
                fn(Chunked<'a>) -> Result<Loaded<Graph>, GraphError>,
                fn(Chunked<'a>) -> Result<Loaded<CsrGraph>, GraphError>,
            );
            let batches: [(usize, Loaders); 3] = [
                (1, (load_graph::<1, _>, load_csr::<1, _>)),
                (3, (load_graph::<3, _>, load_csr::<3, _>)),
                (BATCH_LINES, (load_graph::<BATCH_LINES, _>, load_csr::<BATCH_LINES, _>)),
            ];
            for (batch, (graph_loader, csr_loader)) in batches {
                for chunk in [1usize, 7, 4096] {
                    let reader = || Chunked { data: &text, chunk, interrupts: chunk == 7, calls: 0 };
                    let got = outcome(graph_loader(reader()));
                    prop_assert!(
                        got == want_graph,
                        "Graph loader, batches of {batch}, refills of {chunk}, on {shown:?}:\n{got:?}\nreference {want_graph:?}"
                    );
                    let got = outcome(csr_loader(reader()));
                    prop_assert!(
                        got == want_csr,
                        "CSR loader, batches of {batch}, refills of {chunk}, on {shown:?}:\n{got:?}\nreference {want_csr:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_corpus_hits_both_outcomes_and_every_error() {
        // The property above is only as good as its generator: over
        // its seeds it must produce clean loads, cleanup, and each of
        // the three failures.
        let (mut loads, mut cleanups) = (0, 0);
        let mut errors = std::collections::BTreeSet::new();
        for seed in 0..400 {
            let text = hostile_edge_list(&mut StdRng::seed_from_u64(seed), 8, 0.08);
            let error = match read_edge_list_csr_from_stats(Cursor::new(&text)) {
                Ok((_, stats)) => {
                    loads += 1;
                    cleanups += usize::from(stats.self_loops > 0 && stats.duplicates > 0);
                    continue;
                }
                Err(GraphError::Io(_)) => "utf-8",
                Err(GraphError::Parse { message, .. }) if message.starts_with("invalid") => "id",
                Err(GraphError::Parse { .. }) => "column",
                Err(e) => panic!("{e}"),
            };
            errors.insert(error);
        }
        assert!(loads > 50 && cleanups > 5, "{loads} loads, {cleanups} with cleanup");
        assert_eq!(errors.into_iter().collect::<Vec<_>>(), ["column", "id", "utf-8"]);
    }

    #[test]
    fn a_line_longer_than_any_buffer_is_one_line() {
        // 100 kB of leading blanks, then an edge; then 100 kB of extra
        // columns after one. Refills of 4096 cut each ~25 times.
        let mut text = vec![b' '; 100_000];
        text.extend_from_slice(b"3 4\n5 6");
        text.extend(b" 9".repeat(50_000));
        text.extend_from_slice(b"\n6 x\n");
        for chunk in [4096, usize::MAX] {
            let reader = Chunked { data: &text, chunk, interrupts: false, calls: 0 };
            let err = read_edge_list_csr_from_stats(reader).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
        }
        let text = &text[..text.len() - 4];
        let (csr, stats) = read_edge_list_csr_from_stats(Cursor::new(text)).unwrap();
        assert_eq!((csr.n(), stats.edges), (4, 2));
    }

    #[test]
    fn ids_above_the_direct_bound_take_the_map() {
        // A table indexed by these ids would be 16 GB and 64 EiB.
        for (text, big) in [("4000000000 1\n", 4_000_000_000), ("18446744073709551615 0\n", u64::MAX)] {
            let (csr, stats) = read_edge_list_csr_from_stats(Cursor::new(text)).unwrap();
            assert_eq!((csr.n(), csr.neighbors(0), stats.edges), (2, &[1u32][..], 1), "{text:?}");
            let (g, _) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
            assert!(g.n() == 2 && g.has_edge(0, 1), "{text:?}");
            let mut ids = Relabeller::default();
            assert_eq!(ids.label(big).unwrap(), 0);
            assert!(ids.direct.is_empty() && ids.sparse.len() == 1);
        }
        // The table grows to the largest small id seen, not to the bound.
        let mut ids = Relabeller::default();
        assert_eq!(ids.label(DIRECT_IDS).unwrap(), 0);
        assert_eq!(ids.label(DIRECT_IDS - 1).unwrap(), 1);
        assert_eq!(ids.label(9).unwrap(), 2);
        assert_eq!(ids.label(DIRECT_IDS).unwrap(), 0);
        assert_eq!((ids.direct.len() as u64, ids.sparse.len(), ids.len()), (DIRECT_IDS, 1, 3));
    }

    #[test]
    fn relabeller_refuses_to_wrap_its_labels() {
        // One label left: `u32::MAX - 1`. The id after that must fail —
        // in the table and in the map alike — not alias node 0.
        let mut ids = Relabeller { next: u32::MAX - 1, ..Relabeller::default() };
        assert_eq!(ids.label(5).unwrap(), u32::MAX - 1);
        assert_eq!(ids.label(5).unwrap(), u32::MAX - 1, "a seen id needs no new label");
        for fresh in [6, 1 << 40] {
            let err = ids.label(fresh).unwrap_err();
            assert!(matches!(err, GraphError::TooManyNodes { limit: 4_294_967_295 }), "{err}");
        }
        assert_eq!(ids.len(), u32::MAX as usize);
    }

    #[test]
    fn the_first_failing_line_wins_across_a_batch() {
        // One label left, as above. At every batch size, including those
        // that tokenize the malformed line before labelling the line
        // that runs out: a fresh id's line, then a malformed one, fails
        // on the labels; a malformed line after lines that label cleanly
        // fails at its own line number.
        let full = || Relabeller { next: u32::MAX - 1, ..Relabeller::default() };
        type Scan = fn(&[u8], Relabeller) -> Result<EdgeScan, GraphError>;
        let scans: [Scan; 3] = [
            |text, ids| scan_batched::<1, _>(text, ids, |_, _| {}),
            |text, ids| scan_batched::<3, _>(text, ids, |_, _| {}),
            |text, ids| scan_batched::<BATCH_LINES, _>(text, ids, |_, _| {}),
        ];
        for scan in scans {
            let err = scan(b"5 6\n0 x\n", full()).unwrap_err();
            assert!(matches!(err, GraphError::TooManyNodes { .. }), "{err}");
            let err = scan(b"5 5\n# 6 7\n\n5 5\n7 x\n", full()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err}");
            let scanned = scan(b"5 5\n5 5\n", full()).unwrap();
            assert_eq!(scanned, EdgeScan { nodes: u32::MAX as usize, self_loops: 2 });
        }
    }

    #[test]
    fn parses_snap_format_with_comments() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 4\n0\t1\n1\t2\n2 3\n3\t0\n";
        let (g, _) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn symmetrizes_and_dedups() {
        let text = "0 1\n1 0\n0 1\n";
        let (g, _) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn drops_self_loops() {
        let text = "0 0\n0 1\n";
        let (g, _) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn cleanup_is_counted_not_silent() {
        // 2 self-loops; `1 0` and a repeated `0 1` duplicate the first
        // line; `2 3` is clean. 2 edges survive.
        let text = "0 1\n0 0\n1 0\n0 1\n5 5\n2 3\n";
        let (g, stats) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            stats,
            LoadStats {
                edges: 2,
                self_loops: 2,
                duplicates: 2,
            }
        );
        assert!(!stats.is_clean());
    }

    #[test]
    fn clean_input_reports_clean() {
        let (g, stats) = read_edge_list_from_stats(Cursor::new("0 1\n1 2\n")).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(stats, LoadStats { edges: 2, self_loops: 0, duplicates: 0 });
        assert!(stats.is_clean());
    }

    #[test]
    fn relabels_sparse_ids() {
        let text = "1000000 42\n42 7\n";
        let (g, _) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_count(), 2);
        // First-appearance order: 1000000 → 0, 42 → 1, 7 → 2.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn rejects_garbage() {
        let text = "0 xyz\n";
        let err = read_edge_list_from_stats(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_missing_column() {
        let text = "0\n";
        assert!(read_edge_list_from_stats(Cursor::new(text)).is_err());
    }

    #[test]
    fn csr_loader_matches_graph_loader() {
        // Same cleanup corpus as `cleanup_is_counted_not_silent`, plus
        // sparse ids — the streaming path must agree on graph AND stats.
        for text in ["0 1\n0 0\n1 0\n0 1\n5 5\n2 3\n", "1000000 42\n42 7\n", "", "# only\n"] {
            let (g, gstats) = read_edge_list_from_stats(Cursor::new(text)).unwrap();
            let (csr, cstats) = read_edge_list_csr_from_stats(Cursor::new(text)).unwrap();
            assert_eq!(cstats, gstats, "{text:?}");
            assert_eq!(csr, CsrGraph::from_graph(&g), "{text:?}");
        }
    }

    #[test]
    fn csr_loader_rejects_garbage_like_the_graph_loader() {
        assert!(read_edge_list_csr_from_stats(Cursor::new("0 xyz\n")).is_err());
        assert!(read_edge_list_csr_from_stats(Cursor::new("0\n")).is_err());
    }

    #[test]
    fn roundtrip_through_file() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]).unwrap();
        let dir = std::env::temp_dir().join("cargo_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.edge_count(), g2.edge_count());
        std::fs::remove_file(&path).ok();
    }
}
