//! Graph (de)serialization: a human-readable text format for examples and
//! test fixtures, plus a compact binary snapshot (via `bytes`) used by the
//! benchmark harness to cache generated workloads between runs.
//!
//! Text format (one record per line, `#` comments allowed):
//! ```text
//! node <id> <label>
//! edge <from> <to>
//! ```
//! Node ids must be dense and appear in order (0, 1, 2, ...).

use crate::digraph::{DiGraph, NodeId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when parsing the text or binary formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not match `node`/`edge` syntax.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Node ids were not dense/in order.
    NonDenseId {
        /// 1-based line number.
        line: usize,
        /// The id that should have appeared.
        expected: u32,
        /// The id that actually appeared.
        found: u32,
    },
    /// An edge referenced an undeclared node.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The out-of-range node id.
        id: u32,
    },
    /// Binary snapshot was truncated or had a bad magic value.
    Corrupt(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::NonDenseId {
                line,
                expected,
                found,
            } => {
                write!(f, "line {line}: expected node id {expected}, found {found}")
            }
            ParseError::UnknownNode { line, id } => {
                write!(f, "line {line}: edge references unknown node {id}")
            }
            ParseError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a string-labeled graph to the text format.
pub fn to_text(g: &DiGraph<String>) -> String {
    let mut s = String::with_capacity(16 * (g.node_count() + g.edge_count()));
    for v in g.nodes() {
        s.push_str("node ");
        s.push_str(&v.0.to_string());
        s.push(' ');
        s.push_str(g.label(v));
        s.push('\n');
    }
    for (a, b) in g.edges() {
        s.push_str(&format!("edge {} {}\n", a.0, b.0));
    }
    s
}

/// Parses the text format produced by [`to_text`].
pub fn from_text(text: &str) -> Result<DiGraph<String>, ParseError> {
    let mut g = DiGraph::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let kind = parts.next().unwrap_or("");
        match kind {
            "node" => {
                let id: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                    ParseError::Syntax {
                        line: line_no,
                        message: "node needs a numeric id".into(),
                    }
                })?;
                let label = parts.next().unwrap_or("").to_owned();
                let expected = g.node_count() as u32;
                if id != expected {
                    return Err(ParseError::NonDenseId {
                        line: line_no,
                        expected,
                        found: id,
                    });
                }
                g.add_node(label);
            }
            "edge" => {
                let a: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                    ParseError::Syntax {
                        line: line_no,
                        message: "edge needs two numeric ids".into(),
                    }
                })?;
                let b: u32 = parts
                    .next()
                    .and_then(|t| t.trim().parse().ok())
                    .ok_or_else(|| ParseError::Syntax {
                        line: line_no,
                        message: "edge needs two numeric ids".into(),
                    })?;
                for id in [a, b] {
                    if id as usize >= g.node_count() {
                        return Err(ParseError::UnknownNode { line: line_no, id });
                    }
                }
                g.add_edge(NodeId(a), NodeId(b));
            }
            other => {
                return Err(ParseError::Syntax {
                    line: line_no,
                    message: format!("unknown record kind {other:?}"),
                })
            }
        }
    }
    Ok(g)
}

const SNAPSHOT_MAGIC: u32 = 0x7048_6f6d; // "pHom"

/// Serializes a string-labeled graph into a compact binary snapshot.
pub fn to_snapshot(g: &DiGraph<String>) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + 8 * g.edge_count() + 16 * g.node_count());
    buf.put_u32(SNAPSHOT_MAGIC);
    buf.put_u32(g.node_count() as u32);
    buf.put_u32(g.edge_count() as u32);
    for v in g.nodes() {
        let label = g.label(v).as_bytes();
        buf.put_u32(label.len() as u32);
        buf.put_slice(label);
    }
    for (a, b) in g.edges() {
        buf.put_u32(a.0);
        buf.put_u32(b.0);
    }
    buf.freeze()
}

/// Restores a graph from a binary snapshot produced by [`to_snapshot`].
pub fn from_snapshot(mut data: Bytes) -> Result<DiGraph<String>, ParseError> {
    let need = |data: &Bytes, n: usize| -> Result<(), ParseError> {
        if data.remaining() < n {
            Err(ParseError::Corrupt(format!("need {n} more bytes")))
        } else {
            Ok(())
        }
    };
    need(&data, 12)?;
    let magic = data.get_u32();
    if magic != SNAPSHOT_MAGIC {
        return Err(ParseError::Corrupt(format!("bad magic {magic:#x}")));
    }
    let n = data.get_u32() as usize;
    let m = data.get_u32() as usize;
    // Every node takes at least its 4-byte label length, so a count the
    // remaining bytes cannot hold is corrupt — and must be rejected
    // before the allocation sizes itself off it.
    if n > data.remaining() / 4 {
        return Err(ParseError::Corrupt(format!(
            "{n} nodes exceed what {} snapshot bytes can hold",
            data.remaining()
        )));
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        need(&data, 4)?;
        let len = data.get_u32() as usize;
        need(&data, len)?;
        let label = String::from_utf8(data.split_to(len).to_vec())
            .map_err(|e| ParseError::Corrupt(e.to_string()))?;
        labels.push(label);
    }
    // The edges take 8 bytes each: check they are all there before the
    // edge buffer sizes itself off their count.
    need(&data, m.saturating_mul(8))?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let a = data.get_u32();
        let b = data.get_u32();
        if a as usize >= n || b as usize >= n {
            return Err(ParseError::Corrupt(format!("edge ({a},{b}) out of range")));
        }
        edges.push((NodeId(a), NodeId(b)));
    }
    Ok(DiGraph::from_edges(labels, edges))
}

/// A serde-friendly record mirroring a string-labeled graph, used by the
/// experiment harness to persist workload configs/results.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct GraphRecord {
    /// Node labels in id order.
    pub labels: Vec<String>,
    /// Directed edges as `(from, to)` index pairs.
    pub edges: Vec<(u32, u32)>,
}

impl From<&DiGraph<String>> for GraphRecord {
    fn from(g: &DiGraph<String>) -> Self {
        GraphRecord {
            labels: g.nodes().map(|v| g.label(v).clone()).collect(),
            edges: g.edges().map(|(a, b)| (a.0, b.0)).collect(),
        }
    }
}

impl From<&GraphRecord> for DiGraph<String> {
    fn from(r: &GraphRecord) -> Self {
        let edges = r.edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b)));
        DiGraph::from_edges(r.labels.clone(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::graph_from_labels;

    fn sample() -> DiGraph<String> {
        graph_from_labels(
            &["books", "text books", "audio"],
            &[("books", "text books"), ("books", "audio")],
        )
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let text = to_text(&g);
        let h = from_text(&text).expect("parse");
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(
            h.label(NodeId(1)),
            "text books",
            "labels may contain spaces"
        );
        assert!(h.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let g = from_text("# header\n\nnode 0 a\nnode 1 b\nedge 0 1\n").expect("parse");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn text_rejects_sparse_ids() {
        let err = from_text("node 1 a\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::NonDenseId {
                expected: 0,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn text_rejects_unknown_edge_target() {
        let err = from_text("node 0 a\nedge 0 5\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownNode { id: 5, .. }));
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            from_text("vertex 0 a\n"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("node x a\n"),
            Err(ParseError::Syntax { .. })
        ));
    }

    #[test]
    fn snapshot_roundtrip() {
        let g = sample();
        let snap = to_snapshot(&g);
        let h = from_snapshot(snap).expect("restore");
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.label(NodeId(2)), "audio");
    }

    #[test]
    fn snapshot_rejects_bad_magic() {
        let err = from_snapshot(Bytes::from_static(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]));
        assert!(matches!(err, Err(ParseError::Corrupt(_))));
    }

    #[test]
    fn snapshot_rejects_truncation() {
        let g = sample();
        let snap = to_snapshot(&g);
        let cut = snap.slice(0..snap.len() - 3);
        assert!(matches!(from_snapshot(cut), Err(ParseError::Corrupt(_))));
    }

    /// A corrupt node count is rejected before it sizes an allocation
    /// (0xFF in its top byte asks for billions of nodes).
    #[test]
    fn snapshot_rejects_node_count_beyond_its_bytes() {
        let mut snap = to_snapshot(&sample()).to_vec();
        snap[4] ^= 0xFF;
        assert!(matches!(
            from_snapshot(Bytes::from(snap)),
            Err(ParseError::Corrupt(_))
        ));
    }

    #[test]
    fn record_roundtrip() {
        let g = sample();
        let rec = GraphRecord::from(&g);
        let h: DiGraph<String> = (&rec).into();
        assert_eq!(GraphRecord::from(&h), rec);
    }
}
