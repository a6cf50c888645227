//! Error type shared across the graph substrate.

use std::fmt;

/// Errors raised while constructing, loading, or transforming graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= n`.
    NodeOutOfRange {
        /// Offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A self-loop `⟨v, v⟩` was supplied; the paper's graphs are simple.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// An IO error while reading or writing an edge list.
    Io(std::io::Error),
    /// A malformed line in an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what failed to parse.
        message: String,
    },
    /// An edge list named more distinct node ids than the `u32` node
    /// labels of [`crate::Graph`] / [`crate::CsrGraph`] can tell apart.
    TooManyNodes {
        /// The most distinct node ids a graph can hold.
        limit: u64,
    },
    /// A generator was given parameters it cannot satisfy
    /// (e.g. Barabási–Albert with `m >= n`).
    InvalidParameter(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node}; graphs must be simple")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::TooManyNodes { limit } => {
                write!(f, "more than {limit} distinct node ids; node labels are 32-bit")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange { node: 7, n: 5 };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("5"));

        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains("self-loop"));

        let e = GraphError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));

        let e = GraphError::TooManyNodes { limit: 4_294_967_295 };
        assert!(e.to_string().contains("4294967295"));

        let e = GraphError::InvalidParameter("m >= n".into());
        assert!(e.to_string().contains("m >= n"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e: GraphError = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(e.source().is_some());
    }
}
