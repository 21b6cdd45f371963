//! [`ServiceError`]: the consolidated error taxonomy of the service
//! layer. Everything the old library surface reported through panics,
//! `Option`s, and ad-hoc strings becomes a value here, so callers can
//! branch on the failure class (retry on `Overloaded`, re-register on
//! `NotFound`, fix the caller on `InvalidRequest`, …).

use std::fmt;

/// Every way a service request can fail, as a value.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The named graph is not registered.
    NotFound {
        /// The name that missed.
        graph: String,
    },
    /// A graph with this name is already registered (evict it first).
    AlreadyRegistered {
        /// The colliding name.
        graph: String,
    },
    /// Admission control fast-rejected the request: the bounded in-flight
    /// queue is full. Retry later (ideally with backoff) — the service
    /// sheds instead of queueing unboundedly.
    Overloaded {
        /// Queries in flight when the request arrived.
        in_flight: usize,
        /// The configured bound ([`crate::ServiceConfig::queue_depth`]).
        queue_depth: usize,
    },
    /// The request is malformed (dimension mismatch, empty name, …);
    /// retrying without fixing it cannot succeed.
    InvalidRequest(String),
    /// A snapshot was written by an unsupported format version.
    SnapshotVersion {
        /// The version byte found in the snapshot.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// A snapshot failed validation (truncated, garbled, or inconsistent
    /// with its own header).
    SnapshotCorrupt(String),
    /// The operation is not available for this graph's label type (e.g.
    /// snapshots require `String` labels).
    Unsupported(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NotFound { graph } => write!(f, "graph {graph:?} is not registered"),
            ServiceError::AlreadyRegistered { graph } => {
                write!(f, "graph {graph:?} is already registered")
            }
            ServiceError::Overloaded {
                in_flight,
                queue_depth,
            } => write!(
                f,
                "overloaded: {in_flight} queries in flight at queue depth {queue_depth}"
            ),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::SnapshotVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            ServiceError::SnapshotCorrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            ServiceError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = ServiceError::Overloaded {
            in_flight: 8,
            queue_depth: 8,
        };
        assert!(e.to_string().contains("queue depth 8"));
        assert!(ServiceError::NotFound {
            graph: "web".into()
        }
        .to_string()
        .contains("\"web\""));
        let v = ServiceError::SnapshotVersion {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains("version 9"));
    }
}
