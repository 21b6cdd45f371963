//! [`ServiceLabel`]: the bound a graph's node-label type must satisfy to
//! be served, plus the snapshot capability that only `String`-labeled
//! graphs have (the binary prepared-graph snapshot format serializes
//! string labels).

use crate::error::ServiceError;
use bytes::Bytes;
use phom_engine::{CompressionPolicy, PreparedGraph};
use phom_graph::serialize::ParseError;

/// Label types the service can register and query. The supertraits are
/// what serving needs: `Clone + Send + Sync` for the engine's batch
/// fan-out across threads, `PartialEq` for the deep validator's
/// induced-subgraph label check; the two provided methods add
/// prepared-graph snapshot support, which only
/// `String` implements — every other label type reports
/// [`ServiceError::Unsupported`] instead of failing at compile time, so
/// one generic [`crate::Service`] serves all label types.
///
/// Implement it for your own label type with the
/// [`impl_service_label!`](crate::impl_service_label) macro.
pub trait ServiceLabel: Clone + Send + Sync + PartialEq + 'static {
    /// Whether [`ServiceLabel::save_prepared`] /
    /// [`ServiceLabel::load_prepared`] actually serialize (only `String`
    /// labels do).
    const SNAPSHOT_CAPABLE: bool = false;

    /// Serializes one prepared shard (graph + warm reachability index).
    fn save_prepared(prepared: &PreparedGraph<Self>) -> Result<Bytes, ServiceError> {
        let _ = prepared;
        Err(ServiceError::Unsupported(
            "prepared-graph snapshots require String-labeled graphs",
        ))
    }

    /// Restores one prepared shard from
    /// [`ServiceLabel::save_prepared`] bytes, under the compression
    /// policy the registry pinned for the whole graph.
    fn load_prepared(
        bytes: Bytes,
        compression: CompressionPolicy,
    ) -> Result<PreparedGraph<Self>, ServiceError> {
        let _ = (bytes, compression);
        Err(ServiceError::Unsupported(
            "prepared-graph snapshots require String-labeled graphs",
        ))
    }
}

impl ServiceLabel for String {
    const SNAPSHOT_CAPABLE: bool = true;

    fn save_prepared(prepared: &PreparedGraph<Self>) -> Result<Bytes, ServiceError> {
        Ok(prepared.save_snapshot())
    }

    fn load_prepared(
        bytes: Bytes,
        compression: CompressionPolicy,
    ) -> Result<PreparedGraph<Self>, ServiceError> {
        PreparedGraph::load_snapshot_with(bytes, compression).map_err(|e| match e {
            ParseError::Corrupt(msg) => ServiceError::SnapshotCorrupt(msg),
            other => ServiceError::SnapshotCorrupt(other.to_string()),
        })
    }
}

/// Implements [`ServiceLabel`] (without snapshot support) for one or more
/// label types:
///
/// ```
/// #[derive(Clone, PartialEq)]
/// struct MyLabel(u32);
/// phom_service::impl_service_label!(MyLabel);
/// ```
#[macro_export]
macro_rules! impl_service_label {
    ($($t:ty),* $(,)?) => {
        $(impl $crate::ServiceLabel for $t {})*
    };
}

impl_service_label!((), bool, u8, u16, u32, u64, usize, i32, i64, &'static str);
// Workload label types the CLI serves out of the box.
impl_service_label!(phom_workloads::Page);

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;
    use std::sync::Arc;

    #[test]
    fn string_labels_snapshot_and_restore() {
        let g = Arc::new(graph_from_labels(&["a", "b"], &[("a", "b")]));
        let p = PreparedGraph::new(g);
        let bytes = String::save_prepared(&p).expect("save");
        let restored = String::load_prepared(bytes, CompressionPolicy::Auto).expect("load");
        assert_eq!(restored.stats().nodes, 2);
        let corrupt = String::load_prepared(Bytes::from_static(b"nope"), CompressionPolicy::Auto)
            .unwrap_err();
        assert!(matches!(corrupt, ServiceError::SnapshotCorrupt(_)));
    }

    #[test]
    fn other_labels_report_unsupported() {
        let mut g = phom_graph::DiGraph::new();
        g.add_node(7u32);
        let p = PreparedGraph::new(Arc::new(g));
        assert!(matches!(
            u32::save_prepared(&p),
            Err(ServiceError::Unsupported(_))
        ));
    }
}
