//! [`GraphRegistry`]: named graphs, each split by weakly connected
//! component into per-shard [`PreparedGraph`]s.
//!
//! The split, query routing and merging, and update routing belong to
//! the entry's [`ShardMap`], shared with the cluster router; its module
//! docs explain when the sharded answer is identical to an unsharded
//! run. What stays here is what only the in-process tier does: prepare
//! each shard through the engine, run a shard's sub-query or update
//! batch on its prepared graph, and snapshot and restore the prepared
//! shards.

use crate::envelope::{GraphInfo, QueryResponse, UpdateSummary};
use crate::error::ServiceError;
use crate::label::ServiceLabel;
use crate::shard_map::{single_shard_response, ShardAnswer, ShardMap, ShardingConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use phom_dynamic::GraphUpdate;
use phom_engine::{CompressionPolicy, Engine, PlannerConfig, PrepareOptions, PreparedGraph, Query};
use phom_graph::{DiGraph, NodeId, Violation};
use phom_trace::SpanKind;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, RwLock};

/// One registered graph: its shard map and each shard's prepared
/// artifacts.
#[derive(Debug)]
pub struct GraphEntry<L> {
    name: String,
    map: ShardMap<L>,
    /// Shard `s`'s prepared graph, over its shard-local ids.
    shards: Vec<Arc<PreparedGraph<L>>>,
}

impl<L: ServiceLabel> GraphEntry<L> {
    /// Splits `graph` per `sharding` and prepares every shard through the
    /// engine (so every shard's preparation lands in its counters), under
    /// the compression policy the split pinned. The entry holds the
    /// prepared shards it gets back.
    pub(crate) fn build(
        engine: &Engine<L>,
        sharding: &ShardingConfig,
        base_options: PrepareOptions,
        name: String,
        graph: Arc<DiGraph<L>>,
    ) -> Self {
        let (map, shard_graphs) = ShardMap::split(graph, sharding, base_options.compression);
        let options = PrepareOptions {
            compression: map.compression(),
            ..base_options
        };
        let shards = shard_graphs
            .iter()
            .map(|g| engine.prepare_with(g, options))
            .collect();
        GraphEntry { name, map, shards }
    }

    /// The full data graph (current version).
    pub fn graph(&self) -> &Arc<DiGraph<L>> {
        self.map.graph()
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The single shard's prepared graph when the entry is unsharded
    /// (the engine-parity fast path).
    pub(crate) fn sole_prepared(&self) -> Option<&Arc<PreparedGraph<L>>> {
        match self.shards.as_slice() {
            [only] => Some(only),
            _ => None,
        }
    }

    /// Shape and index statistics.
    pub fn info(&self) -> GraphInfo {
        self.map
            .info(&self.name, self.shards.iter().map(|p| p.stats()))
    }

    fn shard_graphs(&self) -> Vec<&DiGraph<L>> {
        self.shards.iter().map(|p| p.graph().as_ref()).collect()
    }

    /// Structural invariants of the sharded entry, cheap tier: the shard
    /// layout partitions the full graph's nodes (node lists and locator
    /// agree in both directions, lists ascend in global id order — the
    /// monotone-ids condition of [`ShardMap`]), every shard was prepared
    /// under the compression policy the map pins (the pinned-decisions
    /// condition; shards may differ in reachability backend), and every
    /// shard's reachability backend passes its own
    /// [`PreparedGraph::validate`]. Does not recompute any closure.
    pub fn validate(&self) -> Result<(), Violation> {
        self.map.validate(&self.shard_graphs())?;
        for (si, prepared) in self.shards.iter().enumerate() {
            if prepared.options().compression != self.map.compression() {
                return Err(Violation::new(
                    "registry-pin",
                    format!("shard {si} prepared under a different compression than the pin"),
                ));
            }
            prepared
                .validate()
                .map_err(|v| Violation::new(v.check, format!("shard {si}: {}", v.detail)))?;
        }
        Ok(())
    }

    /// Deep tier of [`GraphEntry::validate`]: additionally checks each
    /// shard graph is the full graph's induced subgraph on its node list
    /// (labels and edges), and validates every shard's backend against
    /// its shard graph (fresh Tarjan partition + sampled BFS ground
    /// truth, `samples` sources per shard).
    pub fn validate_deep(&self, samples: usize) -> Result<(), Violation> {
        self.validate()?;
        self.map.validate_induced(&self.shard_graphs())?;
        for (si, prepared) in self.shards.iter().enumerate() {
            prepared
                .validate_deep(samples)
                .map_err(|v| Violation::new(v.check, format!("shard {si}: {}", v.detail)))?;
        }
        Ok(())
    }

    /// Rejects a query that does not fit the pattern and this graph (see
    /// [`ShardMap::check`]).
    pub(crate) fn check(&self, query: &Query<L>) -> Result<(), ServiceError> {
        self.map.check(&self.name, query)
    }

    /// Runs `query`: on the one shard of an unsharded entry, otherwise
    /// through [`ShardMap::scatter_gather`] with each shard's forced
    /// sub-query on its prepared graph (a `shard_match` span apiece).
    pub(crate) fn execute(
        &self,
        engine: &Engine<L>,
        planner: &PlannerConfig,
        query: &Query<L>,
        trace: bool,
    ) -> Result<QueryResponse, ServiceError> {
        self.check(query)?;
        if let Some(prepared) = self.sole_prepared() {
            return Ok(single_shard_response(
                engine.execute_traced(prepared, query, trace),
            ));
        }
        self.map
            .scatter_gather(query, planner, trace, |si, sub, traced| {
                let r = engine.execute_traced(&self.shards[si], &sub, traced);
                Ok(ShardAnswer {
                    mapping: r.outcome.mapping,
                    timed_out: r.outcome.stats.timed_out,
                    cache_hit: r.cache_hit,
                    trace: r.trace,
                    span: SpanKind::ShardMatch(si as u32),
                })
            })
    }

    /// Applies an update batch routed by [`ShardMap::route_updates`]:
    /// each touched shard goes through the engine's semi-dynamic
    /// maintenance and untouched shards are reused as-is. A cross-shard
    /// insert, or a batch that flips the pinned compression decision,
    /// re-splits the entry from scratch (`resharded = true`).
    pub(crate) fn apply(
        &self,
        engine: &Engine<L>,
        sharding: &ShardingConfig,
        base_options: PrepareOptions,
        updates: &[GraphUpdate],
    ) -> (GraphEntry<L>, UpdateSummary) {
        let batch = self.map.route_updates(updates);
        let reshard = || {
            let graph = Arc::clone(&batch.graph);
            let entry = GraphEntry::build(engine, sharding, base_options, self.name.clone(), graph);
            let summary = batch.resharded(entry.shard_count());
            (entry, summary)
        };
        let Some(per_shard) = &batch.per_shard else {
            return reshard();
        };
        let mut shards = self.shards.clone();
        let mut shard_stats = Vec::new();
        for (prepared, local) in shards.iter_mut().zip(per_shard) {
            if local.is_empty() {
                continue;
            }
            let outcome = engine.apply_updates(prepared, local);
            shard_stats.push(outcome.stats);
            *prepared = outcome.prepared;
        }
        let stats = batch.fold(&shard_stats);
        // The shards' just-maintained SCC counts: no full-graph Tarjan
        // pass per batch.
        let Ok(flipped) = self.map.pin_flipped(base_options.compression, &stats, || {
            Ok::<_, Infallible>(shards.iter().map(|p| p.stats().scc_count).sum())
        });
        if flipped {
            return reshard();
        }
        let mut map = self.map.clone();
        map.commit(&batch);
        let summary = batch.applied(stats, shards.len());
        let entry = GraphEntry {
            name: self.name.clone(),
            map,
            shards,
        };
        (entry, summary)
    }
}

/// Magic prefix of the service snapshot format ("pHSv").
const SERVICE_MAGIC: u32 = 0x7048_5376;
/// Service snapshot format version.
const SERVICE_SNAPSHOT_VERSION: u8 = 1;

impl<L: ServiceLabel> GraphEntry<L> {
    /// Serializes every shard (node lists + prepared snapshots with warm
    /// reachability indexes) plus the compression policy pinned onto
    /// them, so a restore preserves the graph-wide decision instead of
    /// letting each shard re-decide. `String` labels only — other label
    /// types get [`ServiceError::Unsupported`].
    pub(crate) fn snapshot(&self) -> Result<Bytes, ServiceError> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(SERVICE_MAGIC);
        buf.put_u8(SERVICE_SNAPSHOT_VERSION);
        buf.put_u8(self.map.compression().tag());
        buf.put_u32(self.graph().node_count() as u32);
        buf.put_u32(self.shards.len() as u32);
        for (si, prepared) in self.shards.iter().enumerate() {
            let nodes = self.map.shard_nodes(si);
            buf.put_u32(nodes.len() as u32);
            for &g in nodes {
                buf.put_u32(g.0);
            }
            let prepared = L::save_prepared(prepared)?;
            buf.put_u32(prepared.len() as u32);
            buf.put_slice(prepared.as_ref());
        }
        Ok(buf.freeze())
    }

    /// Restores an entry from [`GraphEntry::snapshot`] bytes: shard
    /// layout and warm indexes come from the snapshot (no closure
    /// recomputation); [`ShardMap`] checks the node lists and
    /// reassembles the full graph from the shard graphs. Each shard keeps
    /// the backend it was saved with and takes the snapshotted
    /// compression pin.
    pub(crate) fn restore(name: String, mut data: Bytes) -> Result<Self, ServiceError> {
        let need = |data: &Bytes, bytes: usize| -> Result<(), ServiceError> {
            if data.remaining() < bytes {
                Err(ServiceError::SnapshotCorrupt(format!(
                    "need {bytes} more bytes"
                )))
            } else {
                Ok(())
            }
        };
        need(&data, 14)?;
        let magic = data.get_u32();
        if magic != SERVICE_MAGIC {
            return Err(ServiceError::SnapshotCorrupt(format!(
                "bad service-snapshot magic {magic:#x}"
            )));
        }
        let version = data.get_u8();
        if version != SERVICE_SNAPSHOT_VERSION {
            return Err(ServiceError::SnapshotVersion {
                found: version as u32,
                supported: SERVICE_SNAPSHOT_VERSION as u32,
            });
        }
        let tag = data.get_u8();
        let compression = CompressionPolicy::from_tag(tag).ok_or_else(|| {
            ServiceError::SnapshotCorrupt(format!("unknown compression-policy tag {tag}"))
        })?;
        let n = data.get_u32() as usize;
        let shard_count = data.get_u32() as usize;
        // Every node appears in exactly one shard's node list at 4 bytes
        // apiece, so a header claiming more nodes than the remaining
        // bytes could hold is corrupt — and must be rejected *before*
        // the locator allocation sizes itself off the bogus count.
        if n > data.remaining() / 4 {
            return Err(ServiceError::SnapshotCorrupt(format!(
                "{n} nodes exceed what {} snapshot bytes can hold",
                data.remaining()
            )));
        }
        if shard_count > n.max(1) {
            return Err(ServiceError::SnapshotCorrupt(format!(
                "{shard_count} shards exceed {n} nodes"
            )));
        }
        let mut nodes: Vec<Vec<NodeId>> = Vec::with_capacity(shard_count);
        let mut blobs: Vec<Bytes> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            need(&data, 4)?;
            let count = data.get_u32() as usize;
            need(&data, 4 * count)?;
            nodes.push((0..count).map(|_| NodeId(data.get_u32())).collect());
            need(&data, 4)?;
            let len = data.get_u32() as usize;
            need(&data, len)?;
            blobs.push(data.split_to(len));
        }
        let mut shards: Vec<Arc<PreparedGraph<L>>> = Vec::with_capacity(shard_count);
        let map = ShardMap::assemble(n, nodes, compression, |si| {
            let prepared = L::load_prepared(blobs[si].clone(), compression)?;
            let graph = Arc::clone(prepared.graph());
            shards.push(Arc::new(prepared));
            Ok(graph)
        })?;
        Ok(GraphEntry { name, map, shards })
    }
}

/// The multi-graph registry: named [`GraphEntry`]s behind one lock.
/// Reads (queries, stats) clone an `Arc` out and release the lock before
/// any matching work; writes (register, evict, updates) swap whole
/// entries, so in-flight queries keep reading their consistent
/// copy-on-write snapshot.
#[derive(Debug, Default)]
pub struct GraphRegistry<L> {
    entries: RwLock<HashMap<String, Arc<GraphEntry<L>>>>,
}

impl<L: ServiceLabel> GraphRegistry<L> {
    /// An empty registry.
    pub fn new() -> Self {
        GraphRegistry {
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// The entry registered under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<GraphEntry<L>>, ServiceError> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::NotFound {
                graph: name.to_owned(),
            })
    }

    /// Inserts a freshly built entry; fails when the name is taken.
    pub(crate) fn insert(&self, entry: GraphEntry<L>) -> Result<Arc<GraphEntry<L>>, ServiceError> {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        if entries.contains_key(&entry.name) {
            return Err(ServiceError::AlreadyRegistered {
                graph: entry.name.clone(),
            });
        }
        let entry = Arc::new(entry);
        entries.insert(entry.name.clone(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Replaces the entry under `name` (the update path).
    pub(crate) fn replace(&self, entry: GraphEntry<L>) {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        entries.insert(entry.name.clone(), Arc::new(entry));
    }

    /// Removes the entry under `name`.
    pub fn evict(&self, name: &str) -> Result<(), ServiceError> {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        entries
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServiceError::NotFound {
                graph: name.to_owned(),
            })
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// `(graph count, total shard count)`.
    pub fn census(&self) -> (usize, usize) {
        let entries = self.entries.read().unwrap_or_else(|e| e.into_inner());
        let shards = entries.values().map(|e| e.shards.len()).sum();
        (entries.len(), shards)
    }
}
