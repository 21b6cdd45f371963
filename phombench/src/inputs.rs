//! Seeded inputs for one run: the data graph, the distinct patterns and
//! the fixed op sequence. Everything here is a pure function of the
//! workload shape and the seed, so two runs of one seed do the same work
//! and end in the same state.
//!
//! A run serves one or more data graphs side by side. Each is a disjoint
//! union of "parts": each part is the noisy data graph `G2` of one §6
//! synthetic instance (`phom-workloads`, the Figs. 5–6 model) with its
//! own label pool, so labels of different parts are totally different
//! and a query finds candidates only in the parts its pattern was cut
//! from. Update batches toggle edges of the write-only parts when the
//! shape has them, so the queries of a read workload see a graph that
//! never changes, and of the query parts otherwise.

use phom_core::Algorithm;
use phom_dynamic::GraphUpdate;
use phom_engine::{Query, QueryConfig};
use phom_graph::{DiGraph, NodeId, XorShift64};
use phom_sim::SimMatrix;
use phom_workloads::synthetic::{generate_instance, LabelPool, SyntheticConfig};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The knobs that make one workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Data graphs served side by side, each from parts of its own, with
    /// patterns and update batches spread evenly over them: a run's
    /// figures average over that many independent instances.
    pub graphs: usize,
    /// Parts (weakly connected components with distinct label pools)
    /// that patterns are cut from.
    pub parts: usize,
    /// Further parts that only update batches touch (0: updates toggle
    /// edges of the query parts).
    pub write_parts: usize,
    /// §6 pattern size `m` of each part's synthetic instance.
    pub part_m: usize,
    /// §6 noise rate of each part's data graph.
    pub noise: f64,
    /// Similarity threshold ξ of every query.
    pub xi: f64,
    /// Pattern window size range per part, inclusive.
    pub window: (usize, usize),
    /// Shares (in parts per hundred) of patterns cut from 1, 2 and 3 parts.
    pub parts_per_pattern: [usize; 3],
    /// Distinct patterns in the run.
    pub patterns: usize,
    /// Share of patterns queried with a stretch bound.
    pub stretch_share: f64,
    /// The stretch bound `k` of those patterns.
    pub stretch: usize,
    /// Exact-plan probe patterns for the traced run (0: none).
    pub cliff_patterns: usize,
}

/// One part of the data graph.
struct Part {
    pool: LabelPool,
    /// The §6 pattern graph the part's data graph was derived from;
    /// query patterns are windows of it.
    g1: DiGraph<u32>,
    /// Labels of the part's data nodes, by local id.
    labels: Vec<u32>,
    /// Global id of the part's local node 0.
    offset: u32,
    /// The part's data edges, in global ids.
    edges: Vec<(u32, u32)>,
}

/// One data graph under construction.
struct Instance {
    /// Query parts first, then write-only parts.
    parts: Vec<Part>,
    /// Nodes of the data graph.
    n2: usize,
}

/// One distinct query pattern and its fixed query settings.
pub struct PatternSpec {
    /// The pattern graph.
    pub graph: Arc<DiGraph<String>>,
    /// Index of the data graph the pattern is asked against.
    pub target: usize,
    /// Nodes of that data graph: the matrix's column count.
    n2: usize,
    /// Similarity threshold ξ.
    xi: f64,
    /// Per pattern node, its non-zero similarities: (global data node, score).
    rows: Vec<Vec<(u32, f64)>>,
    /// The Table-1 problem this pattern is always asked as.
    pub algorithm: Algorithm,
    /// Stretch bound, for bounded queries.
    pub stretch: Option<usize>,
}

/// One operation of the fixed sequence.
pub enum Op {
    /// Query the pattern with this index.
    Query(usize),
    /// Apply this edge-toggle batch to the data graph with this index.
    Update(usize, Vec<GraphUpdate>),
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// The data graphs.
    pub data: Vec<Arc<DiGraph<String>>>,
    /// Similarity threshold of every query.
    pub xi: f64,
    /// The distinct patterns.
    pub patterns: Vec<PatternSpec>,
    /// The traced run's exact-plan probe: single-part patterns of
    /// `CLIFF_WINDOW` nodes with `CLIFF_PAIRS` candidate pairs.
    pub cliff: Vec<PatternSpec>,
    /// The timed op sequence.
    pub ops: Vec<Op>,
    /// Queries in `ops`.
    pub query_ops: usize,
    /// Update batches in `ops`.
    pub update_ops: usize,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

impl PatternSpec {
    /// Builds the query: the dense similarity matrix against every node
    /// of the target data graph plus the pattern's fixed config.
    pub fn query(&self) -> Query<String> {
        let mut matrix = SimMatrix::new(self.graph.node_count(), self.n2);
        for (v, row) in self.rows.iter().enumerate() {
            for &(u, s) in row {
                matrix.set(NodeId(v as u32), NodeId(u), s);
            }
        }
        let mut config = QueryConfig::builder().xi(self.xi).algorithm(self.algorithm);
        if let Some(k) = self.stretch {
            config = config.max_stretch(k);
        }
        let mut query = Query::new(Arc::clone(&self.graph), matrix);
        query.config = config.build();
        query
    }

    /// Candidate pairs (similarity ≥ ξ) of the query's matrix: the count
    /// the planner routes on.
    fn candidate_pairs(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|&&(_, s)| s >= self.xi)
            .count()
    }
}

/// Generates the inputs of one run: `queries` queries and `updates`
/// edge-toggle batches in seeded random positions among them.
pub fn generate(shape: &Shape, seed: u64, queries: usize, updates: usize) -> Inputs {
    let per_graph = shape.parts + shape.write_parts;
    let (data, instances): (Vec<_>, Vec<_>) = (0..shape.graphs)
        .map(|g| data_graph(shape, seed, g * per_graph))
        .unzip();

    // Pattern classes come in exact proportions, each attribute shuffled
    // on its own: a seed changes which pattern falls in which class, never
    // the class mix, so no seed moves a percentile across a step between
    // classes of different cost.
    let mut rng = XorShift64::new(mix(seed, 0x7061_7474)); // "patt"
    let n = shape.patterns;
    let mut spans: Vec<usize> = (0..n)
        .map(|i| {
            let percent = i * 100 / n;
            let [one, two, _] = shape.parts_per_pattern;
            1 + usize::from(percent >= one) + usize::from(percent >= one + two)
        })
        .collect();
    let mut algorithms: Vec<Algorithm> = (0..n).map(|i| ALGORITHMS[i % 4]).collect();
    let stretched = (n as f64 * shape.stretch_share).round() as usize;
    let mut stretch: Vec<bool> = (0..n).map(|i| i < stretched).collect();
    let mut targets: Vec<usize> = (0..n).map(|i| i % shape.graphs).collect();
    shuffle(&mut spans, &mut rng);
    shuffle(&mut algorithms, &mut rng);
    shuffle(&mut stretch, &mut rng);
    shuffle(&mut targets, &mut rng);
    let patterns: Vec<PatternSpec> = (0..n)
        .map(|i| {
            let k = stretch[i].then_some(shape.stretch);
            let t = targets[i];
            pattern(
                &instances[t],
                t,
                shape,
                spans[i],
                algorithms[i],
                k,
                &mut rng,
            )
        })
        .collect();

    let cliff = cliff_patterns(&instances, shape, seed);

    let mut update_rng = XorShift64::new(mix(seed, 0x7570_6474)); // "updt"
    let mut edges: Vec<HashSet<(u32, u32)>> = data
        .iter()
        .map(|d| d.edges().map(|(a, b)| (a.0, b.0)).collect())
        .collect();
    let pools: Vec<Vec<(u32, u32)>> = instances
        .iter()
        .zip(&edges)
        .map(|(inst, e)| {
            let (query_parts, write_parts) = inst.parts.split_at(shape.parts);
            let toggled = if write_parts.is_empty() {
                query_parts
            } else {
                write_parts
            };
            toggle_pool(toggled, e, &mut update_rng)
        })
        .collect();
    let mut update_targets: Vec<usize> = (0..updates).map(|i| i % shape.graphs).collect();
    shuffle(&mut update_targets, &mut update_rng);
    let mut ops = Vec::with_capacity(queries + updates);
    let (mut q_left, mut u_left) = (queries, updates);
    while q_left + u_left > 0 {
        if rng.below(q_left + u_left) < u_left {
            let g = update_targets[updates - u_left];
            let batch = toggle_batch(&pools[g], &mut edges[g], &mut update_rng);
            ops.push(Op::Update(g, batch));
            u_left -= 1;
        } else {
            ops.push(Op::Query(rng.below(patterns.len())));
            q_left -= 1;
        }
    }
    Inputs {
        data: data.into_iter().map(Arc::new).collect(),
        xi: shape.xi,
        patterns,
        cliff,
        ops,
        query_ops: queries,
        update_ops: updates,
    }
}

/// One data graph: `shape.parts` query parts, then `shape.write_parts`
/// write-only parts, numbered from `first` in the seed's part sequence.
fn data_graph(shape: &Shape, seed: u64, first: usize) -> (DiGraph<String>, Instance) {
    let mut data: DiGraph<String> = DiGraph::new();
    let mut parts = Vec::with_capacity(shape.parts + shape.write_parts);
    for p in 0..shape.parts + shape.write_parts {
        let cfg = SyntheticConfig {
            m: shape.part_m,
            noise: shape.noise,
            seed: mix(seed, (first + p) as u64 + 1),
        };
        let inst = generate_instance(&cfg, 1);
        let offset = data.node_count() as u32;
        let labels: Vec<u32> = inst.g2.nodes().map(|u| *inst.g2.label(u)).collect();
        for &l in &labels {
            data.add_node(format!("{p}:{l}"));
        }
        let edges: Vec<(u32, u32)> = inst
            .g2
            .edges()
            .map(|(a, b)| (a.0 + offset, b.0 + offset))
            .collect();
        for &(a, b) in &edges {
            data.add_edge(NodeId(a), NodeId(b));
        }
        parts.push(Part {
            pool: inst.pool,
            g1: inst.g1,
            labels,
            offset,
            edges,
        });
    }
    let n2 = data.node_count();
    (data, Instance { parts, n2 })
}

/// Window size of the exact-plan probe's patterns. Single-part patterns
/// of 15–16 nodes just under the planner's default exact cutoff of 64
/// candidate pairs plan exact, where branch and bound takes from under a
/// millisecond to hundreds of milliseconds depending on the instance: too
/// rare and too heavy-tailed for a steady mean, so the workloads keep
/// windows below it and the traced run measures it on its own.
const CLIFF_WINDOW: (usize, usize) = (15, 16);

/// Candidate-pair counts of the exact-plan probe's patterns.
const CLIFF_PAIRS: std::ops::RangeInclusive<usize> = 45..=64;

/// Windows drawn per wanted probe pattern before the probe settles for
/// fewer (a shape whose windows never fall in `CLIFF_PAIRS`).
const CLIFF_ATTEMPTS: usize = 50;

/// The exact-plan probe: seeded single-part windows of `CLIFF_WINDOW`
/// nodes, kept only when their candidate count lies in `CLIFF_PAIRS`,
/// drawn from the data graphs in turn. The selection reads the input
/// alone, never a timing, so a seed always gives the same probe.
fn cliff_patterns(instances: &[Instance], shape: &Shape, seed: u64) -> Vec<PatternSpec> {
    let cliff_shape = Shape {
        window: CLIFF_WINDOW,
        ..*shape
    };
    let mut rng = XorShift64::new(mix(seed, 0x636c_6966)); // "clif"
    let mut cliff = Vec::with_capacity(shape.cliff_patterns);
    for _ in 0..shape.cliff_patterns * CLIFF_ATTEMPTS {
        if cliff.len() == shape.cliff_patterns {
            break;
        }
        let algorithm = ALGORITHMS[cliff.len() % 4];
        let t = cliff.len() % instances.len();
        let spec = pattern(&instances[t], t, &cliff_shape, 1, algorithm, None, &mut rng);
        if CLIFF_PAIRS.contains(&spec.candidate_pairs()) {
            cliff.push(spec);
        }
    }
    cliff
}

/// The four Table-1 problems.
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::MaxCard,
    Algorithm::MaxCard1to1,
    Algorithm::MaxSim,
    Algorithm::MaxSim1to1,
];

/// Fisher–Yates shuffle driven by the seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A pattern against data graph `target`, cut from `spans` distinct query
/// parts: the union of one window of each part's §6 pattern graph.
fn pattern(
    instance: &Instance,
    target: usize,
    shape: &Shape,
    spans: usize,
    algorithm: Algorithm,
    stretch: Option<usize>,
    rng: &mut XorShift64,
) -> PatternSpec {
    let parts = &instance.parts[..shape.parts];
    let spans = spans.min(parts.len());
    let mut chosen: Vec<usize> = Vec::with_capacity(spans);
    while chosen.len() < spans {
        let p = rng.below(parts.len());
        if !chosen.contains(&p) {
            chosen.push(p);
        }
    }

    let mut graph: DiGraph<String> = DiGraph::new();
    let mut rows = Vec::new();
    for &p in &chosen {
        let part = &parts[p];
        let keep = window(part, shape, rng);
        let base = graph.node_count() as u32;
        for &w in &keep {
            let label = *part.g1.label(NodeId(w));
            graph.add_node(format!("{p}:{label}"));
            let row: Vec<(u32, f64)> = part
                .labels
                .iter()
                .enumerate()
                .filter_map(|(local, &l)| {
                    let s = part.pool.similarity(label, l);
                    (s > 0.0).then_some((part.offset + local as u32, s))
                })
                .collect();
            rows.push(row);
        }
        let lo = keep[0];
        for &w in &keep {
            for &t in part.g1.post(NodeId(w)) {
                if (lo..lo + keep.len() as u32).contains(&t.0) {
                    graph.add_edge(NodeId(base + w - lo), NodeId(base + t.0 - lo));
                }
            }
        }
    }
    PatternSpec {
        graph: Arc::new(graph),
        target,
        n2: instance.n2,
        xi: shape.xi,
        rows,
        algorithm,
        stretch,
    }
}

/// A window `lo..lo+size` of a part's pattern graph holding at least one
/// edge (edgeless patterns would route to the baseline plan).
fn window(part: &Part, shape: &Shape, rng: &mut XorShift64) -> Vec<u32> {
    let m = part.g1.node_count();
    let (min, max) = (shape.window.0.min(m), shape.window.1.min(m));
    loop {
        let size = min + rng.below(max - min + 1);
        let lo = rng.below(m - size + 1) as u32;
        let keep: BTreeSet<NodeId> = (lo..lo + size as u32).map(NodeId).collect();
        let (sub, _) = part.g1.induced_subgraph(&keep);
        if sub.edge_count() > 0 {
            return (lo..lo + size as u32).collect();
        }
    }
}

/// Node pairs the update batches toggle: half are data edges, half are
/// absent pairs, each inside one part. Toggling only these keeps the
/// graph at its size in expectation (each pair is present about half the
/// time), so the run's work does not drift as updates accumulate.
fn toggle_pool(
    parts: &[Part],
    edges: &HashSet<(u32, u32)>,
    rng: &mut XorShift64,
) -> Vec<(u32, u32)> {
    let mut pool: Vec<(u32, u32)> = Vec::with_capacity(TOGGLE_POOL);
    let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(TOGGLE_POOL);
    while pool.len() < TOGGLE_POOL {
        let part = &parts[rng.below(parts.len())];
        let pair = if pool.len().is_multiple_of(2) {
            if part.edges.is_empty() {
                continue;
            }
            part.edges[rng.below(part.edges.len())]
        } else {
            let n = part.labels.len();
            let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
            let pair = (part.offset + a, part.offset + b);
            if a == b || edges.contains(&pair) {
                continue;
            }
            pair
        };
        if chosen.insert(pair) {
            pool.push(pair);
        }
    }
    pool
}

/// Pairs in the toggle pool.
const TOGGLE_POOL: usize = 256;

/// A batch of 1–3 toggles of pool pairs: each deletes the edge if it is
/// present and inserts it otherwise.
fn toggle_batch(
    pool: &[(u32, u32)],
    edges: &mut HashSet<(u32, u32)>,
    rng: &mut XorShift64,
) -> Vec<GraphUpdate> {
    let size = 1 + rng.below(3);
    (0..size)
        .map(|_| {
            let (a, b) = pool[rng.below(pool.len())];
            if edges.remove(&(a, b)) {
                GraphUpdate::RemoveEdge(NodeId(a), NodeId(b))
            } else {
                edges.insert((a, b));
                GraphUpdate::InsertEdge(NodeId(a), NodeId(b))
            }
        })
        .collect()
}
