//! The query planner: inspects one [`Query`] (pattern size, stretch
//! bound, injectivity, candidate-pair count) and routes it to the
//! execution strategy the cost model prefers, mirroring Appendix B's
//! observation that tiny product graphs are cheaper to solve *exactly*
//! (`phom_core::bounds::prefer_exact`) while large ones need the greedy
//! approximation with its Theorem 5.1 guarantee.

use phom_core::Algorithm;
use phom_graph::DiGraph;
use phom_sim::{NodeWeights, SimMatrix};
use std::sync::Arc;
use std::time::Duration;

/// Which reachability backend a prepared graph should use for its full
/// closure — the policy knob behind `phom_graph::ReachabilityIndex`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClosureBackend {
    /// Pick per graph: dense below
    /// [`PlannerConfig::chain_node_threshold`] nodes (unbeatable query
    /// speed while `O(n²)` bits fit); at or above it, the *reach shape*
    /// decides between the compressed backends — sparse-reach graphs
    /// (most components see almost nothing, the regime chains compress
    /// well) keep the chain index, while dense-reach graphs (sampled
    /// mean reachable fraction at or past
    /// [`DENSE_REACH_DENSITY_CUTOFF`], where chain entry lists blow past
    /// the dense bitset itself) switch to the 2-hop labeling.
    #[default]
    Auto,
    /// Always the dense bitset closure (`TransitiveClosure`).
    Dense,
    /// Always the compressed chain index (`ChainIndex`).
    Chain,
    /// Always the pruned-landmark 2-hop labeling (`TwoHopIndex`).
    TwoHop,
}

/// The concrete backend [`ClosureBackend::resolve`] picked for one graph
/// (`Auto` resolved away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Dense bitset closure.
    Dense,
    /// Compressed chain index.
    Chain,
    /// Pruned-landmark 2-hop labeling.
    TwoHop,
}

/// Sampled mean reachable fraction of condensation components
/// (`phom_graph::reach_density_sample`) at or above which
/// [`ClosureBackend::Auto`] prefers the 2-hop labeling over the chain
/// index on large graphs. Calibrated on the PR 3 generator families:
/// dense-reach DAGs (`random_dag` at average degree 4, where the chain
/// index measured *worse* than dense) sample well above 0.10, while the
/// sparse preferential-attachment and hierarchy families (where chains
/// win by orders of magnitude) sample below 0.05.
pub const DENSE_REACH_DENSITY_CUTOFF: f64 = 0.05;

impl ClosureBackend {
    /// Parses the CLI spelling (`dense`, `chain`, `twohop`, `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(ClosureBackend::Auto),
            "dense" => Some(ClosureBackend::Dense),
            "chain" => Some(ClosureBackend::Chain),
            "twohop" => Some(ClosureBackend::TwoHop),
            _ => None,
        }
    }

    /// Resolves the policy for a graph of `nodes` nodes. `density` is
    /// consulted only by `Auto` at or above `chain_node_threshold` —
    /// pass a thunk over `phom_graph::reach_density_sample` so the probe
    /// runs only when the decision actually needs it.
    pub fn resolve(
        self,
        nodes: usize,
        chain_node_threshold: usize,
        density: impl FnOnce() -> f64,
    ) -> ResolvedBackend {
        match self {
            ClosureBackend::Dense => ResolvedBackend::Dense,
            ClosureBackend::Chain => ResolvedBackend::Chain,
            ClosureBackend::TwoHop => ResolvedBackend::TwoHop,
            ClosureBackend::Auto if nodes < chain_node_threshold => ResolvedBackend::Dense,
            ClosureBackend::Auto => {
                if density() >= DENSE_REACH_DENSITY_CUTOFF {
                    ResolvedBackend::TwoHop
                } else {
                    ResolvedBackend::Chain
                }
            }
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ClosureBackend::Auto => "auto",
            ClosureBackend::Dense => "dense",
            ClosureBackend::Chain => "chain",
            ClosureBackend::TwoHop => "twohop",
        }
    }
}

/// Node count at which [`ClosureBackend::Auto`] switches from the dense
/// closure to a compressed backend (chain or 2-hop, by reach density):
/// the dense rows of a 65k-node graph already cost ~0.5 GB of bits,
/// while the compressed indexes stay in the tens of MB on the families
/// they each target.
pub const DEFAULT_CHAIN_NODE_THRESHOLD: usize = 65_536;

/// Whether a prepared graph keeps the Appendix-B compressed graph `G2*`
/// (and its closure). The compressed and uncompressed matching runs are
/// both correct but are *different greedy runs* — they can return
/// different (equal-quality-class) mappings — so a sharded registry must
/// pin the decision that the whole graph would have made onto every
/// shard to stay result-identical with the unsharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionPolicy {
    /// Keep compression when `phom_core::compression_worthwhile` says the
    /// SCC condensation shrinks the graph enough to pay for the
    /// matrix-translation overhead (the original behavior).
    #[default]
    Auto,
    /// Always build and keep the compressed graph (even a trivial one
    /// where every SCC is a singleton).
    Always,
    /// Never keep the compressed graph.
    Never,
}

impl CompressionPolicy {
    /// Every policy, in tag order (declaration order).
    const ALL: [CompressionPolicy; 3] = [Self::Auto, Self::Always, Self::Never];

    /// The policy's one-byte tag in service snapshots and wire frames.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The policy behind a [`CompressionPolicy::tag`], if any.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    /// Resolves the policy for a graph of `nodes` nodes condensing to
    /// `scc_count` components: true = keep the compressed graph.
    pub fn keep(self, nodes: usize, scc_count: usize) -> bool {
        match self {
            CompressionPolicy::Auto => phom_core::compression_worthwhile(nodes, scc_count),
            CompressionPolicy::Always => nodes > 0,
            CompressionPolicy::Never => false,
        }
    }

    /// The pinned policy matching what [`CompressionPolicy::keep`] would
    /// decide for a whole graph — what a registry forces onto shards.
    pub fn pinned(nodes: usize, scc_count: usize) -> Self {
        if CompressionPolicy::Auto.keep(nodes, scc_count) {
            CompressionPolicy::Always
        } else {
            CompressionPolicy::Never
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CompressionPolicy::Auto => "auto",
            CompressionPolicy::Always => "always",
            CompressionPolicy::Never => "never",
        }
    }
}

/// Engine settings: how prepared graphs are built (reachability backend,
/// compression) and the per-query execution defaults (deadline,
/// intra-query workers). Routing takes no settings: [`plan_query`] sends
/// queries with at most 64 candidate pairs to exact branch-and-bound
/// (`phom_core::prefer_exact`), and a plan runs the restarts its query
/// asks for, one greedy pass by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Reachability-backend policy for prepared graphs.
    pub closure_backend: ClosureBackend,
    /// Node count at which [`ClosureBackend::Auto`] switches to the chain
    /// index.
    pub chain_node_threshold: usize,
    /// Engine-wide per-query deadline for approximate plans, applied when
    /// the query does not set [`QueryConfig::timeout`] itself. A query
    /// past its deadline stops at the next iteration boundary and
    /// returns its best-so-far mapping with `MatchStats::timed_out` set
    /// (counted in `EngineStats::timeouts`). Exact and baseline plans
    /// are not interruptible (the planner only routes tiny instances
    /// there). `None` (the default) never times out.
    pub timeout: Option<Duration>,
    /// Worker threads for *intra*-query per-component matching, for
    /// every query (see `phom_core::MatcherConfig::intra_workers`). `1`
    /// (the default) solves the pattern's components one by one in
    /// component order; `0` uses the available parallelism. With more workers every
    /// component is first solved unmasked in parallel, and a merge in
    /// component order keeps each answer unless the plan is 1-1 and an
    /// image an earlier component claimed scores in the component's rows,
    /// checked at merge time; such a component is solved again under the
    /// mask. Answers are identical for every worker count.
    pub intra_query_workers: usize,
    /// Whether prepared graphs keep the Appendix-B compressed graph.
    pub compression: CompressionPolicy,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            closure_backend: ClosureBackend::Auto,
            chain_node_threshold: DEFAULT_CHAIN_NODE_THRESHOLD,
            timeout: None,
            intra_query_workers: 1,
            compression: CompressionPolicy::Auto,
        }
    }
}

impl PlannerConfig {
    /// A builder starting from the defaults — the one config path the
    /// engine, the service layer, and the CLI all construct through.
    pub fn builder() -> PlannerConfigBuilder {
        PlannerConfigBuilder {
            config: PlannerConfig::default(),
        }
    }
}

/// Builder for [`PlannerConfig`] (see [`PlannerConfig::builder`]).
#[derive(Debug, Clone)]
pub struct PlannerConfigBuilder {
    config: PlannerConfig,
}

impl PlannerConfigBuilder {
    /// Sets [`PlannerConfig::closure_backend`].
    pub fn closure_backend(mut self, backend: ClosureBackend) -> Self {
        self.config.closure_backend = backend;
        self
    }

    /// Sets [`PlannerConfig::chain_node_threshold`].
    pub fn chain_node_threshold(mut self, nodes: usize) -> Self {
        self.config.chain_node_threshold = nodes;
        self
    }

    /// Sets [`PlannerConfig::timeout`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.config.timeout = Some(timeout);
        self
    }

    /// Sets [`PlannerConfig::timeout`] from an optional value (`None`
    /// clears it — convenient for CLI flag plumbing).
    pub fn timeout_opt(mut self, timeout: Option<Duration>) -> Self {
        self.config.timeout = timeout;
        self
    }

    /// Sets [`PlannerConfig::intra_query_workers`].
    pub fn intra_query_workers(mut self, workers: usize) -> Self {
        self.config.intra_query_workers = workers;
        self
    }

    /// Sets [`PlannerConfig::compression`].
    pub fn compression(mut self, policy: CompressionPolicy) -> Self {
        self.config.compression = policy;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> PlannerConfig {
        self.config
    }
}

/// Per-query knobs (the pattern-side half of a
/// [`phom_core::MatcherConfig`], plus planner hints). The Appendix-B
/// choices are not per query: every query partitions its pattern, and a
/// p-hom query without a stretch bound matches on the compressed graph
/// whenever its prepared graph kept one ([`CompressionPolicy`]).
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Similarity threshold `ξ`: `v` may map to `u` iff `mat(v, u) ≥ ξ`
    /// and `mat(v, u) > 0` ([`phom_sim::candidate_floor`]), at ξ = 0 too.
    pub xi: f64,
    /// Which of the four Table-1 problems to solve.
    pub algorithm: Algorithm,
    /// Bounded-stretch matching: image paths of at most this many edges.
    pub max_stretch: Option<usize>,
    /// Randomized restarts (`phom_core::restarts`), best of this many
    /// greedy runs; `None` runs the paper's algorithm once.
    pub restarts: Option<usize>,
    /// Bypass the planner and force a strategy. `PlanKind::Baseline` is
    /// only sound for edgeless patterns (the planner never picks it
    /// otherwise); forcing it on a pattern with edges may return an
    /// invalid p-hom mapping.
    pub force_plan: Option<PlanKind>,
    /// Per-query deadline; `None` falls back to
    /// [`PlannerConfig::timeout`]. See that field for semantics.
    pub timeout: Option<Duration>,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            xi: 0.5,
            algorithm: Algorithm::MaxCard,
            max_stretch: None,
            restarts: None,
            force_plan: None,
            timeout: None,
        }
    }
}

impl QueryConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> QueryConfigBuilder {
        QueryConfigBuilder {
            config: QueryConfig::default(),
        }
    }
}

/// Builder for [`QueryConfig`] (see [`QueryConfig::builder`]).
#[derive(Debug, Clone)]
pub struct QueryConfigBuilder {
    config: QueryConfig,
}

impl QueryConfigBuilder {
    /// Sets [`QueryConfig::xi`].
    pub fn xi(mut self, xi: f64) -> Self {
        self.config.xi = xi;
        self
    }

    /// Sets [`QueryConfig::algorithm`].
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets [`QueryConfig::max_stretch`].
    pub fn max_stretch(mut self, k: usize) -> Self {
        self.config.max_stretch = Some(k);
        self
    }

    /// Sets [`QueryConfig::restarts`].
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.config.restarts = Some(restarts);
        self
    }

    /// Sets [`QueryConfig::force_plan`].
    pub fn force_plan(mut self, kind: PlanKind) -> Self {
        self.config.force_plan = Some(kind);
        self
    }

    /// Sets [`QueryConfig::timeout`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.config.timeout = Some(timeout);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> QueryConfig {
        self.config
    }
}

/// One pattern query against a prepared data graph.
#[derive(Debug, Clone)]
pub struct Query<L> {
    /// The pattern `G1`.
    pub pattern: Arc<DiGraph<L>>,
    /// Node-similarity matrix (`pattern.node_count()` ×
    /// `data.node_count()`).
    pub matrix: SimMatrix,
    /// `qualSim` weights over the pattern; `None` = uniform.
    pub weights: Option<NodeWeights>,
    /// Query configuration.
    pub config: QueryConfig,
}

impl<L> Query<L> {
    /// A query with default configuration.
    pub fn new(pattern: Arc<DiGraph<L>>, matrix: SimMatrix) -> Self {
        Query {
            pattern,
            matrix,
            weights: None,
            config: QueryConfig::default(),
        }
    }

    /// The weights to score `qualSim` with (uniform when unset).
    pub fn effective_weights(&self) -> NodeWeights {
        self.weights
            .clone()
            .unwrap_or_else(|| NodeWeights::uniform(self.pattern.node_count()))
    }
}

/// The execution strategy a query was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Branch-and-bound exact optimum (tiny candidate sets only).
    Exact,
    /// The paper's greedy approximation (`compMaxCard`/`compMaxSim`
    /// via the Appendix-B matcher), possibly with restarts.
    Approx,
    /// Approximation against the hop-bounded closure (stretch bound).
    Bounded,
    /// Independent best-candidate assignment — the degenerate strategy
    /// for edgeless patterns, where p-hom imposes no path constraints.
    Baseline,
}

impl PlanKind {
    /// Every plan kind, in slot order: a kind's position here is its
    /// [`PlanKind::index`], its slot in per-plan tables and its wire tag.
    pub const ALL: [PlanKind; 4] = [Self::Exact, Self::Approx, Self::Bounded, Self::Baseline];

    /// This kind's position in [`PlanKind::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Exact => "exact",
            PlanKind::Approx => "approx",
            PlanKind::Bounded => "bounded",
            PlanKind::Baseline => "baseline",
        }
    }
}

/// A routing decision plus the planner's rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Chosen strategy.
    pub kind: PlanKind,
    /// Restarts the executor should run (1 = the paper's algorithm).
    pub restarts: usize,
    /// Human-readable rationale (for engine stats / EXPLAIN output).
    pub reason: &'static str,
}

/// Routes a query. Deterministic in the query alone (the prepared data
/// graph's artifacts do not change the choice, only its cost).
///
/// The candidate-pair count scans the query's whole `n1 × n2` matrix. A
/// query that forces its plan (every shard sub-query does) needs no
/// count, so it scans nothing; a caller that already holds the count
/// plans through [`plan_query_with_count`].
pub fn plan_query<L>(query: &Query<L>) -> Plan {
    plan_query_with_count(query, || query.matrix.candidate_pair_count(query.config.xi))
}

/// [`plan_query`] with the query's candidate-pair count (pairs scoring
/// above 0 and at least `ξ`) taken from `candidate_pairs`, which is
/// called at most once and not at all when the query forces its plan.
pub fn plan_query_with_count<L>(query: &Query<L>, candidate_pairs: impl FnOnce() -> usize) -> Plan {
    let restarts = query.config.restarts.unwrap_or(1);
    if let Some(kind) = query.config.force_plan {
        return Plan {
            kind,
            restarts,
            reason: "forced by query config",
        };
    }
    let candidate_pairs = candidate_pairs();
    if query.config.max_stretch.is_some() {
        return Plan {
            kind: PlanKind::Bounded,
            restarts,
            reason: "stretch bound requires the hop-bounded closure",
        };
    }
    if query.pattern.edge_count() == 0 {
        return Plan {
            kind: PlanKind::Baseline,
            restarts: 1,
            reason: "edgeless pattern: no path constraints to satisfy",
        };
    }
    if phom_core::prefer_exact(candidate_pairs) {
        return Plan {
            kind: PlanKind::Exact,
            restarts: 1,
            reason: "tiny candidate set: exact branch-and-bound is affordable",
        };
    }
    Plan {
        kind: PlanKind::Approx,
        restarts,
        reason: "greedy approximation with the Theorem 5.1 guarantee",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_graph::graph_from_labels;

    fn query_for(n_labels: usize, edges: &[(&str, &str)]) -> Query<String> {
        let labels: Vec<String> = (0..n_labels).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        let g1 = Arc::new(graph_from_labels(&refs, edges));
        // Dense all-ones matrix against a 40-node data side: candidate
        // count = n_labels * 40.
        let matrix = SimMatrix::from_fn(n_labels, 40, |_, _| 1.0);
        Query::new(g1, matrix)
    }

    #[test]
    fn enum_tables_list_each_variant_at_its_index() {
        for (i, kind) in PlanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        for (i, policy) in CompressionPolicy::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(policy.tag()), i);
            assert_eq!(CompressionPolicy::from_tag(policy.tag()), Some(policy));
        }
        assert_eq!(CompressionPolicy::from_tag(3), None);
    }

    #[test]
    fn stretch_routes_to_bounded() {
        let mut q = query_for(3, &[("n0", "n1")]);
        q.config.max_stretch = Some(2);
        assert_eq!(plan_query(&q).kind, PlanKind::Bounded);
    }

    #[test]
    fn edgeless_routes_to_baseline() {
        let q = query_for(3, &[]);
        assert_eq!(plan_query(&q).kind, PlanKind::Baseline);
    }

    #[test]
    fn tiny_candidate_set_routes_to_exact() {
        let mut q = query_for(2, &[("n0", "n1")]);
        // Shrink the candidate set below the prefer_exact cutoff.
        q.matrix = SimMatrix::from_fn(2, 40, |v, u| {
            if u.index() < 8 && v.index() == u.index() % 2 {
                1.0
            } else {
                0.0
            }
        });
        let plan = plan_query(&q);
        assert_eq!(plan.kind, PlanKind::Exact);
        assert_eq!(plan.restarts, 1);
    }

    #[test]
    fn large_instance_routes_to_approx() {
        let q = query_for(10, &[("n0", "n1"), ("n1", "n2")]);
        let plan = plan_query(&q);
        assert_eq!(plan.kind, PlanKind::Approx);
        assert_eq!(plan.restarts, 1, "no restarts unless the query asks");
    }

    #[test]
    fn requested_restarts_win() {
        let mut q = query_for(10, &[("n0", "n1")]);
        q.config.restarts = Some(9);
        assert_eq!(plan_query(&q).restarts, 9);
    }

    #[test]
    fn force_plan_bypasses_routing() {
        let mut q = query_for(10, &[("n0", "n1")]);
        q.config.force_plan = Some(PlanKind::Approx);
        q.config.max_stretch = Some(1); // would otherwise route Bounded
        assert_eq!(plan_query(&q).kind, PlanKind::Approx);
    }

    #[test]
    fn forced_plan_reads_no_count_with_or_without_restarts() {
        // 8 candidate pairs: unforced, this plans Exact with 1 restart.
        let mut q = query_for(2, &[("n0", "n1")]);
        q.matrix = SimMatrix::from_fn(2, 40, |_, u| if u.index() < 4 { 1.0 } else { 0.0 });
        assert_eq!(plan_query(&q).kind, PlanKind::Exact);
        q.config.force_plan = Some(PlanKind::Approx);
        for (requested, runs) in [(Some(3), 3), (None, 1)] {
            q.config.restarts = requested;
            let plan = plan_query_with_count(&q, || panic!("a forced plan reads no count"));
            assert_eq!((plan.kind, plan.restarts), (PlanKind::Approx, runs));
            assert_eq!(plan_query(&q), plan);
        }
    }

    #[test]
    fn backend_policy_resolves_by_size_then_density() {
        let panic_density = || -> f64 { panic!("density probe must stay lazy") };
        // Forced backends never probe.
        for (policy, want) in [
            (ClosureBackend::Dense, ResolvedBackend::Dense),
            (ClosureBackend::Chain, ResolvedBackend::Chain),
            (ClosureBackend::TwoHop, ResolvedBackend::TwoHop),
        ] {
            assert_eq!(policy.resolve(1_000_000, 100, panic_density), want);
        }
        // Auto below the node threshold is dense, still without probing.
        assert_eq!(
            ClosureBackend::Auto.resolve(99, 100, panic_density),
            ResolvedBackend::Dense
        );
        // At or above it, the sampled reach density decides.
        assert_eq!(
            ClosureBackend::Auto.resolve(100, 100, || 0.40),
            ResolvedBackend::TwoHop
        );
        assert_eq!(
            ClosureBackend::Auto.resolve(100, 100, || 0.01),
            ResolvedBackend::Chain
        );
        assert_eq!(
            ClosureBackend::parse("twohop"),
            Some(ClosureBackend::TwoHop)
        );
        assert_eq!(ClosureBackend::TwoHop.name(), "twohop");
    }
}
