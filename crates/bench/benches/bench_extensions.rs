//! Benches for the extension modules (DESIGN.md §1, S30–S36):
//!
//! * E1 — bounded-stretch closure construction vs the full closure, and
//!   bounded matching across hop bounds `k` (the \[32\] regime);
//! * E2 — randomized restarts: cost of best-of-`r` vs a single run,
//!   sequential vs threaded;
//! * E3 — graph edit distance vs MCS vs `compMaxCard` on top-k skeletons
//!   (the exact comparators explode, p-hom does not);
//! * E4 — tf–idf matrix construction vs shingle matrix construction;
//! * E5 — PageRank vs HITS weight computation;
//! * E6 — spam-classification kernel (per-message template matching).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phom_baselines::{graph_edit_distance, maximum_common_subgraph};
use phom_core::algo::comp_max_card_with;
use phom_core::restarts::{comp_max_card_restarts_with, RestartConfig};
use phom_core::AlgoConfig;
use phom_graph::TransitiveClosure;
use phom_sim::{pagerank, tfidf_matrix, NodeWeights, PageRankConfig, SimMatrix};
use phom_workloads::{
    generate_archive, generate_instance, shingle_matrix, skeleton_top_k, SiteCategory, SiteSpec,
    SyntheticConfig, SyntheticInstance,
};
use std::time::Duration;

fn instance(m: usize) -> SyntheticInstance {
    generate_instance(
        &SyntheticConfig {
            m,
            noise: 0.10,
            seed: 7,
        },
        1,
    )
}

/// E1a: closure construction — full vs hop-bounded.
fn bounded_closure_construction(c: &mut Criterion) {
    let inst = instance(300);
    let mut group = c.benchmark_group("ext_closure_construction");
    group.sample_size(10);
    group.bench_function("full", |b| b.iter(|| TransitiveClosure::new(&inst.g2)));
    for k in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("bounded", k), &k, |b, &k| {
            b.iter(|| TransitiveClosure::bounded(&inst.g2, k))
        });
    }
    group.finish();
}

/// E1b: matching quality/time across stretch bounds.
fn bounded_matching(c: &mut Criterion) {
    let inst = instance(200);
    let mat = inst.similarity_matrix();
    let cfg = AlgoConfig {
        xi: 0.75,
        ..Default::default()
    };
    let mut group = c.benchmark_group("ext_bounded_matching");
    group.sample_size(10);
    let full = TransitiveClosure::new(&inst.g2);
    group.bench_function("unbounded", |b| {
        b.iter(|| comp_max_card_with(&inst.g1, &full, &mat, &cfg, false))
    });
    for k in [1usize, 3, 6] {
        let closure = TransitiveClosure::bounded(&inst.g2, k);
        group.bench_with_input(BenchmarkId::new("k", k), &closure, |b, closure| {
            b.iter(|| comp_max_card_with(&inst.g1, closure, &mat, &cfg, false))
        });
    }
    group.finish();
}

/// E2: restart scaling — r ∈ {1, 4, 8}.
fn restart_scaling(c: &mut Criterion) {
    let inst = instance(150);
    let mat = inst.similarity_matrix();
    let cfg = AlgoConfig {
        xi: 0.75,
        ..Default::default()
    };
    let closure = TransitiveClosure::new(&inst.g2);
    let mut group = c.benchmark_group("ext_restarts");
    group.sample_size(10);
    for restarts in [1, 4, 8] {
        let rcfg = RestartConfig {
            restarts,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("r{restarts}")),
            &rcfg,
            |b, rcfg| {
                b.iter(|| comp_max_card_restarts_with(&inst.g1, &closure, &mat, &cfg, false, rcfg))
            },
        );
    }
    group.finish();
}

/// E3: the exact comparators (GED, MCS) vs compMaxCard on a 12-node
/// skeleton pair — this is the "cdkMCS took 180s on 20 nodes" shape.
fn exact_comparators(c: &mut Criterion) {
    let spec = SiteSpec {
        versions: 2,
        ..SiteSpec::test_scale(SiteCategory::Organization, 5)
    };
    let arch = generate_archive(&spec);
    let a = skeleton_top_k(&arch.versions[0], 12).graph;
    let b2 = skeleton_top_k(&arch.versions[1], 12).graph;
    let mat = shingle_matrix(&a, &b2, 4);
    let cfg = AlgoConfig {
        xi: 0.5,
        ..Default::default()
    };
    let budget = Duration::from_millis(250);

    let mut group = c.benchmark_group("ext_exact_comparators");
    group.sample_size(10);
    group.bench_function("comp_max_card", |b| {
        let closure = TransitiveClosure::new(&b2);
        b.iter(|| comp_max_card_with(&a, &closure, &mat, &cfg, false))
    });
    group.bench_function("ged_budgeted", |b| {
        b.iter(|| graph_edit_distance(&a, &b2, &mat, 0.5, budget))
    });
    group.bench_function("mcs_budgeted", |b| {
        b.iter(|| maximum_common_subgraph(&a, &b2, &mat, 0.5, budget))
    });
    group.finish();
}

/// E4: similarity-matrix construction — shingles vs tf–idf.
fn matrix_construction(c: &mut Criterion) {
    let spec = SiteSpec {
        versions: 2,
        ..SiteSpec::test_scale(SiteCategory::OnlineStore, 3)
    };
    let arch = generate_archive(&spec);
    let a = skeleton_top_k(&arch.versions[0], 40).graph;
    let b2 = skeleton_top_k(&arch.versions[1], 40).graph;
    let text_of = |g: &phom_workloads::websim::SiteGraph| {
        g.map_labels(|_, l| {
            l.tokens
                .iter()
                .map(|t| format!("t{t}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
    };
    let ta = text_of(&a);
    let tb = text_of(&b2);

    let mut group = c.benchmark_group("ext_matrix_construction");
    group.sample_size(10);
    group.bench_function("shingle_w4", |b| b.iter(|| shingle_matrix(&a, &b2, 4)));
    group.bench_function("tfidf", |b| b.iter(|| tfidf_matrix(&ta, &tb)));
    group.finish();
}

/// E5: node-importance weights — PageRank vs HITS vs degree.
fn weight_computation(c: &mut Criterion) {
    let inst = instance(400);
    let mut group = c.benchmark_group("ext_weights");
    group.sample_size(10);
    group.bench_function("pagerank", |b| {
        b.iter(|| pagerank(&inst.g2, &PageRankConfig::default()))
    });
    group.bench_function("hits", |b| b.iter(|| NodeWeights::by_hits(&inst.g2, 30)));
    group.bench_function("degree", |b| b.iter(|| NodeWeights::by_degree(&inst.g2)));
    group.finish();
}

/// E6: spam-classification kernel — template-vs-message matching per
/// mailbox message (matrix construction + compMaxCard), the unit of work
/// a filter pays per email.
fn spam_classification(c: &mut Criterion) {
    use phom_workloads::{email_matrix, generate_campaign, CampaignConfig};
    let cfg = CampaignConfig {
        wrapper_rate: 0.6,
        ..Default::default()
    };
    let inst = generate_campaign(&cfg, 4, 4);
    let acfg = AlgoConfig {
        xi: 0.4,
        ..Default::default()
    };
    let mut group = c.benchmark_group("ext_spam_classification");
    group.sample_size(20);
    group.bench_function("per_message", |b| {
        let mut it = inst.mailbox.iter().cycle();
        b.iter(|| {
            let (msg, _) = it.next().expect("cyclic");
            let mat = email_matrix(&inst.template, msg);
            comp_max_card_with(
                &inst.template,
                &TransitiveClosure::new(msg),
                &mat,
                &acfg,
                false,
            )
        })
    });
    group.finish();
}

/// Guard: the SimMatrix type stays pay-for-what-you-use — constructing an
/// n1×n2 label-equality matrix is the baseline cost every experiment pays.
fn label_matrix_baseline(c: &mut Criterion) {
    let inst = instance(300);
    let mut group = c.benchmark_group("ext_label_matrix");
    group.sample_size(10);
    group.bench_function("label_equality", |b| {
        b.iter(|| SimMatrix::label_equality(&inst.g1, &inst.g2))
    });
    group.finish();
}

criterion_group!(
    benches,
    bounded_closure_construction,
    bounded_matching,
    restart_scaling,
    exact_comparators,
    matrix_construction,
    weight_computation,
    spam_classification,
    label_matrix_baseline,
);
criterion_main!(benches);
