//! `phom` — command-line graph matcher. `phom --help` prints the
//! synopsis of every subcommand.
//!
//! `engine-batch` and `engine-live` run through the service layer
//! (`phom_service::Service`) with sharding disabled; `serve-sim` stands
//! up a multi-graph registry with WCC sharding and admission control and
//! replays an open-loop request mix against it; `flight-dump` replays a
//! short synthetic batch and prints the always-on flight recorder's
//! retained per-query summaries.
//!
//! Every replay builds its whole run from the flags and `--seed` alone
//! before any op runs — the named graphs, a query table, and an op list
//! of queries and concrete edge updates ([`Workload`]) — and then runs
//! that list through one driver ([`replay`]), closed loop or on the
//! `--arrivals` schedule. One printer and one `--stats-json` writer
//! consume the driver's [`ReplayReport`].
//!
//! `worker` hosts one single-process `Service` over TCP speaking the
//! `phom_cluster` wire protocol; `serve-sim --processes N` spawns `N`
//! such workers as child processes, shards every registered graph
//! across them behind a `phom_cluster::Router` front-end (with
//! `--replicas R` read replicas per shard), and replays the same
//! workload through the router. `--kill-worker` kills one worker
//! process mid-replay to exercise heartbeat failure detection and
//! replica promotion.
//!
//! `lint` runs the project's own rule set (`phom_audit`) over the
//! workspace (or the given paths) and, with `--deny`, exits nonzero on
//! any finding not covered by `lint-baseline.txt`; `audit` validates a
//! serialized engine snapshot with the structural tier and, with
//! `--deep`, the graph-backed tier (`--generate` writes a synthetic
//! snapshot to audit, which CI corrupts to exercise the negative path).
//!
//! The service-backed subcommands additionally accept the
//! **operations flags**: `--journal PATH` (structured JSON-lines event
//! journal), `--metrics-text PATH` (Prometheus text exposition — every
//! replay rewrites it periodically, the others write it once at exit),
//! `--flight-capacity N` (per-query flight-recorder ring size; `0`
//! disables it), and the SLO knobs `--slo-p99-micros U` (per-plan p99
//! latency objectives), `--slo-shed-rate F`, and `--slo-timeout-rate F`
//! (bad-event rate ceilings as fractions in `(0,1]`).
//!
//! Graph files use the text format of `phom_graph::serialize`
//! (`node <id> <label>` / `edge <from> <to>` lines; `#` comments).
//! Node similarity is label equality unless `--text-sim W` is given, in
//! which case labels are treated as whitespace-tokenized page content and
//! compared with `W`-shingles.

use phom::engine::{Plan, PrepareStats};
use phom::graph::serialize::from_text;
use phom::prelude::*;
use phom::workloads::synthetic::{Label, LabelPool};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: phom <match|decide|stats> <files..> [flags]; see --help");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!(
            "phom — p-homomorphism graph matching (Fan et al., VLDB 2010)\n\n\
             phom match    <pattern> <data> [--xi F] [--algorithm card|card11|sim|sim11]\n\
             \x20                           [--text-sim W] [--exact] [--witness] [--dot]\n\
             \x20                           [--max-stretch K] [--restarts R]\n\
             phom decide   <pattern> <data> [--xi F] [--one-to-one] [--text-sim W]\n\
             \x20                           [--max-stretch K]\n\
             phom stats    <file>\n\
             phom generate <pattern.out> <data.out> [--nodes M] [--noise P] [--seed S]\n\
             phom engine-batch [--workload synthetic|websim] [--queries N] [--xi F]\n\
             \x20                           [--threads T] [--nodes M] [--noise P] [--seed S] [--cold]\n\
             \x20                           [--algorithm card|card11|sim|sim11]\n\
             \x20                           [--closure-backend dense|chain|twohop|auto]\n\
             \x20                           [--arrivals open:<rate>|poisson:<rate>]\n\
             \x20                           [--queue-depth D] [--timeout-micros U]\n\
             \x20                           [--intra-workers W] [--stats-json PATH]\n\
             \x20                           [--trace-json PATH] [--slow-query-micros T]\n\
             phom engine-live [--ops N] [--update-ratio R] [--xi F]\n\
             \x20                           [--nodes M] [--noise P] [--seed S]\n\
             \x20                           [--algorithm card|card11|sim|sim11]\n\
             \x20                           [--closure-backend dense|chain|twohop|auto]\n\
             \x20                           [--timeout-micros U] [--intra-workers W]\n\
             \x20                           [--stats-json PATH]\n\
             \x20                           [--trace-json PATH] [--slow-query-micros T]\n\
             phom serve-sim [--graphs G] [--parts K] [--nodes M] [--queries N]\n\
             \x20                           [--update-ratio R] [--queue-depth D] [--threads T]\n\
             \x20                           [--closure-backend dense|chain|twohop|auto]\n\
             \x20                           [--arrivals open:<rate>|poisson:<rate>] [--seed S]\n\
             \x20                           [--xi F] [--noise P] [--timeout-micros U]\n\
             \x20                           [--stats-json PATH]\n\
             \x20                           [--trace-json PATH] [--slow-query-micros T]\n\
             \x20                           [--processes N] [--replicas R] [--kill-worker]\n\
             phom worker   --listen <host:port> [--max-seconds S]\n\
             \x20                           [--closure-backend dense|chain|twohop|auto]\n\
             \x20                           [--threads T] [--intra-workers W]\n\
             \x20                           [--timeout-micros U] [--journal PATH]\n\
             \x20                           [--metrics-text PATH]\n\
             phom flight-dump [--queries N] [--nodes M] [--noise P] [--seed S] [--xi F]\n\
             phom lint     [paths..] [--deny] [--json] [--baseline PATH]\n\
             phom audit    --graph <snapshot> [--deep] [--samples N]\n\
             phom audit    --generate <snapshot.out> [--nodes M] [--seed S]\n\
             \x20                           [--closure-backend dense|chain|twohop|auto]\n\n\
             operations flags (engine-batch, engine-live, serve-sim, flight-dump, worker):\n\
             \x20  --journal PATH         JSON-lines event journal sink\n\
             \x20  --metrics-text PATH    Prometheus text exposition (replays: periodic)\n\
             \x20  --flight-capacity N    flight-recorder ring size (0 disables)\n\
             \x20  --slo-p99-micros U     per-plan p99 latency objectives\n\
             \x20  --slo-shed-rate F      shed-rate ceiling over offered load\n\
             \x20  --slo-timeout-rate F   timeout-rate ceiling over admitted queries"
        );
        return ExitCode::SUCCESS;
    }

    match args[0].as_str() {
        "match" => cmd_match(&args[1..]),
        "decide" => cmd_decide(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "engine-batch" => cmd_engine_batch(&args[1..]),
        "engine-live" => cmd_engine_live(&args[1..]),
        "serve-sim" => cmd_serve_sim(&args[1..]),
        "worker" => cmd_worker(&args[1..]),
        "flight-dump" => cmd_flight_dump(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        other => fail(&format!("unknown command {other:?}")),
    }
}

struct Flags {
    xi: f64,
    algorithm: Option<Algorithm>,
    one_to_one: bool,
    text_sim: Option<usize>,
    exact: bool,
    witness: bool,
    dot: bool,
    max_stretch: Option<usize>,
    restarts: Option<usize>,
    nodes: usize,
    noise: f64,
    seed: u64,
    workload: String,
    queries: usize,
    threads: usize,
    cold: bool,
    ops: usize,
    update_ratio: f64,
    stats_json: Option<String>,
    closure_backend: ClosureBackend,
    /// Open-loop arrival schedule (`--arrivals open:<rate>` fixed
    /// inter-arrival times, `poisson:<rate>` exponential ones).
    arrivals: Option<Arrivals>,
    /// Per-query deadline in microseconds (`--timeout-micros`).
    timeout_micros: Option<u64>,
    /// Intra-query per-component workers (`--intra-workers`; 0 = all cores).
    intra_workers: usize,
    /// Admission-control queue depth (`--queue-depth`; 0 = unlimited).
    queue_depth: usize,
    /// Graphs to register in `serve-sim` (`--graphs`).
    graphs: usize,
    /// Disjoint parts (= WCCs) per `serve-sim` data graph (`--parts`).
    parts: usize,
    /// Per-query trace output path (`--trace-json`; one JSON line per
    /// traced query). Tracing is enabled iff this is set.
    trace_json: Option<String>,
    /// Only log traces for queries at least this slow (`--slow-query-micros`;
    /// 0 = log every traced query).
    slow_query_micros: u128,
    /// Structured event-journal sink path (`--journal`; one JSON line
    /// per operational event). Journaling is enabled iff this is set.
    journal: Option<String>,
    /// Prometheus text-exposition output path (`--metrics-text`).
    /// Replays rewrite it periodically; the other subcommands write it
    /// once at exit.
    metrics_text: Option<String>,
    /// Flight-recorder ring capacity override (`--flight-capacity`;
    /// 0 disables the recorder, absent keeps the always-on default).
    flight_capacity: Option<usize>,
    /// Per-plan p99 latency objective in microseconds
    /// (`--slo-p99-micros`).
    slo_p99_micros: Option<u64>,
    /// Shed-rate ceiling over offered load (`--slo-shed-rate`).
    slo_shed_rate: Option<f64>,
    /// Timeout-rate ceiling over admitted queries
    /// (`--slo-timeout-rate`).
    slo_timeout_rate: Option<f64>,
    /// Worker processes for `serve-sim` cluster mode (`--processes`;
    /// 0 = in-process registry, the historical behavior).
    processes: usize,
    /// Read replicas per shard in cluster mode (`--replicas`).
    replicas: usize,
    /// Kill one worker process mid-replay (`--kill-worker`; cluster
    /// mode only) to exercise failure detection and replica promotion.
    kill_worker: bool,
    /// Listen address for `phom worker` (`--listen`; port 0 picks a
    /// free port, reported on stdout as `listening <addr>`).
    listen: Option<String>,
    /// Worker lifetime ceiling in seconds (`--max-seconds`; 0 = run
    /// until killed). A leak guard when spawned as a child process.
    max_seconds: u64,
    files: Vec<String>,
}

/// Open-loop arrival discipline: query `i`'s scheduled instant.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Fixed inter-arrival times: query `i` at `i/rate` seconds.
    Open(f64),
    /// Poisson process: exponential inter-arrival times with mean
    /// `1/rate`, drawn from the seeded shim RNG.
    Poisson(f64),
}

impl Arrivals {
    fn rate(self) -> f64 {
        match self {
            Arrivals::Open(r) | Arrivals::Poisson(r) => r,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Arrivals::Open(_) => "open",
            Arrivals::Poisson(_) => "poisson",
        }
    }

    /// The scheduled arrival instant of each of `n` queries, as offsets
    /// from the replay start.
    fn schedule(self, n: usize, seed: u64) -> Vec<std::time::Duration> {
        match self {
            Arrivals::Open(rate) => (0..n)
                .map(|i| std::time::Duration::from_secs_f64(i as f64 / rate))
                .collect(),
            Arrivals::Poisson(rate) => {
                use rand::{rngs::SmallRng, RngCore, SeedableRng};
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x7069_6f73); // "pois"
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        let at = t;
                        // Inverse-CDF exponential draw; the shift keeps
                        // ln's argument strictly positive.
                        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        t += -(1.0 - unit).ln() / rate;
                        std::time::Duration::from_secs_f64(at)
                    })
                    .collect()
            }
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        xi: 0.75,
        algorithm: None,
        one_to_one: false,
        text_sim: None,
        exact: false,
        witness: false,
        dot: false,
        max_stretch: None,
        restarts: None,
        nodes: 100,
        noise: 0.1,
        seed: 2010,
        workload: "synthetic".to_owned(),
        queries: 100,
        threads: 0,
        cold: false,
        ops: 200,
        update_ratio: 0.2,
        stats_json: None,
        closure_backend: ClosureBackend::Auto,
        arrivals: None,
        timeout_micros: None,
        intra_workers: 1,
        queue_depth: 0,
        graphs: 2,
        parts: 4,
        trace_json: None,
        slow_query_micros: 0,
        journal: None,
        metrics_text: None,
        flight_capacity: None,
        slo_p99_micros: None,
        slo_shed_rate: None,
        slo_timeout_rate: None,
        processes: 0,
        replicas: 1,
        kill_worker: false,
        listen: None,
        max_seconds: 0,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--xi" => {
                f.xi = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--xi needs a number in [0,1]")?;
            }
            "--algorithm" => {
                f.algorithm = Some(match it.next().map(String::as_str) {
                    Some("card") => Algorithm::MaxCard,
                    Some("card11") => Algorithm::MaxCard1to1,
                    Some("sim") => Algorithm::MaxSim,
                    Some("sim11") => Algorithm::MaxSim1to1,
                    other => return Err(format!("unknown algorithm {other:?}")),
                });
            }
            "--text-sim" => {
                f.text_sim = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--text-sim needs a window size")?,
                );
            }
            "--max-stretch" => {
                f.max_stretch = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-stretch needs a positive hop count")?,
                );
            }
            "--restarts" => {
                f.restarts = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--restarts needs a positive count")?,
                );
            }
            "--nodes" => {
                f.nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--nodes needs a positive count")?;
            }
            "--noise" => {
                f.noise = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--noise needs a rate in [0,1]")?;
            }
            "--seed" => {
                f.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--workload" => {
                f.workload = it
                    .next()
                    .cloned()
                    .ok_or("--workload needs synthetic|websim")?;
            }
            "--queries" => {
                f.queries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--queries needs a positive count")?;
            }
            "--threads" => {
                f.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a count (0 = all cores)")?;
            }
            "--ops" => {
                f.ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--ops needs a positive count")?;
            }
            "--update-ratio" => {
                f.update_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--update-ratio needs a rate in [0,1]")?;
            }
            "--stats-json" => {
                f.stats_json = Some(
                    it.next()
                        .cloned()
                        .ok_or("--stats-json needs an output path")?,
                );
            }
            "--trace-json" => {
                f.trace_json = Some(
                    it.next()
                        .cloned()
                        .ok_or("--trace-json needs an output path")?,
                );
            }
            "--slow-query-micros" => {
                f.slow_query_micros = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-query-micros needs a microsecond threshold")?;
            }
            "--journal" => {
                f.journal = Some(it.next().cloned().ok_or("--journal needs an output path")?);
            }
            "--metrics-text" => {
                f.metrics_text = Some(
                    it.next()
                        .cloned()
                        .ok_or("--metrics-text needs an output path")?,
                );
            }
            "--flight-capacity" => {
                f.flight_capacity = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--flight-capacity needs a record count (0 = disabled)")?,
                );
            }
            "--slo-p99-micros" => {
                f.slo_p99_micros = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--slo-p99-micros needs a microsecond target")?,
                );
            }
            "--slo-shed-rate" => {
                f.slo_shed_rate = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|r| *r > 0.0 && *r <= 1.0)
                        .ok_or("--slo-shed-rate needs a fraction in (0,1]")?,
                );
            }
            "--slo-timeout-rate" => {
                f.slo_timeout_rate = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|r| *r > 0.0 && *r <= 1.0)
                        .ok_or("--slo-timeout-rate needs a fraction in (0,1]")?,
                );
            }
            "--closure-backend" => {
                f.closure_backend = it
                    .next()
                    .and_then(|v| ClosureBackend::parse(v))
                    .ok_or("--closure-backend needs dense|chain|twohop|auto")?;
            }
            "--timeout-micros" => {
                f.timeout_micros = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--timeout-micros needs a microsecond count")?,
                );
            }
            "--intra-workers" => {
                f.intra_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--intra-workers needs a worker count (0 = all cores)")?;
            }
            "--arrivals" => {
                let spec = it
                    .next()
                    .ok_or("--arrivals needs open:<rate> or poisson:<rate>")?;
                let parse_rate =
                    |r: &str| r.parse::<f64>().ok().filter(|r| *r > 0.0 && r.is_finite());
                f.arrivals = Some(if let Some(r) = spec.strip_prefix("open:") {
                    Arrivals::Open(parse_rate(r).ok_or("--arrivals open:<rate> needs rate > 0")?)
                } else if let Some(r) = spec.strip_prefix("poisson:") {
                    Arrivals::Poisson(
                        parse_rate(r).ok_or("--arrivals poisson:<rate> needs rate > 0")?,
                    )
                } else {
                    return Err("--arrivals needs open:<rate> or poisson:<rate>".into());
                });
            }
            "--queue-depth" => {
                f.queue_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--queue-depth needs a count (0 = unlimited)")?;
            }
            "--graphs" => {
                f.graphs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&g: &usize| g > 0)
                    .ok_or("--graphs needs a positive count")?;
            }
            "--parts" => {
                f.parts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&p: &usize| p > 0)
                    .ok_or("--parts needs a positive count")?;
            }
            "--processes" => {
                f.processes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--processes needs a worker count (0 = in-process)")?;
            }
            "--replicas" => {
                f.replicas = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--replicas needs a per-shard replica count")?;
            }
            "--listen" => {
                f.listen = Some(
                    it.next()
                        .cloned()
                        .ok_or("--listen needs host:port (port 0 picks a free port)")?,
                );
            }
            "--max-seconds" => {
                f.max_seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-seconds needs a second count (0 = run until killed)")?;
            }
            "--kill-worker" => f.kill_worker = true,
            "--cold" => f.cold = true,
            "--one-to-one" => f.one_to_one = true,
            "--exact" => f.exact = true,
            "--witness" => f.witness = true,
            "--dot" => f.dot = true,
            other if !other.starts_with('-') => f.files.push(other.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

fn load(path: &str) -> Result<DiGraph<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // DOT interop: accept Graphviz files by extension or header sniff.
    if path.ends_with(".dot") || text.trim_start().starts_with("digraph") {
        return phom::graph::from_dot(&text).map_err(|e| format!("{path}: {e}"));
    }
    from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn build_matrix(g1: &DiGraph<String>, g2: &DiGraph<String>, f: &Flags) -> SimMatrix {
    match f.text_sim {
        Some(w) => matrix_from_label_fn(g1, g2, |a, b| text_similarity(a, b, w)),
        None => SimMatrix::label_equality(g1, g2),
    }
}

fn cmd_match(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [p1, p2] = f.files.as_slice() else {
        return fail("match needs exactly two graph files");
    };
    let (g1, g2) = match (load(p1), load(p2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let mat = build_matrix(&g1, &g2, &f);
    let weights = NodeWeights::uniform(g1.node_count());
    let algorithm = f.algorithm.unwrap_or(Algorithm::MaxCard);

    let mapping = if f.exact {
        if f.max_stretch.is_some() || f.restarts.is_some() {
            return fail("--exact does not combine with --max-stretch / --restarts");
        }
        let objective = if algorithm.similarity() {
            Objective::Similarity
        } else {
            Objective::Cardinality
        };
        exact_optimum(
            &g1,
            &g2,
            &mat,
            f.xi,
            algorithm.injective(),
            objective,
            &weights,
        )
    } else if f.max_stretch.is_some() || f.restarts.is_some() {
        // Extension paths: stretch-bounded reachability and/or
        // best-of-restarts, composed through a shared closure.
        let closure = match f.max_stretch {
            Some(k) => Stretch::AtMost(k).closure_of(&g2),
            None => Stretch::Unbounded.closure_of(&g2),
        };
        let cfg = AlgoConfig {
            xi: f.xi,
            ..Default::default()
        };
        let rcfg = RestartConfig {
            restarts: f.restarts.unwrap_or(1).max(1),
            ..Default::default()
        };
        if algorithm.similarity() {
            phom::core::comp_max_sim_restarts_with(
                &g1,
                &closure,
                &mat,
                &weights,
                &cfg,
                algorithm.injective(),
                &rcfg,
            )
        } else {
            phom::core::comp_max_card_restarts_with(
                &g1,
                &closure,
                &mat,
                &cfg,
                algorithm.injective(),
                &rcfg,
            )
        }
    } else {
        match_graphs(
            &g1,
            &g2,
            &mat,
            &weights,
            &MatcherConfig {
                algorithm,
                xi: f.xi,
                ..Default::default()
            },
        )
        .mapping
    };

    println!(
        "qualCard = {:.4}   qualSim = {:.4}   mapped {}/{} nodes",
        mapping.qual_card(),
        mapping.qual_sim(&weights, &mat),
        mapping.len(),
        g1.node_count()
    );
    for (v, u) in mapping.pairs() {
        println!(
            "  {} -> {}   (mat {:.2})",
            g1.label(v),
            g2.label(u),
            mat.score(v, u)
        );
    }
    if f.witness {
        match edge_witnesses(&g1, &g2, &mapping) {
            Ok(ws) => {
                for w in ws {
                    let path: Vec<&str> = w.path.iter().map(|&x| g2.label(x).as_str()).collect();
                    println!(
                        "  edge ({} -> {})  ==>  {}",
                        g1.label(w.from),
                        g1.label(w.to),
                        path.join("/")
                    );
                }
            }
            Err((a, b)) => {
                eprintln!("internal error: edge ({a:?},{b:?}) lacks a witness");
                return ExitCode::FAILURE;
            }
        }
    }
    if f.dot {
        println!("{}", phom::graph::dot::to_dot("pattern", &g1));
    }
    ExitCode::SUCCESS
}

fn cmd_decide(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [p1, p2] = f.files.as_slice() else {
        return fail("decide needs exactly two graph files");
    };
    let (g1, g2) = match (load(p1), load(p2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let mat = build_matrix(&g1, &g2, &f);
    let decision = match f.max_stretch {
        Some(k) => decide_phom_bounded(&g1, &g2, &mat, f.xi, f.one_to_one, k),
        None => decide_phom(&g1, &g2, &mat, f.xi, f.one_to_one),
    };
    match decision {
        Some(m) => {
            println!(
                "YES: pattern is {}p-hom to data",
                if f.one_to_one { "1-1 " } else { "" }
            );
            for (v, u) in m.pairs() {
                println!("  {} -> {}", g1.label(v), g2.label(u));
            }
            ExitCode::SUCCESS
        }
        None => {
            println!("NO");
            ExitCode::FAILURE
        }
    }
}

/// `phom generate`: writes a §6-style synthetic instance — a pattern
/// graph and a noisy data graph derived from it — to two files in the
/// text format `match`/`decide` read back.
fn cmd_generate(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [p_out, d_out] = f.files.as_slice() else {
        return fail("generate needs two output paths (pattern, data)");
    };
    if !(0.0..=1.0).contains(&f.noise) {
        return fail("--noise must be in [0,1]");
    }
    let cfg = SyntheticConfig {
        m: f.nodes,
        noise: f.noise,
        seed: f.seed,
    };
    let inst = generate_instance(&cfg, 1);
    for (path, g) in [(p_out, &inst.g1), (d_out, &inst.g2)] {
        let text = phom::graph::serialize::to_text(&named(g));
        if let Err(e) = std::fs::write(path, text) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    println!(
        "wrote pattern ({} nodes, {} edges) -> {p_out}",
        inst.g1.node_count(),
        inst.g1.edge_count()
    );
    println!(
        "wrote data    ({} nodes, {} edges) -> {d_out}",
        inst.g2.node_count(),
        inst.g2.edge_count()
    );
    ExitCode::SUCCESS
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let [path] = f.files.as_slice() else {
        return fail("stats needs exactly one graph file");
    };
    let g = match load(path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let scc = tarjan_scc(&g);
    let comps = weakly_connected_components(&g);
    let m = phom::graph::metrics::graph_metrics(&g);
    println!("|V| = {}", m.nodes);
    println!("|E| = {}", m.edges);
    println!("avgDeg = {:.3}", m.avg_degree);
    println!("maxDeg = {}", m.max_degree);
    println!("density = {:.5}", m.density);
    println!("reciprocity = {:.3}", m.reciprocity);
    println!("isolated nodes = {}", m.isolated);
    println!("SCCs = {}", scc.count());
    println!("weakly connected components = {}", comps.len());
    let closure = TransitiveClosure::new(&g);
    println!("|E+| (closure edges) = {}", closure.edge_count());
    let hist = phom::graph::metrics::degree_histogram(&g);
    let rendered: Vec<String> = hist
        .iter()
        .enumerate()
        .map(|(k, c)| format!("2^{k}:{c}"))
        .collect();
    println!("degree histogram (log buckets) = {}", rendered.join(" "));
    ExitCode::SUCCESS
}

/// `phom engine-batch`: generates a workload-driven batch of pattern
/// queries against one data graph and runs it through the service layer,
/// reporting plans chosen, closure reuse, and parallelism. Closed loop
/// (the default) the batch is one call into the engine's batch executor;
/// `--arrivals` replays the same queries open loop through [`replay`].
/// With `--cold`, re-runs every query through the unprepared per-query
/// path (`match_graphs`, closure rebuilt each time) and reports the
/// speedup.
fn cmd_engine_batch(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if !f.files.is_empty() {
        return fail("engine-batch takes no file arguments (use --workload)");
    }
    if f.cold && f.arrivals.is_some() {
        return fail(
            "--cold does not combine with --arrivals (open-loop replay has no closed-loop twin)",
        );
    }
    match f.workload.as_str() {
        "synthetic" => run_engine_batch(&synthetic_batch(&f), &f),
        "websim" => {
            let spec = SiteSpec::test_scale(SiteCategory::ALL[0], f.seed);
            let archive = phom::workloads::generate_archive(&spec);
            let data = Arc::new(archive.versions[0].clone());
            let patterns: Vec<Arc<_>> = archive.versions[1..]
                .iter()
                .map(|v| Arc::new(skeleton_top_k(v, 20).graph))
                .collect();
            if patterns.is_empty() {
                return fail("websim archive has a single version; nothing to query");
            }
            let matrices: Vec<SimMatrix> = patterns
                .iter()
                .map(|p| shingle_matrix(p, &data, 3))
                .collect();
            let queries = batch_queries(&patterns, &matrices, &f);
            run_engine_batch(&Workload::batch(data, queries), &f)
        }
        other => fail(&format!("unknown workload {other:?} (synthetic|websim)")),
    }
}

/// The synthetic engine-batch workload: one data graph and `--queries`
/// service-shaped pattern queries — small patterns (sliding windows of
/// the template) against one large prepared data graph, the regime
/// where the shared closure dominates per-query cost. Shared by
/// `engine-batch --workload synthetic` and `flight-dump`.
fn synthetic_batch(f: &Flags) -> Workload<Label> {
    let cfg = SyntheticConfig {
        m: f.nodes,
        noise: f.noise,
        seed: f.seed,
    };
    let inst = generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2);
    let windows = window_patterns(&inst.g1, f.nodes, 8);
    let matrices = pool_matrices(&inst.pool, &windows, &data);
    Workload::batch(data, batch_queries(&windows, &matrices, f))
}

/// `--queries` mixed queries cycling through `patterns`, each with its
/// precomputed matrix.
fn batch_queries<L>(
    patterns: &[Arc<DiGraph<L>>],
    matrices: &[SimMatrix],
    f: &Flags,
) -> Vec<Query<L>> {
    (0..f.queries)
        .map(|i| {
            let w = i % patterns.len();
            mixed_query(&patterns[w], &matrices[w], f, i)
        })
        .collect()
}

/// `count` sliding-window patterns over the template `g1` of an
/// `m`-node §6 instance: window `w` is the subgraph induced by
/// `(m/5).clamp(4, 40)` consecutive template nodes starting near
/// `w·m/count`.
fn window_patterns(g1: &DiGraph<Label>, m: usize, count: usize) -> Vec<Arc<DiGraph<Label>>> {
    let pattern_nodes = (m / 5).clamp(4, 40).min(m);
    (0..count)
        .map(|w| {
            let lo = (w * m / count).min(m - pattern_nodes);
            let keep: BTreeSet<NodeId> =
                (lo..lo + pattern_nodes).map(|i| NodeId(i as u32)).collect();
            Arc::new(g1.induced_subgraph(&keep).0)
        })
        .collect()
}

/// Each pattern's similarity matrix against `data`, scored by the §6
/// label pool. Computed once per pattern and graph: edge updates never
/// change labels, so a matrix stays valid for the whole run.
fn pool_matrices(
    pool: &LabelPool,
    patterns: &[Arc<DiGraph<Label>>],
    data: &DiGraph<Label>,
) -> Vec<SimMatrix> {
    patterns
        .iter()
        .map(|p| {
            SimMatrix::from_fn(p.node_count(), data.node_count(), |v, u| {
                pool.similarity(*p.label(v), *data.label(u))
            })
        })
        .collect()
}

/// A §6 graph with the `L<label>` string labels `generate` writes —
/// the label type the cluster's wire protocol carries.
fn named(g: &DiGraph<Label>) -> DiGraph<String> {
    g.map_labels(|_, l| format!("L{l}"))
}

/// The knobs op `i` of a mixed stream varies: the four algorithms
/// round-robin (unless `--algorithm` pins one for the whole run), every
/// 5th op carries a stretch bound, every 9th pins restarts.
fn mix(pin: Option<Algorithm>, i: usize) -> (Algorithm, Option<usize>, Option<usize>) {
    const ALGORITHMS: [Algorithm; 4] = [
        Algorithm::MaxCard,
        Algorithm::MaxCard1to1,
        Algorithm::MaxSim,
        Algorithm::MaxSim1to1,
    ];
    (
        pin.unwrap_or(ALGORITHMS[i % 4]),
        (i % 5 == 4).then_some(3),
        (i % 9 == 8).then_some(3),
    )
}

/// Builds query `i` of a mixed stream at `--xi` (see [`mix`]).
fn mixed_query<L>(pattern: &Arc<DiGraph<L>>, matrix: &SimMatrix, f: &Flags, i: usize) -> Query<L> {
    let (algorithm, max_stretch, restarts) = mix(f.algorithm, i);
    let mut q = Query::new(Arc::clone(pattern), matrix.clone());
    q.config = QueryConfig {
        xi: f.xi,
        algorithm,
        max_stretch,
        restarts,
        ..Default::default()
    };
    q
}

/// The engine-side planner knobs shared by `engine-batch`/`engine-live`/
/// `serve-sim`: closure backend, per-query deadline, intra-query workers
/// — built through the one shared config path.
fn planner_config(f: &Flags) -> PlannerConfig {
    PlannerConfig::builder()
        .closure_backend(f.closure_backend)
        .timeout_opt(f.timeout_micros.map(Duration::from_micros))
        .intra_query_workers(f.intra_workers)
        .build()
}

/// The service configuration the CLI subcommands share. `engine-batch`
/// and `engine-live` disable sharding (one graph, one shard — the
/// engine-parity path); `serve-sim` turns it on. The operations flags
/// ride along: `--journal` switches the event journal's ring on,
/// `--flight-capacity` resizes (or disables) the flight recorder, and
/// the `--slo-*` flags configure the burn-rate monitor.
fn service_config(f: &Flags, sharding: ShardingConfig) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .engine(
            EngineConfig::builder()
                .threads(f.threads)
                .planner(planner_config(f))
                .build(),
        )
        .sharding(sharding)
        .queue_depth(f.queue_depth)
        .journal_capacity(if f.journal.is_some() { 256 } else { 0 })
        .slo(slo_config(f));
    if let Some(n) = f.flight_capacity {
        builder = builder.flight_capacity(n);
    }
    builder.build()
}

/// The `--slo-*` flags as a monitor config. Each absent flag leaves its
/// objective out; no flags at all leave the monitor disabled.
/// `--slo-p99-micros` expands to one p99 objective per plan kind over
/// the per-plan latency histograms the service already records.
fn slo_config(f: &Flags) -> SloConfig {
    let mut slo = SloConfig::default();
    if let Some(target) = f.slo_p99_micros {
        for kind in [
            PlanKind::Exact,
            PlanKind::Approx,
            PlanKind::Bounded,
            PlanKind::Baseline,
        ] {
            slo.latency.push(LatencyObjective {
                name: format!("latency_{}_p99", kind.name()),
                histogram: format!("latency_{}", kind.name()),
                percentile: 99,
                target_micros: target,
            });
        }
    }
    if let Some(ceiling) = f.slo_shed_rate {
        slo.rates.push(RateObjective {
            name: "shed_rate".to_owned(),
            bad: "queries_shed".to_owned(),
            base: "queries_admitted".to_owned(),
            base_includes_bad: false,
            ceiling,
        });
    }
    if let Some(ceiling) = f.slo_timeout_rate {
        slo.rates.push(RateObjective {
            name: "timeout_rate".to_owned(),
            bad: "queries_timed_out".to_owned(),
            base: "queries_admitted".to_owned(),
            base_includes_bad: true,
            ceiling,
        });
    }
    slo
}

/// Attaches the `--journal` JSON-lines sink to a freshly built service.
/// Called before graph registration so the `GraphRegistered` events land
/// in the file too.
fn attach_journal<L: ServiceLabel>(service: &Service<L>, f: &Flags) -> Result<(), String> {
    let Some(path) = &f.journal else {
        return Ok(());
    };
    service
        .journal()
        .attach_sink(std::path::Path::new(path))
        .map_err(|e| format!("cannot open journal {path}: {e}"))?;
    println!("event journal (JSON lines) -> {path}");
    Ok(())
}

/// A service's Prometheus exposition, preceded by one SLO evaluation so
/// breaches crossed since the last poll journal now rather than at exit.
fn service_metrics<L: ServiceLabel>(service: &Service<L>) -> impl Fn() -> String + Sync + '_ {
    move || {
        let _ = service.slo_status();
        service.render_prometheus()
    }
}

/// Writes one `--metrics-text` exposition to `path`.
fn write_metrics_text(path: &str, render: &dyn Fn() -> String) -> Result<(), String> {
    std::fs::write(path, render()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The periodic `--metrics-text` rewrite a replay runs (see [`replay`]).
fn refresh_metrics(f: &Flags, render: &dyn Fn() -> String) {
    if let Some(path) = &f.metrics_text {
        if let Err(e) = write_metrics_text(path, render) {
            eprintln!("{e}");
        }
    }
}

/// The final `--metrics-text` write at subcommand exit.
fn finish_metrics_text(f: &Flags, render: &dyn Fn() -> String) -> Result<(), String> {
    let Some(path) = &f.metrics_text else {
        return Ok(());
    };
    write_metrics_text(path, render)?;
    println!("metrics text written to {path}");
    Ok(())
}

/// Converts a service [`GraphInfo`] into the `PrepareStats` shape the
/// `--stats-json` schema has always exported under `"prepare"`.
fn prepare_stats_of(info: &GraphInfo) -> PrepareStats {
    PrepareStats {
        nodes: info.nodes,
        edges: info.edges,
        scc_count: info.scc_count,
        closure_edges: info.closure_edges,
        closure_backend: info.closure_backend.clone(),
        closure_memory_bytes: info.closure_memory_bytes,
        compressed_nodes: info.compressed_nodes,
        prepare_micros: info.prepare_micros,
    }
}

fn print_graph_info(info: &GraphInfo) {
    println!(
        "data graph: {} nodes, {} edges, {} SCCs, |E+| = {} \
         [{} backend, {:.1} KiB]{}{}",
        info.nodes,
        info.edges,
        info.scc_count,
        info.closure_edges,
        info.closure_backend,
        info.closure_memory_bytes as f64 / 1024.0,
        match info.compressed_nodes {
            Some(c) => format!(", compressed to {c} nodes"),
            None => String::new(),
        },
        if info.shards > 1 {
            format!(", {} WCC shards", info.shards)
        } else {
            String::new()
        }
    );
}

fn run_engine_batch<L: ServiceLabel>(work: &Workload<L>, f: &Flags) -> ExitCode {
    let service: Service<L> = Service::new(service_config(f, ShardingConfig::disabled()));
    if let Err(e) = attach_journal(&service, f) {
        return fail(&e);
    }
    if let Err(e) = service.register("batch".into(), Arc::clone(&work.graphs[0])) {
        return fail(&e.to_string());
    }
    let info = service.graph_info("batch").expect("registered above");
    print_graph_info(&info);
    let trace = TraceLog::new(f, &work.names);
    let render = service_metrics(&service);
    let (report, plans) = match f.arrivals {
        Some(arrivals) => {
            let schedule = arrivals.schedule(work.ops.len(), f.seed);
            let report = replay(
                &work.ops,
                Some(&schedule),
                submitters(f, work.ops.len()),
                &trace,
                &|| refresh_metrics(f, &render),
                service_exec(&service, work, trace.enabled()),
            );
            (report, Vec::new())
        }
        None => {
            let started = Instant::now();
            let responses =
                match service.query_batch_traced("batch", &work.queries, trace.enabled()) {
                    Ok(r) => r,
                    Err(e) => return fail(&e.to_string()),
                };
            let elapsed = started.elapsed();
            let stats = service.engine_stats();
            println!(
                "batch executor: workers = {}, peak parallelism = {}",
                stats.last_batch_workers, stats.last_batch_peak_parallel,
            );
            // A closed-loop batch has no arrival schedule: each query's
            // response latency is its service latency.
            let plans: Vec<Plan> = responses.iter().map(|r| r.plan).collect();
            let mut report = ReplayReport::new(&work.ops, stats.last_batch_workers, false);
            for (i, r) in responses.into_iter().enumerate() {
                let micros = r.micros;
                report.record(i, &work.ops[i], Outcome::Answer(r), micros, &trace);
            }
            (report.finish(elapsed), plans)
        }
    };
    let stats = service.engine_stats();
    println!(
        "prepared once in {:.2} ms; closure computations: {} (cache hits {})",
        info.prepare_micros as f64 / 1e3,
        stats.prepares,
        stats.cache_hits,
    );
    println!(
        "plans: approx = {}, exact = {}, bounded = {}, baseline = {}",
        stats.approx_plans, stats.exact_plans, stats.bounded_plans, stats.baseline_plans,
    );
    if f.intra_workers != 1 || f.timeout_micros.is_some() {
        println!(
            "deadlines: timeouts = {}, intra-query workers = {}, \
             components matched in parallel = {}",
            stats.timeouts,
            if f.intra_workers == 0 {
                "all-cores".to_owned()
            } else {
                f.intra_workers.to_string()
            },
            stats.intra_parallel_components,
        );
    }
    print_report(&report, f.arrivals);

    if f.cold {
        // Same worker count as the prepared batch, so the ratio isolates
        // closure reuse rather than crediting multi-core parallelism.
        // Op `i` is query `i`, run under the plan the batch chose for it.
        let data = &work.graphs[0];
        let cold = replay(
            &work.ops,
            None,
            report.submitters.max(1),
            &trace,
            &|| {},
            |i, _| {
                let q = &work.queries[i];
                let cfg = MatcherConfig {
                    algorithm: q.config.algorithm,
                    xi: q.config.xi,
                    max_stretch: q.config.max_stretch,
                    restarts: plans[i].restarts,
                    ..Default::default()
                };
                let started = Instant::now();
                let out = match_graphs(&q.pattern, data, &q.matrix, &q.effective_weights(), &cfg);
                Outcome::Answer(QueryResponse {
                    mapping: out.mapping,
                    qual_card: out.qual_card,
                    qual_sim: out.qual_sim,
                    plan: plans[i],
                    shards_consulted: 1,
                    timed_out: out.stats.timed_out,
                    micros: started.elapsed().as_micros(),
                    // A cold run prepares nothing: it builds every closure.
                    cache_hit: false,
                    trace: None,
                })
            },
        );
        println!(
            "cold comparison: per-query closure rebuild ({} workers) took {:.2} ms \
             ({:.2}x the prepared batch)",
            cold.submitters,
            cold.elapsed.as_secs_f64() * 1e3,
            cold.elapsed.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9),
        );
    }
    let sections = StatsSections {
        engine: Some(service.engine_stats()),
        prepare: Some(prepare_stats_of(&info)),
        service: Some(service.stats()),
        ..Default::default()
    };
    finish_replay(f, &report, &trace, sections, &render)
}

/// Collects `--trace-json` output: one JSON line per traced query
/// (`{"seq":S,"query":i,"graph":"...","micros":M,"trace":{...}}`),
/// filtered by the `--slow-query-micros` threshold and flushed at
/// command end. Tracing is enabled iff `--trace-json` was given;
/// threads share the log through the interior mutex, and `seq` — the
/// line's index in the log — is assigned under that mutex, so
/// concurrent submitters always produce a strictly increasing sequence
/// with no gaps (unlike `query`, which records the op index).
struct TraceLog {
    path: Option<String>,
    threshold: u128,
    /// Graph names by index, as ops address them.
    graphs: Vec<String>,
    lines: Mutex<Vec<String>>,
}

impl TraceLog {
    fn new(f: &Flags, graphs: &[String]) -> Self {
        TraceLog {
            path: f.trace_json.clone(),
            threshold: f.slow_query_micros,
            graphs: graphs.to_vec(),
            lines: Mutex::new(Vec::new()),
        }
    }

    /// Whether queries should run traced.
    fn enabled(&self) -> bool {
        self.path.is_some()
    }

    fn record(&self, i: usize, graph: usize, r: &QueryResponse) {
        let Some(t) = r.trace.as_deref() else {
            return;
        };
        if r.micros < self.threshold {
            return;
        }
        let mut lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        let seq = lines.len();
        lines.push(format!(
            "{{\"seq\":{seq},\"query\":{i},\"graph\":\"{}\",\"micros\":{},\"trace\":{}}}",
            phom::trace::json_escape(&self.graphs[graph]),
            r.micros,
            t.to_json(),
        ));
    }

    fn flush(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        write_json_lines(path, &lines)?;
        println!("trace JSON written to {path} ({} queries)", lines.len());
        Ok(())
    }
}

/// Writes `lines` to `path`, one per line.
fn write_json_lines(path: &str, lines: &[String]) -> Result<(), String> {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `phom engine-live`: replays an interleaved stream of edge updates and
/// pattern queries against one evolving registered graph, in op order
/// from one submitter. Each update goes through the service's
/// `ApplyUpdates` path (owning-shard routing, semi-dynamic closure
/// maintenance, a new version swapped into the registry); each query
/// runs against the current registered version. Reports the
/// incremental/rebuild split and compares the mean apply cost against
/// one full re-prepare of the final graph.
fn cmd_engine_live(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if !f.files.is_empty() {
        return fail("engine-live takes no file arguments");
    }
    if !(0.0..=1.0).contains(&f.update_ratio) {
        return fail("--update-ratio must be in [0,1]");
    }
    let cfg = SyntheticConfig {
        m: f.nodes,
        noise: f.noise,
        seed: f.seed,
    };
    let inst = generate_instance(&cfg, 1);
    let data = Arc::new(inst.g2);
    let n = data.node_count();
    let windows = window_patterns(&inst.g1, f.nodes, 8);
    let matrices = pool_matrices(&inst.pool, &windows, &data);
    // Op `i`'s query is `mixed_query(.., i)` over window `i % 8`. Those
    // repeat, so the table holds each (window, mix) pair once.
    let mut keys = Vec::new();
    let mut queries = Vec::new();
    let ops = mixed_ops(
        f.ops,
        f.update_ratio,
        phom::graph::XorShift64::new(f.seed ^ 0x6c69_7665), // "live"
        std::slice::from_ref(&data),
        // Two uniform endpoints per update, self-loops included.
        |rng, _| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)),
        |i, _| {
            let key = (i % windows.len(), mix(f.algorithm, i));
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                queries.push(mixed_query(&windows[key.0], &matrices[key.0], &f, i));
                queries.len() - 1
            })
        },
    );
    let work = Workload {
        names: vec!["live".to_owned()],
        graphs: vec![data],
        queries,
        ops,
    };

    let service: Service<Label> = Service::new(service_config(&f, ShardingConfig::disabled()));
    if let Err(e) = attach_journal(&service, &f) {
        return fail(&e);
    }
    if let Err(e) = service.register("live".into(), Arc::clone(&work.graphs[0])) {
        return fail(&e.to_string());
    }
    let trace = TraceLog::new(&f, &work.names);
    let render = service_metrics(&service);
    let report = replay(
        &work.ops,
        None,
        1,
        &trace,
        &|| refresh_metrics(&f, &render),
        service_exec(&service, &work, trace.enabled()),
    );

    // The number the subsystem exists to beat: one full re-prepare of the
    // final graph, i.e. what every single-edge update used to cost.
    let data = service.graph("live").expect("registered above");
    let reprep_start = Instant::now();
    let full = PreparedGraph::prepare(data, PrepareOptions::from_planner(&planner_config(&f)));
    let reprep = reprep_start.elapsed();

    let stats = service.engine_stats();
    println!(
        "final graph: {} nodes, {} edges, {} SCCs, |E+| = {}",
        full.stats().nodes,
        full.stats().edges,
        full.stats().scc_count,
        full.stats().closure_edges,
    );
    print_report(&report, None);
    if report.applied > 0 {
        let mean_apply = report.updates.apply_micros as f64 / report.applied as f64;
        let full_micros = reprep.as_micros() as f64;
        println!(
            "mean apply = {:.1} us vs full re-prepare = {:.1} us  ({:.2}x faster)",
            mean_apply,
            full_micros,
            full_micros / mean_apply.max(1e-9),
        );
    }
    println!(
        "prepares = {} (cache hits {})",
        stats.prepares, stats.cache_hits
    );
    let sections = StatsSections {
        engine: Some(stats),
        prepare: Some(full.stats().clone()),
        updates: Some(report.updates.clone()),
        service: Some(service.stats()),
        router: None,
    };
    finish_replay(&f, &report, &trace, sections, &render)
}

/// `phom serve-sim`: replays an open-loop mix of queries and edge
/// updates against the full serving stack — in process (a multi-graph
/// registry with WCC sharding and a bounded admission queue) or, with
/// `--processes N`, through a [`Router`] over `N` worker processes.
/// Both targets replay the same workload ([`serve_workload`]), so their
/// numbers compare directly.
fn cmd_serve_sim(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if !f.files.is_empty() {
        return fail("serve-sim takes no file arguments");
    }
    if !(0.0..=1.0).contains(&f.update_ratio) {
        return fail("--update-ratio must be in [0,1]");
    }
    if f.kill_worker && f.processes == 0 {
        return fail("--kill-worker needs --processes N (cluster mode)");
    }
    let work = serve_workload(&f);
    let arrivals = f.arrivals.unwrap_or(Arrivals::Poisson(400.0));
    if f.processes > 0 {
        serve_sim_cluster(&f, &work, arrivals)
    } else {
        serve_sim_local(&f, &work, arrivals)
    }
}

/// The serve-sim workload. Graph `g` is `--parts` disjoint copies of the
/// data graph of one §6 instance (seeded `--seed + g`), so every part is
/// a WCC and the label pool is shared across parts — a query's
/// candidates appear in every shard, exercising multi-shard routing and
/// merging. Each graph has four sliding-window patterns at `--xi`. Op
/// `i` targets graph `i % --graphs`; an update flips one edge inside
/// one part (intra-shard), never a self-loop.
fn serve_workload(f: &Flags) -> Workload<String> {
    let part_nodes = f.nodes.max(4);
    let mut work = Workload::default();
    for g in 0..f.graphs {
        let cfg = SyntheticConfig {
            m: part_nodes,
            noise: f.noise,
            seed: f.seed.wrapping_add(g as u64),
        };
        let inst = generate_instance(&cfg, 1);
        let mut union: DiGraph<Label> = DiGraph::with_capacity(inst.g2.node_count() * f.parts);
        for _ in 0..f.parts {
            let offset = union.node_count();
            for v in inst.g2.nodes() {
                union.add_node(*inst.g2.label(v));
            }
            for (a, b) in inst.g2.edges() {
                union.add_edge(
                    NodeId((a.index() + offset) as u32),
                    NodeId((b.index() + offset) as u32),
                );
            }
        }
        let windows = window_patterns(&inst.g1, part_nodes, 4);
        let matrices = pool_matrices(&inst.pool, &windows, &union);
        for (pattern, matrix) in windows.iter().zip(matrices) {
            let mut q = Query::new(Arc::new(named(pattern)), matrix);
            q.config.xi = f.xi;
            work.queries.push(q);
        }
        work.names.push(format!("g{g}"));
        work.graphs.push(Arc::new(named(&union)));
    }
    let graphs = work.graphs.len();
    work.ops = mixed_ops(
        f.queries,
        f.update_ratio,
        phom::graph::XorShift64::new(f.seed ^ 0x7365_7276), // "serv"
        &work.graphs,
        |rng, g| {
            let part = work.graphs[g].node_count() / f.parts;
            let base = rng.below(f.parts) * part;
            let a = rng.below(part);
            let b = (a + 1 + rng.below(part - 1)) % part;
            (NodeId((base + a) as u32), NodeId((base + b) as u32))
        },
        |i, g| g * 4 + (i / graphs) % 4,
    );
    work
}

/// In-process serve-sim: the registry shards every graph by WCC, admits
/// queries through the `--queue-depth` gate, and journals to
/// `--journal` through its attached sink.
fn serve_sim_local(f: &Flags, work: &Workload<String>, arrivals: Arrivals) -> ExitCode {
    let service: Service<String> = Service::new(service_config(
        f,
        ShardingConfig {
            max_shards: f.parts,
            min_shard_nodes: 2,
        },
    ));
    if let Err(e) = attach_journal(&service, f) {
        return fail(&e);
    }
    for (name, graph) in work.names.iter().zip(&work.graphs) {
        match service.register(name.clone(), Arc::clone(graph)) {
            Ok(info) => println!(
                "registered {name}: {} nodes, {} edges, {} shards {:?} [{} backend, compression {}]",
                info.nodes,
                info.edges,
                info.shards,
                info.shard_nodes,
                info.closure_backend,
                info.compression,
            ),
            Err(e) => return fail(&e.to_string()),
        }
    }
    let trace = TraceLog::new(f, &work.names);
    let render = service_metrics(&service);
    let schedule = arrivals.schedule(work.ops.len(), f.seed);
    let report = replay(
        &work.ops,
        Some(&schedule),
        submitters(f, work.ops.len()),
        &trace,
        &|| refresh_metrics(f, &render),
        service_exec(&service, work, trace.enabled()),
    );
    print_report(&report, Some(arrivals));

    let stats = service.stats();
    println!(
        "admission: {} admitted, {} shed (queue depth {}), {} update batches, {} reshards",
        stats.queries_admitted,
        stats.queries_shed,
        if f.queue_depth == 0 {
            "unlimited".to_owned()
        } else {
            f.queue_depth.to_string()
        },
        stats.update_batches,
        stats.reshards,
    );
    let hist = &stats.plan_histograms;
    println!(
        "per-plan p99 (histogram upper bound): exact = {} us ({}), approx = {} us ({}), \
         bounded = {} us ({}), baseline = {} us ({})",
        hist.of(PlanKind::Exact).percentile_upper_micros(99),
        hist.of(PlanKind::Exact).count(),
        hist.of(PlanKind::Approx).percentile_upper_micros(99),
        hist.of(PlanKind::Approx).count(),
        hist.of(PlanKind::Bounded).percentile_upper_micros(99),
        hist.of(PlanKind::Bounded).count(),
        hist.of(PlanKind::Baseline).percentile_upper_micros(99),
        hist.of(PlanKind::Baseline).count(),
    );
    println!(
        "cache hit ratio = {:.3} lifetime / {:.3} windowed ({} graphs, {} shards)",
        stats.cache_hit_ratio_lifetime, stats.cache_hit_ratio_windowed, stats.graphs, stats.shards,
    );
    println!(
        "ops: {} journal events, {} flight records, {} slow traces, SLO breached = {}",
        stats.journal_events,
        stats.flight_recorded,
        stats.slow_traces.len(),
        stats.slo.breached,
    );
    let sections = StatsSections {
        engine: Some(service.engine_stats()),
        updates: Some(report.updates.clone()),
        service: Some(stats),
        ..Default::default()
    };
    finish_replay(f, &report, &trace, sections, &render)
}

/// `phom worker`: hosts one single-process [`Service`] over TCP
/// speaking the `phom_cluster` wire protocol. Prints `listening <addr>`
/// once the socket is bound (`--listen host:0` picks a free port) so a
/// parent process can scrape the resolved address off stdout, then
/// serves until killed or until the `--max-seconds` leak guard expires.
fn cmd_worker(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if !f.files.is_empty() {
        return fail("worker takes no file arguments");
    }
    let Some(listen) = f.listen.clone() else {
        return fail("worker needs --listen host:port (port 0 picks a free port)");
    };
    // Short read timeout so connection handlers poll the stop flag and
    // the process drains promptly on shutdown.
    let transport = TcpTransport {
        timeouts: TransportTimeouts {
            read: Duration::from_millis(100),
            write: Duration::from_secs(5),
        },
        frame: FrameConfig::default(),
    };
    let listener = match transport.bind(&listen) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind {listen}: {e}")),
    };
    let (service, mut server) = phom::cluster::worker::spawn_service(
        service_config(&f, ShardingConfig::disabled()),
        Box::new(listener),
        WorkerOptions::default(),
    );
    if let Err(e) = attach_journal(&service, &f) {
        return fail(&e);
    }
    println!("listening {}", server.addr());
    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        if f.max_seconds > 0 && started.elapsed().as_secs() >= f.max_seconds {
            break;
        }
    }
    server.stop();
    if let Err(e) = finish_metrics_text(&f, &service_metrics(&service)) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

/// `serve-sim --processes N`: the cluster-mode replay. Spawns `N`
/// `phom worker` child processes on loopback, shards every graph across
/// them behind a [`Router`] front-end (with `--replicas` read replicas
/// per shard hydrated from primary snapshots), and replays the workload
/// through the router. With `--kill-worker`, op `ops/2` first kills
/// worker 0: the router detects the loss, promotes a replica for every
/// shard the dead worker led, and the replay completes against the
/// survivors. The router's `WorkerConnected` events fire inside
/// `Router::connect`, before a sink could attach, so `--journal` dumps
/// the router's ring at the end instead.
fn serve_sim_cluster(f: &Flags, work: &Workload<String>, arrivals: Arrivals) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot locate the phom binary: {e}")),
    };
    let mut spawned: Vec<std::process::Child> = Vec::new();
    let kill_all = |spawned: &mut Vec<std::process::Child>| {
        for c in spawned.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };
    let mut readers = Vec::new();
    let mut addrs = Vec::new();
    for w in 0..f.processes {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("worker")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--max-seconds")
            .arg("600")
            .arg("--closure-backend")
            .arg(f.closure_backend.name())
            .arg("--threads")
            .arg(f.threads.to_string())
            .arg("--intra-workers")
            .arg(f.intra_workers.to_string());
        if let Some(t) = f.timeout_micros {
            cmd.arg("--timeout-micros").arg(t.to_string());
        }
        cmd.stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                kill_all(&mut spawned);
                return fail(&format!("cannot spawn worker {w}: {e}"));
            }
        };
        // Scrape the resolved listen address off the child's stdout
        // (`--listen 127.0.0.1:0` binds a free port; a journal banner
        // may print first). The reader stays alive for the run so the
        // child's stdout pipe never breaks.
        use std::io::BufRead;
        let mut reader = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("listening ") {
                        addr = Some(a.to_owned());
                        break;
                    }
                }
            }
        }
        println!("worker {w}: pid {}", child.id());
        spawned.push(child);
        readers.push(reader);
        let Some(addr) = addr else {
            kill_all(&mut spawned);
            return fail(&format!("worker {w} never reported a listen address"));
        };
        addrs.push(addr);
    }

    let transport = Arc::new(TcpTransport {
        timeouts: TransportTimeouts {
            read: Duration::from_secs(10),
            write: Duration::from_secs(10),
        },
        frame: FrameConfig::default(),
    });
    let router = Router::connect(
        transport,
        &addrs,
        RouterConfig {
            planner: planner_config(f),
            sharding: ShardingConfig {
                max_shards: f.parts,
                min_shard_nodes: 2,
            },
            replicas: f.replicas,
            frame: FrameConfig::default(),
            redials: 2,
            retry_backoff: Duration::from_millis(20),
            journal_capacity: 256,
        },
    );
    if router.heartbeat() == 0 {
        kill_all(&mut spawned);
        return fail("no workers reachable after spawn");
    }
    for (name, graph) in work.names.iter().zip(&work.graphs) {
        match router.register(name.clone(), Arc::clone(graph)) {
            Ok(info) => println!(
                "registered {name}: {} nodes, {} edges, {} shards x {} member(s) over {} workers",
                info.nodes,
                info.edges,
                info.shards,
                1 + f.replicas,
                f.processes,
            ),
            Err(e) => {
                kill_all(&mut spawned);
                return fail(&format!("register {name}: {e:?}"));
            }
        }
    }

    let trace = TraceLog::new(f, &work.names);
    let render = || phom::trace::render_prometheus(&router.metrics().export(), &[]);
    let children = Mutex::new(spawned);
    let kill_at = f.kill_worker.then_some(work.ops.len() / 2);
    let schedule = arrivals.schedule(work.ops.len(), f.seed);
    let report = replay(
        &work.ops,
        Some(&schedule),
        submitters(f, work.ops.len()),
        &trace,
        &|| refresh_metrics(f, &render),
        |i, op| {
            if kill_at == Some(i) {
                let mut kids = children.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(c) = kids.first_mut() {
                    let pid = c.id();
                    let _ = c.kill();
                    let _ = c.wait();
                    println!("killed worker 0 (pid {pid}) at op {i}");
                }
            }
            run_op(
                work,
                op,
                |g, q| router.query(g, q, trace.enabled()),
                |g, u| router.apply_updates(g, u),
                |e| matches!(e, RouterError::Service(ServiceError::Overloaded { .. })),
            )
        },
    );
    // The fleet is no longer needed — stats, journal, and metrics below
    // are all router-local. Tear the children down before any output
    // path can early-return.
    kill_all(&mut children.into_inner().unwrap_or_else(|e| e.into_inner()));
    print_report(&report, Some(arrivals));

    let stats = router.stats();
    println!(
        "routing: {} queries routed, {} update batches routed over {} worker processes",
        stats.queries_routed, stats.updates_routed, f.processes,
    );
    println!(
        "fleet: {}/{} workers alive, {} connected, {} lost, {} replicas promoted, {} reconnects",
        stats.workers_alive,
        stats.workers,
        stats.workers_connected,
        stats.workers_lost,
        stats.replicas_promoted,
        stats.reconnects,
    );
    println!(
        "transport: {} bytes sent, {} bytes received",
        stats.bytes_sent, stats.bytes_received,
    );
    if let Some(path) = &f.journal {
        let events: Vec<String> = router
            .journal()
            .snapshot()
            .iter()
            .map(|e| e.to_json())
            .collect();
        if let Err(e) = write_json_lines(path, &events) {
            return fail(&e);
        }
        println!(
            "event journal (JSON lines) -> {path} ({} events)",
            events.len()
        );
    }
    let sections = StatsSections {
        updates: Some(report.updates.clone()),
        router: Some(stats),
        ..Default::default()
    };
    finish_replay(f, &report, &trace, sections, &render)
}

/// A whole replay, built from the flags and `--seed` alone before any
/// op runs: the named graphs, the query table, and the op list.
#[derive(Default)]
struct Workload<L> {
    names: Vec<String>,
    graphs: Vec<Arc<DiGraph<L>>>,
    queries: Vec<Query<L>>,
    ops: Vec<Op>,
}

impl<L> Workload<L> {
    /// One graph, `batch`, queried once per table entry, in order.
    fn batch(data: Arc<DiGraph<L>>, queries: Vec<Query<L>>) -> Self {
        let ops = (0..queries.len())
            .map(|query| Op::Query { graph: 0, query })
            .collect();
        Workload {
            names: vec!["batch".to_owned()],
            graphs: vec![data],
            queries,
            ops,
        }
    }
}

/// One replayed operation; `graph` and `query` index the workload's
/// graph and query tables.
#[derive(Debug, PartialEq)]
enum Op {
    Query { graph: usize, query: usize },
    Update { graph: usize, update: GraphUpdate },
}

impl Op {
    fn graph(&self) -> usize {
        match self {
            Op::Query { graph, .. } | Op::Update { graph, .. } => *graph,
        }
    }
}

/// Builds a `count`-op stream over `graphs`. Op `i` targets graph
/// `i % graphs.len()` and is an update with probability `ratio` (one
/// `rng.unit()` per op; graphs under two nodes take none), whose
/// endpoints `draw` picks. Whether an update inserts or removes is
/// decided here, by toggling the edge on a local copy of its graph in
/// op order, so the list depends on the flags and seed alone — never on
/// the submitter count or timing. Every other op is a query, at the
/// table index `query_of(i, graph)` returns.
fn mixed_ops<L>(
    count: usize,
    ratio: f64,
    mut rng: phom::graph::XorShift64,
    graphs: &[Arc<DiGraph<L>>],
    mut draw: impl FnMut(&mut phom::graph::XorShift64, usize) -> (NodeId, NodeId),
    mut query_of: impl FnMut(usize, usize) -> usize,
) -> Vec<Op> {
    let mut edges: Vec<DiGraph<()>> = graphs.iter().map(|g| g.map_labels(|_, _| ())).collect();
    (0..count)
        .map(|i| {
            let graph = i % graphs.len();
            if rng.unit() < ratio && edges[graph].node_count() >= 2 {
                let (a, b) = draw(&mut rng, graph);
                let local = &mut edges[graph];
                let update = if local.remove_edge(a, b) {
                    GraphUpdate::RemoveEdge(a, b)
                } else {
                    local.add_edge(a, b);
                    GraphUpdate::InsertEdge(a, b)
                };
                Op::Update { graph, update }
            } else {
                Op::Query {
                    graph,
                    query: query_of(i, graph),
                }
            }
        })
        .collect()
}

/// Submitter threads for a `--threads` replay (0 = one per core), never
/// more than there are ops.
fn submitters(f: &Flags, ops: usize) -> usize {
    match f.threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        t => t,
    }
    .min(ops)
    .max(1)
}

/// What one op did.
enum Outcome {
    /// A query's answer.
    Answer(QueryResponse),
    /// An applied update batch and its maintenance accounting.
    Applied(UpdateStats),
    /// Refused by admission control (`Overloaded`): shed, not failed.
    Shed,
    /// Any other failure.
    Error(String),
}

/// The in-process target: each op calls the service directly.
fn service_exec<'a, L: ServiceLabel>(
    service: &'a Service<L>,
    work: &'a Workload<L>,
    trace: bool,
) -> impl Fn(usize, &Op) -> Outcome + Sync + 'a {
    move |_, op| {
        run_op(
            work,
            op,
            |g, q| service.query_traced(g, q, trace),
            |g, u| service.apply_updates(g, u),
            |e| matches!(e, ServiceError::Overloaded { .. }),
        )
    }
}

/// Runs `op` through one target's query and update calls. Errors
/// `overloaded` picks out are admission refusals (shed); any other is
/// an error.
fn run_op<L, E: std::fmt::Display>(
    work: &Workload<L>,
    op: &Op,
    query: impl FnOnce(&str, &Query<L>) -> Result<QueryResponse, E>,
    apply: impl FnOnce(&str, &[GraphUpdate]) -> Result<UpdateSummary, E>,
    overloaded: impl FnOnce(&E) -> bool,
) -> Outcome {
    let graph = &work.names[op.graph()];
    let result = match op {
        Op::Query { query: q, .. } => query(graph, &work.queries[*q]).map(Outcome::Answer),
        Op::Update { update, .. } => {
            apply(graph, std::slice::from_ref(update)).map(|s| Outcome::Applied(s.stats))
        }
    };
    result.unwrap_or_else(|e| {
        if overloaded(&e) {
            Outcome::Shed
        } else {
            Outcome::Error(e.to_string())
        }
    })
}

/// The result of one replay, which one printer ([`print_report`]) and
/// one `--stats-json` writer ([`write_stats_json`]) consume.
#[derive(Debug, Default)]
struct ReplayReport {
    ops: usize,
    /// Query ops in the list.
    queries: usize,
    /// Update ops in the list.
    update_ops: usize,
    submitters: usize,
    /// True when ops ran on an arrival schedule.
    open_loop: bool,
    /// Update ops that applied.
    applied: usize,
    shed: usize,
    errors: usize,
    elapsed: Duration,
    /// Service latency (execution only) of each answer, in µs; sorted.
    service: Vec<u128>,
    /// Response latency (due time to completion) of each answer, in µs;
    /// sorted.
    response: Vec<u128>,
    qual_card_sum: f64,
    /// Maintenance accounting summed over every applied update.
    updates: UpdateStats,
}

impl ReplayReport {
    fn new(ops: &[Op], submitters: usize, open_loop: bool) -> Self {
        let update_ops = ops
            .iter()
            .filter(|op| matches!(op, Op::Update { .. }))
            .count();
        ReplayReport {
            ops: ops.len(),
            queries: ops.len() - update_ops,
            update_ops,
            submitters,
            open_loop,
            ..Default::default()
        }
    }

    /// Folds in op `i`'s outcome; `response` is its latency in µs from
    /// due time to completion. Answers feed the trace log; errors print
    /// with their op index.
    fn record(&mut self, i: usize, op: &Op, outcome: Outcome, response: u128, trace: &TraceLog) {
        match outcome {
            Outcome::Answer(r) => {
                self.service.push(r.micros);
                self.response.push(response);
                self.qual_card_sum += r.qual_card;
                trace.record(i, op.graph(), &r);
            }
            Outcome::Applied(stats) => {
                self.applied += 1;
                self.updates.absorb(&stats);
            }
            Outcome::Shed => self.shed += 1,
            Outcome::Error(e) => {
                self.errors += 1;
                eprintln!("op {i}: {e}");
            }
        }
    }

    fn finish(mut self, elapsed: Duration) -> Self {
        self.elapsed = elapsed;
        self.service.sort_unstable();
        self.response.sort_unstable();
        self
    }

    /// Answered queries plus applied updates.
    fn completed(&self) -> usize {
        self.service.len() + self.applied
    }

    fn throughput(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        let [r50, r95, r99] = tails(&self.response);
        let [s50, s95, s99] = tails(&self.service);
        format!(
            "{{\"ops\":{},\"queries\":{},\"update_ops\":{},\"shed\":{},\"errors\":{},\
             \"elapsed_micros\":{},\"throughput_ops_per_sec\":{:.3},\
             \"response_p50_micros\":{r50},\"response_p95_micros\":{r95},\
             \"response_p99_micros\":{r99},\"service_p50_micros\":{s50},\
             \"service_p95_micros\":{s95},\"service_p99_micros\":{s99}}}",
            self.ops,
            self.queries,
            self.update_ops,
            self.shed,
            self.errors,
            self.elapsed.as_micros(),
            self.throughput(),
        )
    }
}

/// Runs `ops` against one target, the `exec` closure, from `submitters`
/// threads that claim ops in list order. Closed loop (`schedule` is
/// `None`) an op starts as soon as a submitter is free. Open loop, op
/// `i` waits for its instant `schedule[i]` and its response latency runs
/// from that instant to completion, so a saturated target shows its
/// queueing delay in the tail instead of hiding it behind self-pacing.
/// `refresh` runs at the start and about every 220 ms until the last op
/// completes (the live `--metrics-text` rewrite). This is the only place
/// the CLI spawns submitters or sleeps to a schedule.
fn replay(
    ops: &[Op],
    schedule: Option<&[Duration]>,
    submitters: usize,
    trace: &TraceLog,
    refresh: &(dyn Fn() + Sync),
    exec: impl Fn(usize, &Op) -> Outcome + Sync,
) -> ReplayReport {
    let report = Mutex::new(ReplayReport::new(ops, submitters, schedule.is_some()));
    let next = AtomicUsize::new(0);
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let start = Instant::now();
    let elapsed = std::thread::scope(|s| {
        s.spawn(move || loop {
            refresh();
            let wait = stopped.recv_timeout(Duration::from_millis(220));
            if wait != Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                break;
            }
        });
        std::thread::scope(|s| {
            for _ in 0..submitters {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(op) = ops.get(i) else {
                        break;
                    };
                    let due = match schedule {
                        Some(at) => {
                            if let Some(early) = at[i].checked_sub(start.elapsed()) {
                                std::thread::sleep(early);
                            }
                            at[i]
                        }
                        None => start.elapsed(),
                    };
                    let outcome = exec(i, op);
                    let response = start.elapsed().saturating_sub(due).as_micros();
                    let mut report = report.lock().unwrap_or_else(|e| e.into_inner());
                    report.record(i, op, outcome, response, trace);
                });
            }
        });
        let elapsed = start.elapsed();
        drop(stop);
        elapsed
    });
    report
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .finish(elapsed)
}

/// p50, p95 and p99 of ascending latencies — the one place the CLI
/// computes its latency tails.
fn tails(sorted: &[u128]) -> [usize; 3] {
    [50, 95, 99].map(|p| percentile_micros(sorted, p))
}

/// Prints the lines every replay shares: ops, elapsed time, throughput,
/// shed, errors, both latency tails, mean qualCard, and the summed
/// update accounting.
fn print_report(r: &ReplayReport, arrivals: Option<Arrivals>) {
    let discipline = arrivals.map_or_else(
        || "closed loop".to_owned(),
        |a| format!("{} arrivals at {:.1} op/s", a.name(), a.rate()),
    );
    println!(
        "replay: {} ops ({} queries, {} updates), {discipline}, {} submitters",
        r.ops, r.queries, r.update_ops, r.submitters,
    );
    println!(
        "completed {} ops in {:.2} ms ({:.1} op/s), {} shed, {} errors",
        r.completed(),
        r.elapsed.as_secs_f64() * 1e3,
        r.throughput(),
        r.shed,
        r.errors,
    );
    for (name, latencies) in [
        ("response latency:", &r.response),
        ("service latency: ", &r.service),
    ] {
        let [p50, p95, p99] = tails(latencies);
        println!("{name} p50 = {p50} us, p95 = {p95} us, p99 = {p99} us");
    }
    if !r.service.is_empty() {
        println!(
            "mean qualCard = {:.4}",
            r.qual_card_sum / r.service.len() as f64
        );
    }
    if r.update_ops > 0 {
        let u = &r.updates;
        println!(
            "updates: {} applied ({} incremental, {} closure-unchanged, {} rebuilds, \
             {} no-ops, {} backend fallbacks), {} components touched, \
             {} bounded rows refreshed",
            u.applied,
            u.incremental,
            u.closure_unchanged,
            u.rebuilds,
            u.noops,
            u.backend_fallbacks,
            u.affected_components,
            u.bounded_rows_recomputed,
        );
    }
}

/// The sections of one `--stats-json` export; any the run lacks is
/// written as `null`.
#[derive(Default)]
struct StatsSections {
    engine: Option<EngineStats>,
    prepare: Option<PrepareStats>,
    updates: Option<UpdateStats>,
    service: Option<ServiceStats>,
    router: Option<RouterStats>,
}

/// Writes the `--stats-json` export, if the flag was given: one object
/// `{"engine","prepare","updates","service","router","replay"}` for
/// every replay subcommand. An open-loop run also exports its service
/// percentiles in the engine's `last_batch_p*` slots and its response
/// percentiles in `response_p*`, so each field name says which latency
/// it carries.
fn write_stats_json(
    f: &Flags,
    report: &ReplayReport,
    mut sections: StatsSections,
) -> Result<(), String> {
    let Some(path) = &f.stats_json else {
        return Ok(());
    };
    if let (true, Some(e)) = (report.open_loop, sections.engine.as_mut()) {
        [
            e.last_batch_p50_micros,
            e.last_batch_p95_micros,
            e.last_batch_p99_micros,
        ] = tails(&report.service);
        [
            e.response_p50_micros,
            e.response_p95_micros,
            e.response_p99_micros,
        ] = tails(&report.response);
    }
    let null = || "null".to_owned();
    let json = format!(
        "{{\"engine\":{},\"prepare\":{},\"updates\":{},\"service\":{},\"router\":{},\
         \"replay\":{}}}\n",
        sections
            .engine
            .as_ref()
            .map_or_else(null, EngineStats::to_json),
        sections
            .prepare
            .as_ref()
            .map_or_else(null, PrepareStats::to_json),
        sections
            .updates
            .as_ref()
            .map_or_else(null, UpdateStats::to_json),
        sections
            .service
            .as_ref()
            .map_or_else(null, ServiceStats::to_json),
        sections
            .router
            .as_ref()
            .map_or_else(null, RouterStats::to_json),
        report.to_json(),
    );
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("stats JSON written to {path}");
    Ok(())
}

/// A replay's exit status: failure when any op errored (shed ops are
/// not errors).
fn exit_status(report: &ReplayReport) -> ExitCode {
    if report.errors == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {} of {} ops failed", report.errors, report.ops);
    ExitCode::FAILURE
}

/// The tail every replay subcommand shares: flush `--trace-json`, write
/// `--stats-json` and the final `--metrics-text`, then exit non-zero if
/// any op errored — only after every output is written.
fn finish_replay(
    f: &Flags,
    report: &ReplayReport,
    trace: &TraceLog,
    sections: StatsSections,
    render: &dyn Fn() -> String,
) -> ExitCode {
    let written = trace
        .flush()
        .and_then(|()| write_stats_json(f, report, sections))
        .and_then(|()| finish_metrics_text(f, render));
    match written {
        Ok(()) => exit_status(report),
        Err(e) => fail(&e),
    }
}

/// `phom flight-dump`: replays a short synthetic batch through the
/// service layer and dumps the always-on flight recorder — one JSON
/// line per retained per-query summary, oldest first, plus a trailer
/// reconciling the retained/recorded counts against admitted queries.
/// With `--flight-capacity` smaller than `--queries`, the trailer shows
/// the ring keeping only the most recent summaries.
fn cmd_flight_dump(args: &[String]) -> ExitCode {
    let f = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if !f.files.is_empty() {
        return fail("flight-dump takes no file arguments");
    }
    let work = synthetic_batch(&f);
    let service: Service<Label> = Service::new(service_config(&f, ShardingConfig::disabled()));
    if let Err(e) = attach_journal(&service, &f) {
        return fail(&e);
    }
    if let Err(e) = service.register("flight".into(), Arc::clone(&work.graphs[0])) {
        return fail(&e.to_string());
    }
    if let Err(e) = service.query_batch_traced("flight", &work.queries, false) {
        return fail(&e.to_string());
    }
    let records = service.flight().snapshot();
    for r in &records {
        println!("{}", r.to_json(plan_name_of(r.plan)));
    }
    let stats = service.stats();
    println!(
        "flight: {} retained of {} recorded ({} queries admitted)",
        records.len(),
        stats.flight_recorded,
        stats.queries_admitted,
    );
    if let Err(e) = finish_metrics_text(&f, &service_metrics(&service)) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut baseline: Option<std::path::PathBuf> = None;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(std::path::PathBuf::from(p)),
                None => return fail("--baseline needs a path"),
            },
            p if !p.starts_with("--") => paths.push(std::path::PathBuf::from(p)),
            other => return fail(&format!("unknown lint flag {other:?}")),
        }
    }
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot resolve working directory: {e}")),
    };
    // The committed baseline applies by default; --baseline overrides.
    let default_baseline = root.join("lint-baseline.txt");
    let baseline = baseline.or_else(|| default_baseline.is_file().then_some(default_baseline));
    let report = if paths.is_empty() {
        phom::audit::lint_workspace(&root, baseline.as_deref())
    } else {
        phom::audit::lint_paths(&root, &paths, baseline.as_deref())
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return fail(&format!("lint failed: {e}")),
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if deny && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let mut graph: Option<String> = None;
    let mut generate: Option<String> = None;
    let mut deep = false;
    let mut samples = 16usize;
    let mut nodes = 400usize;
    let mut seed = 7u64;
    let mut backend = ClosureBackend::Auto;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--graph" => match take("--graph") {
                Ok(v) => graph = Some(v),
                Err(e) => return fail(&e),
            },
            "--generate" => match take("--generate") {
                Ok(v) => generate = Some(v),
                Err(e) => return fail(&e),
            },
            "--deep" => deep = true,
            "--samples" => match take("--samples")
                .and_then(|v| v.parse::<usize>().map_err(|e| format!("--samples: {e}")))
            {
                Ok(v) => samples = v,
                Err(e) => return fail(&e),
            },
            "--nodes" => match take("--nodes")
                .and_then(|v| v.parse::<usize>().map_err(|e| format!("--nodes: {e}")))
            {
                Ok(v) => nodes = v,
                Err(e) => return fail(&e),
            },
            "--seed" => match take("--seed")
                .and_then(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
            {
                Ok(v) => seed = v,
                Err(e) => return fail(&e),
            },
            "--closure-backend" => match take("--closure-backend") {
                Ok(v) => match ClosureBackend::parse(&v) {
                    Some(b) => backend = b,
                    None => return fail(&format!("unknown closure backend {v:?}")),
                },
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown audit flag {other:?}")),
        }
    }
    if let Some(path) = generate {
        // Build a synthetic data graph, prepare it under the requested
        // backend, and write the engine snapshot — the positive fixture
        // for the CI audit smoke (corrupt a byte to get the negative).
        let cfg = SyntheticConfig {
            m: nodes,
            noise: 0.1,
            seed,
        };
        let inst = generate_instance(&cfg, 1);
        let prepared = PreparedGraph::with_backend(
            Arc::new(named(&inst.g2)),
            backend,
            DEFAULT_CHAIN_NODE_THRESHOLD,
        );
        let bytes = prepared.save_snapshot();
        if let Err(e) = std::fs::write(&path, &bytes) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        println!(
            "wrote snapshot: {} nodes, {} edges, backend {} ({} bytes) -> {path}",
            prepared.stats().nodes,
            prepared.stats().edges,
            prepared.stats().closure_backend,
            bytes.len()
        );
        return ExitCode::SUCCESS;
    }
    let Some(path) = graph else {
        return fail("audit needs --graph <snapshot> or --generate <snapshot.out>");
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    match audit_snapshot(bytes::Bytes::from(bytes), deep, samples) {
        Ok(report) => {
            print!("{}", report.render_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("audit FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_log() -> TraceLog {
        TraceLog {
            path: None,
            threshold: 0,
            graphs: vec!["g".to_owned()],
            lines: Mutex::new(Vec::new()),
        }
    }

    fn answer() -> Outcome {
        Outcome::Answer(QueryResponse {
            mapping: PHomMapping::empty(1),
            qual_card: 1.0,
            qual_sim: 1.0,
            plan: Plan {
                kind: PlanKind::Approx,
                restarts: 1,
                reason: "fake target",
            },
            shards_consulted: 1,
            timed_out: false,
            micros: 5,
            cache_hit: true,
            trace: None,
        })
    }

    fn queries(n: usize) -> Vec<Op> {
        (0..n).map(|query| Op::Query { graph: 0, query }).collect()
    }

    #[test]
    fn closed_loop_runs_every_op_exactly_once() {
        let ops = queries(64);
        let runs: Vec<AtomicUsize> = ops.iter().map(|_| AtomicUsize::new(0)).collect();
        let refreshes = AtomicUsize::new(0);
        let report = replay(
            &ops,
            None,
            4,
            &quiet_log(),
            &|| {
                refreshes.fetch_add(1, Ordering::SeqCst);
            },
            |i, _| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                answer()
            },
        );
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!((report.ops, report.completed(), report.shed), (64, 64, 0));
        assert_eq!(report.errors, 0);
        assert!(!report.open_loop);
        assert!(refreshes.load(Ordering::SeqCst) >= 1, "metrics refresh ran");
    }

    #[test]
    fn open_loop_holds_each_op_to_its_arrival() {
        let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
        let report = replay(
            &queries(4),
            Some(&schedule),
            2,
            &quiet_log(),
            &|| {},
            |_, _| answer(),
        );
        assert!(report.open_loop);
        assert!(report.elapsed >= Duration::from_millis(30), "{report:?}");
        assert_eq!(report.completed(), 4);
    }

    #[test]
    fn overloaded_counts_as_shed_not_as_an_error() {
        let report = replay(&queries(10), None, 3, &quiet_log(), &|| {}, |i, _| {
            if i % 2 == 0 {
                Outcome::Shed
            } else {
                answer()
            }
        });
        assert_eq!((report.shed, report.errors, report.completed()), (5, 0, 5));
        assert_eq!(exit_status(&report), ExitCode::SUCCESS);
    }

    #[test]
    fn an_error_is_counted_and_fails_the_run() {
        let report = replay(&queries(10), None, 3, &quiet_log(), &|| {}, |i, _| {
            if i == 3 {
                Outcome::Error("fake failure".to_owned())
            } else {
                answer()
            }
        });
        assert_eq!((report.errors, report.completed()), (1, 9));
        assert_eq!(exit_status(&report), ExitCode::FAILURE);
    }

    #[test]
    fn updates_toggle_the_edge_in_op_order() {
        let mut g: DiGraph<()> = DiGraph::new();
        g.add_node(());
        g.add_node(());
        let ops = mixed_ops(
            4,
            1.0,
            phom::graph::XorShift64::new(1),
            &[Arc::new(g)],
            |_, _| (NodeId(0), NodeId(1)),
            |_, _| unreachable!("every op is an update"),
        );
        let (a, b) = (NodeId(0), NodeId(1));
        let update = |update| Op::Update { graph: 0, update };
        assert_eq!(
            ops,
            [
                update(GraphUpdate::InsertEdge(a, b)),
                update(GraphUpdate::RemoveEdge(a, b)),
                update(GraphUpdate::InsertEdge(a, b)),
                update(GraphUpdate::RemoveEdge(a, b)),
            ]
        );
    }
}
