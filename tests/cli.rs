//! Integration tests for the `phom` CLI binary (text-format I/O, exit
//! codes, mapping output).

use std::io::Write;
use std::process::Command;

fn phom_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phom"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("phom-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(content.as_bytes()).expect("write");
    path
}

const PATTERN: &str = "node 0 books\nnode 1 textbooks\nedge 0 1\n";
const DATA: &str = "\
node 0 books
node 1 categories
node 2 textbooks
edge 0 1
edge 1 2
";

#[test]
fn decide_answers_yes_with_mapping() {
    let p = write_temp("pattern.graph", PATTERN);
    let d = write_temp("data.graph", DATA);
    let out = phom_bin()
        .args([
            "decide",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.9",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("YES"));
    assert!(stdout.contains("textbooks -> textbooks"));
}

#[test]
fn decide_answers_no_on_reversed_data() {
    let p = write_temp("pattern2.graph", PATTERN);
    let d = write_temp("data2.graph", "node 0 books\nnode 1 textbooks\nedge 1 0\n");
    let out = phom_bin()
        .args(["decide", p.to_str().unwrap(), d.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("NO"));
}

#[test]
fn match_reports_quality_and_pairs() {
    let p = write_temp("pattern3.graph", PATTERN);
    let d = write_temp("data3.graph", DATA);
    let out = phom_bin()
        .args(["match", p.to_str().unwrap(), d.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qualCard = 1.0000"), "{stdout}");
    assert!(stdout.contains("mapped 2/2 nodes"));
}

#[test]
fn match_with_witness_shows_path() {
    let p = write_temp("pattern4.graph", PATTERN);
    let d = write_temp("data4.graph", DATA);
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--witness",
        ])
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("books/categories/textbooks"),
        "witness path rendered: {stdout}"
    );
}

#[test]
fn match_exact_flag_works() {
    let p = write_temp("pattern5.graph", PATTERN);
    let d = write_temp("data5.graph", DATA);
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--exact",
            "--algorithm",
            "card11",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mapped 2/2"));
}

#[test]
fn stats_prints_graph_summary() {
    let d = write_temp("stats.graph", DATA);
    let out = phom_bin()
        .args(["stats", d.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|V| = 3"));
    assert!(stdout.contains("|E| = 2"));
    assert!(stdout.contains("|E+| (closure edges) = 3"));
}

#[test]
fn bad_file_fails_cleanly() {
    let out = phom_bin()
        .args(["stats", "/nonexistent/file.graph"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn malformed_graph_rejected() {
    let bad = write_temp("bad.graph", "node 5 hello\n");
    let out = phom_bin()
        .args(["stats", bad.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected node id"));
}

#[test]
fn help_exits_zero() {
    let out = phom_bin().arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("p-homomorphism"));
}

#[test]
fn text_sim_mode_matches_fuzzy_labels() {
    // Labels as page content: shingle similarity instead of equality.
    let p = write_temp(
        "fuzzy_p.graph",
        "node 0 rust systems programming language\nnode 1 graph matching algorithms survey\nedge 0 1\n",
    );
    let d = write_temp(
        "fuzzy_d.graph",
        "node 0 rust systems programming language book\nnode 1 hub page\nnode 2 graph matching algorithms survey notes\nedge 0 1\nedge 1 2\n",
    );
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--text-sim",
            "2",
            "--xi",
            "0.4",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mapped 2/2"), "{stdout}");
}

#[test]
fn decide_with_stretch_bound_flips_answer() {
    // The pattern edge needs a 2-hop path in the data: k=1 says NO,
    // k=2 says YES.
    let p = write_temp("pattern_k.graph", PATTERN);
    let d = write_temp("data_k.graph", DATA);
    let tight = phom_bin()
        .args([
            "decide",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.9",
            "--max-stretch",
            "1",
        ])
        .output()
        .expect("run");
    assert!(!tight.status.success());
    assert!(String::from_utf8_lossy(&tight.stdout).contains("NO"));

    let loose = phom_bin()
        .args([
            "decide",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.9",
            "--max-stretch",
            "2",
        ])
        .output()
        .expect("run");
    assert!(loose.status.success(), "{loose:?}");
    assert!(String::from_utf8_lossy(&loose.stdout).contains("YES"));
}

#[test]
fn match_with_restarts_reports_full_quality() {
    let p = write_temp("pattern_r.graph", PATTERN);
    let d = write_temp("data_r.graph", DATA);
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.9",
            "--restarts",
            "4",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("qualCard = 1.0000"));
}

#[test]
fn exact_rejects_extension_flags() {
    let p = write_temp("pattern_x.graph", PATTERN);
    let d = write_temp("data_x.graph", DATA);
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--exact",
            "--restarts",
            "3",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--exact"));
}

#[test]
fn generate_roundtrips_through_match() {
    let dir = std::env::temp_dir().join("phom-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join("gen_pattern.graph");
    let d = dir.join("gen_data.graph");
    let gen = phom_bin()
        .args([
            "generate",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--nodes",
            "20",
            "--noise",
            "0.1",
            "--seed",
            "7",
        ])
        .output()
        .expect("run");
    assert!(gen.status.success(), "{gen:?}");
    assert!(String::from_utf8_lossy(&gen.stdout).contains("wrote pattern"));

    // The generated pair must be matchable by construction.
    let out = phom_bin()
        .args([
            "match",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.75",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let qual: f64 = stdout
        .split("qualCard = ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("parse qualCard");
    assert!(qual >= 0.75, "generated instance should match: {qual}");
}

#[test]
fn phom_maps_what_one_one_maps_on_the_compression_instance() {
    // The default p-hom run matches on `G2*`, numbered in Tarjan order;
    // with ties broken toward the smallest id it mapped 25 of 30 nodes
    // here while both 1-1 runs mapped all 30.
    let p = temp_path("tie-p.g");
    let d = temp_path("tie-d.g");
    let (p, d) = (p.to_str().unwrap(), d.to_str().unwrap());
    run_ok(&[
        "generate", p, d, "--nodes", "30", "--noise", "0.3", "--seed", "1",
    ]);
    for algorithm in ["card", "sim", "card11", "sim11"] {
        let out = run_ok(&["match", p, d, "--xi", "0.5", "--algorithm", algorithm]);
        assert!(out.contains("mapped 30/30"), "{algorithm}: {out}");
    }
}

#[test]
fn generate_rejects_bad_noise() {
    let dir = std::env::temp_dir().join("phom-cli-tests");
    let p = dir.join("bad_p.graph");
    let d = dir.join("bad_d.graph");
    let out = phom_bin()
        .args([
            "generate",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--noise",
            "1.5",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn dot_input_is_accepted() {
    let p = write_temp("pattern.dot", "digraph p {\n  books -> textbooks;\n}\n");
    let d = write_temp(
        "data.dot",
        "digraph d {\n  books -> categories;\n  categories -> textbooks;\n}\n",
    );
    let out = phom_bin()
        .args([
            "decide",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
            "--xi",
            "0.9",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("YES"));
}

/// A scratch path unique to this test process.
fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("phom-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Runs `phom` with `args`, asserts it exits zero, and returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = phom_bin().args(args).output().expect("run");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The number at `"key":` inside the first `"section":{…}` object of a
/// `--stats-json` export (the sections read here are flat objects).
fn stat(json: &str, section: &str, key: &str) -> u64 {
    let start = json
        .find(&format!("\"{section}\":{{"))
        .unwrap_or_else(|| panic!("no {section} object in {json}"));
    let body = &json[start..];
    let body = &body[..body.find('}').expect("section closes")];
    let at = body
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {section}.{key} in {json}"))
        + key.len()
        + 3;
    body[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{section}.{key} is not a count in {json}"))
}

/// Sums every `"key":N` in `text`.
fn sum_of(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let digits: String = text[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("count")
        })
        .sum()
}

#[test]
fn serve_sim_honours_xi() {
    let candidates = |xi: &str| {
        let trace = temp_path(&format!("xi-{xi}.jsonl"));
        run_ok(&[
            "serve-sim",
            "--graphs",
            "1",
            "--parts",
            "2",
            "--nodes",
            "40",
            "--queries",
            "20",
            "--update-ratio",
            "0",
            "--threads",
            "1",
            "--arrivals",
            "open:100000",
            "--xi",
            xi,
            "--trace-json",
            trace.to_str().unwrap(),
        ]);
        let text = std::fs::read_to_string(&trace).expect("trace file");
        sum_of(&text, "candidate_pairs")
    };
    let (loose, strict) = (candidates("0.2"), candidates("0.95"));
    assert!(
        strict < loose,
        "xi 0.95 gave {strict} pairs, xi 0.2 gave {loose}"
    );
}

#[test]
fn serve_sim_update_stream_does_not_depend_on_threads() {
    let totals = |threads: &str| {
        let journal = temp_path(&format!("threads-{threads}.jsonl"));
        run_ok(&[
            "serve-sim",
            "--graphs",
            "2",
            "--parts",
            "3",
            "--nodes",
            "40",
            "--queries",
            "300",
            "--update-ratio",
            "0.5",
            "--arrivals",
            "open:100000",
            "--seed",
            "11",
            "--threads",
            threads,
            "--journal",
            journal.to_str().unwrap(),
        ]);
        let text = std::fs::read_to_string(&journal).expect("journal");
        let applied: String = text
            .lines()
            .filter(|l| l.contains("\"event\":\"UpdateApplied\""))
            .collect();
        (sum_of(&applied, "inserts"), sum_of(&applied, "removes"))
    };
    let one = totals("1");
    assert!(one.0 + one.1 > 0, "the replay must apply updates");
    assert_eq!(one, totals("4"));
}

#[test]
fn cluster_serve_sim_runs_and_counts_every_listed_op() {
    let flags = [
        "--graphs",
        "1",
        "--parts",
        "2",
        "--nodes",
        "12",
        "--queries",
        "60",
        "--arrivals",
        "open:4000",
        "--update-ratio",
        "0.3",
    ];
    let cluster = temp_path("cluster-stats.json");
    let mut args = vec!["serve-sim", "--processes", "2", "--stats-json"];
    args.push(cluster.to_str().unwrap());
    args.extend(flags);
    run_ok(&args);
    let json = std::fs::read_to_string(&cluster).expect("stats");
    assert_eq!(
        stat(&json, "router", "queries_routed") + stat(&json, "router", "updates_routed"),
        stat(&json, "replay", "ops"),
        "{json}"
    );
    assert_eq!(stat(&json, "replay", "errors"), 0);
    assert_eq!(stat(&json, "router", "workers_alive"), 2);

    let local = temp_path("local-stats.json");
    let mut args = vec!["serve-sim", "--stats-json"];
    args.push(local.to_str().unwrap());
    args.extend(flags);
    run_ok(&args);
    let local = std::fs::read_to_string(&local).expect("stats");
    for key in ["queries", "update_ops"] {
        assert_eq!(
            stat(&json, "replay", key),
            stat(&local, "replay", key),
            "{key}"
        );
    }
    assert!(stat(&local, "replay", "update_ops") > 0);
}

#[test]
fn engine_live_exports_every_section() {
    let stats = temp_path("live-stats.json");
    run_ok(&[
        "engine-live",
        "--ops",
        "40",
        "--nodes",
        "40",
        "--update-ratio",
        "0.3",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    let json = std::fs::read_to_string(&stats).expect("stats");
    for section in [
        "\"engine\":{",
        "\"prepare\":{",
        "\"updates\":{",
        "\"service\":{",
    ] {
        assert!(json.contains(section), "{section} missing: {json}");
    }
    assert_eq!(stat(&json, "replay", "ops"), 40);
    assert_eq!(stat(&json, "replay", "errors"), 0);
    assert_eq!(
        stat(&json, "updates", "applied"),
        stat(&json, "replay", "update_ops")
    );
}

#[test]
fn engine_batch_open_loop_exports_both_latencies() {
    let stats = temp_path("open-stats.json");
    run_ok(&[
        "engine-batch",
        "--queries",
        "20",
        "--nodes",
        "40",
        "--arrivals",
        "open:4000",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    let json = std::fs::read_to_string(&stats).expect("stats");
    assert!(json.contains("\"prepare\":{"), "{json}");
    assert!(json.contains("\"updates\":null"), "{json}");
    assert_eq!(stat(&json, "replay", "queries"), 20);
    assert_eq!(stat(&json, "replay", "errors"), 0);
    assert_eq!(
        stat(&json, "engine", "response_p99_micros"),
        stat(&json, "replay", "response_p99_micros")
    );
    assert_eq!(
        stat(&json, "engine", "last_batch_p99_micros"),
        stat(&json, "replay", "service_p99_micros")
    );
}

#[test]
fn engine_batch_cold_comparison_runs() {
    let stats = temp_path("cold-stats.json");
    let stdout = run_ok(&[
        "engine-batch",
        "--queries",
        "20",
        "--nodes",
        "40",
        "--cold",
        "--stats-json",
        stats.to_str().unwrap(),
    ]);
    assert!(stdout.contains("cold comparison: "), "{stdout}");
    assert!(stdout.contains("closure computations: 1"), "{stdout}");
    let json = std::fs::read_to_string(&stats).expect("stats");
    for section in ["\"engine\":{", "\"prepare\":{", "\"service\":{"] {
        assert!(json.contains(section), "{section} missing: {json}");
    }
    assert_eq!(stat(&json, "replay", "errors"), 0);
}

#[test]
fn readme_carries_the_help_synopsis() {
    let help = run_ok(&["--help"]);
    let readme = include_str!("../README.md");
    for line in help.lines().map(str::trim_end).filter(|l| !l.is_empty()) {
        assert!(
            readme.lines().any(|r| r.trim_end() == line),
            "README.md lacks the --help line {line:?}"
        );
    }
}
