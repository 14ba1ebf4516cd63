//! Determinism of the benchmark's inputs and of its work counters.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds make the SOLVE workloads slow).

use std::path::PathBuf;

use scq_perfbench::gen::{build_map, Scene, Workload};
use scq_perfbench::run::{run, Outcome, RunConfig};

fn config(workload: Workload, seed: u64, trace: bool, requests: u64, clients: usize) -> RunConfig {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scq-perfbench-test");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    RunConfig {
        requests: Some(requests),
        clients,
        setups: 1,
        ..RunConfig::new(
            workload,
            seed,
            1.0,
            trace,
            scratch,
            PathBuf::from(env!("CARGO_BIN_EXE_scq-perfbench")),
        )
    }
}

fn canonical_stream(workload: Workload, seed: u64, client: usize, n: usize) -> String {
    let (_, map) = build_map(seed, workload.roads());
    let scene = Scene::new(workload, seed, &map);
    let mut stream = scene.stream(client);
    let mut text = String::new();
    if workload.is_cluster() {
        for r in stream.preload() {
            text.push_str(&format!("{r:?}\n"));
        }
    }
    for _ in 0..n {
        text.push_str(&stream.next_op().canonical());
        text.push('\n');
    }
    text
}

#[test]
fn one_seed_gives_a_byte_identical_request_stream() {
    for w in Workload::ALL {
        for client in 0..2 {
            let a = canonical_stream(w, 7, client, 3000);
            let b = canonical_stream(w, 7, client, 3000);
            assert_eq!(a, b, "{} client {client}", w.name());
            assert_ne!(a, canonical_stream(w, 8, client, 3000), "{}", w.name());
        }
        assert_ne!(
            canonical_stream(w, 7, 0, 100),
            canonical_stream(w, 7, 1, 100),
            "clients get their own streams"
        );
    }
}

#[test]
fn range_query_boxes_never_repeat_across_clients() {
    let a = canonical_stream(Workload::RangeQuery, 3, 0, 20_000);
    let b = canonical_stream(Workload::RangeQuery, 3, 1, 20_000);
    let mut all: Vec<&str> = a.lines().chain(b.lines()).collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n);
}

fn traced(workload: Workload, requests: u64, clients: usize) -> Outcome {
    let out = run(&config(workload, 5, true, requests, clients)).expect("traced run");
    assert!(out.correct, "{}: {:?}", workload.name(), out.report);
    assert_eq!(out.failed, 0);
    out
}

/// Two traced runs of one seed with a fixed request count do the same
/// work: row checks, candidates, pruned shards, wire bytes and WAL
/// records repeat exactly. cluster-mixed runs one client, because the
/// interleaving of two clients' writes changes what their reads see.
#[test]
fn traced_work_counters_repeat_exactly() {
    for (w, requests, clients) in [
        (Workload::JoinSolve, 20, 2),
        (Workload::RangeQuery, 400, 2),
        (Workload::ClusterMixed, 150, 1),
    ] {
        let a = traced(w, requests, clients);
        let b = traced(w, requests, clients);
        assert_eq!(a.counters, b.counters, "{}", w.name());
        assert_eq!(a.stream_hashes, b.stream_hashes, "{}", w.name());
        let count = |name: &str| a.counters.get(name).copied().unwrap_or(0);
        match w {
            Workload::JoinSolve => assert!(count("engine.row_checks") > 0),
            Workload::RangeQuery => assert!(count("shard.pruned") > 0),
            Workload::ClusterMixed => {
                assert!(count("wire.bytes") > 0);
                assert!(count("wal.records") > 0);
            }
        }
    }
}

/// The untraced run on a seed no tuning used: every answer checks out.
#[test]
fn a_held_out_seed_runs_clean() {
    for w in Workload::ALL {
        // Enough requests for a p99 in each of the five windows.
        let out = run(&config(w, 90_001, false, 2600, 2)).expect("run");
        assert!(out.correct, "{}: {:?}", w.name(), out.report);
        assert_eq!(out.failed, 0, "{}", w.name());
        assert_eq!(out.metrics.len(), 4, "{}", w.name());
    }
}
