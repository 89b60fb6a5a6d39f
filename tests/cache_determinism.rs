//! Byte-identity of cached experiment artifacts across cache temperature
//! and worker count.
//!
//! The cell cache's contract is that it is *invisible* in the artifact: a
//! cold run (every cell computed, then stored), a warm run (every cell
//! loaded), and a mixed run (a sub-grid populated first, the rest computed)
//! must all serialize to exactly the bytes of a cache-free run — at one
//! worker and at eight. Exercised for the two standing bench grids, fig5
//! and the cluster sweep, and for the hedge and rack sweeps with two
//! replications per cell, so a partially cached grid still flattens and
//! merges its missed cells' replications correctly.

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::fig5::{run_fig5, Fig5Options};
use duplexity::experiments::hedge_sweep::{hedge_sweep, HedgeSweepOptions};
use duplexity::experiments::rack_sweep::{rack_sweep, RackSweepOptions};
use duplexity::{CellCache, Design, DuplicationPolicy, RackPlan, Workload};
use duplexity_queueing::cluster::BalancerPolicy;
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use std::path::PathBuf;

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "duplexity-cache-determinism-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fig5_opts(loads: Vec<f64>, threads: usize, cache: Option<CellCache>) -> Fig5Options {
    Fig5Options {
        loads,
        workloads: vec![Workload::McRouter],
        designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
        horizon_cycles: 1_200_000,
        seed: 42,
        queue: Mg1Options {
            max_samples: 100_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        cache,
        ..Fig5Options::default()
    }
}

fn cluster_opts(loads: Vec<f64>, threads: usize) -> ClusterSweepOptions {
    ClusterSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Random, BalancerPolicy::Jsq],
        server_counts: vec![4],
        loads,
        calibration_cycles: 200_000,
        seed: 7,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        threads,
        ..ClusterSweepOptions::default()
    }
}

#[test]
fn fig5_cold_warm_and_mixed_runs_are_byte_identical() {
    let loads = vec![0.3, 0.5];
    let reference =
        serde_json::to_string_pretty(&run_fig5(&fig5_opts(loads.clone(), 1, None))).unwrap();

    let dir = tmp_dir("fig5");
    // Cold at 1 worker: every cell computed and stored.
    let cold = CellCache::new(&dir);
    let out =
        serde_json::to_string_pretty(&run_fig5(&fig5_opts(loads.clone(), 1, Some(cold.clone()))))
            .unwrap();
    assert_eq!(out, reference, "cold cached fig5 diverged");
    assert_eq!(cold.hits(), 0);
    assert!(cold.misses() > 0);

    // Warm at 8 workers: every cell loaded.
    let warm = CellCache::new(&dir);
    let out =
        serde_json::to_string_pretty(&run_fig5(&fig5_opts(loads.clone(), 8, Some(warm.clone()))))
            .unwrap();
    assert_eq!(out, reference, "warm cached fig5 diverged");
    assert_eq!(warm.misses(), 0);
    assert_eq!(warm.hits(), cold.misses());

    // Mixed at 8 workers: a fresh directory seeded by a one-load sub-grid,
    // then the full grid — the overlap loads, the rest computes.
    let dir = tmp_dir("fig5-mixed");
    let seedc = CellCache::new(&dir);
    let _ = run_fig5(&fig5_opts(vec![0.5], 1, Some(seedc)));
    let mixed = CellCache::new(&dir);
    let out =
        serde_json::to_string_pretty(&run_fig5(&fig5_opts(loads, 8, Some(mixed.clone())))).unwrap();
    assert_eq!(out, reference, "mixed cached fig5 diverged");
    assert!(mixed.hits() > 0, "sub-grid cells were not reused");
    assert!(mixed.misses() > 0, "full grid found nothing to compute");

    let _ = std::fs::remove_dir_all(tmp_dir("fig5"));
    let _ = std::fs::remove_dir_all(tmp_dir("fig5-mixed"));
}

#[test]
fn cluster_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    let loads = vec![0.4, 0.7];
    let reference =
        serde_json::to_string_pretty(&cluster_sweep(&cluster_opts(loads.clone(), 1))).unwrap();

    let dir = tmp_dir("cluster");
    let cold = CellCache::new(&dir);
    let mut opts = cluster_opts(loads.clone(), 1);
    opts.cache = Some(cold.clone());
    let out = serde_json::to_string_pretty(&cluster_sweep(&opts)).unwrap();
    assert_eq!(out, reference, "cold cached cluster sweep diverged");
    assert_eq!(cold.hits(), 0);
    assert!(cold.misses() > 0);

    let warm = CellCache::new(&dir);
    let mut opts = cluster_opts(loads.clone(), 8);
    opts.cache = Some(warm.clone());
    let out = serde_json::to_string_pretty(&cluster_sweep(&opts)).unwrap();
    assert_eq!(out, reference, "warm cached cluster sweep diverged");
    assert_eq!(warm.misses(), 0);
    assert_eq!(warm.hits(), cold.misses());

    let dir = tmp_dir("cluster-mixed");
    let mut sub = cluster_opts(vec![0.4], 1);
    sub.cache = Some(CellCache::new(&dir));
    let _ = cluster_sweep(&sub);
    let mixed = CellCache::new(&dir);
    let mut opts = cluster_opts(loads, 8);
    opts.cache = Some(mixed.clone());
    let out = serde_json::to_string_pretty(&cluster_sweep(&opts)).unwrap();
    assert_eq!(out, reference, "mixed cached cluster sweep diverged");
    assert!(mixed.hits() > 0, "sub-grid cells were not reused");
    assert!(mixed.misses() > 0, "full grid found nothing to compute");

    let _ = std::fs::remove_dir_all(tmp_dir("cluster"));
    let _ = std::fs::remove_dir_all(tmp_dir("cluster-mixed"));
}

/// Cold at 1 worker, warm at 8, and mixed at 8 (a fresh cache seeded by
/// the `sub_loads` sub-grid) must all match the cache-free run byte for
/// byte. `run(loads, threads, cache)` serializes one sweep.
fn assert_cache_is_invisible(
    label: &str,
    loads: &[f64],
    sub_loads: &[f64],
    run: impl Fn(&[f64], usize, Option<CellCache>) -> String,
) {
    let reference = run(loads, 1, None);

    let dir = tmp_dir(label);
    let cold = CellCache::new(&dir);
    assert_eq!(
        run(loads, 1, Some(cold.clone())),
        reference,
        "cold cached {label} diverged"
    );
    assert_eq!(cold.hits(), 0);
    assert!(cold.misses() > 0);

    let warm = CellCache::new(&dir);
    assert_eq!(
        run(loads, 8, Some(warm.clone())),
        reference,
        "warm cached {label} diverged"
    );
    assert_eq!(warm.misses(), 0);
    assert_eq!(warm.hits(), cold.misses());

    let mixed_dir = tmp_dir(&format!("{label}-mixed"));
    let _ = run(sub_loads, 1, Some(CellCache::new(&mixed_dir)));
    let mixed = CellCache::new(&mixed_dir);
    assert_eq!(
        run(loads, 8, Some(mixed.clone())),
        reference,
        "mixed cached {label} diverged"
    );
    assert!(mixed.hits() > 0, "sub-grid cells were not reused");
    assert!(mixed.misses() > 0, "full grid found nothing to compute");

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(mixed_dir);
}

fn hedge_opts(loads: &[f64], threads: usize, cache: Option<CellCache>) -> HedgeSweepOptions {
    HedgeSweepOptions {
        policies: vec![BalancerPolicy::Jsq],
        plans: vec![DuplicationPolicy::none(), DuplicationPolicy::hedge(20.0)],
        server_counts: vec![4],
        loads: loads.to_vec(),
        seed: 7,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 500,
            ..Mg1Options::default()
        },
        threads,
        replications: 2,
        cache,
        ..HedgeSweepOptions::default()
    }
}

#[test]
fn replicated_hedge_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("hedge", &[0.3, 0.5], &[0.3], |loads, threads, cache| {
        serde_json::to_string_pretty(&hedge_sweep(&hedge_opts(loads, threads, cache))).unwrap()
    });
}

#[test]
fn hedge_cells_cached_on_the_heap_hit_on_the_wheel() {
    // The event queue is a speed knob (heap and wheel pop identically), so
    // it is not part of a cell's key: a wheel run reuses every heap cell.
    let dir = tmp_dir("hedge-queues");
    let heap = CellCache::new(&dir);
    let mut opts = hedge_opts(&[0.3, 0.5], 1, Some(heap.clone()));
    opts.event_queue = EventQueueKind::Heap;
    let on_heap = serde_json::to_string_pretty(&hedge_sweep(&opts)).unwrap();
    assert!(heap.misses() > 0);

    let wheel = CellCache::new(&dir);
    opts.event_queue = EventQueueKind::Wheel;
    opts.cache = Some(wheel.clone());
    let on_wheel = serde_json::to_string_pretty(&hedge_sweep(&opts)).unwrap();
    assert_eq!(
        wheel.misses(),
        0,
        "the wheel run recomputed heap-cached cells"
    );
    assert_eq!(wheel.hits(), heap.misses());
    assert_eq!(on_wheel, on_heap);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn replicated_rack_sweep_cold_warm_and_mixed_runs_are_byte_identical() {
    assert_cache_is_invisible("rack", &[0.4, 0.7], &[0.7], |loads, threads, cache| {
        let opts = RackSweepOptions {
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(8.0).with_steal(2),
            ],
            server_counts: vec![4],
            loads: loads.to_vec(),
            calibration_cycles: 200_000,
            seed: 7,
            queue: Mg1Options {
                max_samples: 20_000,
                warmup: 500,
                ..Mg1Options::default()
            },
            threads,
            replications: 2,
            cache,
            ..RackSweepOptions::default()
        };
        serde_json::to_string_pretty(&rack_sweep(&opts)).unwrap()
    });
}
