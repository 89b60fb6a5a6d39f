//! Standing perf-trajectory benchmark for the cycle simulator.
//!
//! ```text
//! bench [--smoke] [--seed N] [--threads N] [--out FILE] [--guard BASELINE]
//! ```
//!
//! Times a stall-heavy Figure 5 configuration twice in the same process —
//! once with [`Stepping::Naive`] (step every cycle) and once with
//! [`Stepping::FastForward`] (skip provably quiescent spans) — asserts the
//! two grids are cell-for-cell identical, then times the fault-policy sweep,
//! the cluster balancing sweep, and the duplication/hedging sweep once
//! each. Two event-core sections follow: requests/sec per engine (legacy
//! Lindley loop, event heap, event wheel; cluster and hedged cells, plus
//! a power-of-two hedged cell at 16 and 1024 servers whose ns/request
//! ratio shows what per-request cost still grows with the farm) and the
//! legacy-vs-fast cluster-sweep path (timing wheel + batched RNG +
//! within-cell parallel replications). An `obs` section times latency
//! collection through the streaming [`LatencySketch`] against the exact
//! sorted-vector estimator over one deterministic stream and records the
//! sketch's p99 relative error. Writes the measurements as
//! JSON (default `BENCH_cycles.json`) with a [`RunManifest`] sidecar so
//! CI can archive a perf trajectory across commits.
//!
//! A `cache` section times the standing fig5 + cluster-sweep grids twice
//! through the content-addressed cell cache — once cold (empty directory)
//! and once warm — asserts the two artifacts are byte-identical, and
//! asserts the warm pass is at least [`MIN_WARM_SPEEDUP`]x faster.
//!
//! `--guard BASELINE` compares measured metrics against the committed
//! baseline JSON (`BENCH_baseline.json`): a `metrics` object keyed by
//! report path (e.g. `engine_core.wheel_vs_heap_rps_ratio`), each entry
//! carrying the healthy `value` and an optional per-metric `tolerance`
//! (default [`GUARD_TOLERANCE`]). The build fails, naming the offending
//! metric, if any measurement lands below `(1 - tolerance) * value`. All
//! guarded metrics are ratios measured within one process, not absolute
//! rates, so the baselines travel across CI hosts.
//!
//! `--smoke` shrinks horizons for a fast CI pass; `--threads 1` (the
//! default here) keeps per-mode wall times comparable across machines with
//! different core counts. The speedup is end-to-end: it includes the
//! never-skipped lender-reference calibration and the queueing runs both
//! modes share, so it under-states the raw cycle-loop gain.

use duplexity::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};
use duplexity::experiments::fault_sweep::{fault_sweep, FaultSweepOptions};
use duplexity::experiments::fig5::{run_fig5, Fig5Cell, Fig5Options};
use duplexity::experiments::hedge_sweep::hedge_sweep;
use duplexity::experiments::rack_sweep::rack_sweep;
use duplexity::{CellCache, Design, Workload};
use duplexity_bench::Fidelity;
use duplexity_cpu::designs::Stepping;
use duplexity_obs::{manifest_path, LatencySketch, RunManifest, Tracer};
use duplexity_queueing::cluster::{
    try_simulate_cluster, try_simulate_cluster_hedged, BalancerPolicy, ClusterEngine,
    ClusterOptions, DuplicationPolicy,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{rng_from_seed, SimRng};
use serde::{Serialize, Value};
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ModeTiming {
    wall_s: f64,
    cells_per_sec: f64,
    sim_cycles_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Fig5Bench {
    designs: Vec<Design>,
    workloads: Vec<Workload>,
    loads: Vec<f64>,
    horizon_cycles: u64,
    cells: usize,
    /// Cycle-loop iterations a naive pass performs: one horizon per grid
    /// cell, a third per calibration pair, and the lender-reference runs
    /// (half a horizon for the pooled lender, a quarter for the lone batch
    /// thread).
    nominal_sim_cycles: u64,
    naive: ModeTiming,
    fast_forward: ModeTiming,
    speedup: f64,
    results_identical: bool,
}

#[derive(Debug, Serialize)]
struct FaultSweepBench {
    points: usize,
    wall_s: f64,
    points_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct ClusterSweepBench {
    points: usize,
    saturated: usize,
    wall_s: f64,
    points_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct HedgeSweepBench {
    points: usize,
    saturated: usize,
    /// Duplicate copies issued across the grid — a sanity signal that the
    /// timed work actually exercised the duplication machinery.
    dup_copies: u64,
    wall_s: f64,
    points_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct RackSweepBench {
    points: usize,
    saturated: usize,
    /// Successful steals across the grid — a sanity signal that the timed
    /// work exercised the work-stealing machinery, not just fresh dispatch.
    steals: u64,
    wall_s: f64,
    points_per_sec: f64,
}

/// One timed engine run over a fixed single-cell configuration.
#[derive(Debug, Serialize)]
struct EngineTiming {
    engine: String,
    requests: u64,
    wall_s: f64,
    requests_per_sec: f64,
}

/// Requests/sec per future-event-set on one fixed cell, with and without
/// duplication, plus the wheel:heap throughput ratio the CI guard tracks.
#[derive(Debug, Serialize)]
struct EngineCoreBench {
    servers: usize,
    load: f64,
    samples_per_run: usize,
    /// Zero-duplication cell: legacy Lindley loop, event heap, event wheel.
    cluster: Vec<EngineTiming>,
    /// Hedged cell (`hedge10`): event heap vs event wheel.
    hedged: Vec<EngineTiming>,
    /// Wheel:heap throughput ratio over the combined cluster + hedged
    /// work: the median over interleaved passes of the pass's heap wall
    /// over its wheel wall — a machine-relative number (both sides share
    /// the process, the inputs and the moment), so a committed baseline
    /// of it travels across CI hosts.
    wheel_vs_heap_rps_ratio: f64,
    /// Hedged cell on the default event queue under power-of-two choices
    /// at the small farm's size and at `large_servers`.
    farm_scale: Vec<EngineTiming>,
    large_servers: usize,
    /// Host ns/request of the large farm over the small one: how much of
    /// the per-request cost still grows with the server count.
    large_vs_small_ns_ratio: f64,
}

/// The legacy sweep path (Lindley, one worker, one pass per cell) against
/// the fast path (timing wheel + batched RNG + within-cell parallel
/// replications) over the identical grid.
#[derive(Debug, Serialize)]
struct SweepPathBench {
    points: usize,
    requests: u64,
    /// Cores the host actually exposes. Within-cell parallelism can only
    /// convert replications into wall-clock speedup up to this bound —
    /// on a 1-core CI runner the fast path's thread fan-out is pure
    /// overhead and the recorded speedup reflects the serial engines.
    available_cores: usize,
    legacy_wall_s: f64,
    legacy_requests_per_sec: f64,
    fast_threads: usize,
    fast_replications: usize,
    fast_wall_s: f64,
    fast_requests_per_sec: f64,
    speedup: f64,
}

/// Collection overhead of the streaming tail sketch against the exact
/// sorted-vector estimator, over one deterministic exponential stream.
#[derive(Debug, Serialize)]
struct ObsBench {
    samples: usize,
    /// Exact path: `Vec` push + lazy sort at query time.
    vec_wall_s: f64,
    vec_msamples_per_sec: f64,
    /// Sketch path: log-bucket index + counter increment per sample.
    sketch_wall_s: f64,
    sketch_msamples_per_sec: f64,
    /// Sketch:vec collection throughput ratio (same stream, same process).
    sketch_vs_vec_ratio: f64,
    /// |sketch p99 − exact p99| / exact p99 — must stay within the
    /// sketch's documented relative-accuracy bound.
    p99_relative_error: f64,
}

/// Cold-vs-warm timing of the standing fig5 + cluster-sweep grids through
/// the content-addressed cell cache: identical options, one empty cache
/// directory, two passes in the same process.
#[derive(Debug, Serialize)]
struct CellCacheBench {
    /// Cells the two grids probe (fig5 loads + cluster sweep points).
    cells: u64,
    cold_wall_s: f64,
    warm_wall_s: f64,
    /// cold:warm wall ratio — the headline the guard tracks.
    warm_speedup: f64,
    cold_misses: u64,
    warm_hits: u64,
    bytes_written: u64,
    /// Whether the warm artifacts were byte-identical to the cold ones
    /// (also asserted, so a report ever carrying `false` never ships).
    identical: bool,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    threads: usize,
    smoke: bool,
    fig5: Fig5Bench,
    fault_sweep: FaultSweepBench,
    cluster_sweep: ClusterSweepBench,
    hedge_sweep: HedgeSweepBench,
    rack_sweep: RackSweepBench,
    engine_core: EngineCoreBench,
    sweep_path: SweepPathBench,
    obs: ObsBench,
    cache: CellCacheBench,
}

/// Fractional regression a guarded metric tolerates before failing the
/// build, when its baseline entry does not carry its own `tolerance`.
const GUARD_TOLERANCE: f64 = 0.15;

/// Minimum cold:warm speedup the cell-cache section must demonstrate.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Numeric leaf of the baseline JSON, whatever integer/float shape the
/// vendored parser gave it.
fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// One timed pass of `engine` over the fixed benchmark cell: measured
/// requests and wall seconds.
fn engine_pass(
    engine: ClusterEngine,
    policy: BalancerPolicy,
    plan: &DuplicationPolicy,
    servers: usize,
    load: f64,
    samples: usize,
    seed: u64,
) -> (u64, f64) {
    let mean_service = 2.0;
    let lambda = servers as f64 * load / mean_service;
    let opts = ClusterOptions {
        servers,
        max_samples: samples,
        warmup: 1_000,
        // Disable early stopping: every engine must do identical work.
        max_relative_error: 0.001,
        seed,
        event_queue: match engine {
            ClusterEngine::Event(kind) => kind,
            ClusterEngine::Lindley => EventQueueKind::default(),
        },
        ..ClusterOptions::default()
    };
    let service = Exponential::new(mean_service);
    let mut svc = |rng: &mut SimRng| service.sample(rng);
    let mut balancer = policy.build();
    let t = Instant::now();
    let requests = match engine {
        ClusterEngine::Lindley => {
            try_simulate_cluster(
                lambda,
                &mut svc,
                balancer.as_mut(),
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable bench cell")
            .samples as u64
        }
        ClusterEngine::Event(_) => {
            try_simulate_cluster_hedged(
                lambda,
                &mut svc,
                balancer.as_mut(),
                plan,
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable bench cell")
            .cluster
            .samples as u64
        }
    };
    (requests, t.elapsed().as_secs_f64())
}

/// The requests/sec entry of an engine from its pass walls: the work is
/// deterministic, so the fastest wall is the least scheduler-perturbed
/// measurement.
fn engine_timing(label: &str, requests: u64, walls: &[f64]) -> EngineTiming {
    let wall_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    EngineTiming {
        engine: label.to_string(),
        requests,
        wall_s,
        requests_per_sec: requests as f64 / wall_s.max(1e-12),
    }
}

/// Times one engine over the fixed benchmark cell, best of three passes.
#[allow(clippy::too_many_arguments)]
fn time_engine(
    label: &str,
    engine: ClusterEngine,
    policy: BalancerPolicy,
    plan: &DuplicationPolicy,
    servers: usize,
    load: f64,
    samples: usize,
    seed: u64,
) -> EngineTiming {
    let mut requests = 0;
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let (r, wall) = engine_pass(engine, policy, plan, servers, load, samples, seed);
            requests = r;
            wall
        })
        .collect();
    engine_timing(label, requests, &walls)
}

/// Paired heap/wheel passes behind the wheel:heap guard ratio.
const PAIRED_PASSES: usize = 5;

/// Times the heap and the wheel on the zero-duplication and the hedged
/// cell in interleaved passes — heap then wheel on each cell, pass after
/// pass — so a host slowdown lands on both sides of a pair. Returns the
/// cluster and hedged entries (best pass each) and the wheel:heap
/// throughput ratio: the median over passes of that pass's heap wall over
/// its wheel wall, summed over both cells.
fn time_heap_vs_wheel(
    plans: [&DuplicationPolicy; 2],
    servers: usize,
    load: f64,
    samples: usize,
    seed: u64,
) -> ([Vec<EngineTiming>; 2], f64) {
    let kinds = [EventQueueKind::Heap, EventQueueKind::Wheel];
    // passes[pass][cell][kind]: wall seconds.
    let mut passes = Vec::with_capacity(PAIRED_PASSES);
    let mut requests = [[0u64; 2]; 2];
    for _ in 0..PAIRED_PASSES {
        let mut pass = [[0.0; 2]; 2];
        for (cell, plan) in plans.into_iter().enumerate() {
            for (k, kind) in kinds.into_iter().enumerate() {
                let engine = ClusterEngine::Event(kind);
                let (r, wall) = engine_pass(
                    engine,
                    BalancerPolicy::Jsq,
                    plan,
                    servers,
                    load,
                    samples,
                    seed,
                );
                requests[cell][k] = r;
                pass[cell][k] = wall;
            }
        }
        passes.push(pass);
    }
    let mut ratios: Vec<f64> = passes
        .iter()
        .map(|p| (p[0][0] + p[1][0]) / (p[0][1] + p[1][1]).max(1e-12))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let walls = |cell: usize, k: usize| passes.iter().map(|p| p[cell][k]).collect::<Vec<f64>>();
    let timings = [0, 1].map(|cell| {
        vec![
            engine_timing("event_heap", requests[cell][0], &walls(cell, 0)),
            engine_timing("event_wheel", requests[cell][1], &walls(cell, 1)),
        ]
    });
    (timings, ratios[PAIRED_PASSES / 2])
}

/// Times latency collection through the exact estimator and the streaming
/// sketch over the same deterministic exponential stream, best of three
/// passes each. The p99 error check doubles as an end-to-end accuracy
/// probe on a stream the unit tests never see.
fn bench_obs(seed: u64, samples: usize) -> ObsBench {
    let service = Exponential::new(2.0);
    let draw = |n: usize| {
        let mut rng = rng_from_seed(seed ^ 0x0b5);
        (0..n).map(|_| service.sample(&mut rng)).collect::<Vec<_>>()
    };
    let stream = draw(samples);

    let mut vec_wall = f64::INFINITY;
    let mut exact_p99 = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        let mut q = QuantileEstimator::with_capacity(stream.len());
        for &v in &stream {
            q.record(v);
        }
        exact_p99 = q.quantile(0.99).expect("non-empty stream");
        vec_wall = vec_wall.min(t.elapsed().as_secs_f64());
    }

    let mut sketch_wall = f64::INFINITY;
    let mut sketch_p99 = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        let mut s = LatencySketch::new();
        for &v in &stream {
            s.record(v);
        }
        sketch_p99 = s.quantile(0.99).expect("non-empty stream");
        sketch_wall = sketch_wall.min(t.elapsed().as_secs_f64());
    }

    ObsBench {
        samples,
        vec_wall_s: vec_wall,
        vec_msamples_per_sec: samples as f64 / vec_wall.max(1e-12) / 1e6,
        sketch_wall_s: sketch_wall,
        sketch_msamples_per_sec: samples as f64 / sketch_wall.max(1e-12) / 1e6,
        sketch_vs_vec_ratio: vec_wall / sketch_wall.max(1e-12),
        p99_relative_error: (sketch_p99 - exact_p99).abs() / exact_p99.max(1e-12),
    }
}

fn stall_heavy_opts(seed: u64, threads: usize, horizon: u64, stepping: Stepping) -> Fig5Options {
    Fig5Options {
        // Baseline only: the paper's motivating configuration, where the
        // master-core burns thousands of cycles per µs-scale stall doing
        // nothing — exactly the span fast-forward folds away. (Baseline is
        // also the normalization reference, so it is a valid 1-design grid.)
        designs: vec![Design::Baseline],
        workloads: vec![Workload::McRouter],
        loads: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        horizon_cycles: horizon,
        seed,
        queue: Mg1Options {
            max_samples: 20_000,
            warmup: 1_000,
            ..Mg1Options::default()
        },
        threads,
        stepping,
        ..Fig5Options::default()
    }
}

/// Returns a description of the first naive/fast-forward disagreement, or
/// `None` when the grids are cell-for-cell identical. Naming the cell and
/// field turns a bit-identity violation from a yes/no verdict into a
/// reproducible bug report.
fn first_mismatch(a: &[Fig5Cell], b: &[Fig5Cell]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("grid sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let cell = format!(
            "{} / {} @ load {:.2}",
            x.design.name(),
            y.workload.name(),
            x.load
        );
        if x.design != y.design || x.workload != y.workload || x.load != y.load {
            return Some(format!(
                "grid order diverged at {cell} vs {} / {} @ load {:.2}",
                y.design.name(),
                y.workload.name(),
                y.load
            ));
        }
        let fields: [(&str, f64, f64); 8] = [
            ("utilization", x.utilization, y.utilization),
            (
                "perf_density_norm",
                x.perf_density_norm,
                y.perf_density_norm,
            ),
            ("energy_norm", x.energy_norm, y.energy_norm),
            ("p99_us", x.p99_us, y.p99_us),
            ("iso_p99_us", x.iso_p99_us, y.iso_p99_us),
            ("stp_norm", x.stp_norm, y.stp_norm),
            ("service_slowdown", x.service_slowdown, y.service_slowdown),
            (
                "remote_ops_per_us",
                x.remote_ops_per_us,
                y.remote_ops_per_us,
            ),
        ];
        for (name, naive, fast) in fields {
            if naive.to_bits() != fast.to_bits() {
                return Some(format!(
                    "{cell}: {name} naive {naive:?} vs fast-forward {fast:?}"
                ));
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let smoke = has("--smoke");
    let seed: u64 = arg_after("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let threads: usize = arg_after("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let out = arg_after("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_cycles.json".to_string());

    let horizon: u64 = if smoke { 600_000 } else { 3_000_000 };
    let opts_of = |stepping| stall_heavy_opts(seed, threads, horizon, stepping);
    let grid = opts_of(Stepping::Naive);
    let cells = grid.loads.len() * grid.workloads.len() * grid.designs.len();
    let pairs = grid.workloads.len() * grid.designs.len();
    let nominal_sim_cycles =
        cells as u64 * horizon + pairs as u64 * (horizon / 3) + horizon / 2 + horizon / 4;

    eprintln!("bench: fig5 stall-heavy grid, naive stepping ({cells} cells, horizon {horizon})");
    let t0 = Instant::now();
    let naive_cells = run_fig5(&opts_of(Stepping::Naive));
    let naive_s = t0.elapsed().as_secs_f64();

    eprintln!("bench: fig5 stall-heavy grid, fast-forward stepping");
    let t1 = Instant::now();
    let fast_cells = run_fig5(&opts_of(Stepping::FastForward));
    let fast_s = t1.elapsed().as_secs_f64();

    let mismatch = first_mismatch(&naive_cells, &fast_cells);
    let identical = mismatch.is_none();
    assert!(
        identical,
        "fast-forward diverged from naive stepping — bit-identity contract broken at {}",
        mismatch.as_deref().unwrap_or("unknown cell")
    );

    let timing = |wall_s: f64| ModeTiming {
        wall_s,
        cells_per_sec: cells as f64 / wall_s.max(1e-12),
        sim_cycles_per_sec: nominal_sim_cycles as f64 / wall_s.max(1e-12),
    };
    let speedup = naive_s / fast_s.max(1e-12);

    eprintln!("bench: fault-policy sweep");
    let mut sweep_opts = FaultSweepOptions {
        seed,
        ..FaultSweepOptions::default()
    };
    if smoke {
        sweep_opts.loads = vec![0.5];
        sweep_opts.queue = Mg1Options {
            max_samples: 60_000,
            warmup: 1_000,
            ..Mg1Options::default()
        };
    }
    let t2 = Instant::now();
    let points = fault_sweep(&sweep_opts);
    let sweep_s = t2.elapsed().as_secs_f64();

    eprintln!("bench: cluster balancing sweep");
    let fid = if smoke {
        Fidelity::Bench
    } else {
        Fidelity::Quick
    };
    let mut cluster_opts = fid.cluster_sweep_options(seed);
    cluster_opts.threads = threads;
    let t3 = Instant::now();
    let cluster_points = cluster_sweep(&cluster_opts);
    let cluster_s = t3.elapsed().as_secs_f64();

    eprintln!("bench: duplication/hedging sweep");
    let mut hedge_opts = fid.hedge_sweep_options(seed);
    hedge_opts.threads = threads;
    let t4 = Instant::now();
    let hedge_points = hedge_sweep(&hedge_opts);
    let hedge_s = t4.elapsed().as_secs_f64();

    eprintln!("bench: two-level rack sweep");
    let mut rack_opts = fid.rack_sweep_options(seed);
    rack_opts.threads = threads;
    let t4b = Instant::now();
    let rack_points = rack_sweep(&rack_opts);
    let rack_s = t4b.elapsed().as_secs_f64();

    eprintln!("bench: event-core engines (heap vs wheel, cluster + hedged, farm scale)");
    let (eng_servers, eng_load) = (16usize, 0.6);
    let eng_samples = if smoke { 200_000 } else { 400_000 };
    let none = DuplicationPolicy::none();
    let hedge_plan = DuplicationPolicy::hedge(10.0);
    let lindley = time_engine(
        "lindley",
        ClusterEngine::Lindley,
        BalancerPolicy::Jsq,
        &none,
        eng_servers,
        eng_load,
        eng_samples,
        seed,
    );
    let ([mut cluster_runs, hedged_runs], wheel_vs_heap) = time_heap_vs_wheel(
        [&none, &hedge_plan],
        eng_servers,
        eng_load,
        eng_samples,
        seed,
    );
    cluster_runs.insert(0, lindley);
    let large_servers = 1024;
    let farm_scale: Vec<EngineTiming> = [eng_servers, large_servers]
        .into_iter()
        .map(|servers| {
            time_engine(
                &format!("po2_{servers}"),
                ClusterEngine::Event(EventQueueKind::default()),
                BalancerPolicy::PowerOfD(2),
                &hedge_plan,
                servers,
                eng_load,
                eng_samples,
                seed,
            )
        })
        .collect();
    let ns_per_request = |r: &EngineTiming| r.wall_s * 1e9 / r.requests.max(1) as f64;
    let large_vs_small_ns_ratio =
        ns_per_request(&farm_scale[1]) / ns_per_request(&farm_scale[0]).max(1e-12);
    let engine_core = EngineCoreBench {
        servers: eng_servers,
        load: eng_load,
        samples_per_run: eng_samples,
        cluster: cluster_runs,
        hedged: hedged_runs,
        wheel_vs_heap_rps_ratio: wheel_vs_heap,
        farm_scale,
        large_servers,
        large_vs_small_ns_ratio,
    };

    eprintln!("bench: cluster sweep, legacy path vs wheel + replications");
    let sweep_grid = |engine, threads, replications| ClusterSweepOptions {
        designs: vec![Design::Baseline],
        policies: vec![BalancerPolicy::Jsq],
        server_counts: vec![16],
        loads: vec![0.4, 0.6],
        calibration_cycles: 200_000,
        seed,
        queue: Mg1Options {
            max_samples: if smoke { 100_000 } else { 400_000 },
            warmup: 1_000,
            // Full-length cells: the two paths must do identical work.
            max_relative_error: 0.001,
            ..Mg1Options::default()
        },
        engine,
        threads,
        replications,
        ..ClusterSweepOptions::default()
    };
    // Results are bit-identical at any worker count, so clamp the fan-out
    // to what the host can actually run in parallel — more threads than
    // cores would measure scheduler overhead, not the engine.
    let fast_threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let fast_replications = 8;
    let t5 = Instant::now();
    let legacy_points = cluster_sweep(&sweep_grid(ClusterEngine::Lindley, 1, 1));
    let legacy_s = t5.elapsed().as_secs_f64();
    let t6 = Instant::now();
    let fast_points = cluster_sweep(&sweep_grid(
        ClusterEngine::Event(EventQueueKind::Wheel),
        fast_threads,
        fast_replications,
    ));
    let fast_s2 = t6.elapsed().as_secs_f64();
    let legacy_requests: u64 = legacy_points.iter().map(|p| p.samples as u64).sum();
    let fast_requests: u64 = fast_points.iter().map(|p| p.samples as u64).sum();
    let sweep_path = SweepPathBench {
        points: legacy_points.len(),
        requests: legacy_requests,
        available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        legacy_wall_s: legacy_s,
        legacy_requests_per_sec: legacy_requests as f64 / legacy_s.max(1e-12),
        fast_threads,
        fast_replications,
        fast_wall_s: fast_s2,
        fast_requests_per_sec: fast_requests as f64 / fast_s2.max(1e-12),
        speedup: (fast_requests as f64 / fast_s2.max(1e-12))
            / (legacy_requests as f64 / legacy_s.max(1e-12)).max(1e-12),
    };
    eprintln!(
        "bench: sweep path {:.2}x ({:.2}s legacy -> {:.2}s fast), wheel:heap ratio {wheel_vs_heap:.3}",
        sweep_path.speedup, legacy_s, fast_s2
    );

    eprintln!("bench: observability collection overhead (sketch vs exact vector)");
    let obs = bench_obs(seed, if smoke { 2_000_000 } else { 8_000_000 });
    eprintln!(
        "bench: sketch {:.1} Msamples/s vs vec {:.1} Msamples/s ({:.2}x), p99 err {:.4}",
        obs.sketch_msamples_per_sec,
        obs.vec_msamples_per_sec,
        obs.sketch_vs_vec_ratio,
        obs.p99_relative_error
    );

    eprintln!("bench: cell cache, cold vs warm (fig5 + cluster sweep)");
    let cache_dir =
        std::env::temp_dir().join(format!("duplexity-cellcache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    // One closure runs both grids against the given cache handle and
    // serializes the combined artifact, so the cold and warm passes are
    // character-for-character comparable.
    let run_cached = |cache: &CellCache| -> (String, f64) {
        let mut f5 = opts_of(Stepping::FastForward);
        f5.cache = Some(cache.clone());
        let mut cs = fid.cluster_sweep_options(seed);
        cs.threads = threads;
        cs.cache = Some(cache.clone());
        let t = Instant::now();
        let f5_cells = run_fig5(&f5);
        let cs_points = cluster_sweep(&cs);
        let wall = t.elapsed().as_secs_f64();
        let artifact = format!(
            "{}\n{}",
            serde_json::to_string_pretty(&f5_cells).expect("serialize fig5 cells"),
            serde_json::to_string_pretty(&cs_points).expect("serialize cluster points"),
        );
        (artifact, wall)
    };
    let cold_cache = CellCache::new(&cache_dir);
    let (cold_artifact, cold_wall) = run_cached(&cold_cache);
    let warm_cache = CellCache::new(&cache_dir);
    let (warm_artifact, warm_wall) = run_cached(&warm_cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let identical = cold_artifact == warm_artifact;
    let warm_speedup = cold_wall / warm_wall.max(1e-12);
    assert!(
        identical,
        "warm cell-cache artifacts diverged from cold — cache round-trip is not bit-exact"
    );
    assert_eq!(
        cold_cache.hits(),
        0,
        "cold pass found entries in a fresh cache dir"
    );
    assert_eq!(
        warm_cache.misses(),
        0,
        "warm pass missed cells the cold pass stored"
    );
    assert!(
        warm_cache.hits() > 0,
        "warm pass hit nothing — cache is inert"
    );
    assert!(
        warm_speedup >= MIN_WARM_SPEEDUP,
        "warm cache re-run only {warm_speedup:.2}x faster than cold (need >= {MIN_WARM_SPEEDUP}x)"
    );
    let cache_bench = CellCacheBench {
        cells: cold_cache.misses(),
        cold_wall_s: cold_wall,
        warm_wall_s: warm_wall,
        warm_speedup,
        cold_misses: cold_cache.misses(),
        warm_hits: warm_cache.hits(),
        bytes_written: cold_cache.bytes_written(),
        identical,
    };
    eprintln!(
        "bench: cache warm re-run {warm_speedup:.1}x faster ({cold_wall:.2}s cold -> {warm_wall:.3}s warm, {} cells)",
        cache_bench.cells
    );

    let report = BenchReport {
        seed,
        threads,
        smoke,
        fig5: Fig5Bench {
            designs: grid.designs.clone(),
            workloads: grid.workloads.clone(),
            loads: grid.loads.clone(),
            horizon_cycles: horizon,
            cells,
            nominal_sim_cycles,
            naive: timing(naive_s),
            fast_forward: timing(fast_s),
            speedup,
            results_identical: identical,
        },
        fault_sweep: FaultSweepBench {
            points: points.len(),
            wall_s: sweep_s,
            points_per_sec: points.len() as f64 / sweep_s.max(1e-12),
        },
        cluster_sweep: ClusterSweepBench {
            points: cluster_points.len(),
            saturated: cluster_points.iter().filter(|p| p.saturated).count(),
            wall_s: cluster_s,
            points_per_sec: cluster_points.len() as f64 / cluster_s.max(1e-12),
        },
        hedge_sweep: HedgeSweepBench {
            points: hedge_points.len(),
            saturated: hedge_points.iter().filter(|p| p.saturated).count(),
            dup_copies: hedge_points.iter().map(|p| p.dup_copies).sum(),
            wall_s: hedge_s,
            points_per_sec: hedge_points.len() as f64 / hedge_s.max(1e-12),
        },
        rack_sweep: RackSweepBench {
            points: rack_points.len(),
            saturated: rack_points.iter().filter(|p| p.saturated).count(),
            steals: rack_points.iter().map(|p| p.steals).sum(),
            wall_s: rack_s,
            points_per_sec: rack_points.len() as f64 / rack_s.max(1e-12),
        },
        engine_core,
        sweep_path,
        obs,
        cache: cache_bench,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    let manifest = RunManifest::new("bench", env!("CARGO_PKG_VERSION"))
        .seed(seed)
        .threads(threads)
        .event_queue(EventQueueKind::default().name())
        .with("smoke", smoke)
        .with("artifact", "bench");
    let mpath = manifest_path(std::path::Path::new(&out));
    std::fs::write(&mpath, manifest.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", mpath.display());
        std::process::exit(1);
    });
    eprintln!(
        "bench: naive {naive_s:.2}s, fast-forward {fast_s:.2}s, speedup {speedup:.2}x -> {out}"
    );

    if let Some(baseline_path) = arg_after("--guard") {
        // Report paths the baseline may guard, with this run's measurements.
        let measured: &[(&str, f64)] = &[
            (
                "engine_core.wheel_vs_heap_rps_ratio",
                report.engine_core.wheel_vs_heap_rps_ratio,
            ),
            ("sweep_path.speedup", report.sweep_path.speedup),
            ("fig5.speedup", report.fig5.speedup),
            ("obs.sketch_vs_vec_ratio", report.obs.sketch_vs_vec_ratio),
            ("cache.warm_speedup", report.cache.warm_speedup),
        ];
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("guard: cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let root = serde_json::parse_value(&text).unwrap_or_else(|e| {
            eprintln!("guard: cannot parse baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let Some(Value::Object(metrics)) = root.get_field("metrics") else {
            eprintln!("guard: baseline {baseline_path} has no \"metrics\" object");
            std::process::exit(1);
        };
        let mut failed = false;
        for (name, spec) in metrics {
            let Some(baseline_value) = spec.get_field("value").and_then(value_as_f64) else {
                eprintln!("guard: metric {name} in {baseline_path} has no numeric \"value\"");
                failed = true;
                continue;
            };
            let tolerance = spec
                .get_field("tolerance")
                .and_then(value_as_f64)
                .unwrap_or(GUARD_TOLERANCE);
            let Some(&(_, m)) = measured.iter().find(|(n, _)| n == name) else {
                eprintln!("guard: metric {name} in {baseline_path} is not one this bench measures");
                failed = true;
                continue;
            };
            let floor = (1.0 - tolerance) * baseline_value;
            if m < floor {
                eprintln!(
                    "guard: {name} regressed — measured {m:.3} is below {floor:.3} \
                     ({:.0}% under the committed baseline {baseline_value:.3} in {baseline_path})",
                    tolerance * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "guard: {name} {m:.3} within {:.0}% of baseline {baseline_value:.3}",
                    tolerance * 100.0
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
