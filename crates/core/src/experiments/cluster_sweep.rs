//! Cluster-scale tail sweep: many dyads behind one load balancer.
//!
//! The paper evaluates single-dyad tails; real deployments run *farms* of
//! servers behind a balancer, and RackSched-style results (PAPERS.md) show
//! the balancing policy moves the microsecond tail as much as the
//! microarchitecture does. This driver lifts the Figure-5(d) methodology to
//! that setting: one saturated cycle-level calibration per design (exactly
//! as [`sweep`](crate::experiments::sweep) does), then a multi-server
//! queueing simulation per (design, policy, cluster size, load) cell via
//! [`try_simulate_cluster`], with common random numbers so the policy and
//! design axes are paired comparisons rather than sampling noise.
//!
//! Saturated cells — whether caught by the cheap pre-guard or by the DES
//! pilot's typed [`Unstable`](duplexity_queueing::des::Unstable) verdict —
//! render as `sat` instead of killing the grid.

use crate::cellcache::{CellCache, CellKey, Digest, PayloadReader, PayloadWriter};
use crate::experiments::grid::{cell_seed, lexicographic, validate_axes, CachedGrid};
use duplexity_cpu::designs::Design;
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{
    merge_replications, try_simulate_cluster, try_simulate_cluster_hedged, BalancerPolicy,
    ClusterEngine, ClusterOptions, ClusterResult, DuplicationPolicy,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_stats::rng::SimRng;
use duplexity_workloads::service::ServiceModel;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Seed stream of the per-cell queueing seeds, shared with the rack sweep
/// so a fresh rack plan reproduces cluster cells bitwise.
pub(crate) const CELL_STREAM: u64 = 0xC105;

/// Grid and fidelity parameters for the cluster sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Designs to sweep (must include [`Design::Baseline`], the slowdown
    /// reference).
    pub designs: Vec<Design>,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Cluster sizes (servers behind the balancer) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads to evaluate (fractions of nominal
    /// capacity; aggregate arrival rate scales with the cluster size).
    pub loads: Vec<f64>,
    /// Cycle horizon for the per-design service calibration.
    pub calibration_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads for calibrations and grid cells; `0` resolves
    /// `DUPLEXITY_THREADS` / available parallelism (see [`crate::exec`]).
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Simulation engine per cell: the event-driven engine on the timing
    /// wheel (default fast path), on the reference heap, or the legacy
    /// Lindley loop.
    pub engine: ClusterEngine,
    /// Independent replications per cell, run *within-cell parallel* on
    /// the pool (flattened into the grid's work list) with per-replication
    /// derived seeds and merged in replication order. `1` (the default)
    /// runs each cell's historical single pass bitwise; `R > 1` splits
    /// the per-cell sample budget `R` ways so even a tiny grid can keep
    /// every worker busy.
    pub replications: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list — and designs whose cells all hit skip calibration —
    /// with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for ClusterSweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            designs: vec![Design::Baseline, Design::Smt, Design::Duplexity],
            policies: vec![
                BalancerPolicy::Random,
                BalancerPolicy::RoundRobin,
                BalancerPolicy::PowerOfD(2),
                BalancerPolicy::Jsq,
            ],
            server_counts: vec![4, 16],
            loads: vec![0.3, 0.5, 0.7],
            calibration_cycles: 2_000_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 300_000,
                ..Mg1Options::default()
            },
            threads: 0,
            engine: ClusterEngine::default(),
            replications: 1,
            cache: None,
        }
    }
}

/// One (design, policy, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSweepPoint {
    /// Design.
    pub design: Design,
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Servers behind the balancer.
    pub servers: usize,
    /// Per-server offered load fraction.
    pub load: f64,
    /// 99th-percentile sojourn, µs (`inf` once the cell saturates).
    pub p99_us: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// Mean sojourn, µs.
    pub mean_us: f64,
    /// Mean queueing delay, µs.
    pub mean_wait_us: f64,
    /// Mean per-server busy fraction.
    pub utilization: f64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// One (design, policy, cluster size, load) cell; `design` indexes the
/// design axis.
struct Cell {
    design: usize,
    policy: BalancerPolicy,
    servers: usize,
    load: f64,
}

fn cells(opts: &ClusterSweepOptions) -> Vec<Cell> {
    lexicographic([
        opts.designs.len(),
        opts.policies.len(),
        opts.server_counts.len(),
        opts.loads.len(),
    ])
    .map(|[d, p, n, l]| Cell {
        design: d,
        policy: opts.policies[p],
        servers: opts.server_counts[n],
        load: opts.loads[l],
    })
    .collect()
}

/// Content-addressed cache keys for every (design, policy, cluster size,
/// load) cell of the cluster-sweep grid, in the driver's lexicographic
/// evaluation order. Replication count is digested — it splits the
/// per-cell sample budget and re-derives seeds, so `R` and `1` runs are
/// different results — but thread count is not.
#[must_use]
pub fn cell_keys(opts: &ClusterSweepOptions) -> Vec<CellKey> {
    cells(opts)
        .iter()
        .map(|c| {
            CellKey::build("cluster_sweep", |w| {
                opts.workload.digest(w);
                opts.designs[c.design].digest(w);
                c.policy.digest(w);
                w.field_usize("servers", c.servers);
                w.field_f64("load", c.load);
                w.field_u64("calibration_cycles", opts.calibration_cycles);
                w.field_u64("seed", opts.seed);
                w.field("queue", &opts.queue);
                w.field("engine", &opts.engine);
                w.field_usize("replications", opts.replications.max(1));
            })
        })
        .collect()
}

fn encode(p: &ClusterSweepPoint, w: &mut PayloadWriter) {
    w.f64("p99_us", p.p99_us);
    w.f64("p50_us", p.p50_us);
    w.f64("mean_us", p.mean_us);
    w.f64("mean_wait_us", p.mean_wait_us);
    w.f64("utilization", p.utilization);
    w.usize("samples", p.samples);
    w.bool("converged", p.converged);
    w.bool("saturated", p.saturated);
}

fn decode(
    opts: &ClusterSweepOptions,
    c: &Cell,
    r: &mut PayloadReader,
) -> Option<ClusterSweepPoint> {
    Some(ClusterSweepPoint {
        p99_us: r.f64("p99_us")?,
        p50_us: r.f64("p50_us")?,
        mean_us: r.f64("mean_us")?,
        mean_wait_us: r.f64("mean_wait_us")?,
        utilization: r.f64("utilization")?,
        samples: r.usize("samples")?,
        converged: r.bool("converged")?,
        saturated: r.bool("saturated")?,
        // The coordinates; every measured field is read above.
        ..point(opts, c, None)
    })
}

/// A farm cell's fault-free service, shared with the rack sweep: the
/// workload's compute leg scaled by the design's `slowdown`, plus its
/// stall leg, drawn compute first (the historical split-sampling stream).
/// `None` when the cheap pre-guard finds the per-server `load` at or past
/// 95% of capacity.
pub(crate) fn farm_service(
    model: &ServiceModel,
    nominal_us: f64,
    slowdown: f64,
    load: f64,
) -> Option<impl FnMut(&mut SimRng) -> f64 + '_> {
    let scaled_mean = model.mean_compute_us() * slowdown + model.mean_stall_us();
    if load / nominal_us * scaled_mean >= 0.95 {
        return None;
    }
    let scaled = model.scale_compute(slowdown);
    Some(move |rng: &mut SimRng| scaled.sample_compute(rng) + scaled.sample_stall(rng))
}

/// Runs the cluster sweep: one saturated calibration per design, then a
/// multi-server queueing simulation per (design, policy, cluster size,
/// load) cell.
///
/// Every cell derives its queueing RNG from `(seed, load, servers)` only —
/// common random numbers across designs *and* policies — so for a given
/// (load, cluster size) all policies see the same marked point process and
/// the per-policy tail columns are paired comparisons. The grid is
/// bit-identical under [`ExecPool`](crate::exec::ExecPool) at any worker
/// count.
///
/// # Panics
///
/// Panics if the options contain no loads, designs, policies, or server
/// counts, contain a zero server count, omit [`Design::Baseline`] (the
/// slowdown reference), or contain two distinct loads closer than 0.001
/// (they would share a seed).
#[must_use]
pub fn cluster_sweep(opts: &ClusterSweepOptions) -> Vec<ClusterSweepPoint> {
    let cells = cells(opts);
    validate_axes(
        "cluster sweep",
        cells.len(),
        Some(&opts.designs),
        &opts.server_counts,
        &opts.loads,
    );
    let model = opts.workload.service_model();
    let nominal = opts.workload.nominal_service_us();

    let grid = CachedGrid::probe(
        "cluster_sweep",
        opts.threads,
        cells,
        cell_keys(opts),
        opts.cache.as_ref(),
        |c, r| decode(opts, c, r),
    );
    let slowdowns = grid.calibrate(
        opts.workload,
        &opts.designs,
        opts.calibration_cycles,
        opts.seed,
        |c| c.design,
    );
    let points = grid.run(
        opts.replications,
        |c, rep| {
            let mut service = farm_service(&model, nominal, slowdowns[c.design], c.load)?;
            // Aggregate arrivals scale with the farm: each server is offered
            // `load` of its nominal capacity.
            let lambda = c.servers as f64 * c.load / nominal;
            let mut copts = ClusterOptions::from_mg1(c.servers, &opts.queue);
            copts.max_samples = rep.samples(opts.queue.max_samples);
            // Common random numbers across designs and policies at a given
            // (load, cluster size): the marked point process is shared, and
            // each policy's private balancer stream is derived inside the
            // simulator.
            copts.seed = cell_seed(opts.seed, CELL_STREAM, c.load, c.servers, rep);
            let mut balancer = c.policy.build();
            // The pre-guard is a cheap bound; the DES pilot is the
            // authoritative stability check, and its typed Unstable verdict
            // marks the cell saturated instead of killing the sweep.
            match opts.engine {
                ClusterEngine::Lindley => try_simulate_cluster(
                    lambda,
                    &mut service,
                    balancer.as_mut(),
                    &copts,
                    &Tracer::disabled(),
                )
                .ok(),
                ClusterEngine::Event(kind) => {
                    copts.event_queue = kind;
                    try_simulate_cluster_hedged(
                        lambda,
                        &mut service,
                        balancer.as_mut(),
                        &DuplicationPolicy::none(),
                        &copts,
                        &Tracer::disabled(),
                    )
                    .ok()
                    .map(|h| h.cluster)
                }
            }
        },
        |parts| merge_replications(parts, opts.queue.quantile, opts.queue.confidence),
        |c, r| point(opts, c, r),
        encode,
    );
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "cluster_sweep: {} points ({} designs × {} policies × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
            opts.designs.len(),
            opts.policies.len(),
            opts.server_counts.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

/// A cell's point from its merged result; a saturated cell (`None`) reads
/// infinite latencies, full utilization and no samples.
fn point(opts: &ClusterSweepOptions, c: &Cell, r: Option<ClusterResult>) -> ClusterSweepPoint {
    let latency = |f: fn(&ClusterResult) -> f64| r.as_ref().map_or(f64::INFINITY, f);
    ClusterSweepPoint {
        design: opts.designs[c.design],
        policy: c.policy.to_string(),
        servers: c.servers,
        load: c.load,
        p99_us: latency(|r| r.tail_us),
        p50_us: latency(|r| r.p50_us),
        mean_us: latency(|r| r.mean_sojourn_us),
        mean_wait_us: latency(|r| r.mean_wait_us),
        utilization: r.as_ref().map_or(1.0, |r| r.utilization),
        samples: r.as_ref().map_or(0, |r| r.samples),
        converged: r.as_ref().is_some_and(|r| r.converged),
        saturated: r.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ClusterSweepOptions {
        ClusterSweepOptions {
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Random, BalancerPolicy::Jsq],
            server_counts: vec![4],
            loads: vec![0.4, 0.7],
            calibration_cycles: 800_000,
            queue: Mg1Options {
                max_samples: 80_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..ClusterSweepOptions::default()
        }
    }

    #[test]
    fn jsq_beats_random_at_every_cell() {
        let points = cluster_sweep(&quick_opts());
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
        }
        for design in [Design::Baseline, Design::Duplexity] {
            for load in [0.4, 0.7] {
                let at = |name: &str| {
                    points
                        .iter()
                        .find(|p| p.design == design && p.policy == name && p.load == load)
                        .unwrap()
                        .p99_us
                };
                assert!(
                    at("jsq") <= at("random"),
                    "{design} @{load}: jsq {} vs random {}",
                    at("jsq"),
                    at("random")
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "loads 0.5 and 0.5004 share a seed")]
    fn loads_closer_than_a_thousandth_are_rejected() {
        let mut opts = quick_opts();
        opts.loads = vec![0.5, 0.5004];
        let _ = cluster_sweep(&opts);
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.designs = vec![Design::Baseline];
        opts.policies = vec![BalancerPolicy::Jsq];
        opts.loads = vec![0.5, 0.99];
        let points = cluster_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        assert!(points[1].saturated, "load 0.99 must report saturation");
        assert!(points[1].p99_us.is_infinite());
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let opts = quick_opts();
        let points = cluster_sweep(&opts);
        for p in points.iter().filter(|p| !p.saturated) {
            assert!(
                p.utilization > p.load * 0.6 && p.utilization < (p.load * 1.6).min(1.0),
                "{p:?}"
            );
        }
    }
}
