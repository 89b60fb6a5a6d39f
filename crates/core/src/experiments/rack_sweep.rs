//! Two-level rack sweep: stale-signal dispatch, work stealing, and
//! dispatch-plane coordination over the cluster grid.
//!
//! The cluster sweep assumes the balancer observes per-server queues
//! instantaneously — at microsecond service times that is generous, since
//! a rack-level scheduler's view of its servers is itself microseconds
//! old. This driver lifts the [`cluster_sweep`] methodology to the
//! two-level rack model ([`try_simulate_rack`]): per (design, policy,
//! plan, cluster size, load) cell it runs the rack engine with bounded
//! signal staleness Δ, optional idle-server work stealing, centralized or
//! distributed dispatch planes, and Zipf-skewed tenant traffic.
//!
//! The grid runs on the shared [`grid`] driver with the cluster sweep's
//! calibration, cell-seed stream and fault-free service, so a fresh plan's
//! cells — Δ=0, no stealing, single tenant — are bitwise identical to the
//! corresponding [`cluster_sweep`] cells: the rack sweep strictly
//! generalizes the cluster sweep without perturbing one golden byte.
//!
//! [`cluster_sweep`]: crate::experiments::cluster_sweep
//! [`grid`]: crate::experiments::grid

use crate::cellcache::{CellCache, CellKey, Digest, PayloadReader, PayloadWriter};
use crate::experiments::cluster_sweep::{farm_service, CELL_STREAM};
use crate::experiments::grid::{cell_seed, lexicographic, validate_axes, CachedGrid};
use duplexity_cpu::designs::Design;
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{BalancerPolicy, ClusterOptions};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::rack::{merge_rack_replications, try_simulate_rack, RackPlan, RackResult};
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Grid and fidelity parameters for the rack sweep.
#[derive(Debug, Clone)]
pub struct RackSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Designs to sweep (must include [`Design::Baseline`], the slowdown
    /// reference).
    pub designs: Vec<Design>,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Rack scheduling plans (coordination × staleness × stealing ×
    /// tenant skew) to compare. [`RackPlan::fresh`] reproduces the
    /// cluster sweep's cells byte-for-byte.
    pub plans: Vec<RackPlan>,
    /// Cluster sizes (servers behind the rack dispatcher) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads to evaluate.
    pub loads: Vec<f64>,
    /// Cycle horizon for the per-design service calibration.
    pub calibration_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads; `0` resolves `DUPLEXITY_THREADS` / available
    /// parallelism. Results are bit-identical for every value.
    pub threads: usize,
    /// Independent replications per cell, flattened into the pool's work
    /// list and merged in replication order (same contract as the cluster
    /// sweep).
    pub replications: usize,
    /// Content-addressed cell cache (default off).
    pub cache: Option<CellCache>,
}

impl Default for RackSweepOptions {
    fn default() -> Self {
        Self {
            workload: Workload::McRouter,
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Jsq, BalancerPolicy::PowerOfD(2)],
            plans: vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(8.0),
                RackPlan::fresh().with_delta(32.0),
                RackPlan::fresh().with_delta(8.0).with_steal(2),
                RackPlan::fresh()
                    .with_delta(8.0)
                    .distributed(4)
                    .with_tenants(64, 0.99),
            ],
            server_counts: vec![8],
            loads: vec![0.5, 0.7],
            calibration_cycles: 2_000_000,
            seed: 42,
            queue: Mg1Options {
                max_samples: 300_000,
                ..Mg1Options::default()
            },
            threads: 0,
            replications: 1,
            cache: None,
        }
    }
}

/// One (design, policy, plan, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackSweepPoint {
    /// Design.
    pub design: Design,
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Rack plan label (e.g. `central`, `central_d4`, `dist4_d4_z0.99`).
    pub plan: String,
    /// Dispatch-plane coordination label (`central` / `dist{k}`).
    pub coordination: String,
    /// Signal staleness Δ, µs.
    pub delta_us: f64,
    /// Servers behind the dispatcher.
    pub servers: usize,
    /// Per-server offered load fraction.
    pub load: f64,
    /// 99th-percentile sojourn, µs (`inf` once the cell saturates).
    pub p99_us: f64,
    /// Median sojourn, µs.
    pub p50_us: f64,
    /// Mean sojourn, µs.
    pub mean_us: f64,
    /// Mean queueing delay (arrival to service start), µs.
    pub mean_wait_us: f64,
    /// Hot-tenant 99th-percentile sojourn, µs (sketch-derived; equals the
    /// overall sketch tail when the plan has a single tenant).
    pub hot_p99_us: f64,
    /// Mean per-server busy fraction.
    pub utilization: f64,
    /// Successful steals over the run.
    pub steals: u64,
    /// Steal attempts whose stale signal pointed at an empty victim.
    pub steals_empty: u64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// One (design, policy, plan, cluster size, load) cell; `design` and
/// `plan` index their axes.
struct Cell {
    design: usize,
    policy: BalancerPolicy,
    plan: usize,
    servers: usize,
    load: f64,
}

fn cells(opts: &RackSweepOptions) -> Vec<Cell> {
    lexicographic([
        opts.designs.len(),
        opts.policies.len(),
        opts.plans.len(),
        opts.server_counts.len(),
        opts.loads.len(),
    ])
    .map(|[d, p, q, n, l]| Cell {
        design: d,
        policy: opts.policies[p],
        plan: q,
        servers: opts.server_counts[n],
        load: opts.loads[l],
    })
    .collect()
}

/// Content-addressed cache keys for every cell of the rack-sweep grid, in
/// the driver's lexicographic evaluation order.
///
/// Digested: workload, design, policy, the full rack plan (coordination,
/// Δ, steal policy, tenants, skew), cluster size, load, calibration
/// horizon, seed, queue controls, and the replication count. Deliberately
/// **excluded**: the resolved thread count.
#[must_use]
pub fn cell_keys(opts: &RackSweepOptions) -> Vec<CellKey> {
    cells(opts)
        .iter()
        .map(|c| {
            CellKey::build("rack_sweep", |w| {
                opts.workload.digest(w);
                opts.designs[c.design].digest(w);
                c.policy.digest(w);
                opts.plans[c.plan].digest(w);
                w.field_usize("servers", c.servers);
                w.field_f64("load", c.load);
                w.field_u64("calibration_cycles", opts.calibration_cycles);
                w.field_u64("seed", opts.seed);
                w.field("queue", &opts.queue);
                w.field_usize("replications", opts.replications.max(1));
            })
        })
        .collect()
}

fn encode(p: &RackSweepPoint, w: &mut PayloadWriter) {
    w.f64("p99_us", p.p99_us);
    w.f64("p50_us", p.p50_us);
    w.f64("mean_us", p.mean_us);
    w.f64("mean_wait_us", p.mean_wait_us);
    w.f64("hot_p99_us", p.hot_p99_us);
    w.f64("utilization", p.utilization);
    w.u64("steals", p.steals);
    w.u64("steals_empty", p.steals_empty);
    w.usize("samples", p.samples);
    w.bool("converged", p.converged);
    w.bool("saturated", p.saturated);
}

fn decode(opts: &RackSweepOptions, c: &Cell, r: &mut PayloadReader) -> Option<RackSweepPoint> {
    Some(RackSweepPoint {
        p99_us: r.f64("p99_us")?,
        p50_us: r.f64("p50_us")?,
        mean_us: r.f64("mean_us")?,
        mean_wait_us: r.f64("mean_wait_us")?,
        hot_p99_us: r.f64("hot_p99_us")?,
        utilization: r.f64("utilization")?,
        steals: r.u64("steals")?,
        steals_empty: r.u64("steals_empty")?,
        samples: r.usize("samples")?,
        converged: r.bool("converged")?,
        saturated: r.bool("saturated")?,
        // The coordinates; every measured field is read above.
        ..point(opts, c, None)
    })
}

/// Runs the rack sweep: one saturated calibration per design, then a rack
/// simulation per (design, policy, plan, cluster size, load) cell.
///
/// Per-cell seeds use the cluster sweep's seed stream, so cells are
/// common-random-number comparable across designs, policies, *and* plans,
/// and a fresh plan's cells reproduce [`cluster_sweep`] cells bitwise.
/// Bit-identical under [`ExecPool`](crate::exec::ExecPool) at any worker
/// count.
///
/// [`cluster_sweep`]: crate::experiments::cluster_sweep::cluster_sweep
///
/// # Panics
///
/// Panics if the options contain no loads, designs, policies, plans, or
/// server counts, contain a zero server count, omit [`Design::Baseline`]
/// (the slowdown reference), or contain two distinct loads closer than
/// 0.001 (they would share a seed).
#[must_use]
pub fn rack_sweep(opts: &RackSweepOptions) -> Vec<RackSweepPoint> {
    let cells = cells(opts);
    validate_axes(
        "rack sweep",
        cells.len(),
        Some(&opts.designs),
        &opts.server_counts,
        &opts.loads,
    );
    let model = opts.workload.service_model();
    let nominal = opts.workload.nominal_service_us();

    let grid = CachedGrid::probe(
        "rack_sweep",
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
            let lambda = c.servers as f64 * c.load / nominal;
            let mut copts = ClusterOptions::from_mg1(c.servers, &opts.queue);
            copts.max_samples = rep.samples(opts.queue.max_samples);
            copts.seed = cell_seed(opts.seed, CELL_STREAM, c.load, c.servers, rep);
            try_simulate_rack(
                lambda,
                &mut service,
                c.policy,
                &opts.plans[c.plan],
                &copts,
                &Tracer::disabled(),
            )
            .ok()
        },
        |parts| merge_rack_replications(parts, opts.queue.quantile, opts.queue.confidence),
        |c, r| point(opts, c, r),
        encode,
    );
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "rack_sweep: {} points ({} designs × {} policies × {} plans × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
            opts.designs.len(),
            opts.policies.len(),
            opts.plans.len(),
            opts.server_counts.len(),
            opts.loads.len(),
            opts.workload,
            saturated,
        ));
    }
    points
}

/// A cell's point from its merged result; a saturated cell (`None`) reads
/// infinite latencies, full utilization and no steals.
fn point(opts: &RackSweepOptions, c: &Cell, r: Option<RackResult>) -> RackSweepPoint {
    let plan = &opts.plans[c.plan];
    let latency = |f: fn(&RackResult) -> f64| r.as_ref().map_or(f64::INFINITY, f);
    RackSweepPoint {
        design: opts.designs[c.design],
        policy: c.policy.to_string(),
        plan: plan.label(),
        coordination: plan.coordination.label(),
        delta_us: plan.delta_us,
        servers: c.servers,
        load: c.load,
        p99_us: latency(|r| r.cluster.tail_us),
        p50_us: latency(|r| r.cluster.p50_us),
        mean_us: latency(|r| r.cluster.mean_sojourn_us),
        mean_wait_us: latency(|r| r.cluster.mean_wait_us),
        // Single-tenant plans put every sample in the hot sketch, so the
        // hot tail degenerates to the overall sketch tail.
        hot_p99_us: latency(|r| r.hot_sketch.quantile(0.99).unwrap_or(0.0)),
        utilization: r.as_ref().map_or(1.0, |r| r.cluster.utilization),
        steals: r.as_ref().map_or(0, |r| r.tally.steals),
        steals_empty: r.as_ref().map_or(0, |r| r.tally.steals_empty),
        samples: r.as_ref().map_or(0, |r| r.cluster.samples),
        converged: r.as_ref().is_some_and(|r| r.cluster.converged),
        saturated: r.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cluster_sweep::{cluster_sweep, ClusterSweepOptions};

    fn quick_opts() -> RackSweepOptions {
        RackSweepOptions {
            designs: vec![Design::Baseline, Design::Duplexity],
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![
                RackPlan::fresh(),
                RackPlan::fresh().with_delta(32.0),
                RackPlan::fresh()
                    .with_delta(8.0)
                    .distributed(4)
                    .with_tenants(64, 0.0),
            ],
            server_counts: vec![4],
            loads: vec![0.4, 0.7],
            calibration_cycles: 800_000,
            queue: Mg1Options {
                max_samples: 80_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..RackSweepOptions::default()
        }
    }

    #[test]
    fn fresh_plan_cells_reproduce_the_cluster_sweep_bitwise() {
        // The degeneracy criterion end-to-end: a fresh rack plan's cells
        // must equal the cluster sweep's cells bit-for-bit (same
        // calibration streams, same cell seeds, same engine bookkeeping).
        let ropts = RackSweepOptions {
            plans: vec![RackPlan::fresh()],
            ..quick_opts()
        };
        let copts = ClusterSweepOptions {
            designs: ropts.designs.clone(),
            policies: ropts.policies.clone(),
            server_counts: ropts.server_counts.clone(),
            loads: ropts.loads.clone(),
            calibration_cycles: ropts.calibration_cycles,
            queue: ropts.queue,
            ..ClusterSweepOptions::default()
        };
        let rack = rack_sweep(&ropts);
        let cluster = cluster_sweep(&copts);
        assert_eq!(rack.len(), cluster.len());
        for (r, c) in rack.iter().zip(&cluster) {
            assert_eq!(r.design, c.design);
            assert_eq!(r.policy, c.policy);
            assert_eq!(r.load, c.load);
            assert_eq!(r.p99_us, c.p99_us, "{r:?} vs {c:?}");
            assert_eq!(r.p50_us, c.p50_us);
            assert_eq!(r.mean_us, c.mean_us);
            assert_eq!(r.mean_wait_us, c.mean_wait_us);
            assert_eq!(r.utilization, c.utilization);
            assert_eq!(r.samples, c.samples);
            assert_eq!(r.converged, c.converged);
        }
    }

    #[test]
    fn stale_and_uncoordinated_dispatch_degrade_every_cell() {
        let points = rack_sweep(&quick_opts());
        assert_eq!(points.len(), 12);
        for design in [Design::Baseline, Design::Duplexity] {
            for load in [0.4, 0.7] {
                let at = |plan: &str| {
                    points
                        .iter()
                        .find(|p| p.design == design && p.plan == plan && p.load == load)
                        .unwrap()
                };
                // Staleness inflates queueing delay (the clean per-cell
                // signal; the p99 ordering is pinned on the stronger
                // distributed contrast below and in the engine tests).
                assert!(
                    at("central").mean_wait_us < at("central_d32").mean_wait_us,
                    "{design} @{load}: fresh wait {} vs stale wait {}",
                    at("central").mean_wait_us,
                    at("central_d32").mean_wait_us
                );
                // Distributed dispatchers herd onto the visibly-short
                // server; the tail pays for it at every cell.
                assert!(
                    at("central").p99_us < at("dist4_d8_z0").p99_us,
                    "{design} @{load}: central p99 {} vs distributed p99 {}",
                    at("central").p99_us,
                    at("dist4_d8_z0").p99_us
                );
            }
        }
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.designs = vec![Design::Baseline];
        opts.plans = vec![RackPlan::fresh().with_delta(8.0)];
        opts.loads = vec![0.5, 0.99];
        let points = rack_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        assert!(points[1].saturated, "load 0.99 must report saturation");
        assert!(points[1].p99_us.is_infinite());
    }
}
