//! Cluster-level duplication and hedging sweep: tail latency bought with
//! duplicate work.
//!
//! "Reducing Tail Latency via Safe and Simple Duplication" (PAPERS.md)
//! shows prioritized duplicate queues cut p99 cheaply, and RackSched
//! argues the decision belongs at the rack level. This driver sweeps the
//! cluster DES's [`DuplicationPolicy`] axis — eager duplicate-to-d,
//! deadline-triggered hedges, purge-on-first-completion, low-priority
//! duplicate queues — against the balancer-policy axis, producing the
//! tail-latency-per-unit-added-load frontier that `report --hedge`
//! renders.
//!
//! Unlike [`cluster_sweep`](crate::experiments::cluster_sweep) there is no
//! design axis and no cycle-level calibration: the sweep isolates the
//! duplication axis on the raw workload service distribution, so a cell
//! differs from its neighbors *only* in how duplicates are launched and
//! queued. Every cell at a given (cluster size, load) derives its
//! queueing seed from those coordinates alone — common random numbers
//! across balancer policies *and* duplication plans — and zero-duplication
//! plans draw nothing from the duplicate stream, making `none` cells
//! bitwise comparable to the undecorated balancer.

use crate::cellcache::{CellCache, CellKey, Digest, PayloadReader, PayloadWriter};
use crate::experiments::grid::{cell_seed, lexicographic, validate_axes, CachedGrid};
use duplexity_obs::{log_enabled, log_line, Tracer};
use duplexity_queueing::cluster::{
    merge_hedged_replications, try_simulate_cluster_hedged, BalancerPolicy, ClusterOptions,
    DupMode, DuplicationPolicy, HedgedClusterResult,
};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_stats::rng::SimRng;
use duplexity_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Stream label for per-cell seeds (keyed on load and cluster size only,
/// never on the policy or plan, so every tail-cutting strategy races the
/// identical marked point process).
const HEDGE_CELL_STREAM: u64 = 0x4ED6;

/// Grid and fidelity parameters for the hedge sweep.
#[derive(Debug, Clone)]
pub struct HedgeSweepOptions {
    /// Microservice under test.
    pub workload: Workload,
    /// Balancing policies to compare.
    pub policies: Vec<BalancerPolicy>,
    /// Duplication/hedging plans to compare (include
    /// [`DuplicationPolicy::none`] as the frontier's origin).
    pub plans: Vec<DuplicationPolicy>,
    /// Cluster sizes (servers behind the balancer) to evaluate.
    pub server_counts: Vec<usize>,
    /// Per-server offered loads (fractions of nominal capacity; aggregate
    /// arrival rate scales with the cluster size).
    pub loads: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Queueing controls (lifted per-cell to [`ClusterOptions`]).
    pub queue: Mg1Options,
    /// Worker threads for grid cells; `0` resolves `DUPLEXITY_THREADS` /
    /// available parallelism (see [`crate::exec`]). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Future-event-set implementation for every cell's event engine.
    /// Heap and wheel are bit-identical under the `(t, kind, seq)`
    /// total-order contract (see `duplexity_queueing::eventcore`), so this
    /// is a pure throughput knob and not part of a cell's cache key.
    pub event_queue: EventQueueKind,
    /// Independent replications per cell, run *within-cell parallel* on
    /// the pool (flattened into the grid's work list, exactly as
    /// [`cluster_sweep`](crate::experiments::cluster_sweep) does) with
    /// per-replication derived seeds and merged in replication order via
    /// [`merge_hedged_replications`]. `1` (the default) runs each cell's
    /// historical single pass bitwise; `R > 1` splits the per-cell sample
    /// budget `R` ways so even a tiny grid can keep every worker busy.
    pub replications: usize,
    /// Content-addressed cell cache (default off). Cached cells skip the
    /// work list with results byte-identical to a cold run.
    pub cache: Option<CellCache>,
}

impl Default for HedgeSweepOptions {
    fn default() -> Self {
        Self {
            // RSC, not McRouter: duplication only pays when the service
            // distribution has a heavy tail to race away, and RSC's
            // exponential 8µs Optane stall is exactly the cluster-level
            // straggler. (McRouter's near-deterministic 6–8µs service
            // makes duplication pure overhead — a result the sweep can
            // still show by overriding `workload`.)
            workload: Workload::Rsc,
            policies: vec![BalancerPolicy::Jsq, BalancerPolicy::PowerOfD(2)],
            plans: vec![
                DuplicationPolicy::none(),
                DuplicationPolicy::duplicate(2),
                DuplicationPolicy::duplicate(2).without_purge(),
                DuplicationPolicy::duplicate(2).at_low_priority(),
                DuplicationPolicy::hedge(20.0),
                DuplicationPolicy::hedge(20.0).at_low_priority(),
            ],
            server_counts: vec![4, 16],
            loads: vec![0.3, 0.5, 0.7],
            seed: 42,
            queue: Mg1Options {
                max_samples: 200_000,
                ..Mg1Options::default()
            },
            threads: 0,
            event_queue: EventQueueKind::default(),
            replications: 1,
            cache: None,
        }
    }
}

/// One (policy, plan, cluster size, load) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HedgeSweepPoint {
    /// Balancing policy name (e.g. `jsq`, `power_of_2`).
    pub policy: String,
    /// Duplication plan label (e.g. `none`, `dup2`, `hedge10_lp`).
    pub plan: String,
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
    /// Mean primary-copy queueing delay, µs.
    pub mean_wait_us: f64,
    /// Mean duplicate-copy queueing delay from dispatch, µs (0 when no
    /// duplicate reached service).
    pub dup_mean_wait_us: f64,
    /// Mean per-server busy fraction (delivered service only).
    pub utilization: f64,
    /// Busy fraction attributable to duplicate copies — the added-load
    /// axis of the frontier.
    pub added_utilization: f64,
    /// Duplicate copies issued over the measured window.
    pub dup_copies: u64,
    /// Hedge deadlines that fired.
    pub hedges_fired: u64,
    /// Sibling copies purged (queued + in-service).
    pub purged: u64,
    /// Redundant completions (duplicates that ran to the end and lost).
    pub wasted_completions: u64,
    /// Measured requests.
    pub samples: usize,
    /// Whether the CI stopping rule was met before the sample cap.
    pub converged: bool,
    /// Whether this cell saturated (pre-guard or DES pilot verdict).
    pub saturated: bool,
}

/// One (policy, plan, cluster size, load) cell.
struct Cell {
    policy: BalancerPolicy,
    plan: DuplicationPolicy,
    servers: usize,
    load: f64,
}

fn cells(opts: &HedgeSweepOptions) -> Vec<Cell> {
    lexicographic([
        opts.policies.len(),
        opts.plans.len(),
        opts.server_counts.len(),
        opts.loads.len(),
    ])
    .map(|[p, q, n, l]| Cell {
        policy: opts.policies[p],
        plan: opts.plans[q],
        servers: opts.server_counts[n],
        load: opts.loads[l],
    })
    .collect()
}

/// Content-addressed cache keys for every (policy, plan, cluster size,
/// load) cell of the hedge-sweep grid, in the driver's lexicographic
/// evaluation order. The plan is digested structurally (mode, purge,
/// priority), not by label; replication count is digested because it
/// splits the sample budget and re-derives seeds. The event-queue kind is
/// not: heap and wheel are bit-identical, so a speed knob cannot change a
/// result.
#[must_use]
pub fn cell_keys(opts: &HedgeSweepOptions) -> Vec<CellKey> {
    cells(opts)
        .iter()
        .map(|c| {
            CellKey::build("hedge_sweep", |w| {
                opts.workload.digest(w);
                c.policy.digest(w);
                c.plan.digest(w);
                w.field_usize("servers", c.servers);
                w.field_f64("load", c.load);
                w.field_u64("seed", opts.seed);
                w.field("queue", &opts.queue);
                w.field_usize("replications", opts.replications.max(1));
            })
        })
        .collect()
}

fn encode(p: &HedgeSweepPoint, w: &mut PayloadWriter) {
    w.f64("p99_us", p.p99_us);
    w.f64("p50_us", p.p50_us);
    w.f64("mean_us", p.mean_us);
    w.f64("mean_wait_us", p.mean_wait_us);
    w.f64("dup_mean_wait_us", p.dup_mean_wait_us);
    w.f64("utilization", p.utilization);
    w.f64("added_utilization", p.added_utilization);
    w.u64("dup_copies", p.dup_copies);
    w.u64("hedges_fired", p.hedges_fired);
    w.u64("purged", p.purged);
    w.u64("wasted_completions", p.wasted_completions);
    w.usize("samples", p.samples);
    w.bool("converged", p.converged);
    w.bool("saturated", p.saturated);
}

fn decode(c: &Cell, r: &mut PayloadReader) -> Option<HedgeSweepPoint> {
    Some(HedgeSweepPoint {
        p99_us: r.f64("p99_us")?,
        p50_us: r.f64("p50_us")?,
        mean_us: r.f64("mean_us")?,
        mean_wait_us: r.f64("mean_wait_us")?,
        dup_mean_wait_us: r.f64("dup_mean_wait_us")?,
        utilization: r.f64("utilization")?,
        added_utilization: r.f64("added_utilization")?,
        dup_copies: r.u64("dup_copies")?,
        hedges_fired: r.u64("hedges_fired")?,
        purged: r.u64("purged")?,
        wasted_completions: r.u64("wasted_completions")?,
        samples: r.usize("samples")?,
        converged: r.bool("converged")?,
        saturated: r.bool("saturated")?,
        // The coordinates; every measured field is read above.
        ..point(c, None)
    })
}

/// Runs the hedge sweep: one duplication-aware cluster simulation per
/// (policy, plan, cluster size, load) cell, in lexicographic grid order.
///
/// Cells derive their queueing seed from `(seed, load, servers)` only, so
/// the policy and plan axes are paired comparisons over one shared marked
/// point process; the grid is bit-identical under
/// [`ExecPool`](crate::exec::ExecPool) at any worker count.
///
/// # Panics
///
/// Panics if the options contain no loads, policies, plans, or server
/// counts, contain a zero server count, or contain two distinct loads
/// closer than 0.001 (they would share a seed).
#[must_use]
pub fn hedge_sweep(opts: &HedgeSweepOptions) -> Vec<HedgeSweepPoint> {
    let cells = cells(opts);
    validate_axes(
        "hedge sweep",
        cells.len(),
        None,
        &opts.server_counts,
        &opts.loads,
    );
    let model = opts.workload.service_model();
    let nominal = opts.workload.nominal_service_us();
    let mean_service = model.mean_compute_us() + model.mean_stall_us();

    let grid = CachedGrid::probe(
        "hedge_sweep",
        opts.threads,
        cells,
        cell_keys(opts),
        opts.cache.as_ref(),
        decode,
    );
    let points = grid.run(
        opts.replications,
        |c, rep| {
            let lambda = c.servers as f64 * c.load / nominal;
            // Cheap pre-guard mirroring the engine's pilot rule: an eager
            // no-purge plan must carry every copy to completion.
            let eager_copies = match c.plan.mode {
                DupMode::Duplicate { copies } if !c.plan.purge => copies as f64,
                _ => 1.0,
            };
            if c.load / nominal * mean_service * eager_copies >= 0.95 {
                return None;
            }
            let mut service = |rng: &mut SimRng| {
                // Split sampling: the same draw order as the cluster sweep's
                // fault-free path.
                model.sample_compute(rng) + model.sample_stall(rng)
            };
            let mut copts = ClusterOptions::from_mg1(c.servers, &opts.queue);
            copts.event_queue = opts.event_queue;
            copts.max_samples = rep.samples(opts.queue.max_samples);
            copts.seed = cell_seed(opts.seed, HEDGE_CELL_STREAM, c.load, c.servers, rep);
            let mut balancer = c.policy.build();
            try_simulate_cluster_hedged(
                lambda,
                &mut service,
                balancer.as_mut(),
                &c.plan,
                &copts,
                &Tracer::disabled(),
            )
            .ok()
        },
        |parts| merge_hedged_replications(parts, opts.queue.quantile, opts.queue.confidence),
        point,
        encode,
    );
    if log_enabled() {
        let saturated = points.iter().filter(|p| p.saturated).count();
        log_line(&format!(
            "hedge_sweep: {} points ({} policies × {} plans × {} sizes × {} loads) on {}, {} saturated",
            points.len(),
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
/// infinite latencies, full utilization and no duplicate work.
fn point(c: &Cell, r: Option<HedgedClusterResult>) -> HedgeSweepPoint {
    let latency = |f: fn(&HedgedClusterResult) -> f64| r.as_ref().map_or(f64::INFINITY, f);
    let count = |f: fn(&HedgedClusterResult) -> u64| r.as_ref().map_or(0, f);
    HedgeSweepPoint {
        policy: c.policy.to_string(),
        plan: c.plan.label(),
        servers: c.servers,
        load: c.load,
        p99_us: latency(|r| r.cluster.tail_us),
        p50_us: latency(|r| r.cluster.p50_us),
        mean_us: latency(|r| r.cluster.mean_sojourn_us),
        mean_wait_us: latency(|r| r.cluster.mean_wait_us),
        // 0 when no duplicate reached service.
        dup_mean_wait_us: latency(|r| {
            if r.dup_wait.count() > 0 {
                r.dup_wait.mean()
            } else {
                0.0
            }
        }),
        utilization: r.as_ref().map_or(1.0, |r| r.cluster.utilization),
        added_utilization: r.as_ref().map_or(0.0, |r| r.added_utilization),
        dup_copies: count(|r| r.tally.dup_copies),
        hedges_fired: count(|r| r.tally.hedges_fired),
        purged: count(|r| r.tally.purged_queued + r.tally.purged_in_service),
        wasted_completions: count(|r| r.tally.wasted_completions),
        samples: r.as_ref().map_or(0, |r| r.cluster.samples),
        converged: r.as_ref().is_some_and(|r| r.cluster.converged),
        saturated: r.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> HedgeSweepOptions {
        HedgeSweepOptions {
            policies: vec![BalancerPolicy::Jsq],
            plans: vec![
                DuplicationPolicy::none(),
                DuplicationPolicy::duplicate(2),
                DuplicationPolicy::duplicate(2).without_purge(),
            ],
            server_counts: vec![4],
            // Low enough that even the eager no-purge plan (which doubles
            // the offered work) stays below the saturation guard.
            loads: vec![0.25, 0.4],
            queue: Mg1Options {
                max_samples: 40_000,
                warmup: 1_000,
                ..Mg1Options::default()
            },
            ..HedgeSweepOptions::default()
        }
    }

    #[test]
    fn duplication_cuts_the_tail_and_purging_cuts_the_bill() {
        let points = hedge_sweep(&quick_opts());
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
        }
        for load in [0.25, 0.4] {
            let at = |plan: &str| {
                points
                    .iter()
                    .find(|p| p.plan == plan && p.load == load)
                    .unwrap()
            };
            assert!(
                at("dup2").p99_us <= at("none").p99_us,
                "@{load}: dup2 {} vs none {}",
                at("dup2").p99_us,
                at("none").p99_us
            );
            assert!(
                at("dup2").added_utilization < at("dup2_np").added_utilization,
                "@{load}: purge must deliver less duplicate work"
            );
            assert_eq!(at("none").dup_copies, 0);
            assert_eq!(at("none").added_utilization, 0.0);
        }
    }

    #[test]
    fn within_cell_replications_merge_deterministically() {
        let mut opts = quick_opts();
        opts.replications = 4;
        opts.threads = 1;
        let one = hedge_sweep(&opts);
        opts.threads = 8;
        let eight = hedge_sweep(&opts);
        assert_eq!(
            serde_json::to_string_pretty(&one).unwrap(),
            serde_json::to_string_pretty(&eight).unwrap(),
            "replicated grid must be bit-identical at any worker count"
        );
        // The merged cells keep the replication-split sample budget and the
        // qualitative duplication contract.
        for p in &one {
            assert!(!p.saturated, "unexpected saturation at {p:?}");
            assert!(p.samples >= 40_000, "budget lost in the merge: {p:?}");
        }
        for load in [0.25, 0.4] {
            let at = |plan: &str| {
                one.iter()
                    .find(|p| p.plan == plan && p.load == load)
                    .unwrap()
            };
            assert!(at("dup2").p99_us <= at("none").p99_us);
            assert!(at("dup2").added_utilization < at("dup2_np").added_utilization);
            assert_eq!(at("none").dup_copies, 0);
        }
    }

    #[test]
    fn saturated_cells_render_instead_of_panicking() {
        let mut opts = quick_opts();
        opts.plans = vec![DuplicationPolicy::duplicate(2).without_purge()];
        opts.loads = vec![0.3, 0.6];
        let points = hedge_sweep(&opts);
        assert_eq!(points.len(), 2);
        assert!(!points[0].saturated);
        // 0.6 offered twice over (eager, no purge) saturates the farm.
        assert!(points[1].saturated, "eager no-purge at 0.6 must saturate");
        assert!(points[1].p99_us.is_infinite());
    }
}
