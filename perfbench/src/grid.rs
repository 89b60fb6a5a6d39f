//! The benchmark's workloads: fixed grids run through the library's public
//! experiment drivers, plus the per-cell output checks and the canonical
//! artifact every run of a grid must reproduce bit for bit.

use duplexity::experiments::fig5::Fig5Cell;
use duplexity::{
    cluster_sweep, hedge_sweep, rack_sweep, run_fig5, BalancerPolicy, CellCache,
    ClusterSweepOptions, ClusterSweepPoint, Design, DuplicationPolicy, Fig5Options,
    HedgeSweepOptions, HedgeSweepPoint, RackPlan, RackSweepOptions, RackSweepPoint, Workload,
};
use duplexity_queueing::des::Mg1Options;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Every experiment driver runs on one worker: the host has few cores and
/// other tenants, and a single worker keeps scheduling out of the numbers.
pub const THREADS: usize = 1;

/// Cycle horizon of each Figure 5 cell in `fig5-cycle`.
pub const FIG5_HORIZON: u64 = 600_000;
/// Measured M/G/1 requests per Figure 5 tail simulation.
pub const FIG5_TAIL_SAMPLES: usize = 100_000;
/// Offered load of the Figure 5 grid.
pub const FIG5_LOAD: f64 = 0.5;
/// Calibration horizon of the farm drivers (the drivers' default).
pub const FARM_CALIBRATION_CYCLES: u64 = 2_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Trimmed Figure 5 grid: the cycle engines dominate.
    Fig5Cycle,
    /// Cluster, hedge and rack sweeps at 16 servers.
    FarmSmall,
    /// The same sweeps at 1024 servers with a smaller per-cell budget.
    FarmLarge,
}

impl Grid {
    pub const ALL: [Grid; 3] = [Grid::Fig5Cycle, Grid::FarmSmall, Grid::FarmLarge];

    pub fn name(self) -> &'static str {
        match self {
            Grid::Fig5Cycle => "fig5-cycle",
            Grid::FarmSmall => "farm-small",
            Grid::FarmLarge => "farm-large",
        }
    }

    pub fn parse(name: &str) -> Option<Grid> {
        Grid::ALL.into_iter().find(|g| g.name() == name)
    }

    /// Servers per farm (the fig5 grid has none; its layer probes use 16).
    pub fn servers(self) -> usize {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => 16,
            Grid::FarmLarge => 1024,
        }
    }

    /// Measured requests per farm cell. The large farm runs 40 per server
    /// after 10 per server of warm-up, so its cells measure a loaded farm
    /// rather than the start from empty queues.
    pub fn farm_samples(self) -> usize {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => 60_000,
            Grid::FarmLarge => 40 * 1024,
        }
    }

    /// Warm-up requests per farm cell.
    pub fn farm_warmup(self) -> usize {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => Mg1Options::default().warmup,
            Grid::FarmLarge => 10 * 1024,
        }
    }

    /// Per-server offered loads of the farm cells. The large farm's longer
    /// cells leave room for one load only.
    pub fn farm_loads(self) -> Vec<f64> {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => vec![0.5, 0.8],
            Grid::FarmLarge => vec![0.8],
        }
    }

    /// Balancing policies of the farm cells: all four on the small farm,
    /// power-of-two choices (the policy built for large farms) on the
    /// large one.
    pub fn farm_policies(self) -> Vec<BalancerPolicy> {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => vec![
                BalancerPolicy::Random,
                BalancerPolicy::Jsq,
                BalancerPolicy::PowerOfD(2),
                BalancerPolicy::LeastWork,
            ],
            Grid::FarmLarge => vec![BalancerPolicy::PowerOfD(2)],
        }
    }

    /// Policy of the hedged and rack engine probes: JSQ, or the large
    /// farm's only policy.
    pub fn probe_policy(self) -> BalancerPolicy {
        match self {
            Grid::Fig5Cycle | Grid::FarmSmall => BalancerPolicy::Jsq,
            Grid::FarmLarge => BalancerPolicy::PowerOfD(2),
        }
    }

    /// `ServerSim` runs in one pass: fig5's cells and calibrations, or the
    /// farms' calibrations (cluster_sweep and rack_sweep each calibrate
    /// both designs).
    pub fn serversim_runs(self) -> f64 {
        match self {
            Grid::Fig5Cycle => (2 * 2 * Design::ALL.len()) as f64,
            Grid::FarmSmall | Grid::FarmLarge => 4.0,
        }
    }

    /// Queueing controls of the farm cells.
    pub fn farm_queue(self) -> Mg1Options {
        fixed_budget(self.farm_samples(), self.farm_warmup())
    }
}

/// Queueing controls with the CI stopping rule disabled, so every cell
/// runs exactly `warmup + samples` requests whatever the seed.
pub fn fixed_budget(samples: usize, warmup: usize) -> Mg1Options {
    Mg1Options {
        max_samples: samples,
        max_relative_error: 0.0,
        warmup,
        ..Mg1Options::default()
    }
}

pub fn hedge_plans() -> Vec<DuplicationPolicy> {
    vec![
        DuplicationPolicy::none(),
        DuplicationPolicy::duplicate(2),
        DuplicationPolicy::hedge(20.0),
        DuplicationPolicy::duplicate(2).at_low_priority(),
    ]
}

pub fn rack_plans() -> Vec<RackPlan> {
    vec![
        RackPlan::fresh(),
        RackPlan::fresh().with_delta(8.0),
        RackPlan::fresh().with_delta(8.0).with_steal(2),
        RackPlan::fresh()
            .with_delta(8.0)
            .distributed(4)
            .with_tenants(64, 0.99),
    ]
}

pub fn fig5_options(seed: u64, cache: Option<CellCache>) -> Fig5Options {
    Fig5Options {
        loads: vec![FIG5_LOAD],
        workloads: vec![Workload::McRouter, Workload::WordStem],
        designs: Design::ALL.to_vec(),
        horizon_cycles: FIG5_HORIZON,
        seed,
        queue: fixed_budget(FIG5_TAIL_SAMPLES, Mg1Options::default().warmup),
        threads: THREADS,
        cache,
        ..Fig5Options::default()
    }
}

pub fn cluster_options(grid: Grid, seed: u64, cache: Option<CellCache>) -> ClusterSweepOptions {
    ClusterSweepOptions {
        workload: Workload::McRouter,
        designs: vec![Design::Baseline, Design::Duplexity],
        policies: grid.farm_policies(),
        server_counts: vec![grid.servers()],
        loads: grid.farm_loads(),
        calibration_cycles: FARM_CALIBRATION_CYCLES,
        seed,
        queue: grid.farm_queue(),
        threads: THREADS,
        cache,
        ..ClusterSweepOptions::default()
    }
}

pub fn hedge_options(grid: Grid, seed: u64, cache: Option<CellCache>) -> HedgeSweepOptions {
    HedgeSweepOptions {
        workload: Workload::Rsc,
        policies: grid.farm_policies(),
        plans: hedge_plans(),
        server_counts: vec![grid.servers()],
        loads: grid.farm_loads(),
        seed,
        queue: grid.farm_queue(),
        threads: THREADS,
        cache,
        ..HedgeSweepOptions::default()
    }
}

pub fn rack_options(grid: Grid, seed: u64, cache: Option<CellCache>) -> RackSweepOptions {
    RackSweepOptions {
        workload: Workload::McRouter,
        designs: vec![Design::Baseline, Design::Duplexity],
        policies: grid.farm_policies(),
        plans: rack_plans(),
        server_counts: vec![grid.servers()],
        loads: grid.farm_loads(),
        calibration_cycles: FARM_CALIBRATION_CYCLES,
        seed,
        queue: grid.farm_queue(),
        threads: THREADS,
        cache,
        ..RackSweepOptions::default()
    }
}

/// The outputs of one pass over a workload's grid.
#[derive(Debug, Default)]
pub struct Outputs {
    pub fig5: Vec<Fig5Cell>,
    pub cluster: Vec<ClusterSweepPoint>,
    pub hedge: Vec<HedgeSweepPoint>,
    pub rack: Vec<RackSweepPoint>,
}

/// Runs one pass over `grid`, calling `mark(driver, begin)` around each
/// driver call so the caller can record spans at the driver boundary.
pub fn run_pass(
    grid: Grid,
    seed: u64,
    cache: Option<&CellCache>,
    mark: &mut dyn FnMut(&str, bool),
) -> Outputs {
    let mut out = Outputs::default();
    match grid {
        Grid::Fig5Cycle => {
            mark("core.run_fig5", true);
            out.fig5 = run_fig5(&fig5_options(seed, cache.cloned()));
            mark("core.run_fig5", false);
        }
        Grid::FarmSmall | Grid::FarmLarge => {
            mark("core.cluster_sweep", true);
            out.cluster = cluster_sweep(&cluster_options(grid, seed, cache.cloned()));
            mark("core.cluster_sweep", false);
            mark("core.hedge_sweep", true);
            out.hedge = hedge_sweep(&hedge_options(grid, seed, cache.cloned()));
            mark("core.hedge_sweep", false);
            mark("core.rack_sweep", true);
            out.rack = rack_sweep(&rack_options(grid, seed, cache.cloned()));
            mark("core.rack_sweep", false);
        }
    }
    out
}

/// Simulated work a pass performed, for the throughput metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Cycles simulated by the measured fig5 cells, or by the farms'
    /// service calibrations (the farms simulate no other cycles).
    pub cycles: f64,
    /// Requests simulated by the measured queueing cells (warm-up included).
    pub requests: f64,
}

pub fn work(grid: Grid, out: &Outputs) -> Work {
    match grid {
        Grid::Fig5Cycle => {
            let tails = out.fig5.iter().filter(|c| !c.saturated).count() as f64;
            Work {
                cycles: out.fig5.len() as f64 * FIG5_HORIZON as f64,
                // Each cell runs its own tail and its iso-throughput tail.
                requests: 2.0 * tails * (Mg1Options::default().warmup + FIG5_TAIL_SAMPLES) as f64,
            }
        }
        Grid::FarmSmall | Grid::FarmLarge => {
            let samples: usize = out.cluster.iter().map(|p| p.samples).sum::<usize>()
                + out.hedge.iter().map(|p| p.samples).sum::<usize>()
                + out.rack.iter().map(|p| p.samples).sum::<usize>();
            let cells = out.cluster.len() + out.hedge.len() + out.rack.len();
            // cluster_sweep and rack_sweep each calibrate both designs.
            Work {
                cycles: 4.0 * FARM_CALIBRATION_CYCLES as f64,
                requests: (samples + cells * grid.farm_warmup()) as f64,
            }
        }
    }
}

/// What the per-cell checks of one pass found.
pub struct Checked {
    pub cells: usize,
    /// Distinct cells that broke at least one rule.
    pub failed_cells: usize,
    /// One line per broken rule, naming its cell.
    pub failures: Vec<String>,
    /// Smallest and largest measured utilization ÷ offered load over the
    /// farm cells (NaN for fig5).
    pub util_range: (f64, f64),
}

/// Per-cell invariants that hold on any seed.
pub fn check(grid: Grid, out: &Outputs) -> Checked {
    let mut failures = Vec::new();
    let mut failed = BTreeSet::new();
    let mut fail = |cell: String, rule: &str| {
        failures.push(format!("{cell}: {rule}"));
        failed.insert(cell);
    };
    let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
    for c in &out.fig5 {
        let id = format!("fig5 {}/{}@{}", c.design, c.workload, c.load);
        if c.saturated {
            fail(id.clone(), "saturated");
        }
        if !finite(&[
            c.utilization,
            c.perf_density_norm,
            c.energy_norm,
            c.p99_us,
            c.p99_norm,
            c.iso_p99_us,
            c.iso_p99_norm,
            c.stp_norm,
            c.service_slowdown,
            c.remote_ops_per_us,
        ]) {
            fail(id.clone(), "non-finite output");
        }
        if !(c.utilization > 0.0 && c.utilization <= 1.0) {
            fail(id.clone(), "utilization outside (0, 1]");
        }
        // The tail of the sojourn time is never below the mean service
        // time the cell's queue was scaled to.
        let mean_service = c.workload.service_model().mean_total_us();
        if !(c.p99_us >= mean_service && c.iso_p99_us >= mean_service) {
            fail(id, "p99 below the mean service time");
        }
    }
    let samples = grid.farm_samples();
    // Offered load is relative to the workload's nominal service time, so
    // measured utilization differs from it by the design's service
    // slowdown and the model's mean-vs-nominal gap; a wide band still
    // catches a lost or duplicated arrival stream.
    let util_ok = |util: f64, load: f64| util >= 0.6 * load && util <= (1.6 * load).min(1.0) + 1e-9;
    for p in &out.cluster {
        let id = format!(
            "cluster {}/{}/n{}@{}",
            p.design, p.policy, p.servers, p.load
        );
        farm_rules(&mut fail, &id, p.saturated, p.samples, samples);
        if !finite(&[p.p99_us, p.p50_us, p.mean_us, p.mean_wait_us, p.utilization]) {
            fail(id.clone(), "non-finite output");
        }
        if p.p99_us < p.p50_us {
            fail(id.clone(), "p99 below p50");
        }
        if !util_ok(p.utilization, p.load) {
            fail(id, "utilization far from offered load");
        }
    }
    for p in &out.hedge {
        let id = format!("hedge {}/{}/n{}@{}", p.policy, p.plan, p.servers, p.load);
        farm_rules(&mut fail, &id, p.saturated, p.samples, samples);
        if !finite(&[
            p.p99_us,
            p.p50_us,
            p.mean_us,
            p.mean_wait_us,
            p.utilization,
            p.added_utilization,
        ]) {
            fail(id.clone(), "non-finite output");
        }
        if p.p99_us < p.p50_us {
            fail(id.clone(), "p99 below p50");
        }
        // Delivered utilization counts duplicate copies, which purging
        // cuts short, so it stays in the same band.
        if !util_ok(p.utilization, p.load) {
            fail(id, "utilization far from offered load");
        }
    }
    for p in &out.rack {
        let id = format!(
            "rack {}/{}/{}/n{}@{}",
            p.design, p.policy, p.plan, p.servers, p.load
        );
        farm_rules(&mut fail, &id, p.saturated, p.samples, samples);
        if !finite(&[
            p.p99_us,
            p.p50_us,
            p.mean_us,
            p.mean_wait_us,
            p.hot_p99_us,
            p.utilization,
        ]) {
            fail(id.clone(), "non-finite output");
        }
        if p.p99_us < p.p50_us {
            fail(id.clone(), "p99 below p50");
        }
        if !util_ok(p.utilization, p.load) {
            fail(id, "utilization far from offered load");
        }
    }
    Checked {
        cells: out.fig5.len() + out.cluster.len() + out.hedge.len() + out.rack.len(),
        failed_cells: failed.len(),
        failures,
        util_range: util_range(out),
    }
}

fn util_range(out: &Outputs) -> (f64, f64) {
    let ratios = out
        .cluster
        .iter()
        .map(|p| p.utilization / p.load)
        .chain(out.hedge.iter().map(|p| p.utilization / p.load))
        .chain(out.rack.iter().map(|p| p.utilization / p.load));
    ratios.fold((f64::NAN, f64::NAN), |(lo, hi), r| (lo.min(r), hi.max(r)))
}

fn farm_rules(
    fail: &mut dyn FnMut(String, &str),
    id: &str,
    saturated: bool,
    samples: usize,
    budget: usize,
) {
    if saturated {
        fail(id.to_string(), "saturated");
    }
    if samples != budget {
        fail(id.to_string(), "request budget not run in full");
    }
}

/// Canonical text of a pass's outputs: every field of every cell in grid
/// order, floats as their IEEE-754 bit patterns. Two passes agree bit for
/// bit exactly when their artifacts are byte-identical.
pub fn artifact(out: &Outputs) -> String {
    let mut s = String::new();
    let mut put = |label: &str, text: String, floats: &[f64]| {
        s.push_str(label);
        s.push(' ');
        s.push_str(&text);
        for f in floats {
            let _ = write!(s, " {:016x}", f.to_bits());
        }
        s.push('\n');
    };
    for c in &out.fig5 {
        put(
            "fig5",
            format!("{}/{} sat={}", c.design, c.workload, c.saturated),
            &[
                c.load,
                c.utilization,
                c.perf_density_norm,
                c.energy_norm,
                c.p99_us,
                c.p99_norm,
                c.iso_p99_us,
                c.iso_p99_norm,
                c.stp_norm,
                c.service_slowdown,
                c.remote_ops_per_us,
            ],
        );
    }
    for p in &out.cluster {
        put(
            "cluster",
            format!(
                "{}/{}/{} n={} conv={} sat={}",
                p.design, p.policy, p.servers, p.samples, p.converged, p.saturated
            ),
            &[
                p.load,
                p.p99_us,
                p.p50_us,
                p.mean_us,
                p.mean_wait_us,
                p.utilization,
            ],
        );
    }
    for p in &out.hedge {
        put(
            "hedge",
            format!(
                "{}/{}/{} n={} copies={} fired={} purged={} wasted={} conv={} sat={}",
                p.policy,
                p.plan,
                p.servers,
                p.samples,
                p.dup_copies,
                p.hedges_fired,
                p.purged,
                p.wasted_completions,
                p.converged,
                p.saturated
            ),
            &[
                p.load,
                p.p99_us,
                p.p50_us,
                p.mean_us,
                p.mean_wait_us,
                p.dup_mean_wait_us,
                p.utilization,
                p.added_utilization,
            ],
        );
    }
    for p in &out.rack {
        put(
            "rack",
            format!(
                "{}/{}/{}/{}/{} n={} steals={} empty={} conv={} sat={}",
                p.design,
                p.policy,
                p.plan,
                p.coordination,
                p.servers,
                p.samples,
                p.steals,
                p.steals_empty,
                p.converged,
                p.saturated
            ),
            &[
                p.load,
                p.delta_us,
                p.p99_us,
                p.p50_us,
                p.mean_us,
                p.mean_wait_us,
                p.hot_p99_us,
                p.utilization,
            ],
        );
    }
    s
}

/// FNV-1a 64 digest of an artifact, as 16 hex digits.
pub fn digest(artifact: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in artifact.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
