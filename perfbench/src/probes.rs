//! Layer probes for the traced run: the benchmark calls each crate's public
//! entry points on the inputs its workload feeds them, times every call as
//! a span, and reads the counters those calls already return.

use crate::grid::{self, Grid};
use crate::spans::Spans;
use duplexity::{Design, DuplicationPolicy, ServerSim, Tracer, Workload};
use duplexity_cpu::designs::{DesignMetrics, Stepping};
use duplexity_obs::LatencySketch;
use duplexity_queueing::cluster::{
    try_simulate_cluster, try_simulate_cluster_hedged, ClusterOptions,
};
use duplexity_queueing::des::{try_simulate_mg1, Mg1Options};
use duplexity_queueing::rack::try_simulate_rack;
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{derive_stream, draw_batch, rng_from_seed, SimRng};
use duplexity_workloads::graph::FillerFactory;
use std::hint::black_box;
use std::time::Instant;

/// Offered per-server load of the queueing probes.
const PROBE_LOAD: f64 = 0.8;
/// Requests drawn and recorded by the stats and obs probes.
const COMPONENT_REQUESTS: usize = 2_000_000;

/// Which cycle engine a design runs on.
fn engine_class(design: Design) -> usize {
    match design {
        Design::Baseline | Design::Elfen | Design::Runahead => 0,
        Design::Smt | Design::SmtPlus => 1,
        Design::MorphCore
        | Design::MorphCorePlus
        | Design::DuplexityReplication
        | Design::Duplexity => 2,
    }
}

const ENGINE_NAMES: [&str; 3] = ["cpu.ooo", "cpu.smt", "cpu.dyad"];

/// What the cycle-engine probe measured.
#[derive(Debug, Default)]
pub struct CpuProbe {
    /// Simulated cycles and engine host seconds per engine class.
    pub cycles: [f64; 3],
    pub seconds: [f64; 3],
    /// Host seconds of the Baseline cells under naive and fast-forward
    /// stepping.
    pub naive_s: f64,
    pub ff_s: f64,
    pub muops_retired: u64,
    pub requests_done: u64,
    pub l1d_miss_ratio: f64,
    pub llc_miss_ratio: f64,
    pub mispredict_rate: f64,
    /// Mean host milliseconds of one kernel + filler-factory build.
    pub build_ms: f64,
    /// fig5 only: each cell's utilization, in the driver's grid order.
    pub fig5_utilization: Vec<f64>,
}

/// The cycle simulations a workload runs: fig5's measured cells exactly as
/// `run_fig5` builds them, or for the farms a saturated run per engine at
/// the calibration horizon.
fn cpu_cells(grid: Grid, seed: u64) -> Vec<ServerSim> {
    match grid {
        Grid::Fig5Cycle => grid::fig5_options(seed, None)
            .workloads
            .iter()
            .flat_map(|&w| {
                Design::ALL.iter().map(move |&d| {
                    ServerSim::new(d, w)
                        .load(grid::FIG5_LOAD)
                        .horizon_cycles(grid::FIG5_HORIZON)
                        .seed(seed)
                })
            })
            .collect(),
        Grid::FarmSmall | Grid::FarmLarge => [Design::Baseline, Design::Smt, Design::Duplexity]
            .iter()
            .map(|&d| {
                ServerSim::new(d, Workload::McRouter)
                    .saturated()
                    .horizon_cycles(grid::FARM_CALIBRATION_CYCLES)
                    .seed(derive_stream(seed, 0xBE4C))
            })
            .collect(),
    }
}

pub fn cpu(grid: Grid, seed: u64, spans: &mut Spans) -> CpuProbe {
    let mut p = CpuProbe::default();
    let cells = cpu_cells(grid, seed);
    let mut builds = 0.0;
    let mut uarch = [0.0; 3];
    let root = spans.begin("probe.cpu");
    for sim in &cells {
        let class = engine_class(sim.design());
        let cell = spans.begin(ENGINE_NAMES[class]);
        // ServerSim::run builds the request kernel and the filler threads
        // itself; building them once more, alone, prices that share.
        let b = spans.begin("workloads.build");
        let t0 = Instant::now();
        black_box(sim.workload().kernel(seed));
        black_box(FillerFactory::paper(seed));
        let build_s = t0.elapsed().as_secs_f64();
        spans.end(b);
        let t0 = Instant::now();
        let m: DesignMetrics = sim.run();
        let run_s = t0.elapsed().as_secs_f64();
        spans.end(cell);
        builds += build_s;
        p.cycles[class] += m.wall_cycles as f64;
        p.seconds[class] += (run_s - build_s).max(0.0);
        p.muops_retired += m.master_retired + m.colocated_retired + m.lender_retired;
        p.requests_done += m.request_latencies_us.len() as u64;
        uarch[0] += m.uarch.l1d_miss_ratio;
        uarch[1] += m.uarch.llc_miss_ratio;
        uarch[2] += m.uarch.mispredict_rate;
        if grid == Grid::Fig5Cycle {
            p.fig5_utilization.push(m.utilization(4));
        }
        if sim.design() == Design::Baseline {
            p.ff_s += run_s;
            let naive = spans.begin("cpu.ooo.naive");
            let t0 = Instant::now();
            black_box(sim.stepping(Stepping::Naive).run());
            p.naive_s += t0.elapsed().as_secs_f64();
            spans.end(naive);
        }
    }
    spans.end(root);
    let n = cells.len() as f64;
    p.build_ms = builds / n * 1e3;
    p.l1d_miss_ratio = uarch[0] / n;
    p.llc_miss_ratio = uarch[1] / n;
    p.mispredict_rate = uarch[2] / n;
    p
}

/// What the queueing, stats and obs probes measured.
#[derive(Debug, Default)]
pub struct QueueProbe {
    /// Requests simulated and host seconds per engine: Lindley, hedged, rack.
    pub requests: [f64; 3],
    pub seconds: [f64; 3],
    pub mg1_requests: f64,
    pub mg1_seconds: f64,
    /// ns/request of the engine set at 1024 servers over 16 servers.
    pub large_vs_small: f64,
    pub eventq_ops_per_req: f64,
    pub dup_useful_frac: f64,
    pub steal_success_frac: f64,
    pub draw_ns_per_req: f64,
    pub record_ns_per_req: f64,
}

fn service_for(workload: Workload) -> impl FnMut(&mut SimRng) -> f64 {
    let model = workload.service_model();
    move |rng: &mut SimRng| model.sample_compute(rng) + model.sample_stall(rng)
}

fn lambda(workload: Workload, servers: usize) -> f64 {
    servers as f64 * PROBE_LOAD / workload.nominal_service_us()
}

/// Runs the three cluster engines on `grid`'s budget at `servers`
/// servers, one cell per policy of the grid (Lindley loop) or per plan
/// (hedged and rack engines, under the grid's probe policy), and returns
/// (requests, seconds) per engine. `hedged` and `rack` tallies feed the
/// useful-work ratios when asked for.
fn engine_set(
    grid: Grid,
    servers: usize,
    seed: u64,
    spans: &mut Spans,
    tallies: Option<&mut QueueProbe>,
) -> ([f64; 3], [f64; 3]) {
    let mut requests = [0.0; 3];
    let mut seconds = [0.0; 3];
    let q = grid.farm_queue();
    let mut opts = ClusterOptions::from_mg1(servers, &q);
    opts.seed = derive_stream(seed, 0x9B0B ^ servers as u64);
    let per_cell = (q.warmup + q.max_samples) as f64;
    for policy in grid.farm_policies() {
        let s = spans.begin("queueing.lindley");
        let t0 = Instant::now();
        let r = try_simulate_cluster(
            lambda(Workload::McRouter, servers),
            &mut service_for(Workload::McRouter),
            policy.build().as_mut(),
            &opts,
            &Tracer::disabled(),
        )
        .expect("probe cell is stable");
        seconds[0] += t0.elapsed().as_secs_f64();
        spans.end(s);
        requests[0] += per_cell;
        black_box(r);
    }
    let (mut useful, mut issued) = (0.0, 0.0);
    for (i, plan) in grid::hedge_plans().into_iter().enumerate() {
        let s = spans.begin("queueing.hedged");
        let t0 = Instant::now();
        let r = try_simulate_cluster_hedged(
            lambda(Workload::Rsc, servers),
            &mut service_for(Workload::Rsc),
            grid.probe_policy().build().as_mut(),
            &plan,
            &opts,
            &Tracer::disabled(),
        )
        .expect("probe cell is stable");
        seconds[1] += t0.elapsed().as_secs_f64();
        spans.end(s);
        requests[1] += per_cell;
        // Plan 0 sends no copies; the rest duplicate or hedge.
        if i > 0 {
            useful += (r.tally.completions - r.tally.wasted_completions) as f64;
            issued += r.tally.copies_issued as f64;
        }
    }
    let (mut steals, mut steal_tries) = (0.0, 0.0);
    for plan in grid::rack_plans() {
        let s = spans.begin("queueing.rack");
        let t0 = Instant::now();
        let r = try_simulate_rack(
            lambda(Workload::McRouter, servers),
            &mut service_for(Workload::McRouter),
            grid.probe_policy(),
            &plan,
            &opts,
            &Tracer::disabled(),
        )
        .expect("probe cell is stable");
        seconds[2] += t0.elapsed().as_secs_f64();
        spans.end(s);
        requests[2] += per_cell;
        steals += r.tally.steals as f64;
        steal_tries += (r.tally.steals + r.tally.steals_empty) as f64;
    }
    if let Some(p) = tallies {
        p.dup_useful_frac = useful / issued.max(1.0);
        p.steal_success_frac = steals / steal_tries.max(1.0);
    }
    (requests, seconds)
}

pub fn queueing(grid: Grid, seed: u64, spans: &mut Spans) -> QueueProbe {
    let mut p = QueueProbe::default();
    let root = spans.begin("probe.queueing");
    let own = engine_set(grid, grid.servers(), seed, spans, Some(&mut p));
    (p.requests, p.seconds) = own;

    // The large farm's engine set at both farm sizes.
    let ns_per_req = |(r, s): ([f64; 3], [f64; 3])| s.iter().sum::<f64>() / r.iter().sum::<f64>();
    let large = if grid == Grid::FarmLarge {
        own
    } else {
        engine_set(
            Grid::FarmLarge,
            Grid::FarmLarge.servers(),
            seed,
            spans,
            None,
        )
    };
    let small = engine_set(
        Grid::FarmLarge,
        Grid::FarmSmall.servers(),
        seed,
        spans,
        None,
    );
    p.large_vs_small = ns_per_req(large) / ns_per_req(small);

    // Event-set operations per request, from the hedged engine's own
    // queue profile (an enabled tracer flushes it into the registry).
    let s = spans.begin("queueing.eventq");
    let mut opts = ClusterOptions::from_mg1(grid.servers(), &grid.farm_queue());
    opts.seed = derive_stream(seed, 0xE7E7);
    let tracer = Tracer::enabled(1, 1000.0);
    let r = try_simulate_cluster_hedged(
        lambda(Workload::Rsc, grid.servers()),
        &mut service_for(Workload::Rsc),
        grid.probe_policy().build().as_mut(),
        &DuplicationPolicy::duplicate(2),
        &opts,
        &tracer,
    )
    .expect("probe cell is stable");
    let reg = tracer.take().registry;
    let ops = reg.counter("cluster/eventq/pushes") + reg.counter("cluster/eventq/pops");
    p.eventq_ops_per_req = ops as f64 / r.tally.requests.max(1) as f64;
    spans.end(s);

    // M/G/1 tails as fig5 runs them: each measured workload at the grid's
    // load on the fig5 tail budget.
    let q = grid::fixed_budget(grid::FIG5_TAIL_SAMPLES, Mg1Options::default().warmup);
    for (i, w) in [Workload::McRouter, Workload::WordStem]
        .into_iter()
        .enumerate()
    {
        let s = spans.begin("queueing.mg1");
        let mut qo = q;
        qo.seed = derive_stream(seed, 0x3610 + i as u64);
        let t0 = Instant::now();
        let r = try_simulate_mg1(
            grid::FIG5_LOAD / w.nominal_service_us(),
            &mut service_for(w),
            &qo,
        )
        .expect("probe cell is stable");
        p.mg1_seconds += t0.elapsed().as_secs_f64();
        spans.end(s);
        p.mg1_requests += (qo.warmup + r.samples) as f64;
    }
    spans.end(root);

    // Per-request component costs: service plus interarrival draws, and
    // recording one latency in the estimator and the sketch.
    let s = spans.begin("stats.draw");
    let mut rng = rng_from_seed(derive_stream(seed, 0xD8A3));
    let interarrival = Exponential::from_rate(lambda(Workload::McRouter, grid.servers()));
    let mut service = service_for(Workload::McRouter);
    let (mut demands, mut gaps) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    draw_batch(&mut rng, COMPONENT_REQUESTS, &mut demands, &mut service);
    draw_batch(&mut rng, COMPONENT_REQUESTS, &mut gaps, |r| {
        interarrival.sample(r)
    });
    p.draw_ns_per_req = t0.elapsed().as_secs_f64() * 1e9 / COMPONENT_REQUESTS as f64;
    black_box(&gaps);
    spans.end(s);

    let s = spans.begin("obs.record");
    let mut est = QuantileEstimator::new();
    let mut sketch = LatencySketch::new();
    let t0 = Instant::now();
    for &v in &demands {
        est.record(v);
        sketch.record(v);
    }
    p.record_ns_per_req = t0.elapsed().as_secs_f64() * 1e9 / COMPONENT_REQUESTS as f64;
    black_box((est.count(), sketch.count()));
    spans.end(s);
    p
}

/// fig5's probe cells must reproduce the driver's cells exactly: the same
/// `ServerSim` inputs give the same utilization bit for bit. `utilization`
/// is the driver's, read back from its pass artifact.
pub fn fig5_matches(probe: &CpuProbe, utilization: &[f64]) -> bool {
    probe.fig5_utilization.len() == utilization.len()
        && probe
            .fig5_utilization
            .iter()
            .zip(utilization)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}
