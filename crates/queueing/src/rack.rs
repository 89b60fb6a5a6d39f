//! Two-level rack scheduler: stale-signal dispatch and inter-server work
//! stealing over the cluster engine.
//!
//! RackSched-style results (PAPERS.md) argue that a per-rack inter-server
//! scheduler composed with intra-server scheduling beats per-server-only
//! policies at microsecond scale. This module models that composition on
//! top of the [`cluster`](crate::cluster) event engine: a rack-level
//! dispatcher places requests onto per-server FCFS queues, but — unlike the
//! idealized cluster balancer — it sees queue lengths **as of `t − Δ`**
//! (bounded-delay JSQ / power-of-d), servers that go idle may **steal**
//! queued work from the longest visible backlog, and the dispatch plane can
//! be **centralized** (one dispatcher that observed every placement) or
//! **distributed** (k dispatchers, each blind to the others' placements),
//! with Zipf-skewed per-tenant traffic hashed across dispatchers.
//!
//! Determinism contract, extending the cluster's: the arrival/service
//! stream and the balancer stream are the *same* derived streams as
//! [`try_simulate_cluster_hedged`](crate::cluster::try_simulate_cluster_hedged)
//! (labels shared via `pub(crate)` constants), and the three rack-only
//! features draw from independent derived streams that are consumed
//! **only when the feature is on**:
//!
//! * signal staleness (`Δ > 0`) consumes no RNG at all — it only changes
//!   which state the balancer observes;
//! * work stealing draws victim probes from a dedicated stream
//!   (`RACK_STEAL_STREAM`, `0x57EA`);
//! * tenant ranks draw from `RACK_TENANT_STREAM` (`0x7E2A`, only when
//!   `tenants > 1`).
//!
//! A plan with `Δ = 0`, stealing off, and a single tenant therefore
//! consumes draw-for-draw the cluster engine's RNG sequences and performs
//! the identical floating-point bookkeeping: its [`ClusterResult`] is
//! **bitwise identical** to `try_simulate_cluster_hedged` with
//! [`DuplicationPolicy::none`](crate::cluster::DuplicationPolicy::none) —
//! the degeneracy the test suite pins, and the reason every pre-existing
//! golden fixture survives this module untouched.
//!
//! Staleness semantics: the dispatcher observes each server's state at
//! `τ = t − Δ` (per-server snapshot history), *compensated by its own
//! placements* in `(τ, t]` — a dispatcher knows what it placed, it just
//! cannot see departures or other dispatchers' placements until those age
//! past Δ. Centralized means one dispatcher (full placement knowledge);
//! distributed-k shards tenants across k dispatchers that each compensate
//! only their own window, so information degrades with both Δ and k.
//!
//! Dispatch cost: the balancer reads servers through a
//! [`LoadView`](crate::cluster::LoadView) that computes one server's stale
//! state on demand (an amortized `O(1)` step through its history plus the
//! dispatcher's own placements on it), so a power-of-d pick or a steal
//! costs what it probes, not `O(n)`. A server's history is pruned when the
//! server *records* a snapshot, at `τ = t − Δ` of that record: every later
//! query observes a later `τ`, so all but the last snapshot at or before it
//! are dead. A server's history thus holds its snapshots from the last Δ
//! before its latest record plus one, whether or not any dispatcher ever
//! probes it.

use crate::cluster::{
    merge_replications, ns_ticks, sample_distinct, Balancer, BalancerPolicy, ClusterOptions,
    ClusterResult, LoadView, ServerSoa, ServerView, BALANCER_STREAM, CLUSTER_TICKS_PER_US,
};
use crate::des::Unstable;
use crate::eventcore::{EventQueue, EventQueueKind, HeapEventQueue, WheelEventQueue};
use duplexity_obs::{LatencySketch, TraceEvent, Tracer};
use duplexity_stats::dist::{Distribution, Exponential};
use duplexity_stats::quantile::QuantileEstimator;
use duplexity_stats::rng::{derive_stream, draw_batch, rng_from_seed, SimRng};
use duplexity_stats::summary::Summary;
use duplexity_stats::zipf::Zipf;
use std::cell::Cell;
use std::collections::VecDeque;

/// Stream label for work-stealing victim probes. Independent of the
/// arrival and balancer streams, so a no-steal plan draws nothing from it
/// and stealing never perturbs the marked point process.
const RACK_STEAL_STREAM: u64 = 0x57EA;

/// Stream label for per-arrival tenant ranks. Only consumed when a plan
/// models more than one tenant.
const RACK_TENANT_STREAM: u64 = 0x7E2A;

/// Hot-tenant classification threshold: the smallest head of the Zipf rank
/// order holding at least this probability mass is "hot".
const HOT_MASS: f64 = 0.5;

/// Who runs the rack's dispatch plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coordination {
    /// One dispatcher places every request and therefore compensates its
    /// stale view with *all* placements younger than Δ.
    Centralized,
    /// `dispatchers` independent dispatchers; tenants hash across them
    /// (`rank % dispatchers`) and each compensates only its own
    /// placements. With a single tenant every request lands on dispatcher
    /// 0, which makes the plan equivalent to [`Coordination::Centralized`].
    Distributed {
        /// Number of independent dispatchers (≥ 1).
        dispatchers: usize,
    },
}

impl Coordination {
    fn dispatchers(self) -> usize {
        match self {
            Coordination::Centralized => 1,
            Coordination::Distributed { dispatchers } => dispatchers,
        }
    }

    /// Stable label for reports and JSON: `central` or `dist{k}`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Coordination::Centralized => "central".to_string(),
            Coordination::Distributed { dispatchers } => format!("dist{dispatchers}"),
        }
    }
}

/// Inter-server work-stealing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Victim servers probed per steal attempt (`0` disables stealing; no
    /// RNG is drawn from the steal stream when disabled).
    pub probes: usize,
    /// Minimum *visible* queue length (in system, i.e. waiting plus in
    /// service) a victim must show before it is robbed — a victim at the
    /// threshold still keeps one request in service after the steal.
    pub min_queue: u32,
}

impl StealPolicy {
    /// Stealing disabled: zero probes, zero RNG draws, a bitwise no-op.
    #[must_use]
    pub fn off() -> Self {
        Self {
            probes: 0,
            min_queue: 2,
        }
    }

    /// Probe `d` random victims per idle transition; steal from the one
    /// with the longest visible backlog.
    #[must_use]
    pub fn probe(d: usize) -> Self {
        Self {
            probes: d,
            min_queue: 2,
        }
    }
}

/// A rack scheduling plan: dispatch-plane coordination, signal staleness,
/// work stealing, and tenant skew. [`RackPlan::fresh`] is the degenerate
/// plan that reproduces the cluster engine bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPlan {
    /// Centralized vs distributed dispatch plane.
    pub coordination: Coordination,
    /// Signal staleness Δ, µs: the dispatcher sees per-server state as of
    /// `t − Δ` (compensated by its own placements). `0` is today's fresh
    /// signals.
    pub delta_us: f64,
    /// Idle-server work stealing.
    pub steal: StealPolicy,
    /// Tenants generating the traffic mix (≥ 1). With `1` no tenant rank
    /// is drawn and every request is "hot".
    pub tenants: usize,
    /// Zipf exponent of the per-tenant traffic skew (`0` = uniform,
    /// `0.99` = YCSB default). Ignored when `tenants == 1`.
    pub skew: f64,
}

impl RackPlan {
    /// The degenerate plan: centralized fresh signals, no stealing, one
    /// tenant. Bitwise identical to the cluster engine without
    /// duplication.
    #[must_use]
    pub fn fresh() -> Self {
        Self {
            coordination: Coordination::Centralized,
            delta_us: 0.0,
            steal: StealPolicy::off(),
            tenants: 1,
            skew: 0.0,
        }
    }

    /// Sets the signal staleness Δ in µs.
    #[must_use]
    pub fn with_delta(mut self, delta_us: f64) -> Self {
        self.delta_us = delta_us;
        self
    }

    /// Shards dispatch across `k` independent dispatchers.
    #[must_use]
    pub fn distributed(mut self, k: usize) -> Self {
        self.coordination = Coordination::Distributed { dispatchers: k };
        self
    }

    /// Enables work stealing with `d` probes per idle transition.
    #[must_use]
    pub fn with_steal(mut self, d: usize) -> Self {
        self.steal = StealPolicy::probe(d);
        self
    }

    /// Drives the rack with `tenants` Zipf(`skew`)-distributed tenants.
    #[must_use]
    pub fn with_tenants(mut self, tenants: usize, skew: f64) -> Self {
        self.tenants = tenants;
        self.skew = skew;
        self
    }

    /// Whether this plan consumes exactly the cluster engine's RNG streams
    /// and bookkeeping (the bitwise-degeneracy condition): fresh signals,
    /// no stealing, single tenant.
    #[must_use]
    pub fn is_fresh_degenerate(&self) -> bool {
        self.delta_us <= 0.0 && self.steal.probes == 0 && self.tenants <= 1
    }

    /// Stable label for reports and JSON, e.g. `central`, `central_d4`,
    /// `dist4_d4_z0.99`, `central_st2`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = self.coordination.label();
        if self.delta_us > 0.0 {
            s.push_str(&format!("_d{}", self.delta_us));
        }
        if self.steal.probes > 0 {
            s.push_str(&format!("_st{}", self.steal.probes));
        }
        if self.tenants > 1 {
            s.push_str(&format!("_z{}", self.skew));
        }
        s
    }
}

impl std::fmt::Display for RackPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Rack bookkeeping over the whole run (warmup included — steals are a
/// property of the schedule, not of individual measured requests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RackTally {
    /// Measured requests admitted.
    pub requests: u64,
    /// Measured requests from hot tenants (head of the Zipf rank order
    /// holding ≥ 50% of traffic; all requests when `tenants == 1`).
    pub hot_requests: u64,
    /// Victim probes drawn across all steal attempts.
    pub steal_probes: u64,
    /// Successful steals (a queued request migrated servers).
    pub steals: u64,
    /// Steal attempts whose chosen victim had nothing to give — the stale
    /// signal lied about the backlog.
    pub steals_empty: u64,
    /// Service demand migrated by steals, µs.
    pub stolen_work_us: f64,
}

/// Results of one rack simulation: the base cluster metrics plus rack
/// bookkeeping and per-class (hot/cold tenant) sojourn sketches.
#[derive(Debug, Clone)]
pub struct RackResult {
    /// Cluster-shaped metrics, so rack cells merge/render exactly like
    /// cluster cells. Waits are measured from arrival to service start
    /// (wherever the request ends up running after steals).
    pub cluster: ClusterResult,
    /// Steal/tenant counters.
    pub tally: RackTally,
    /// Sojourn sketch of hot-tenant requests.
    pub hot_sketch: LatencySketch,
    /// Sojourn sketch of cold-tenant requests (empty when `tenants == 1`).
    pub cold_sketch: LatencySketch,
}

/// Pools independent replications of one rack cell, in replication order
/// (same contract as [`merge_replications`]: a pure function of the
/// ordered list, bit-identical at any worker count). Cluster metrics merge
/// via [`merge_replications`]; tallies sum fieldwise; hot/cold sketches
/// merge in replication order.
///
/// # Panics
///
/// Panics if `parts` is empty or the replications disagree on the server
/// count.
#[must_use]
pub fn merge_rack_replications(
    parts: Vec<RackResult>,
    quantile: f64,
    confidence: f64,
) -> RackResult {
    assert!(!parts.is_empty(), "cannot merge zero replications");
    let mut tally = RackTally::default();
    let mut hot_sketch = LatencySketch::new();
    let mut cold_sketch = LatencySketch::new();
    let mut clusters = Vec::with_capacity(parts.len());
    for part in parts {
        tally.requests += part.tally.requests;
        tally.hot_requests += part.tally.hot_requests;
        tally.steal_probes += part.tally.steal_probes;
        tally.steals += part.tally.steals;
        tally.steals_empty += part.tally.steals_empty;
        tally.stolen_work_us += part.tally.stolen_work_us;
        hot_sketch.merge(&part.hot_sketch);
        cold_sketch.merge(&part.cold_sketch);
        clusters.push(part.cluster);
    }
    RackResult {
        cluster: merge_replications(clusters, quantile, confidence),
        tally,
        hot_sketch,
        cold_sketch,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    InService,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    arrival: f64,
    demand: f64,
    measured: bool,
    hot: bool,
    state: JobState,
}

/// One entry of a server's visible-state history: the server's full
/// dispatch-relevant state as of time `t`. The balancer's stale view at
/// `τ` is the last snapshot with `t ≤ τ`.
#[derive(Debug, Clone, Copy)]
struct Snap {
    t: f64,
    in_system: u32,
    queued_work: f64,
    serving: bool,
    serve_end: f64,
}

/// One server's visible-state history, oldest first.
#[derive(Debug, Clone, Default)]
struct History {
    snaps: VecDeque<Snap>,
    /// Index of the snapshot the latest query observed. Queries are
    /// monotone in `τ` (events pop in time order), so the next query's
    /// snapshot is at or after it and a lookup is amortized `O(1)`.
    cursor: Cell<usize>,
}

impl History {
    /// Appends the state as of `t` and drops the snapshots no query at
    /// `τ ≥ t − Δ` can observe: all but the last one at or before it.
    fn record(&mut self, snap: Snap, delta_us: f64) {
        let h = &mut self.snaps;
        // Several mutations at one instant collapse to the final state —
        // an observer at τ = t sees the state after the whole event.
        match h.back_mut() {
            Some(last) if last.t == snap.t => *last = snap,
            _ => h.push_back(snap),
        }
        let tau = snap.t - delta_us;
        while h.len() >= 2 && h[1].t <= tau {
            h.pop_front();
            self.cursor.set(self.cursor.get().saturating_sub(1));
        }
    }

    /// The server state visible at `τ`: the last snapshot at or before
    /// `τ`, with the in-service residual projected to `τ`. Before any
    /// snapshot the server looks empty.
    fn visible(&self, tau: f64) -> (u32, f64) {
        let h = &self.snaps;
        let mut k = self.cursor.get();
        while k + 1 < h.len() && h[k + 1].t <= tau {
            k += 1;
        }
        self.cursor.set(k);
        match h.get(k) {
            Some(snap) if snap.t <= tau => {
                let residual = if snap.serving {
                    (snap.serve_end - tau).max(0.0)
                } else {
                    0.0
                };
                (snap.in_system, snap.queued_work + residual)
            }
            _ => (0, 0.0),
        }
    }
}

/// One dispatcher's Δ-stale [`LoadView`]: each server's snapshot visible
/// at `τ`, plus the dispatcher's own placements on it in `(τ, t]`.
struct StaleView<'a> {
    hist: &'a [History],
    /// The dispatcher's own-placement demands per server, oldest first.
    own: &'a [VecDeque<f64>],
    tau: f64,
}

impl LoadView for StaleView<'_> {
    fn len(&self) -> usize {
        self.hist.len()
    }
    fn queue(&self, i: usize) -> u32 {
        self.hist[i].visible(self.tau).0 + self.own[i].len() as u32
    }
    fn backlog_us(&self, i: usize) -> f64 {
        // Oldest placement first: the same float sum as a time-ordered
        // scan of the dispatcher's window.
        let w = self.hist[i].visible(self.tau).1;
        self.own[i].iter().fold(w, |w, &d| w + d)
    }
}

#[derive(Debug, Clone, Copy)]
enum RackEv {
    Arrive,
    Depart { server: usize, epoch: u64 },
}

impl RackEv {
    /// Tie-break ranks shared with the cluster engine's event kinds
    /// (Arrive = 0, Depart = 2), so at equal times the rack pops events in
    /// the identical order — part of the bitwise-degeneracy contract.
    fn rank(self) -> u8 {
        match self {
            RackEv::Arrive => 0,
            RackEv::Depart { .. } => 2,
        }
    }
}

/// Rack simulation, panicking on saturation. See [`try_simulate_rack`].
///
/// # Panics
///
/// Panics on non-positive `lambda_per_us`, zero servers, an invalid plan,
/// or a saturated pilot estimate.
pub fn simulate_rack(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    policy: BalancerPolicy,
    plan: &RackPlan,
    opts: &ClusterOptions,
) -> RackResult {
    try_simulate_rack(
        lambda_per_us,
        service,
        policy,
        plan,
        opts,
        &Tracer::disabled(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Two-level rack simulation: a rack dispatcher placing Poisson arrivals
/// at `lambda_per_us` onto `opts.servers` FCFS servers under `policy`,
/// with the plan's signal staleness, work stealing, coordination, and
/// tenant skew applied.
///
/// Takes the policy *by value* (not a `&mut dyn Balancer`) because a
/// distributed plan instantiates one balancer per dispatcher.
///
/// Trace vocabulary: measured requests emit
/// [`TraceEvent::RequestArrive`] / [`TraceEvent::Dispatch`] /
/// [`TraceEvent::RequestComplete`] in the shared DES tick domain; counters
/// land under `rack/*` (`rack/requests`, `rack/server/{i}/requests`,
/// `rack/steal/{probes,ok,empty}`), tails under `rack/sojourn_us` and
/// `rack/wait_us`, and the end-of-run DES self-profile under
/// `rack/events/*` and `rack/eventq/*`.
///
/// # Errors
///
/// `Err(Unstable)` when the 512-draw pilot estimates `λ·E[S]/n ≥ 1` —
/// stealing and staleness rebalance work but never add or remove it, so
/// the stability condition is the cluster's.
///
/// # Panics
///
/// Panics on non-positive `lambda_per_us`, zero servers, or an invalid
/// plan (zero dispatchers/tenants, negative or non-finite Δ or skew).
pub fn try_simulate_rack(
    lambda_per_us: f64,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    policy: BalancerPolicy,
    plan: &RackPlan,
    opts: &ClusterOptions,
    tracer: &Tracer,
) -> Result<RackResult, Unstable> {
    assert!(lambda_per_us > 0.0, "arrival rate must be positive");
    assert!(opts.servers >= 1, "rack needs at least one server");
    assert!(
        plan.coordination.dispatchers() >= 1,
        "rack needs at least one dispatcher"
    );
    assert!(plan.tenants >= 1, "rack needs at least one tenant");
    assert!(
        plan.delta_us >= 0.0 && plan.delta_us.is_finite(),
        "staleness must be finite and non-negative"
    );
    assert!(
        plan.skew >= 0.0 && plan.skew.is_finite(),
        "tenant skew must be finite and non-negative"
    );
    tracer.set_ticks_per_us(CLUSTER_TICKS_PER_US);
    let n = opts.servers;

    let mut rng = rng_from_seed(opts.seed);
    let interarrival = Exponential::from_rate(lambda_per_us);

    // Identical 512-draw pilot to the cluster engines: same arrival-stream
    // offset, so rack and cluster cells are CRN-comparable (and the Δ=0
    // degeneracy starts from the first post-pilot draw).
    let mut pilot_buf = Vec::new();
    draw_batch(&mut rng, 512, &mut pilot_buf, &mut *service);
    let pilot: f64 = pilot_buf.iter().sum::<f64>() / 512.0;
    let rho_estimate = lambda_per_us * pilot / n as f64;
    if rho_estimate >= 1.0 {
        return Err(Unstable { rho_estimate });
    }

    Ok(match opts.event_queue {
        EventQueueKind::Heap => run_rack(
            HeapEventQueue::new(),
            service,
            policy,
            plan,
            opts,
            tracer,
            rng,
            interarrival,
        )
        .into_result(),
        EventQueueKind::Wheel => {
            // One arrival + one departure per request: the cluster's event
            // rate with a copies hint of 1, so the wheel geometry (and its
            // profile counters) match the degenerate cluster run exactly.
            run_rack(
                WheelEventQueue::for_rate(lambda_per_us * 2.0),
                service,
                policy,
                plan,
                opts,
                tracer,
                rng,
                interarrival,
            )
            .into_result()
        }
    })
}

/// Runs the rack's event loop to completion and returns the drained
/// simulator state.
#[allow(clippy::too_many_arguments)]
fn run_rack<'a, Q: EventQueue<RackEv>>(
    queue: Q,
    service: &mut dyn FnMut(&mut SimRng) -> f64,
    policy: BalancerPolicy,
    plan: &'a RackPlan,
    opts: &'a ClusterOptions,
    tracer: &'a Tracer,
    mut rng: SimRng,
    interarrival: Exponential,
) -> RackSim<'a, Q> {
    let n = opts.servers;
    let stale = plan.delta_us > 0.0;
    let mut brng = rng_from_seed(derive_stream(opts.seed, BALANCER_STREAM));
    // Feature streams, derived independently: consumed only when their
    // feature is enabled, so disabled features are RNG no-ops.
    let mut srng = rng_from_seed(derive_stream(opts.seed, RACK_STEAL_STREAM));
    let mut trng = rng_from_seed(derive_stream(opts.seed, RACK_TENANT_STREAM));
    let tenant_mix = (plan.tenants > 1).then(|| Zipf::new(plan.tenants, plan.skew));
    // Hot tenants: the smallest rank head holding ≥ HOT_MASS of traffic.
    let hot_cutoff = tenant_mix.as_ref().map_or(1, |z| {
        let mut k = 1;
        while z.head_mass(k) < HOT_MASS && k < z.n() {
            k += 1;
        }
        k
    });
    let k_disp = plan.coordination.dispatchers();
    let mut dispatchers: Vec<Box<dyn Balancer>> = (0..k_disp).map(|_| policy.build()).collect();

    let total = opts.warmup + opts.max_samples;
    let req_cap = total.min(1 << 20);
    let mut sim = RackSim {
        plan,
        opts,
        tracer,
        traced: tracer.is_enabled(),
        series_on: tracer.has_timeseries(),
        stale,
        servers: ServerSoa::new(n),
        hist: vec![History::default(); if stale { n } else { 0 }],
        windows: vec![VecDeque::new(); if stale { k_disp } else { 0 }],
        own: vec![VecDeque::new(); if stale { k_disp * n } else { 0 }],
        jobs: Vec::with_capacity(req_cap),
        queue,
        sojourns: QuantileEstimator::with_capacity(opts.max_samples.min(1 << 20)),
        sketch: LatencySketch::new(),
        hot_sketch: LatencySketch::new(),
        cold_sketch: LatencySketch::new(),
        ev_pushed: [0; 3],
        ev_popped: [0; 3],
        sojourn_sum: Summary::new(),
        wait_sum: Summary::new(),
        per_server: vec![0u64; n],
        tally: RackTally::default(),
        delivered_us: 0.0,
        clock: 0.0,
        converged: false,
        arrivals: 0,
        steal_swaps: Vec::new(),
    };
    sim.schedule(0.0, RackEv::Arrive);

    while let Some((key, kind)) = sim.queue.pop() {
        sim.ev_popped[usize::from(kind.rank())] += 1;
        match kind {
            RackEv::Arrive => {
                // Same admission rule as the cluster engine: pending
                // arrivals drop once the stopping rule fires; in-flight
                // work drains.
                if sim.converged || sim.arrivals >= total {
                    continue;
                }
                sim.on_arrive(
                    key.t,
                    total,
                    service,
                    &interarrival,
                    tenant_mix.as_ref(),
                    hot_cutoff,
                    &mut dispatchers,
                    &mut rng,
                    &mut brng,
                    &mut trng,
                );
            }
            RackEv::Depart { server, epoch } => {
                sim.on_depart(server, epoch, key.t, &mut srng);
            }
        }
        if sim.series_on {
            sim.sample_gauges(key.t);
        }
    }
    if sim.traced {
        sim.flush_profile();
    }
    sim
}

struct RackSim<'a, Q> {
    plan: &'a RackPlan,
    opts: &'a ClusterOptions,
    tracer: &'a Tracer,
    traced: bool,
    series_on: bool,
    /// Cached `plan.delta_us > 0.0`: the fresh path must skip all history
    /// bookkeeping (not just produce equal views) to stay bitwise equal to
    /// the cluster engine.
    stale: bool,
    /// Per-server FCFS state (the cluster engine's SoA layout; jobs queue
    /// on `prim_q` only, since the rack issues no duplicates).
    servers: ServerSoa,
    /// Per-server snapshot history for stale views (empty when Δ = 0).
    /// Front-pruned at each record (see the module docs); queries are
    /// monotone in `t` because events pop in time order.
    hist: Vec<History>,
    /// Per-dispatcher compensation windows: own placements `(t, server)`
    /// younger than Δ, oldest first (empty when Δ = 0).
    windows: Vec<VecDeque<(f64, usize)>>,
    /// The windows' demands split per server: `own[disp * n + server]`
    /// holds dispatcher `disp`'s window demands on `server`, oldest first,
    /// popped in step with `windows[disp]`.
    own: Vec<VecDeque<f64>>,
    jobs: Vec<Job>,
    queue: Q,
    sojourns: QuantileEstimator,
    sketch: LatencySketch,
    hot_sketch: LatencySketch,
    cold_sketch: LatencySketch,
    /// Events pushed / popped per rank (Arrive = 0, Depart = 2; slot 1 is
    /// the cluster's hedge rank, unused here).
    ev_pushed: [u64; 3],
    ev_popped: [u64; 3],
    sojourn_sum: Summary,
    wait_sum: Summary,
    per_server: Vec<u64>,
    tally: RackTally,
    delivered_us: f64,
    clock: f64,
    converged: bool,
    arrivals: usize,
    /// [`sample_distinct`] scratch for steal probes.
    steal_swaps: Vec<(usize, usize)>,
}

impl<Q: EventQueue<RackEv>> RackSim<'_, Q> {
    /// Assembles the run's results from the drained simulator.
    fn into_result(mut self) -> RackResult {
        let opts = self.opts;
        let n_f = self.servers.serving.len() as f64;
        let clock = self.clock;
        let samples = self.sojourns.count();
        RackResult {
            cluster: ClusterResult {
                tail_us: self.sojourns.quantile(opts.quantile).unwrap_or(0.0),
                tail_ci: self.sojourns.quantile_ci(opts.quantile, opts.confidence),
                mean_sojourn_us: self.sojourns.mean().unwrap_or(0.0),
                p50_us: self.sojourns.quantile(0.5).unwrap_or(0.0),
                mean_wait_us: if self.wait_sum.count() > 0 {
                    self.wait_sum.mean()
                } else {
                    0.0
                },
                wait: self.wait_sum,
                sojourn: self.sojourn_sum,
                utilization: if clock > 0.0 {
                    (self.delivered_us / (n_f * clock)).min(1.0)
                } else {
                    0.0
                },
                per_server_requests: self.per_server,
                samples,
                converged: self.converged,
                sojourn_samples: self.sojourns,
                sketch: self.sketch,
                measured_us: clock,
            },
            tally: self.tally,
            hot_sketch: self.hot_sketch,
            cold_sketch: self.cold_sketch,
        }
    }

    fn schedule(&mut self, t: f64, kind: RackEv) {
        self.ev_pushed[usize::from(kind.rank())] += 1;
        self.queue.push(t, kind.rank(), kind);
    }

    /// Records the server's post-mutation state into its visible history
    /// and prunes the snapshots no later query can observe. No-op on the
    /// fresh path.
    fn record_snap(&mut self, server: usize, t: f64) {
        if !self.stale {
            return;
        }
        let sv = &self.servers;
        let snap = Snap {
            t,
            in_system: sv.in_system[server],
            queued_work: sv.queued_work[server],
            serving: sv.serving[server].is_some(),
            serve_end: sv.serve_end[server],
        };
        self.hist[server].record(snap, self.plan.delta_us);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_arrive(
        &mut self,
        t: f64,
        total: usize,
        service: &mut dyn FnMut(&mut SimRng) -> f64,
        interarrival: &Exponential,
        tenant_mix: Option<&Zipf>,
        hot_cutoff: usize,
        dispatchers: &mut [Box<dyn Balancer>],
        rng: &mut SimRng,
        brng: &mut SimRng,
        trng: &mut SimRng,
    ) {
        let k = self.arrivals;
        self.arrivals += 1;
        // Cluster draw order on the arrival stream: service first, then
        // the interarrival gap (below).
        let s = service(rng);
        let measured = k >= self.opts.warmup;
        // Tenant rank: drawn only when the plan models multiple tenants,
        // so a single-tenant plan never touches the tenant stream.
        let rank = tenant_mix.map_or(0, |z| z.sample(trng));
        let hot = rank < hot_cutoff;
        let disp = rank % dispatchers.len();
        let job = self.jobs.len();
        self.jobs.push(Job {
            arrival: t,
            demand: s,
            measured,
            hot,
            state: JobState::Queued,
        });
        if measured {
            self.tally.requests += 1;
            if hot {
                self.tally.hot_requests += 1;
            }
            if self.traced {
                self.tracer
                    .emit(|| TraceEvent::RequestArrive { at: ns_ticks(t) });
                self.tracer.count("rack/requests", 1);
            }
        }
        self.dispatch(job, s, t, disp, &mut *dispatchers[disp], brng);
        let a = interarrival.sample(rng);
        if measured {
            self.clock += a;
        }
        if self.arrivals < total && !self.converged {
            self.schedule(t + a, RackEv::Arrive);
        }
    }

    /// Places one request through dispatcher `disp`: pick through its view
    /// (fresh, or stale plus own-placement compensation), enqueue, and
    /// start service if the server is idle.
    fn dispatch(
        &mut self,
        job: usize,
        demand: f64,
        t: f64,
        disp: usize,
        balancer: &mut dyn Balancer,
        brng: &mut SimRng,
    ) {
        let n = self.servers.serving.len();
        let server = if self.stale {
            // Age out this dispatcher's placements older than Δ: it knows
            // what it placed, it just cannot see departures (or other
            // dispatchers' placements) that fresh.
            let tau = t - self.plan.delta_us;
            let own = &mut self.own[disp * n..(disp + 1) * n];
            let win = &mut self.windows[disp];
            while let Some(&(ts, s)) = win.front() {
                if ts > tau {
                    break;
                }
                win.pop_front();
                own[s].pop_front();
            }
            let view = StaleView {
                hist: &self.hist,
                own,
                tau,
            };
            balancer.pick(&view, brng)
        } else {
            let view = ServerView {
                servers: &self.servers,
                held: &[],
                t,
            };
            balancer.pick(&view, brng)
        };
        debug_assert!(server < n, "balancer picked out-of-range server {server}");

        let measured = self.jobs[job].measured;
        if measured {
            self.per_server[server] += 1;
            if self.traced {
                let queue_len = self.servers.in_system[server];
                self.tracer.emit(|| TraceEvent::Dispatch {
                    at: ns_ticks(t),
                    server: server as u32,
                    queue_len,
                });
                self.tracer
                    .count(&format!("rack/server/{server}/requests"), 1);
            }
        }
        self.servers.in_system[server] += 1;
        self.servers.queued_work[server] += demand;
        self.servers.prim_q[server].push_back(job);
        if self.stale {
            self.windows[disp].push_back((t, server));
            self.own[disp * n + server].push_back(demand);
        }
        self.record_snap(server, t);
        self.maybe_start(server, t);
    }

    /// Starts the next queued job on an idle server.
    fn maybe_start(&mut self, server: usize, t: f64) {
        let sv = &mut self.servers;
        if sv.serving[server].is_some() {
            return;
        }
        let Some(j) = sv.prim_q[server].pop_front() else {
            return;
        };
        debug_assert_eq!(
            self.jobs[j].state,
            JobState::Queued,
            "queue holds a non-queued job"
        );
        self.jobs[j].state = JobState::InService;
        let demand = self.jobs[j].demand;
        sv.serving[server] = Some(j);
        sv.serve_start[server] = t;
        sv.serve_end[server] = t + demand;
        sv.queued_work[server] -= demand;
        sv.epoch[server] += 1;
        let epoch = sv.epoch[server];
        let end = sv.serve_end[server];
        if self.jobs[j].measured {
            let w = t - self.jobs[j].arrival;
            self.wait_sum.record(w);
            if self.traced {
                self.tracer.observe("rack/wait_us", w);
            }
        }
        self.schedule(end, RackEv::Depart { server, epoch });
        self.record_snap(server, t);
    }

    fn on_depart(&mut self, server: usize, epoch: u64, t: f64, srng: &mut SimRng) {
        if self.servers.epoch[server] != epoch {
            return; // stale departure (defensive; the rack never aborts service)
        }
        let j = self.servers.serving[server]
            .take()
            .expect("live Depart on an idle server");
        self.jobs[j].state = JobState::Done;
        self.servers.in_system[server] -= 1;
        let measured = self.jobs[j].measured;
        if measured {
            self.delivered_us += self.jobs[j].demand;
            let sojourn = t - self.jobs[j].arrival;
            self.sojourns.record(sojourn);
            self.sketch.record(sojourn);
            self.sojourn_sum.record(sojourn);
            if self.jobs[j].hot {
                self.hot_sketch.record(sojourn);
            } else {
                self.cold_sketch.record(sojourn);
            }
            if self.traced {
                let at = ns_ticks(t);
                let arrived = ns_ticks(self.jobs[j].arrival);
                self.tracer.emit(|| TraceEvent::RequestComplete {
                    at,
                    latency: at.saturating_sub(arrived),
                });
                self.tracer.observe("rack/sojourn_us", sojourn);
            }
            if self.sojourns.count().is_multiple_of(self.opts.check_every) {
                if let Some(ci) = self
                    .sojourns
                    .quantile_ci(self.opts.quantile, self.opts.confidence)
                {
                    if ci.converged(self.opts.max_relative_error) {
                        self.converged = true;
                    }
                }
            }
        }
        self.record_snap(server, t);
        self.maybe_start(server, t);
        // Work stealing: a server that stays idle after a departure pulls
        // from the longest visible backlog. Probes draw from the steal
        // stream only, so a no-steal plan is an RNG no-op.
        if self.plan.steal.probes > 0 && self.servers.serving[server].is_none() {
            self.try_steal(server, t, srng);
        }
    }

    /// One steal attempt by idle `thief`: probe `d` distinct victims
    /// among the other servers ([`sample_distinct`] on the steal stream),
    /// pick the one with the longest *visible* backlog above the queue
    /// threshold, and migrate its oldest queued request. A victim whose
    /// actual queue turns out empty — the stale signal lied — counts as
    /// `steals_empty`.
    fn try_steal(&mut self, thief: usize, t: f64, srng: &mut SimRng) {
        let n = self.servers.serving.len();
        if n < 2 {
            return;
        }
        let tau = t - self.plan.delta_us;
        let d = self.plan.steal.probes.min(n - 1);
        let mut victim = None;
        let mut best_w = f64::NEG_INFINITY;
        sample_distinct(n - 1, d, srng, &mut self.steal_swaps, |l| {
            // Candidate `l` of the `n − 1` servers other than the thief.
            let probe = l + usize::from(l >= thief);
            let (qn, w) = if self.stale {
                self.hist[probe].visible(tau)
            } else {
                let sv = &self.servers;
                (sv.in_system[probe], sv.backlog_us(probe, t))
            };
            if qn >= self.plan.steal.min_queue && w > best_w {
                best_w = w;
                victim = Some(probe);
            }
        });
        self.tally.steal_probes += d as u64;
        if self.traced {
            self.tracer.count("rack/steal/probes", d as u64);
        }
        let Some(v) = victim else { return };
        let sv = &mut self.servers;
        let Some(j) = sv.prim_q[v].pop_front() else {
            // The visible backlog was stale: the victim has nothing.
            self.tally.steals_empty += 1;
            if self.traced {
                self.tracer.count("rack/steal/empty", 1);
            }
            return;
        };
        let demand = self.jobs[j].demand;
        sv.in_system[v] -= 1;
        sv.queued_work[v] -= demand;
        sv.in_system[thief] += 1;
        sv.queued_work[thief] += demand;
        sv.prim_q[thief].push_back(j);
        self.tally.steals += 1;
        self.tally.stolen_work_us += demand;
        if self.traced {
            self.tracer.count("rack/steal/ok", 1);
        }
        self.record_snap(v, t);
        self.record_snap(thief, t);
        self.maybe_start(thief, t);
    }

    /// Event-clock gauges, sampled once per popped event when the tracer
    /// opted into time series.
    fn sample_gauges(&self, t: f64) {
        let n = self.servers.serving.len();
        let busy = self.servers.serving.iter().filter(|s| s.is_some()).count();
        let in_flight: u32 = self.servers.in_system.iter().sum();
        let util = if self.clock > 0.0 {
            (self.delivered_us / (n as f64 * self.clock)).min(1.0)
        } else {
            0.0
        };
        let steals = self.tally.steals;
        let depths = &self.servers.in_system;
        self.tracer.sample(|ts| {
            ts.observe("rack/busy_servers", t, busy as f64);
            ts.observe("rack/in_flight", t, f64::from(in_flight));
            ts.observe("rack/utilization", t, util);
            ts.observe("rack/steals", t, steals as f64);
            for (i, &d) in depths.iter().enumerate() {
                ts.observe(&format!("rack/server/{i}/depth"), t, f64::from(d));
            }
        });
    }

    /// End-of-run DES self-profile: per-kind event counters, the event
    /// queue's own bookkeeping, and the sketch's non-finite-drop counter
    /// (the satellite diagnostic for sketch-vs-exact count drift).
    fn flush_profile(&self) {
        for (rank, name) in [(0usize, "arrive"), (2usize, "depart")] {
            self.tracer
                .count(&format!("rack/events/{name}/pushed"), self.ev_pushed[rank]);
            self.tracer
                .count(&format!("rack/events/{name}/popped"), self.ev_popped[rank]);
        }
        let p = self.queue.profile();
        for (name, v) in [
            ("pushes", p.pushes),
            ("pops", p.pops),
            ("max_len", p.max_len),
            ("overflow_pushes", p.overflow_pushes),
            ("overflow_migrations", p.overflow_migrations),
            ("frontier_advances", p.frontier_advances),
            ("frontier_jumps", p.frontier_jumps),
            ("slots_skipped", p.slots_skipped),
            ("max_bucket_len", p.max_bucket_len),
        ] {
            self.tracer.count(&format!("rack/eventq/{name}"), v);
        }
        self.tracer.count(
            "rack/sketch/dropped_nonfinite",
            self.sketch.dropped_nonfinite(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{try_simulate_cluster_hedged, DuplicationPolicy};

    fn fast_opts(servers: usize, seed: u64) -> ClusterOptions {
        ClusterOptions {
            servers,
            max_samples: 120_000,
            warmup: 2_000,
            seed,
            ..ClusterOptions::default()
        }
    }

    fn exp_service(mean: f64) -> impl FnMut(&mut SimRng) -> f64 {
        move |rng: &mut SimRng| Exponential::new(mean).sample(rng)
    }

    const POLICIES: [BalancerPolicy; 5] = [
        BalancerPolicy::Random,
        BalancerPolicy::RoundRobin,
        BalancerPolicy::Jsq,
        BalancerPolicy::PowerOfD(2),
        BalancerPolicy::LeastWork,
    ];

    #[test]
    fn fresh_plan_is_bitwise_the_cluster_engine() {
        // Δ=0, no steal, one tenant: the rack must consume draw-for-draw
        // the cluster's RNG streams and bookkeeping — bitwise equality on
        // every derived statistic, for every policy and both event queues.
        for kind in [EventQueueKind::Wheel, EventQueueKind::Heap] {
            for policy in POLICIES {
                let mut opts = fast_opts(4, 17);
                opts.event_queue = kind;
                let mut svc = exp_service(1.0);
                let rack = try_simulate_rack(
                    3.0,
                    &mut svc,
                    policy,
                    &RackPlan::fresh(),
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable");
                let mut svc = exp_service(1.0);
                let cluster = try_simulate_cluster_hedged(
                    3.0,
                    &mut svc,
                    policy.build().as_mut(),
                    &DuplicationPolicy::none(),
                    &opts,
                    &Tracer::disabled(),
                )
                .expect("stable");
                let (r, c) = (&rack.cluster, &cluster.cluster);
                assert_eq!(r.tail_us, c.tail_us, "{policy}/{kind:?}");
                assert_eq!(r.p50_us, c.p50_us, "{policy}/{kind:?}");
                assert_eq!(r.mean_sojourn_us, c.mean_sojourn_us, "{policy}/{kind:?}");
                assert_eq!(r.mean_wait_us, c.mean_wait_us, "{policy}/{kind:?}");
                assert_eq!(r.wait, c.wait, "{policy}/{kind:?}");
                assert_eq!(r.sojourn, c.sojourn, "{policy}/{kind:?}");
                assert_eq!(r.utilization, c.utilization, "{policy}/{kind:?}");
                assert_eq!(r.per_server_requests, c.per_server_requests);
                assert_eq!(r.samples, c.samples, "{policy}/{kind:?}");
                assert_eq!(r.converged, c.converged, "{policy}/{kind:?}");
                assert_eq!(r.sketch, c.sketch, "{policy}/{kind:?}");
                assert_eq!(r.measured_us, c.measured_us, "{policy}/{kind:?}");
                assert_eq!(rack.tally.steals, 0);
                assert_eq!(rack.tally.steal_probes, 0);
            }
        }
    }

    #[test]
    fn same_seed_is_bit_identical_with_all_features_on() {
        let plan = RackPlan::fresh()
            .with_delta(4.0)
            .distributed(2)
            .with_steal(2)
            .with_tenants(64, 0.99);
        let run = |_| {
            let mut svc = exp_service(1.0);
            simulate_rack(3.0, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(4, 23))
        };
        let (a, b) = (run(0), run(1));
        assert_eq!(a.cluster.tail_us, b.cluster.tail_us);
        assert_eq!(a.cluster.sojourn, b.cluster.sojourn);
        assert_eq!(a.cluster.per_server_requests, b.cluster.per_server_requests);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.hot_sketch, b.hot_sketch);
        assert_eq!(a.cold_sketch, b.cold_sketch);
    }

    #[test]
    fn wheel_and_heap_agree_under_staleness_and_stealing() {
        let plan = RackPlan::fresh().with_delta(6.0).with_steal(2);
        let run = |kind| {
            let mut opts = fast_opts(4, 29);
            opts.event_queue = kind;
            let mut svc = exp_service(1.0);
            try_simulate_rack(
                3.2,
                &mut svc,
                BalancerPolicy::Jsq,
                &plan,
                &opts,
                &Tracer::disabled(),
            )
            .expect("stable")
        };
        let (w, h) = (run(EventQueueKind::Wheel), run(EventQueueKind::Heap));
        assert_eq!(w.cluster.tail_us, h.cluster.tail_us);
        assert_eq!(w.cluster.sketch, h.cluster.sketch);
        assert_eq!(w.tally, h.tally);
    }

    #[test]
    fn tail_degrades_monotonically_with_staleness() {
        // CRN across Δ: same arrivals and demands, only the dispatcher's
        // information ages. Staler signals must not improve the tail.
        let tails: Vec<f64> = [0.0, 10.0, 40.0]
            .iter()
            .map(|&delta| {
                let mut svc = exp_service(1.0);
                let plan = RackPlan::fresh().with_delta(delta);
                simulate_rack(6.4, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(8, 31))
                    .cluster
                    .tail_us
            })
            .collect();
        assert!(
            tails[0] <= tails[1] && tails[1] <= tails[2],
            "p99 must degrade with Δ: {tails:?}"
        );
    }

    #[test]
    fn distributed_dispatch_is_no_better_than_centralized_when_stale() {
        // At Δ>0 a centralized dispatcher compensates with every
        // placement; distributed dispatchers each see only their own.
        let run = |plan: RackPlan| {
            let mut svc = exp_service(1.0);
            simulate_rack(6.4, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(8, 37))
                .cluster
                .tail_us
        };
        let central = run(RackPlan::fresh().with_delta(8.0).with_tenants(64, 0.0));
        let dist = run(RackPlan::fresh()
            .with_delta(8.0)
            .with_tenants(64, 0.0)
            .distributed(4));
        assert!(
            central <= dist * 1.02,
            "central p99 {central} should not exceed distributed p99 {dist}"
        );
    }

    #[test]
    fn stealing_rescues_a_weak_placement_policy() {
        // Random placement piles work onto busy servers; idle thieves
        // should claw a large share of the tail back.
        let run = |plan: RackPlan| {
            let mut svc = exp_service(1.0);
            simulate_rack(
                5.6,
                &mut svc,
                BalancerPolicy::Random,
                &plan,
                &fast_opts(8, 41),
            )
        };
        let base = run(RackPlan::fresh());
        let stolen = run(RackPlan::fresh().with_steal(3));
        assert!(stolen.tally.steals > 0, "no steals happened");
        assert!(
            stolen.cluster.tail_us <= base.cluster.tail_us,
            "steal p99 {} vs base p99 {}",
            stolen.cluster.tail_us,
            base.cluster.tail_us
        );
    }

    #[test]
    fn hot_and_cold_tenant_sketches_partition_the_samples() {
        let plan = RackPlan::fresh().with_tenants(128, 0.99);
        let mut svc = exp_service(1.0);
        let r = simulate_rack(3.0, &mut svc, BalancerPolicy::Jsq, &plan, &fast_opts(4, 43));
        assert!(r.tally.hot_requests > 0, "zipf 0.99 must have a hot head");
        assert!(r.tally.hot_requests < r.tally.requests);
        assert_eq!(
            r.hot_sketch.count() + r.cold_sketch.count(),
            r.cluster.samples as u64
        );
        assert_eq!(r.cluster.sketch.count(), r.cluster.samples as u64);
    }

    #[test]
    fn replications_merge_deterministically() {
        let plan = RackPlan::fresh().with_delta(4.0).with_steal(2);
        let part = |seed| {
            let mut svc = exp_service(1.0);
            simulate_rack(
                3.0,
                &mut svc,
                BalancerPolicy::Jsq,
                &plan,
                &fast_opts(4, seed),
            )
        };
        let merged_a = merge_rack_replications(vec![part(1), part(2)], 0.99, 0.95);
        let merged_b = merge_rack_replications(vec![part(1), part(2)], 0.99, 0.95);
        assert_eq!(merged_a.cluster.tail_us, merged_b.cluster.tail_us);
        assert_eq!(merged_a.tally, merged_b.tally);
        assert_eq!(
            merged_a.tally.requests,
            part(1).tally.requests + part(2).tally.requests
        );
    }

    #[test]
    fn saturated_rack_is_a_typed_error() {
        let mut svc = exp_service(1.0);
        let err = try_simulate_rack(
            4.8, // rho = 1.2 on 4 servers
            &mut svc,
            BalancerPolicy::Jsq,
            &RackPlan::fresh(),
            &fast_opts(4, 47),
            &Tracer::disabled(),
        )
        .expect_err("saturated");
        assert!(err.rho_estimate > 1.0);
    }

    #[test]
    fn stale_history_is_pruned_at_record_time_on_a_large_farm() {
        // Power-of-two probes 2 of 1024 servers per placement, so most
        // servers go long stretches unprobed. Their histories must still
        // stay bounded: pruned when they record, not when someone looks.
        let delta = 8.0;
        let servers = 1024;
        let opts = ClusterOptions {
            servers,
            max_samples: 30_000,
            warmup: 10_000,
            seed: 53,
            ..ClusterOptions::default()
        };
        let lambda = servers as f64 * 0.8;
        let tracer = Tracer::disabled();
        for plan in [
            RackPlan::fresh().with_delta(delta),
            RackPlan::fresh().with_delta(delta).with_steal(2),
        ] {
            let mut svc = exp_service(1.0);
            let sim = run_rack(
                HeapEventQueue::new(),
                &mut svc,
                BalancerPolicy::PowerOfD(2),
                &plan,
                &opts,
                &tracer,
                rng_from_seed(opts.seed),
                Exponential::from_rate(lambda),
            );
            assert_eq!(sim.hist.len(), servers);
            for (i, h) in sim.hist.iter().enumerate() {
                let last = h.snaps.back().expect("every server saw work").t;
                let recent = h.snaps.iter().filter(|s| s.t > last - delta).count();
                assert!(
                    h.snaps.len() <= recent + 1,
                    "{plan}: server {i} holds {} snapshots, {recent} within Δ of its last",
                    h.snaps.len()
                );
            }
        }
    }

    #[test]
    fn plan_labels_are_stable() {
        assert_eq!(RackPlan::fresh().label(), "central");
        assert_eq!(RackPlan::fresh().with_delta(4.0).label(), "central_d4");
        assert_eq!(
            RackPlan::fresh()
                .with_delta(4.0)
                .distributed(4)
                .with_tenants(64, 0.99)
                .label(),
            "dist4_d4_z0.99"
        );
        assert_eq!(RackPlan::fresh().with_steal(2).label(), "central_st2");
    }
}
