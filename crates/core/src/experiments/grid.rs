//! The grid driver shared by the request-domain sweeps.
//!
//! The latency–load, fault, cluster, hedge and rack sweeps all follow the
//! paper's two-stage method (§V): measure each design's service on the
//! cycle simulator, then feed it to a BigHouse-style queueing simulation
//! per grid cell. This module holds everything they have in common, so a
//! driver is its options, its point type, a per-cell function and a
//! payload codec:
//!
//! * [`validate_axes`] — the drivers' documented panics;
//! * [`lexicographic`] — the grid's cells, last axis fastest;
//! * [`cell_seed`] — common-random-number seeds for a cell and its
//!   replications;
//! * [`CachedGrid`] — probe the cell cache, calibrate the designs the
//!   misses need ([`CachedGrid::calibrate`]), run the misses with their
//!   replications flattened into one pool run, merge, store, and
//!   interleave the cached hits back in grid order
//!   ([`CachedGrid::run`]).
//!
//! Cold, warm and mixed cache runs are byte-identical at any worker count:
//! every cell is a pure function of its options and coordinates, and the
//! calibration of a design is a pure function of (design, workload,
//! horizon, seed), so calibrating only the designs a run still needs
//! changes no result.

use crate::cellcache::{assemble, miss_indices, CellCache, CellKey, PayloadReader, PayloadWriter};
use crate::exec::ExecPool;
use crate::server::ServerSim;
use duplexity_cpu::designs::Design;
use duplexity_stats::rng::derive_stream;
use duplexity_workloads::Workload;

/// Seed stream of every saturated calibration run: all designs run from
/// the same seed, so their slowdowns are paired.
const CALIBRATION_STREAM: u64 = 0x53E9;

/// The load's contribution to a cell seed: its truncated thousandths.
fn load_key(load: f64) -> u64 {
    (load * 1000.0) as u64
}

/// Checks a driver's axes before any work starts: `cells` is the size of
/// its grid, `designs` the design axis of drivers that calibrate,
/// `server_counts` the cluster sizes (empty for single-server drivers).
///
/// # Panics
///
/// Panics with `empty {what}` if the grid is empty (an axis is), if `designs` omits
/// [`Design::Baseline`] (the slowdown reference), if a server count is
/// zero, or if two distinct loads share a seed — [`cell_seed`] keys a
/// load by its truncated thousandths, so loads closer than 0.001 (e.g.
/// `0.5` and `0.5004`) would silently run on the same random numbers.
pub(crate) fn validate_axes(
    what: &str,
    cells: usize,
    designs: Option<&[Design]>,
    server_counts: &[usize],
    loads: &[f64],
) {
    assert!(cells > 0, "empty {what}");
    if let Some(designs) = designs {
        assert!(
            designs.contains(&Design::Baseline),
            "baseline required as the slowdown reference"
        );
    }
    assert!(
        server_counts.iter().all(|&n| n >= 1),
        "cluster sizes must be >= 1"
    );
    for (i, &a) in loads.iter().enumerate() {
        for &b in &loads[..i] {
            assert!(
                a == b || load_key(a) != load_key(b),
                "loads {b} and {a} share a seed: loads closer than 0.001 \
                 map to the same common-random-number stream"
            );
        }
    }
}

/// Every index tuple of a grid whose axes have lengths `lens`, in
/// lexicographic order (last axis fastest). Empty if any axis is.
pub(crate) fn lexicographic<const N: usize>(lens: [usize; N]) -> impl Iterator<Item = [usize; N]> {
    (0..lens.iter().product::<usize>()).map(move |mut flat| {
        let mut index = [0; N];
        for (slot, len) in index.iter_mut().zip(lens).rev() {
            *slot = flat % len;
            flat /= len;
        }
        index
    })
}

/// Replication `index` of the `count` a cell runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Replica {
    /// Position in replication (and merge) order.
    pub index: usize,
    /// Replications per cell (at least 1).
    pub count: usize,
}

impl Replica {
    /// This replication's share of a cell's sample budget.
    pub fn samples(self, budget: usize) -> usize {
        budget.div_ceil(self.count)
    }
}

/// The queueing seed of one replication of a grid cell.
///
/// The cell seed is `derive_stream(seed, stream ^ load ^ servers << 32)`
/// with the load keyed by its truncated thousandths and `servers` `0` for
/// single-server drivers. It depends on the (load, cluster size)
/// coordinates only — never on the design, policy or plan — so every cell
/// at those coordinates sees the same marked point process (common random
/// numbers) and the other axes are paired comparisons. A lone replication
/// runs on the cell seed itself (the historical stream); replication `i`
/// of `R > 1` on `derive_stream(cell_seed, 1 + i)`.
pub(crate) fn cell_seed(seed: u64, stream: u64, load: f64, servers: usize, rep: Replica) -> u64 {
    let cell = derive_stream(seed, stream ^ load_key(load) ^ ((servers as u64) << 32));
    if rep.count == 1 {
        cell
    } else {
        derive_stream(cell, 1 + rep.index as u64)
    }
}

/// A driver's grid after the cache probe: its cells (type `C`) in grid
/// order, their keys, and the decoded hits (type `P`, the driver's point).
pub(crate) struct CachedGrid<'a, C, P> {
    name: &'static str,
    pool: ExecPool,
    cells: Vec<C>,
    keys: Vec<CellKey>,
    hits: Vec<Option<P>>,
    cache: Option<&'a CellCache>,
}

impl<'a, C: Sync, P> CachedGrid<'a, C, P> {
    /// Probes `cache` (if any) for every cell under its key (`keys` is
    /// parallel to `cells`), decoding a hit's payload with `decode`, which
    /// gets the cell's coordinates and must read the payload back exactly
    /// (trailing fields are a miss).
    /// `name` is the driver's name; its pool phases are `{name}/calibrate`
    /// and `{name}/points`, on a pool of `threads` workers.
    pub fn probe(
        name: &'static str,
        threads: usize,
        cells: Vec<C>,
        keys: Vec<CellKey>,
        cache: Option<&'a CellCache>,
        decode: impl Fn(&C, &mut PayloadReader) -> Option<P>,
    ) -> Self {
        let pool = ExecPool::new(threads);
        let hits = match cache {
            Some(cache) => cells
                .iter()
                .zip(&keys)
                .map(|(cell, key)| {
                    cache.probe_one(key, |payload| {
                        let mut r = PayloadReader::new(payload);
                        decode(cell, &mut r).filter(|_| r.done())
                    })
                })
                .collect(),
            None => cells.iter().map(|_| None).collect(),
        };
        Self {
            name,
            pool,
            cells,
            keys,
            hits,
            cache,
        }
    }

    /// Per-design compute slowdowns against [`Design::Baseline`], indexed
    /// like `designs`; `design_of` gives a cell's design index.
    ///
    /// One saturated cycle-level run of `horizon_cycles` per design (seed
    /// stream `0x53E9`) measures its mean service; the slowdown is the
    /// ratio of the compute parts (mean service minus the workload's mean
    /// stall, each floored at 0.05 µs), clamped to [1, 6]. Only designs
    /// with a missed cell run, plus the baseline that anchors them when
    /// anything missed; the others — and any design whose run completes
    /// fewer than 10 requests — read 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `designs` omits the baseline (see [`validate_axes`]).
    pub fn calibrate(
        &self,
        workload: Workload,
        designs: &[Design],
        horizon_cycles: u64,
        seed: u64,
        design_of: impl Fn(&C) -> usize,
    ) -> Vec<f64> {
        let mut needed = vec![false; designs.len()];
        for (cell, hit) in self.cells.iter().zip(&self.hits) {
            if hit.is_none() {
                needed[design_of(cell)] = true;
            }
        }
        let base = designs
            .iter()
            .position(|&d| d == Design::Baseline)
            .expect("baseline required as the slowdown reference");
        if needed.contains(&true) {
            needed[base] = true;
        }
        let needed: Vec<usize> = (0..designs.len()).filter(|&i| needed[i]).collect();
        let services = self
            .pool
            .run(&format!("{}/calibrate", self.name), needed.len(), |j| {
                let m = ServerSim::new(designs[needed[j]], workload)
                    .saturated()
                    .horizon_cycles(horizon_cycles)
                    .seed(derive_stream(seed, CALIBRATION_STREAM))
                    .run();
                let lat = &m.request_latencies_us;
                (lat.len() >= 10).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
            });
        let stall = workload.service_model().mean_stall_us();
        let base_service = needed
            .iter()
            .position(|&di| di == base)
            .and_then(|j| services[j]);
        let mut slowdowns = vec![1.0; designs.len()];
        for (&di, service) in needed.iter().zip(services) {
            if let (Some(b), Some(m)) = (base_service, service) {
                let (bc, mc) = ((b - stall).max(0.05), (m - stall).max(0.05));
                slowdowns[di] = (mc / bc).clamp(1.0, 6.0);
            }
        }
        slowdowns
    }

    /// Runs every missed cell and returns all points in grid order.
    ///
    /// The misses' `replications` (at least 1) flatten cell-major into one
    /// `{name}/points` pool run of `run(cell, replica)` calls, where `None`
    /// means the replication saturated. A cell's replications then merge in
    /// replication order — a lone replication passes through untouched,
    /// several go through `merge` — and `point` turns the result (`None`
    /// if any replication saturated) into the cell's point. Fresh points
    /// are stored with `encode` and interleaved with the cached hits.
    pub fn run<R: Send>(
        self,
        replications: usize,
        run: impl Fn(&C, Replica) -> Option<R> + Sync,
        merge: impl Fn(Vec<R>) -> R,
        point: impl Fn(&C, Option<R>) -> P,
        encode: impl Fn(&P, &mut PayloadWriter),
    ) -> Vec<P> {
        let reps = replications.max(1);
        let misses = miss_indices(&self.hits);
        let label = format!("{}/points", self.name);
        let runs = self.pool.run(&label, misses.len() * reps, |w| {
            let replica = Replica {
                index: w % reps,
                count: reps,
            };
            run(&self.cells[misses[w / reps]], replica)
        });
        let mut runs = runs.into_iter();
        let fresh: Vec<P> = misses
            .iter()
            .map(|&i| {
                // Take all of the cell's replications before checking them,
                // so the next cell starts at its own first replication.
                let parts: Vec<Option<R>> = runs.by_ref().take(reps).collect();
                let merged = parts
                    .into_iter()
                    .collect::<Option<Vec<R>>>()
                    .map(|mut parts| {
                        if parts.len() == 1 {
                            parts.pop().expect("one replication")
                        } else {
                            merge(parts)
                        }
                    });
                point(&self.cells[i], merged)
            })
            .collect();
        if let Some(cache) = self.cache {
            for (&i, p) in misses.iter().zip(&fresh) {
                let mut w = PayloadWriter::new();
                encode(p, &mut w);
                cache.store(&self.keys[i], &w.finish());
            }
        }
        assemble(self.hits, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_runs_the_last_axis_fastest() {
        let cells: Vec<[usize; 3]> = lexicographic([2, 1, 3]).collect();
        assert_eq!(
            cells,
            vec![
                [0, 0, 0],
                [0, 0, 1],
                [0, 0, 2],
                [1, 0, 0],
                [1, 0, 1],
                [1, 0, 2]
            ]
        );
        assert_eq!(lexicographic([3, 0, 2]).count(), 0);
    }

    #[test]
    fn lone_replication_runs_on_the_cell_seed() {
        let one = Replica { index: 0, count: 1 };
        let cell = derive_stream(42, 0x7E57 ^ 500 ^ (16 << 32));
        assert_eq!(cell_seed(42, 0x7E57, 0.5, 16, one), cell);
        let second = Replica { index: 1, count: 3 };
        assert_eq!(
            cell_seed(42, 0x7E57, 0.5, 16, second),
            derive_stream(cell, 2)
        );
        assert_eq!(second.samples(10), 4);
    }

    #[test]
    fn repeated_and_distinct_loads_pass() {
        validate_axes("sweep", 3, None, &[], &[0.5, 0.5, 0.501]);
    }
}
