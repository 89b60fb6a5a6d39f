//! Repository benchmark harness.
//!
//! `perfbench run --workload W --seed S --seconds T --trace 0|1` measures
//! one workload and prints its metrics as one JSON object on the last line
//! of stdout. Every pass over a workload's grid runs in a child process
//! (`perfbench pass ...`) with `DUPLEXITY_LOG=1`, so the parent can read
//! the drivers' own per-phase pool lines from the child's stderr and
//! timestamp them on arrival; see `perfbench/README.md` for the metrics.

mod grid;
mod probes;
mod spans;

use grid::{Grid, Work};
use spans::Spans;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Digests of every workload's artifact at the default seed.
const REFERENCE: &str = include_str!("../reference.txt");
const DEFAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&Args::parse(&args[1..])),
        Some("pass") => pass(&Args::parse(&args[1..])),
        Some("reference") => write_reference(&Args::parse(&args[1..])),
        _ => Err(
            "usage: perfbench run|pass|reference --workload NAME [--seed N] \
                  [--seconds N] [--trace 0|1] [--work-dir DIR]"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = BTreeMap::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => String::from("1"),
                };
                flags.insert(name.to_string(), value);
            }
        }
        Self { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn grid(&self) -> Result<Grid, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Grid::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }

    fn work_dir(&self) -> PathBuf {
        PathBuf::from(
            self.get("work-dir")
                .unwrap_or(".bench_build/perfbench-work"),
        )
    }
}

// ---------------------------------------------------------------------------
// Child: one pass over a grid.

fn pass(args: &Args) -> Result<(), String> {
    let grid = args.grid()?;
    let seed = args.num("seed", DEFAULT_SEED)?;
    let markers = args.get("markers").is_some();
    let cache = args.get("cache").map(duplexity::CellCache::new);
    let t0 = Instant::now();
    let out = grid::run_pass(grid, seed, cache.as_ref(), &mut |name, begin| {
        if markers {
            eprintln!("[perfbench] {} {name}", if begin { "begin" } else { "end" });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let checked = grid::check(grid, &out);
    let work = grid::work(grid, &out);
    let artifact = grid::artifact(&out);
    if let Some(path) = args.get("artifact") {
        std::fs::write(path, &artifact).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let rss_kb = peak_rss_kb().ok_or("VmHWM missing from /proc/self/status")?;
    let (hits, misses) = cache.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()));
    let mut stdout = std::io::stdout().lock();
    for f in &checked.failures {
        writeln!(stdout, "fail {f}").map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "pass wall_s={wall_s} cells={} failed={} digest={} rss_kb={rss_kb} \
         cycles={} requests={} util_lo={} util_hi={} cache_hits={hits} cache_misses={misses}",
        checked.cells,
        checked.failed_cells,
        grid::digest(&artifact),
        work.cycles,
        work.requests,
        checked.util_range.0,
        checked.util_range.1,
    )
    .map_err(|e| e.to_string())
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

// ---------------------------------------------------------------------------
// Parent: spawning passes and reading them back.

/// One `ExecPool` phase line: label, host seconds, and when the parent
/// read it (the phase's end).
#[derive(Debug, Clone)]
struct Phase {
    label: String,
    secs: f64,
    end: f64,
}

#[derive(Debug, Default)]
struct PassResult {
    wall_s: f64,
    cells: u64,
    failed: u64,
    digest: String,
    rss_kb: u64,
    work: Work,
    /// Measured utilization ÷ offered load, lowest and highest farm cell.
    util_range: (f64, f64),
    cache_hits: u64,
    cache_misses: u64,
    failures: Vec<String>,
    phases: Vec<Phase>,
    /// Driver-boundary markers: (time, begin?, driver name).
    marks: Vec<(f64, bool, String)>,
    start: f64,
    end: f64,
}

impl PassResult {
    fn phase_s(&self, suffixes: &[&str]) -> f64 {
        self.phases
            .iter()
            .filter(|p| suffixes.iter().any(|s| p.label.ends_with(s)))
            .map(|p| p.secs)
            .sum()
    }

    /// Host seconds of the measured-cell phases.
    fn measured_s(&self) -> f64 {
        self.phase_s(&["/cells", "/tails", "/points"])
    }

    fn calibrate_s(&self) -> f64 {
        self.phase_s(&["/calibrate"])
    }
}

/// `[duplexity] <label>: <n> cells on <w> workers in <ms>ms (...)`.
fn parse_phase(line: &str) -> Option<(String, f64)> {
    let rest = line.strip_prefix("[duplexity] ")?;
    let (label, tail) = rest.split_once(": ")?;
    let (_, after) = tail.split_once(" workers in ")?;
    let (ms, _) = after.split_once("ms (")?;
    Some((label.to_string(), ms.parse::<f64>().ok()? / 1e3))
}

#[derive(Default)]
struct PassOpts<'a> {
    markers: bool,
    cache: Option<&'a Path>,
    artifact: Option<&'a Path>,
}

fn spawn_pass(
    grid: Grid,
    seed: u64,
    opts: &PassOpts,
    epoch: Instant,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "pass",
        "--workload",
        grid.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if opts.markers {
        cmd.arg("--markers");
    }
    if let Some(dir) = opts.cache {
        cmd.arg("--cache").arg(dir);
    }
    if let Some(path) = opts.artifact {
        cmd.arg("--artifact").arg(path);
    }
    cmd.env("DUPLEXITY_LOG", "1")
        .env("DUPLEXITY_PROGRESS", "0")
        .env_remove("DUPLEXITY_CACHE")
        .env_remove("DUPLEXITY_THREADS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = epoch.elapsed().as_secs_f64();
    let mut child = cmd.spawn().map_err(|e| format!("spawning pass: {e}"))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    // Stamp every stderr line as it arrives: pool lines are printed as a
    // phase ends, markers as a driver call begins or ends.
    let reader = std::thread::spawn(move || {
        BufReader::new(stderr)
            .lines()
            .map_while(Result::ok)
            .map(|l| (epoch.elapsed().as_secs_f64(), l))
            .collect::<Vec<_>>()
    });
    let mut stdout = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut().expect("stdout is piped"), &mut stdout)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let end = epoch.elapsed().as_secs_f64();
    let lines = reader.join().map_err(|_| "stderr reader panicked")?;
    if !status.success() {
        let tail: Vec<&str> = lines
            .iter()
            .rev()
            .take(20)
            .map(|(_, l)| l.as_str())
            .collect();
        return Err(format!(
            "pass for {} exited with {status}: {}",
            grid.name(),
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let mut r = PassResult {
        start,
        end,
        ..PassResult::default()
    };
    for (t, line) in &lines {
        if let Some((label, secs)) = parse_phase(line) {
            r.phases.push(Phase {
                label,
                secs,
                end: *t,
            });
        } else if let Some(rest) = line.strip_prefix("[perfbench] ") {
            if let Some((kind, name)) = rest.split_once(' ') {
                r.marks.push((*t, kind == "begin", name.to_string()));
            }
        }
    }
    let mut seen = false;
    for line in stdout.lines() {
        if let Some(f) = line.strip_prefix("fail ") {
            r.failures.push(f.to_string());
        } else if let Some(kv) = line.strip_prefix("pass ") {
            seen = true;
            for field in kv.split_whitespace() {
                let (k, v) = field.split_once('=').ok_or("malformed pass line")?;
                let num = || v.parse::<f64>().map_err(|_| format!("bad {k}={v}"));
                match k {
                    "wall_s" => r.wall_s = num()?,
                    "cells" => r.cells = num()? as u64,
                    "failed" => r.failed = num()? as u64,
                    "digest" => r.digest = v.to_string(),
                    "rss_kb" => r.rss_kb = num()? as u64,
                    "cycles" => r.work.cycles = num()?,
                    "util_lo" => r.util_range.0 = num()?,
                    "util_hi" => r.util_range.1 = num()?,
                    "requests" => r.work.requests = num()?,
                    "cache_hits" => r.cache_hits = num()? as u64,
                    "cache_misses" => r.cache_misses = num()? as u64,
                    _ => {}
                }
            }
        }
    }
    if !seen {
        return Err("pass printed no result line".into());
    }
    Ok(r)
}

fn reference_digest(grid: Grid, seed: u64) -> Option<&'static str> {
    REFERENCE.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == grid.name() && s.parse::<u64>().ok()? == seed).then_some(d)
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `.git/HEAD` resolved to a commit id, when the working directory is a
/// git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the result line; a metric that is not a finite number makes the
/// run incorrect.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let grid = args.grid()?;
    let seed = args.num("seed", DEFAULT_SEED)?;
    let seconds = args.num("seconds", 36.0_f64)?;
    let trace = args.num("trace", 0_u8)? != 0;
    let work_dir = args.work_dir();
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {}, \"commit\": \"{}\"}}}}",
        grid.name(),
        u8::from(trace),
        grid::THREADS,
        git_commit()
    );
    if trace {
        traced(grid, seed, &work_dir)
    } else {
        untraced(grid, seed, seconds)
    }
}

/// Repeats passes for about `seconds` and reports each end-to-end metric
/// as the median over passes. A pass starts only if it would end less than
/// half a pass past `seconds`, so a run lasts `seconds` ± half a pass.
fn untraced(grid: Grid, seed: u64, seconds: f64) -> Result<(), String> {
    let epoch = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    while passes
        .last()
        .is_none_or(|p| epoch.elapsed().as_secs_f64() + (p.end - p.start) / 2.0 < seconds)
    {
        passes.push(spawn_pass(grid, seed, &PassOpts::default(), epoch)?);
    }
    for p in &passes {
        let util = if p.util_range.0.is_nan() {
            String::new()
        } else {
            format!(
                " utilization/load {:.3}..{:.3}",
                p.util_range.0, p.util_range.1
            )
        };
        eprintln!(
            "perfbench: pass wall {:.3}s setup {:.3}s rss {} kB{util}",
            p.wall_s,
            p.wall_s - p.measured_s(),
            p.rss_kb,
        );
    }
    let attempted: u64 = passes.iter().map(|p| p.cells).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut correct = failed == 0;
    let reference = (seed == DEFAULT_SEED).then(|| reference_digest(grid, seed));
    for p in &passes {
        for f in &p.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        if p.digest != passes[0].digest {
            eprintln!(
                "perfbench: pass digests differ ({} vs {})",
                p.digest, passes[0].digest
            );
            correct = false;
        }
    }
    if let Some(expected) = reference {
        if expected != Some(passes[0].digest.as_str()) {
            eprintln!(
                "perfbench: digest {} does not match the reference {:?} for seed {seed}",
                passes[0].digest, expected
            );
            correct = false;
        }
    }
    let per = |f: &dyn Fn(&PassResult) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let metrics = [
        metric("wall_s", per(&|p| p.wall_s), "s"),
        metric("setup_s", per(&|p| p.wall_s - p.measured_s()), "s"),
        metric("peak_rss_mb", per(&|p| p.rss_kb as f64 / 1024.0), "MB"),
        metric(
            "cells_ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        metric(
            "sim_mcycles_per_s",
            per(&|p| sim_rates(grid, p).0),
            "Mcycles/s",
        ),
        metric("sim_mreq_per_s", per(&|p| sim_rates(grid, p).1), "Mreq/s"),
    ];
    eprintln!(
        "perfbench: {} passes of {} in {:.1}s",
        passes.len(),
        grid.name(),
        epoch.elapsed().as_secs_f64(),
    );
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}

/// Simulated Mcycles and Mrequests per host second of the phases that
/// simulate them. fig5's measured cycles are its cells and its requests
/// the M/G/1 tails; the farms simulate cycles only to calibrate.
fn sim_rates(grid: Grid, p: &PassResult) -> (f64, f64) {
    let (cycle_phase, request_phase) = match grid {
        Grid::Fig5Cycle => ("/cells", "/tails"),
        Grid::FarmSmall | Grid::FarmLarge => ("/calibrate", "/points"),
    };
    (
        p.work.cycles / p.phase_s(&[cycle_phase]) / 1e6,
        p.work.requests / p.phase_s(&[request_phase]) / 1e6,
    )
}

/// Maps a pool phase to the layer whose engine runs inside it.
fn phase_layer(label: &str) -> &'static str {
    if label.ends_with("/calibrate") || label.ends_with("/cells") {
        "cpu"
    } else {
        "queueing"
    }
}

/// The traced run: an untraced pass, a pass with driver-boundary spans,
/// the grid through a cold then a warm cell cache, and the layer probes.
fn traced(grid: Grid, seed: u64, work_dir: &Path) -> Result<(), String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut correct = true;
    let mut fail = |why: String| {
        eprintln!("perfbench: check failed: {why}");
        correct = false;
    };
    let tag = format!("{}-{seed}-{}", grid.name(), std::process::id());
    let artifact_path = |name: &str| work_dir.join(format!("artifact-{tag}-{name}.txt"));
    let cache_dir = work_dir.join(format!("cache-{tag}"));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let plain = spawn_pass(
        grid,
        seed,
        &PassOpts {
            artifact: Some(&artifact_path("plain")),
            ..PassOpts::default()
        },
        epoch,
    )?;
    spans.record("perfbench.pass.untraced", plain.start, plain.end);

    let spanned = spawn_pass(
        grid,
        seed,
        &PassOpts {
            markers: true,
            ..PassOpts::default()
        },
        epoch,
    )?;
    let root = spans.begin_at("perfbench.pass.traced", spanned.start);
    let mut phases = spanned.phases.iter().peekable();
    let mut open: Option<(usize, f64)> = None;
    for (t, begin, name) in &spanned.marks {
        if *begin {
            open = Some((spans.begin_at(name, *t), *t));
            continue;
        }
        // Pool lines print durations rounded to 0.1 ms; a phase never
        // starts before the driver call that runs it.
        let driver_start = open.map_or(spanned.start, |(_, s)| s);
        while let Some(p) = phases.next_if(|p| p.end <= *t + 1e-6) {
            let name = format!("{}:{}", phase_layer(&p.label), p.label);
            spans.record(&name, (p.end - p.secs).max(driver_start), p.end);
        }
        if let Some((id, _)) = open.take() {
            spans.end_at(id, *t);
        }
    }
    spans.end_at(root, spanned.end);

    let cold = spawn_pass(
        grid,
        seed,
        &PassOpts {
            cache: Some(&cache_dir),
            artifact: Some(&artifact_path("cold")),
            ..PassOpts::default()
        },
        epoch,
    )?;
    spans.record("core.cellcache.cold", cold.start, cold.end);
    let warm = spawn_pass(
        grid,
        seed,
        &PassOpts {
            cache: Some(&cache_dir),
            artifact: Some(&artifact_path("warm")),
            ..PassOpts::default()
        },
        epoch,
    )?;
    spans.record("core.cellcache.warm", warm.start, warm.end);

    let probes = spans.begin("perfbench.probes");
    let cpu = probes::cpu(grid, seed, &mut spans);
    let queue = probes::queueing(grid, seed, &mut spans);
    spans.end(probes);

    // Correctness of everything the traced run executed.
    let read = |name: &str| std::fs::read(artifact_path(name)).map_err(|e| e.to_string());
    let (a_plain, a_cold, a_warm) = (read("plain")?, read("cold")?, read("warm")?);
    for p in [&plain, &spanned, &cold, &warm] {
        for f in &p.failures {
            fail(f.clone());
        }
    }
    if spanned.digest != plain.digest {
        fail("the pass with spans changed the simulated outputs".into());
    }
    if a_cold != a_plain || a_warm != a_plain {
        fail("cached passes are not byte-identical to the uncached pass".into());
    }
    if cold.cache_hits != 0 || warm.cache_misses != 0 {
        fail(format!(
            "cache: {} cold hits, {} warm misses (want 0 and 0)",
            cold.cache_hits, warm.cache_misses
        ));
    }
    if seed == DEFAULT_SEED && reference_digest(grid, seed) != Some(plain.digest.as_str()) {
        fail(format!(
            "digest {} does not match the reference",
            plain.digest
        ));
    }
    if grid == Grid::Fig5Cycle {
        let text = String::from_utf8_lossy(&a_plain);
        let util: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("fig5 "))
            .filter_map(|l| l.split_whitespace().nth(4))
            .filter_map(|h| u64::from_str_radix(h, 16).ok().map(f64::from_bits))
            .collect();
        if !probes::fig5_matches(&cpu, &util) {
            fail("probe cells do not reproduce the driver's fig5 cells".into());
        }
    }
    for name in ["plain", "cold", "warm"] {
        let _ = std::fs::remove_file(artifact_path(name));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Per-layer self time of the traced pass. Phase spans belong to the
    // layer whose engine they run; the component probes' per-unit costs
    // carve the kernel/filler builds out of cpu and the draws and latency
    // records out of queueing.
    let workloads_s = cpu.build_ms * grid.serversim_runs() / 1e3;
    let stats_s = queue.draw_ns_per_req * spanned.work.requests / 1e9;
    let obs_s = queue.record_ns_per_req * spanned.work.requests / 1e9;
    let driver_s: f64 = spans
        .spans
        .iter()
        .filter(|s| s.name.starts_with("core."))
        .filter(|s| s.parent == Some(root))
        .map(|s| s.end - s.start)
        .sum();
    let phase_total: f64 = spanned.phases.iter().map(|p| p.secs).sum();
    let layers = vec![
        ("core".to_string(), spanned.wall_s - phase_total),
        ("cpu".to_string(), spans.self_time_of("cpu:") - workloads_s),
        ("workloads".to_string(), workloads_s),
        (
            "queueing".to_string(),
            spans.self_time_of("queueing:") - stats_s - obs_s,
        ),
        ("stats".to_string(), stats_s),
        ("obs".to_string(), obs_s),
    ];
    // The split is an identity (the layers sum to the traced pass) plus
    // probe extrapolations; a negative share means a carve-out overshot.
    for (name, secs) in &layers {
        if *secs < 0.0 {
            fail(format!("{name} self time is negative ({secs:.4} s)"));
        }
    }
    let layer = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |l| l.1)
    };
    let rate = |cycles: f64, secs: f64| cycles / secs / 1e6;
    let engine_s: f64 = cpu.seconds.iter().sum();
    let metrics = [
        metric("core.calibrate_s", spanned.calibrate_s(), "s"),
        metric(
            "core.driver_self_frac",
            (driver_s - phase_total) / driver_s,
            "fraction",
        ),
        // Both uncached passes are the reference for the cold pass: one
        // pass pair alone mostly measures host noise.
        metric(
            "core.cellcache.cold_overhead_frac",
            2.0 * cold.wall_s / (plain.wall_s + spanned.wall_s) - 1.0,
            "fraction",
        ),
        metric("core.cellcache.warm_s", warm.wall_s, "s"),
        metric(
            "core.cellcache.warm_hit_frac",
            warm.cache_hits as f64 / (warm.cache_hits + warm.cache_misses).max(1) as f64,
            "fraction",
        ),
        metric("core.self_s", layer("core"), "s"),
        metric(
            "cpu.ooo.mcycles_per_s",
            rate(cpu.cycles[0], cpu.seconds[0]),
            "Mcycles/s",
        ),
        metric(
            "cpu.smt.mcycles_per_s",
            rate(cpu.cycles[1], cpu.seconds[1]),
            "Mcycles/s",
        ),
        metric(
            "cpu.dyad.mcycles_per_s",
            rate(cpu.cycles[2], cpu.seconds[2]),
            "Mcycles/s",
        ),
        metric("cpu.dyad.time_frac", cpu.seconds[2] / engine_s, "fraction"),
        metric("cpu.ff_speedup", cpu.naive_s / cpu.ff_s, "x"),
        metric("cpu.muops_retired", cpu.muops_retired as f64, "count"),
        metric("cpu.requests_done", cpu.requests_done as f64, "count"),
        metric("cpu.self_s", layer("cpu"), "s"),
        metric("uarch.l1d_miss_ratio", cpu.l1d_miss_ratio, "ratio"),
        metric("uarch.llc_miss_ratio", cpu.llc_miss_ratio, "ratio"),
        metric("uarch.mispredict_rate", cpu.mispredict_rate, "ratio"),
        metric("workloads.build_ms_per_cell", cpu.build_ms, "ms"),
        metric("workloads.self_s", layer("workloads"), "s"),
        metric(
            "queueing.lindley.mreq_per_s",
            rate(queue.requests[0], queue.seconds[0]),
            "Mreq/s",
        ),
        metric(
            "queueing.hedged.mreq_per_s",
            rate(queue.requests[1], queue.seconds[1]),
            "Mreq/s",
        ),
        metric(
            "queueing.rack.mreq_per_s",
            rate(queue.requests[2], queue.seconds[2]),
            "Mreq/s",
        ),
        metric(
            "queueing.mg1.mreq_per_s",
            rate(queue.mg1_requests, queue.mg1_seconds),
            "Mreq/s",
        ),
        metric(
            "queueing.large_vs_small_ns_ratio",
            queue.large_vs_small,
            "x",
        ),
        metric(
            "queueing.eventq.ops_per_req",
            queue.eventq_ops_per_req,
            "count",
        ),
        metric(
            "queueing.dup_useful_frac",
            queue.dup_useful_frac,
            "fraction",
        ),
        metric(
            "queueing.steal_success_frac",
            queue.steal_success_frac,
            "fraction",
        ),
        metric("queueing.self_s", layer("queueing"), "s"),
        metric("stats.draw_ns_per_req", queue.draw_ns_per_req, "ns"),
        metric("stats.self_s", layer("stats"), "s"),
        metric("obs.record_ns_per_req", queue.record_ns_per_req, "ns"),
        metric(
            "obs.tracing_overhead_frac",
            spanned.wall_s / plain.wall_s - 1.0,
            "fraction",
        ),
        metric("obs.self_s", layer("obs"), "s"),
    ];

    let out = work_dir.join(format!("trace-{}-{seed}.json", grid.name()));
    let title = format!("perfbench {} seed {seed}", grid.name());
    std::fs::write(&out, spans.chrome_json(&title, &layers))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "perfbench: traced run of {} in {:.1}s, spans in {}; layer self s: {}",
        grid.name(),
        epoch.elapsed().as_secs_f64(),
        out.display(),
        layers
            .iter()
            .map(|(n, s)| format!("{n}={s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let attempted = plain.cells + spanned.cells + cold.cells + warm.cells;
    let failed = plain.failed + spanned.failed + cold.failed + warm.failed;
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}

/// Writes the artifact digest of every workload at the default seed.
fn write_reference(args: &Args) -> Result<(), String> {
    let path = args.get("out").unwrap_or("perfbench/reference.txt");
    let mut text = String::from("# workload seed digest (FNV-1a 64 of the pass artifact)\n");
    for grid in Grid::ALL {
        let t0 = Instant::now();
        let out = grid::run_pass(grid, DEFAULT_SEED, None, &mut |_, _| {});
        let secs = t0.elapsed().as_secs_f64();
        let digest = grid::digest(&grid::artifact(&out));
        eprintln!("{} {digest} ({secs:.1}s)", grid.name());
        text.push_str(&format!("{} {DEFAULT_SEED} {digest}\n", grid.name()));
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}
