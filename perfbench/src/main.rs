//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): time the set-up at least three times and for at
//! least a second, discard one warm-up engine run, then time whole engine
//! runs until `--seconds` have passed and report the end-to-end metrics
//! (medians over runs).
//!
//! Traced (`--trace 1`): alternate untraced and probed engine runs for
//! `--seconds`, rerun sharded workloads on one worker, then report the
//! per-layer metrics.
//!
//! Both modes run the output check. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `attempted` counts timed engine runs and `failed` those that returned
//! an error.

use perfbench::check::{check_identical, check_quality, check_run, Quality};
use perfbench::layers::{op_timings, replay_local};
use perfbench::workload::Workload;
use perfbench::{median, peak_rss_mb, run, setup, Run, RunOptions, Setup};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repeats per process, at the least, and the least time they take;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Timed engine runs per process, at the least.
const MIN_RUNS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--workload" => workload = Some(value),
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric rows: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Engine runs until `seconds` have passed and at least `min_runs` ran;
/// run `j` uses the options `plan(j)` returns.
fn timed_runs(
    w: &Workload,
    s: &Setup,
    seconds: f64,
    min_runs: usize,
    plan: impl Fn(usize) -> RunOptions,
) -> Vec<Run> {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min_runs || started.elapsed().as_secs_f64() < seconds {
        let r = run(w, &s.dataset, plan(runs.len()));
        eprintln!(
            "[perfbench] {} run {}: {:.3} s",
            w.name,
            runs.len(),
            r.wall_s
        );
        runs.push(r);
    }
    runs
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let s = match setup(&w, SETUP_REPEATS, SETUP_SECONDS) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "[perfbench] {} seed {}: set-up {:.3} s (dealer {:.3} s)",
        w.name,
        args.seed,
        median(&s.setup_s),
        median(&s.dealer_s)
    );

    let warm_up = run(&w, &s.dataset, RunOptions::default());
    // Read after a fixed amount of work: later runs only add allocator
    // fragmentation, and how many of them fit in `--seconds` varies.
    let peak_rss_mb = peak_rss_mb();
    eprintln!("[perfbench] {} warm-up: {:.3} s", w.name, warm_up.wall_s);
    let mut problems = check_run(&w, &warm_up);

    // Traced mode alternates untraced and traced runs.
    let runs = timed_runs(&w, &s, args.seconds, MIN_RUNS, |j| RunOptions {
        traced: args.trace && j % 2 == 1,
        ..RunOptions::default()
    });
    for r in &runs {
        problems.extend(check_run(&w, r));
    }
    let mut all: Vec<&Run> = vec![&warm_up];
    all.extend(runs.iter());
    problems.extend(check_identical(&all, "repeat runs"));

    let quality = warm_up
        .output
        .as_ref()
        .ok()
        .map(|out| Quality::of(&w, &s.dataset, out));
    if let Some(q) = &quality {
        eprintln!(
            "[perfbench] {} ARI {:.3}, inertia ratio {:.3}, cluster sizes {:?}",
            w.name, q.ari_vs_truth, q.inertia_ratio, q.cluster_sizes
        );
        problems.extend(check_quality(&w, q));
    }

    let metrics = if args.trace {
        if w.is_sharded() {
            let single = run(
                &w,
                &s.dataset,
                RunOptions {
                    workers: Some(1),
                    ..RunOptions::default()
                },
            );
            eprintln!("[perfbench] {} workers=1: {:.3} s", w.name, single.wall_s);
            problems.extend(check_identical(&[&warm_up, &single], "workers: 1"));
        }
        traced_metrics(&w, &s, &runs, quality.as_ref())
    } else {
        Ok(end_to_end_metrics(&w, &s, &runs, peak_rss_mb))
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &problems {
        eprintln!("[perfbench] CHECK FAILED: {p}");
    }
    let failed = runs.iter().filter(|r| r.output.is_err()).count();
    print_result(problems.is_empty(), runs.len(), failed, &metrics);
    ExitCode::SUCCESS
}

fn end_to_end_metrics(w: &Workload, s: &Setup, runs: &[Run], peak_rss_mb: f64) -> Metrics {
    let n = w.population as f64;
    let probe = &runs[0].probe;
    let wall: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let attempted: u64 = runs.iter().map(|r| r.probe.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.probe.failed).sum();
    let mut m = Metrics::new();
    push(&mut m, "setup_s", median(&s.setup_s), "s");
    push(&mut m, "run_s", median(&wall), "s");
    push(&mut m, "peak_rss_mb", peak_rss_mb, "MiB");
    push(&mut m, "bytes_per_participant", probe.bytes as f64 / n, "B");
    push(
        &mut m,
        "messages_per_participant",
        probe.messages as f64 / n,
        "count",
    );
    push(
        &mut m,
        "served_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m
}

fn traced_metrics(
    w: &Workload,
    s: &Setup,
    runs: &[Run],
    quality: Option<&Quality>,
) -> Result<Metrics, String> {
    let (plain, traced): (Vec<&Run>, Vec<&Run>) =
        runs.iter().partition(|r| r.probe.layers.is_none());
    let out = traced[0].output.as_ref().map_err(|e| e.to_string())?;
    let probe = &traced[0].probe;
    let layers = probe.layers.as_ref().expect("traced run");
    let plain_s = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let step_s = median(&traced.iter().map(|r| r.probe.step_s).collect::<Vec<_>>());
    let overhead_s = median(
        &traced
            .iter()
            .map(|r| r.probe.layers.as_ref().map_or(0.0, |l| l.overhead_s))
            .collect::<Vec<_>>(),
    );
    let dealer_s = median(&s.dealer_s);
    let (contribution_s, assign_s) = replay_local(w, &s.dataset, out);
    let ops = op_timings(w, &s.dataset, &s.crypto).map_err(|e| e.to_string())?;

    let metrics = &layers.metrics;
    let cross = metrics.counter("exec.deliveries.cross_shard") as f64;
    let codec_s = ops.frame_us * 1e-6 * cross;
    let hist = |name: &str, q: f64| {
        metrics
            .histogram(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    let workers = match &w.sharded {
        None => 1,
        Some(cfg) if cfg.workers > 0 => cfg.workers,
        Some(cfg) => std::thread::available_parallelism()
            .map_or(1, |v| v.get())
            .min(cfg.shards.min(w.population)),
    };
    let phases = &layers.phases;
    // Randomizer pools are filled while the executor builds its nodes,
    // outside every phase clock: one randomizer per encryption and per
    // re-randomization.
    let pool_s =
        ops.randomizer_us * 1e-6 * (layers.ops.encryptions + layers.ops.rerandomizations) as f64;
    let attributed = phases.total_ns() as f64 * 1e-9 + codec_s + layers.audit_s + pool_s;

    let mut m = Metrics::new();
    push(&mut m, "engine.step_s", step_s, "s");
    push(
        &mut m,
        "engine.local_s",
        traced_s - step_s - dealer_s - overhead_s,
        "s",
    );
    push(&mut m, "engine.dealer_s", dealer_s, "s");
    push(&mut m, "engine.iterations", out.iterations as f64, "count");
    push(&mut m, "dp.contribution_s", contribution_s, "s");
    push(&mut m, "kmeans.assign_s", assign_s, "s");
    push(
        &mut m,
        "gossip.messages",
        layers.gossip.messages as f64,
        "count",
    );
    push(&mut m, "gossip.bytes", layers.gossip.bytes as f64, "B");
    push(
        &mut m,
        "gossip.dropped",
        layers.gossip.dropped as f64,
        "count",
    );
    for name in ["in_shard", "cross_shard"] {
        let key = format!("exec.deliveries.{name}");
        push(&mut m, &key, metrics.counter(&key) as f64, "count");
    }
    push(
        &mut m,
        "exec.epochs",
        metrics.counter("exec.epochs") as f64,
        "count",
    );
    let wait = metrics.histogram("exec.epoch.wait_ns");
    push(
        &mut m,
        "exec.epoch.wait_s",
        wait.map_or(0.0, |h| h.sum as f64 * 1e-9),
        "s",
    );
    push(
        &mut m,
        "exec.epoch.wait.p50_us",
        hist("exec.epoch.wait_ns", 0.5) * 1e-3,
        "us",
    );
    push(
        &mut m,
        "exec.epoch.wait.p99_us",
        hist("exec.epoch.wait_ns", 0.99) * 1e-3,
        "us",
    );
    push(
        &mut m,
        "exec.queue.depth.p50",
        hist("exec.queue.depth", 0.5),
        "count",
    );
    push(
        &mut m,
        "exec.queue.depth.p99",
        hist("exec.queue.depth", 0.99),
        "count",
    );
    for (class, row) in ["gossip", "decrypt", "control"].iter().zip(layers.classes) {
        let [delivered, bytes, dropped] = row;
        push(
            &mut m,
            &format!("net.{class}.sent.messages"),
            (delivered + dropped) as f64,
            "count",
        );
        push(
            &mut m,
            &format!("net.{class}.sent.bytes"),
            bytes as f64,
            "B",
        );
        push(
            &mut m,
            &format!("net.{class}.dropped"),
            dropped as f64,
            "count",
        );
    }
    push(&mut m, "wire.frame_us", ops.frame_us, "us");
    push(&mut m, "wire.codec_s", codec_s, "s");
    push(&mut m, "audit.step_s", layers.audit_s, "s");
    for phase in cs_obs::StepPhase::ALL {
        let key = format!("phase.{}_s", phase.name());
        push(&mut m, &key, phases.get(phase) as f64 * 1e-9, "s");
    }
    push(
        &mut m,
        "crypto.encryptions",
        layers.ops.encryptions as f64,
        "count",
    );
    push(
        &mut m,
        "crypto.rerandomizations",
        layers.ops.rerandomizations as f64,
        "count",
    );
    push(
        &mut m,
        "crypto.additions",
        layers.ops.additions as f64,
        "count",
    );
    push(
        &mut m,
        "crypto.partial_decryptions",
        layers.partial_decryptions as f64,
        "count",
    );
    push(
        &mut m,
        "crypto.combinations",
        layers.combinations as f64,
        "count",
    );
    push(&mut m, "crypto.encrypt_us", ops.encrypt_us, "us");
    push(&mut m, "crypto.randomizer_us", ops.randomizer_us, "us");
    push(&mut m, "crypto.pool_s", pool_s, "s");
    push(
        &mut m,
        "crypto.partial_decrypt_us",
        ops.partial_decrypt_us,
        "us",
    );
    push(&mut m, "crypto.combine_us", ops.combine_us, "us");
    push(
        &mut m,
        "crypto.straggler_share",
        layers.straggler_share,
        "ratio",
    );
    push(&mut m, "bigint.powmod_ms", ops.powmod_ms, "ms");
    push(&mut m, "bigint.mont_mul_us", ops.mont_mul_us, "us");
    push(
        &mut m,
        "step.unattributed_share",
        1.0 - attributed / (step_s * workers as f64).max(1e-12),
        "ratio",
    );
    push(
        &mut m,
        "trace.overhead_share",
        traced_s / plain_s - 1.0,
        "ratio",
    );
    push(
        &mut m,
        "failed_share",
        probe.failed as f64 / probe.attempted.max(1) as f64,
        "ratio",
    );
    let q = quality.ok_or("no output to score")?;
    push(&mut m, "quality.ari_vs_truth", q.ari_vs_truth, "ratio");
    push(&mut m, "quality.inertia_ratio", q.inertia_ratio, "ratio");
    push(
        &mut m,
        "quality.small_clusters",
        q.small_clusters() as f64,
        "count",
    );
    Ok(m)
}
