//! # perfbench — end-to-end Chiaroscuro benchmark
//!
//! Each workload is one full `Engine::run_with_backend` over the CER-like
//! electricity use-case (see [`workload`]). The harness times the run from
//! outside, checks the outputs against properties the protocol guarantees
//! (see [`check`]), and, on a separate traced run, attributes the time to
//! the workspace crates by timing calls into their public functions and
//! reading the public step artifacts (see [`probe`] and [`layers`]).

pub mod check;
pub mod layers;
pub mod probe;
pub mod workload;

use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::{ChiaroscuroError, Engine, RunOutput};
use cs_net::FaultSpec;
use cs_timeseries::LabeledDataset;
use probe::{Probe, ProbeLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use workload::Workload;

/// The set-up a run needs, timed as the benchmark's `setup_s`.
pub struct Setup {
    /// The generated population.
    pub dataset: LabeledDataset,
    /// The dealer output, identical to the one the engine derives from the
    /// same configuration.
    pub crypto: CryptoContext,
    /// Seconds per set-up repeat: dataset + dealer + backend construction.
    pub setup_s: Vec<f64>,
    /// Seconds per `CryptoContext::from_config` call.
    pub dealer_s: Vec<f64>,
}

/// Builds the dataset, runs the dealer once and constructs the backend;
/// repeats that at least `min_repeats` times and for at least
/// `min_seconds`, and keeps the last dataset and dealer output.
pub fn setup(
    w: &Workload,
    min_repeats: usize,
    min_seconds: f64,
) -> Result<Setup, ChiaroscuroError> {
    let mut setup_s = Vec::new();
    let mut dealer_s = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while setup_s.len() < min_repeats.max(1) || started.elapsed().as_secs_f64() < min_seconds {
        let started = Instant::now();
        let dataset = w.dataset();
        let dealer_started = Instant::now();
        let crypto =
            CryptoContext::from_config(&w.config, &mut StdRng::seed_from_u64(w.config.seed))?;
        dealer_s.push(dealer_started.elapsed().as_secs_f64());
        std::hint::black_box(w.backend(None, None));
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some((dataset, crypto));
    }
    let (dataset, crypto) = last.expect("at least one set-up ran");
    Ok(Setup {
        dataset,
        crypto,
        setup_s,
        dealer_s,
    })
}

/// One engine run and what the probe saw.
pub struct Run {
    /// Wall seconds of `Engine::run_with_backend`.
    pub wall_s: f64,
    /// The engine's result.
    pub output: Result<RunOutput, ChiaroscuroError>,
    /// The probe's record.
    pub probe: ProbeLog,
}

/// Options of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Overrides the sharded executor's worker count.
    pub workers: Option<usize>,
    /// Injects a scripted fault (negative controls only).
    pub fault: Option<FaultSpec>,
    /// Collects per-layer totals.
    pub traced: bool,
}

/// Runs the workload's engine once over `dataset`.
pub fn run(w: &Workload, dataset: &LabeledDataset, opts: RunOptions) -> Run {
    let mut probe = Probe::new(w.backend(opts.workers, opts.fault), opts.traced);
    let started = Instant::now();
    let output = Engine::new(w.config.clone())
        .and_then(|engine| engine.run_with_backend(&dataset.series, &mut probe));
    let wall_s = started.elapsed().as_secs_f64();
    Run {
        wall_s,
        output,
        probe: probe.log,
    }
}

/// FNV-1a digest of a run's final centroids, assignment and iteration
/// count: equal digests mean bit-identical outputs.
pub fn digest(out: &RunOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(out.iterations as u64);
    for c in &out.centroids {
        for v in c.values() {
            eat(v.to_bits());
        }
    }
    for &a in &out.assignment {
        eat(a as u64);
    }
    h
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
