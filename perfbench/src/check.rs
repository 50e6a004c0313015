//! The output check: one verdict per workload, built only from properties
//! the protocol guarantees on every seed.

use crate::workload::Workload;
use crate::{digest, Run};
use chiaroscuro::{compare_with_baseline, RunOutput};
use cs_kmeans::adjusted_rand_index;
use cs_timeseries::LabeledDataset;

/// Clustering quality of one run.
#[derive(Clone, Debug)]
pub struct Quality {
    /// Adjusted Rand index against the generator's archetype labels.
    pub ari_vs_truth: f64,
    /// `compare_with_baseline`'s inertia ratio (1.0 = centralized k-means).
    pub inertia_ratio: f64,
    /// Final cluster sizes (canonical assignment).
    pub cluster_sizes: Vec<usize>,
}

impl Quality {
    /// Scores a run against the dataset's labels and a centralized
    /// k-means baseline.
    pub fn of(w: &Workload, dataset: &LabeledDataset, out: &RunOutput) -> Quality {
        let report = compare_with_baseline(
            &dataset.series,
            &out.centroids,
            w.config.distance,
            w.data_seed,
        );
        let mut cluster_sizes = vec![0; w.config.k];
        for &a in &out.assignment {
            cluster_sizes[a] += 1;
        }
        Quality {
            ari_vs_truth: adjusted_rand_index(&out.assignment, &dataset.labels),
            inertia_ratio: report.inertia_ratio,
            cluster_sizes,
        }
    }

    /// Clusters holding under 1% of the population. A known defect: on
    /// every seed tried, one or two of the k = 5 clusters come out empty
    /// or near-empty. Reported, never gated.
    pub fn small_clusters(&self) -> usize {
        let n: usize = self.cluster_sizes.iter().sum();
        self.cluster_sizes
            .iter()
            .filter(|&&s| (s as f64) < 0.01 * n as f64)
            .count()
    }
}

/// Checks one run's output; returns one message per violated property.
pub fn check_run(w: &Workload, run: &Run) -> Vec<String> {
    let mut bad = Vec::new();
    let out = match &run.output {
        Ok(out) => out,
        Err(e) => return vec![format!("engine run failed: {e}")],
    };
    let cfg = &w.config;
    if out.accountant.spent() > cfg.epsilon * (1.0 + 1e-9) {
        bad.push(format!(
            "privacy budget overspent: {} > {}",
            out.accountant.spent(),
            cfg.epsilon
        ));
    }
    let disclosures = out.accountant.disclosures();
    let one_per_iteration = disclosures.len() == out.iterations
        && disclosures
            .iter()
            .enumerate()
            .all(|(i, d)| d.iteration == i);
    if !one_per_iteration || out.iterations == 0 {
        bad.push(format!(
            "{} disclosures over {} iterations",
            disclosures.len(),
            out.iterations
        ));
    }
    if run.probe.alerts > 0 {
        bad.push(format!("{} audit alerts", run.probe.alerts));
    }
    if w.ideal && run.probe.failed > 0 {
        bad.push(format!(
            "{} of {} participant-iterations got no estimate on ideal links",
            run.probe.failed, run.probe.attempted
        ));
    }
    let bound = cfg.value_bound;
    let centroids_ok = out.centroids.len() == cfg.k
        && out
            .centroids
            .iter()
            .flat_map(|c| c.values())
            .all(|v| v.is_finite() && v.abs() <= bound);
    if !centroids_ok {
        bad.push(format!(
            "expected {} finite centroids within ±{bound}",
            cfg.k
        ));
    }
    if out.assignment.len() != w.population || out.assignment.iter().any(|&a| a >= cfg.k) {
        bad.push("assignment does not cover the population".into());
    }
    bad
}

/// Checks that every run produced the same digest and iteration count.
pub fn check_identical(runs: &[&Run], what: &str) -> Vec<String> {
    let digests: Vec<Option<(u64, usize)>> = runs
        .iter()
        .map(|r| r.output.as_ref().ok().map(|o| (digest(o), o.iterations)))
        .collect();
    if digests.windows(2).all(|p| p[0] == p[1]) {
        Vec::new()
    } else {
        vec![format!("{what}: outputs differ across runs: {digests:?}")]
    }
}

/// Checks quality against floors set below the worst value seen over
/// several seeds: on workload seeds 1-6 and 11-15, with several engine
/// seeds each, the simulated-crypto workloads gave ARI 0.52-1.0 and
/// inertia ratios 1.1-4.9, and the one-iteration real-crypto run over 16
/// points ARI 0.30-0.52 and inertia ratios 5.4-11.2.
pub fn check_quality(w: &Workload, q: &Quality) -> Vec<String> {
    let (min_ari, max_ratio) = if w.is_real() {
        (0.1, 25.0)
    } else {
        (0.35, 8.0)
    };
    let mut bad = Vec::new();
    // Written so that NaN fails.
    let ari_ok = q.ari_vs_truth >= min_ari;
    let ratio_ok = q.inertia_ratio <= max_ratio;
    if !ari_ok {
        bad.push(format!("ARI {} below floor {min_ari}", q.ari_vs_truth));
    }
    if !ratio_ok {
        bad.push(format!(
            "inertia ratio {} above ceiling {max_ratio}",
            q.inertia_ratio
        ));
    }
    bad
}
