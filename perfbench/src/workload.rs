//! The four workloads: one CER-like electricity population each, run by a
//! full `Engine::run_with_backend` on one substrate.
//!
//! Every input derives from the workload seed: the dataset, the engine's
//! master seed (noise, topology, keys), and the churn victims. The same
//! seed gives the same inputs; nothing else is read.

use crate::probe::Substrate;
use chiaroscuro::{ChiaroscuroConfig, CryptoMode, SimulatorBackend};
use cs_bench::datasets::UseCase;
use cs_crypto::{KeyGenOptions, ThresholdParams};
use cs_net::{ChurnSchedule, FaultSpec, LinkConfig, NetBackend, ShardedConfig};
use cs_timeseries::LabeledDataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "cer-sim-8k",
    "cer-sharded-16k",
    "cer-sharded-4k-churn",
    "cer-real2048-16",
];

/// The use-case every workload clusters.
const USE_CASE: UseCase = UseCase::Electricity;

/// One workload, fully determined by its name and seed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Participants (one series each).
    pub population: usize,
    /// Engine configuration (its `seed` derives from the workload seed).
    pub config: ChiaroscuroConfig,
    /// `None` runs the default in-core cycle simulator.
    pub sharded: Option<ShardedConfig>,
    /// Whether links are ideal and nobody crashes, so every participant
    /// must get an estimate in every iteration.
    pub ideal: bool,
    /// Seed of the dataset generator.
    pub data_seed: u64,
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's demo configuration on the electricity use-case: k = 5,
/// value bound 4, and the demo's ε-rescaling rule ε = 30 · 1000 / n.
fn demo_config(population: usize, seed: u64) -> ChiaroscuroConfig {
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = USE_CASE.default_k();
    cfg.value_bound = USE_CASE.value_bound();
    cfg.epsilon = 30.0 * 1000.0 / population as f64;
    cfg.seed = mix(seed ^ 0xC0F1_6000);
    cfg
}

impl Workload {
    /// Builds the named workload for `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let (population, ideal) = match name {
            "cer-sim-8k" => (8192, true),
            "cer-sharded-16k" => (16384, true),
            "cer-sharded-4k-churn" => (4096, false),
            _ => (16, true),
        };
        let mut config = demo_config(population, seed);
        let sharded = match name {
            "cer-sim-8k" => None,
            "cer-sharded-16k" => {
                config.max_iterations = 3;
                Some(ShardedConfig::large_population())
            }
            "cer-sharded-4k-churn" => {
                config.max_iterations = 4;
                Some(ShardedConfig {
                    churn: churn_schedule(population, seed),
                    link: LinkConfig {
                        latency: Duration::from_micros(500),
                        loss: 0.02,
                        ..LinkConfig::ideal()
                    },
                    ..ShardedConfig::large_population()
                })
            }
            _ => {
                // One iteration of 10 gossip cycles keeps a run near 10 s
                // on 2 cores: at the demo's 30 cycles, filling the
                // randomizer pools alone takes ~15 s per step.
                config.max_iterations = 1;
                config.gossip_cycles = 10;
                config.crypto = CryptoMode::Real {
                    keygen: KeyGenOptions {
                        modulus_bits: 2048,
                        s: 1,
                        safe_primes: false,
                    },
                };
                config.packing = true;
                config.threshold = ThresholdParams {
                    threshold: 2,
                    parties: 3,
                };
                Some(ShardedConfig::default())
            }
        };
        Some(Workload {
            name,
            population,
            config,
            sharded,
            ideal,
            data_seed: mix(seed ^ 0xDA7A_5EED),
        })
    }

    /// Generates the dataset (z-scored daily profiles with ground-truth
    /// archetype labels).
    pub fn dataset(&self) -> LabeledDataset {
        USE_CASE.build(self.population, self.data_seed)
    }

    /// Whether the computation step runs on the sharded executor.
    pub fn is_sharded(&self) -> bool {
        self.sharded.is_some()
    }

    /// Whether the crypto is real Damgård–Jurik.
    pub fn is_real(&self) -> bool {
        matches!(self.config.crypto, CryptoMode::Real { .. })
    }

    /// A fresh backend; `workers` overrides the sharded worker count and
    /// `fault` injects a scripted fault (negative controls only).
    pub fn backend(&self, workers: Option<usize>, fault: Option<FaultSpec>) -> Substrate {
        match &self.sharded {
            None => Substrate::Simulator(SimulatorBackend),
            Some(cfg) => {
                let mut cfg = cfg.clone();
                if let Some(w) = workers {
                    cfg.workers = w;
                }
                cfg.fault = fault;
                Substrate::Net(Box::new(NetBackend::sharded(cfg)))
            }
        }
    }
}

/// 1% of the nodes crash mid-gossip in step 0 (virtual 12 ms of a ~30 ms
/// gossip phase) and rejoin early in step 1.
fn churn_schedule(population: usize, seed: u64) -> ChurnSchedule {
    let mut nodes: Vec<usize> = (0..population).collect();
    nodes.shuffle(&mut StdRng::seed_from_u64(mix(seed ^ 0xC4A5)));
    let victims = &nodes[..population / 100];
    let mut schedule = ChurnSchedule::none();
    for &node in victims {
        schedule = schedule.crash(0, Duration::from_millis(12), node).rejoin(
            1,
            Duration::from_millis(2),
            node,
        );
    }
    schedule
}
