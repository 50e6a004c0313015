//! A benchmark-side [`ComputationBackend`] wrapper: it times every
//! `run_step` call and reads the step's public artifacts afterwards. It
//! never reaches inside the wrapped substrate.
//!
//! Untraced, it keeps only what the output check needs (estimate coverage,
//! audit alerts, traffic). Traced, it also folds each step's outcome and
//! `NetBackend::last_step()` record into per-layer totals and replays the
//! end-of-step audit on the step's artifacts to time it.

use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::{ChiaroscuroConfig, ChiaroscuroError, ComputationBackend, SimulatorBackend};
use cs_gossip::homomorphic_pushsum::HomomorphicOpCounts;
use cs_gossip::TrafficStats;
use cs_net::{audit_step, NetBackend, StepEvidence};
use cs_obs::{AuditConfig, MetricsSnapshot, PhaseProfile, Registry};
use rand::rngs::StdRng;
use std::time::Instant;

/// The substrate under the probe: the in-core cycle simulator or the
/// sharded executor (whose per-step record the probe reads).
pub enum Substrate {
    /// `chiaroscuro::SimulatorBackend`.
    Simulator(SimulatorBackend),
    /// `cs_net::NetBackend::sharded`.
    Net(Box<NetBackend>),
}

/// Per-layer totals over a run's steps (traced runs only).
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Homomorphic operation counts.
    pub ops: HomomorphicOpCounts,
    /// Partial decryptions.
    pub partial_decryptions: u64,
    /// Lagrange combinations.
    pub combinations: u64,
    /// Gossip traffic (`ComputationOutcome::traffic`).
    pub gossip: TrafficStats,
    /// Node-CPU per protocol phase.
    pub phases: PhaseProfile,
    /// The executor's metrics, summed over steps.
    pub metrics: MetricsSnapshot,
    /// Per class (gossip, decrypt, control): delivered messages, delivered
    /// bytes, dropped messages.
    pub classes: [[u64; 3]; 3],
    /// Seconds spent replaying `StepEvidence::distill` + `audit_step`.
    pub audit_s: f64,
    /// Largest single-node phase-clock total over a step's wall time, over
    /// all steps.
    pub straggler_share: f64,
    /// Seconds the probe itself spent after the wrapped steps returned.
    pub overhead_s: f64,
}

/// What the probe saw over one engine run.
#[derive(Clone, Debug, Default)]
pub struct ProbeLog {
    /// Steps run.
    pub steps: usize,
    /// Wall seconds inside the wrapped `run_step`, summed.
    pub step_s: f64,
    /// Participant-steps attempted (live at step start).
    pub attempted: u64,
    /// Participant-steps live at both ends of the step without an estimate.
    pub failed: u64,
    /// Audit alerts raised by the substrate, summed over steps.
    pub alerts: u64,
    /// Messages on the wire (gossip, control and decryption), summed.
    pub messages: u64,
    /// Bytes on the wire (gossip, control and decryption), summed.
    pub bytes: u64,
    /// Per-layer totals; `Some` on traced runs.
    pub layers: Option<LayerTotals>,
}

/// The wrapper backend.
pub struct Probe {
    inner: Substrate,
    /// Everything observed so far.
    pub log: ProbeLog,
}

impl Probe {
    /// Wraps `inner`; `traced` turns on per-layer collection.
    pub fn new(inner: Substrate, traced: bool) -> Probe {
        Probe {
            inner,
            log: ProbeLog {
                layers: traced.then(LayerTotals::default),
                ..ProbeLog::default()
            },
        }
    }

    fn observe(&mut self, contributions: &[Option<Vec<f64>>], outcome: &ComputationOutcome) {
        let log = &mut self.log;
        log.steps += 1;
        for (i, c) in contributions.iter().enumerate() {
            if c.is_none() {
                continue;
            }
            log.attempted += 1;
            if outcome.alive_after[i] && outcome.estimates[i].is_none() {
                log.failed += 1;
            }
        }
        log.messages += outcome.traffic.messages + outcome.decrypt_ops.messages;
        log.bytes += outcome.traffic.bytes + outcome.decrypt_ops.bytes;
        if let Substrate::Net(net) = &self.inner {
            if let Some(run) = net.last_step() {
                log.alerts += run.alerts.len() as u64;
            }
        }
    }

    fn observe_layers(&mut self, outcome: &ComputationOutcome, step_s: f64) {
        let Some(layers) = self.log.layers.as_mut() else {
            return;
        };
        let started = Instant::now();
        layers.ops.merge(&outcome.ops);
        layers.partial_decryptions += outcome.decrypt_ops.partial_decryptions;
        layers.combinations += outcome.decrypt_ops.combinations;
        layers.gossip.messages += outcome.traffic.messages;
        layers.gossip.bytes += outcome.traffic.bytes;
        layers.gossip.dropped += outcome.traffic.dropped;
        layers.phases = layers.phases.plus(&outcome.phases);
        if let Substrate::Net(net) = &self.inner {
            if let Some(run) = net.last_step() {
                layers.metrics = layers.metrics.plus(&run.metrics);
                for (row, counts) in layers.classes.iter_mut().zip([
                    run.snapshot.gossip,
                    run.snapshot.decrypt,
                    run.snapshot.control,
                ]) {
                    row[0] += counts.messages;
                    row[1] += counts.bytes;
                    row[2] += counts.dropped;
                }
                let slowest = run
                    .reports
                    .iter()
                    .map(|r| r.profile.total_ns())
                    .max()
                    .unwrap_or(0);
                layers.straggler_share = layers
                    .straggler_share
                    .max(slowest as f64 / 1e9 / step_s.max(1e-9));
                let audit_started = Instant::now();
                let evidence = StepEvidence::distill(
                    self.log.steps as u64,
                    &run.reports,
                    &run.snapshot,
                    &run.metrics,
                );
                let alerts = audit_step(
                    &AuditConfig::default(),
                    &evidence,
                    &Registry::new(),
                    None,
                    None,
                );
                std::hint::black_box(alerts);
                layers.audit_s += audit_started.elapsed().as_secs_f64();
            }
        }
        layers.overhead_s += started.elapsed().as_secs_f64();
    }
}

impl ComputationBackend for Probe {
    fn label(&self) -> &'static str {
        match &self.inner {
            Substrate::Simulator(b) => b.label(),
            Substrate::Net(b) => b.label(),
        }
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        let started = Instant::now();
        let outcome = match &mut self.inner {
            Substrate::Simulator(b) => {
                b.run_step(config, layout, contributions, crypto, step_seed, rng)
            }
            Substrate::Net(b) => b.run_step(config, layout, contributions, crypto, step_seed, rng),
        }?;
        let step_s = started.elapsed().as_secs_f64();
        self.log.step_s += step_s;
        self.observe(contributions, &outcome);
        self.observe_layers(&outcome, step_s);
        Ok(outcome)
    }
}
