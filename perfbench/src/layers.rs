//! Per-layer timings measured from outside the crates: replays of the
//! engine's local work on the workload's shapes, and micro-timings of the
//! codec, crypto and bigint calls on the workload's real frame and key.

use crate::workload::Workload;
use chiaroscuro::noise::{contribution_vector, SlotLayout};
use chiaroscuro::rounds::{encrypt_packed_contribution, plan_packed_codec, CryptoContext};
use chiaroscuro::RunOutput;
use cs_bigint::rng::random_below;
use cs_bigint::MontgomeryCtx;
use cs_dp::NoiseShareGenerator;
use cs_net::{decode_frame, encode_frame, Message};
use cs_timeseries::{LabeledDataset, TimeSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per call of `f`, over at least `min_reps` calls and at
/// least `min_s` seconds.
fn time_per_call(min_reps: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut reps = 0usize;
    while reps < min_reps || started.elapsed().as_secs_f64() < min_s {
        f();
        reps += 1;
    }
    started.elapsed().as_secs_f64() / reps as f64
}

fn layout(w: &Workload, dataset: &LabeledDataset) -> SlotLayout {
    SlotLayout {
        k: w.config.k,
        series_len: dataset.series_len(),
    }
}

/// Seconds of `noise::contribution_vector` (`dp`) and `assign_all`
/// (`kmeans`) replayed once per participant and per iteration of `out`,
/// with each iteration's noise scale, live population and centroids.
pub fn replay_local(w: &Workload, dataset: &LabeledDataset, out: &RunOutput) -> (f64, f64) {
    let layout = layout(w, dataset);
    let mut rng = StdRng::seed_from_u64(w.config.seed);
    let mut contribution_s = 0.0;
    let mut assign_s = 0.0;
    for record in &out.log.records {
        let shares = NoiseShareGenerator::new(record.alive.max(1), record.noise_scale);
        let started = Instant::now();
        for (i, series) in dataset.series.iter().enumerate() {
            black_box(contribution_vector(
                &layout,
                series.values(),
                i % layout.k,
                &shares,
                &mut rng,
            ));
        }
        contribution_s += started.elapsed().as_secs_f64();
        let centroids: Vec<TimeSeries> = record
            .centroids
            .iter()
            .map(|c| TimeSeries::new(c.clone()))
            .collect();
        let started = Instant::now();
        black_box(cs_kmeans::assign_all(
            &dataset.series,
            &centroids,
            w.config.distance,
        ));
        assign_s += started.elapsed().as_secs_f64();
    }
    (contribution_s, assign_s)
}

/// Micro-timings on the workload's real frame type and key.
#[derive(Clone, Debug, Default)]
pub struct OpTimings {
    /// `encode_frame` + `decode_frame` of one gossip frame, µs.
    pub frame_us: f64,
    /// `FastEncryptor::encrypt` of one packed plaintext, µs.
    pub encrypt_us: f64,
    /// `FastEncryptor::randomizer` (one pool entry), µs.
    pub randomizer_us: f64,
    /// `KeyShare::partial_decrypt` of one ciphertext, µs.
    pub partial_decrypt_us: f64,
    /// `CombinePlanCache::combine_batch`, µs per ciphertext.
    pub combine_us: f64,
    /// `pow_mod` mod n² with an n-sized exponent, ms.
    pub powmod_ms: f64,
    /// One Montgomery multiplication mod n², µs.
    pub mont_mul_us: f64,
}

/// Times the layers the workload uses; layers it bypasses stay 0.
pub fn op_timings(
    w: &Workload,
    dataset: &LabeledDataset,
    crypto: &CryptoContext,
) -> Result<OpTimings, chiaroscuro::ChiaroscuroError> {
    let layout = layout(w, dataset);
    let mut t = OpTimings::default();
    if !w.is_sharded() {
        return Ok(t);
    }
    let mut rng = StdRng::seed_from_u64(w.config.seed ^ 0x0B5E_77ED);
    let frame = match crypto {
        CryptoContext::Simulated { .. } => Message::PlainPush {
            iteration: 0,
            weight: 0.5,
            slots: (0..layout.total()).map(|i| i as f64 * 0.25).collect(),
        },
        CryptoContext::Real {
            tkp,
            pk,
            codec,
            fast,
            plans,
            ..
        } => {
            let enc = fast.as_ref().expect("the real workload packs");
            let packed = plan_packed_codec(&w.config, pk, codec, &layout, w.population)?;
            let values: Vec<f64> = (0..layout.total()).map(|i| (i % 7) as f64 * 0.5).collect();
            let (slots, _) = encrypt_packed_contribution(&packed, enc, &layout, &values, &mut rng)?;
            let plaintexts = packed.pack(&values[..layout.noise_offset()])?;
            t.encrypt_us = 1e6
                * time_per_call(3, 0.3, || {
                    black_box(enc.encrypt(&plaintexts[0], &mut rng));
                });
            t.randomizer_us = 1e6
                * time_per_call(3, 0.3, || {
                    black_box(enc.randomizer(&mut rng));
                });
            let params = tkp.params();
            let shares = &tkp.shares()[..params.threshold];
            t.partial_decrypt_us = 1e6
                * time_per_call(3, 0.3, || {
                    black_box(shares[0].partial_decrypt(&slots[0]));
                });
            let groups: Vec<_> = slots
                .iter()
                .map(|c| shares.iter().map(|s| s.partial_decrypt(c)).collect())
                .collect();
            t.combine_us =
                1e6 * time_per_call(3, 0.3, || {
                    black_box(
                        plans
                            .combine_batch(pk, params, tkp.delta(), &groups)
                            .expect("honest partials combine"),
                    );
                }) / groups.len() as f64;
            let ctx = MontgomeryCtx::new(pk.n_s1());
            let base = random_below(&mut rng, pk.n_s1());
            let exp = random_below(&mut rng, pk.n());
            t.powmod_ms = 1e3
                * time_per_call(3, 0.3, || {
                    black_box(ctx.pow_mod(&base, &exp));
                });
            let other = random_below(&mut rng, pk.n_s1());
            t.mont_mul_us = 1e6
                * time_per_call(1000, 0.1, || {
                    black_box(ctx.mul_mod(&base, &other));
                });
            Message::PackedPush {
                iteration: 0,
                denom_exp: 8,
                weight: 0.5,
                buckets: layout.total() as u32,
                slots,
            }
        }
    };
    t.frame_us = 1e6
        * time_per_call(100, 0.1, || {
            let bytes = encode_frame(&frame);
            black_box(decode_frame(&bytes).expect("own frame decodes"));
        });
    Ok(t)
}
