//! The output check must be able to fail. A reduced copy of the real-crypto
//! workload (same population, substrate and committee, 256-bit test keys)
//! passes it honestly, and fails it as soon as one committee member
//! corrupts its partial decryptions.

use chiaroscuro::CryptoMode;
use cs_crypto::KeyGenOptions;
use cs_net::FaultSpec;
use perfbench::check::{check_identical, check_run};
use perfbench::workload::Workload;
use perfbench::{run, Run, RunOptions};

fn reduced_real(packing: bool) -> Workload {
    let mut w = Workload::new("cer-real2048-16", 1).expect("known workload");
    w.config.crypto = CryptoMode::Real {
        keygen: KeyGenOptions::insecure_test_size(),
    };
    w.config.packing = packing;
    w
}

fn run_with(w: &Workload, fault: Option<FaultSpec>) -> Run {
    run(
        w,
        &w.dataset(),
        RunOptions {
            fault,
            ..RunOptions::default()
        },
    )
}

#[test]
fn honest_reduced_real_run_passes_the_check() {
    let w = reduced_real(true);
    let a = run_with(&w, None);
    let b = run_with(&w, None);
    assert_eq!(check_run(&w, &a), Vec::<String>::new());
    assert_eq!(check_identical(&[&a, &b], "repeat"), Vec::<String>::new());
}

#[test]
fn corrupted_partials_fail_the_check() {
    // Packed or not, the garbage the faulty member injects decodes to
    // wrong push-sum mass, which the end-of-step audit flags.
    for packing in [true, false] {
        let w = reduced_real(packing);
        let r = run_with(&w, Some(FaultSpec::CorruptPartials { node: 1 }));
        let problems = check_run(&w, &r);
        assert!(
            problems.iter().any(|p| p.contains("audit alerts")),
            "corruption passed the check (packing {packing}): {problems:?}"
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for name in perfbench::workload::NAMES {
        let a = Workload::new(name, 7).expect("known workload");
        let b = Workload::new(name, 7).expect("known workload");
        let c = Workload::new(name, 8).expect("known workload");
        assert_eq!(a.config.seed, b.config.seed);
        assert_ne!(a.config.seed, c.config.seed);
        let (da, db) = (a.dataset(), b.dataset());
        assert_eq!(da.labels, db.labels);
        assert!(da
            .series
            .iter()
            .zip(&db.series)
            .all(|(x, y)| x.values() == y.values()));
    }
    assert!(Workload::new("no-such-workload", 1).is_none());
}
