//! Model-checker cost: the paper's §5 verification experiment as a
//! micro-benchmark. Individual monitor suites are checked end to end
//! (LTL → Büchi → product → SCC emptiness).

use asap::monitor::IvtGuard;
use criterion::{criterion_group, criterion_main, Criterion};
use ltl_mc::fsm::{kripke_of, kripke_of_constrained};
use ltl_mc::mc::check_suite;
use std::hint::black_box;
use vrased::hw::{KeyGuard, SwAttAtomicity};

fn bench_monitor_suites(c: &mut Criterion) {
    c.bench_function("mc_key_guard_suite", |b| {
        b.iter(|| {
            let k = kripke_of(&KeyGuard::default());
            black_box(check_suite(&k, &KeyGuard::properties()))
        })
    });
    c.bench_function("mc_atomicity_suite", |b| {
        b.iter(|| {
            let k =
                kripke_of_constrained(&SwAttAtomicity::default(), SwAttAtomicity::env_constraint);
            black_box(check_suite(&k, &SwAttAtomicity::properties()))
        })
    });
    c.bench_function("mc_ivt_guard_suite", |b| {
        b.iter(|| {
            let k = kripke_of(&IvtGuard::default());
            black_box(check_suite(&k, &IvtGuard::properties()))
        })
    });
}

fn bench_full_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("verification");
    group.sample_size(10);
    group.bench_function("all_21_properties", |b| {
        b.iter(|| black_box(asap::properties::verify_all()))
    });
    group.finish();
}

criterion_group!(benches, bench_monitor_suites, bench_full_suite);
criterion_main!(benches);
