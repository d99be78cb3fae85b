//! Attestation (SW-Att functional core) throughput: HMAC-SHA256 over
//! measured regions of increasing size, plus the full device-level PoX
//! round trip. Supports the paper's premise that attestation cost is
//! dominated by the MAC over `ER ‖ OR (‖ IVT)`.

use asap::device::PoxMode;
use asap::programs;
use asap_bench::{device_for, KEY};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pox_crypto::hmac::HmacKey;
use std::hint::black_box;
use vrased::swatt::{attest, MeasuredItem};

fn bench_swatt_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("swatt_mac");
    let key = HmacKey::new(KEY);
    for size in [256usize, 1024, 4096, 8192] {
        let bytes = vec![0xA5; size];
        let item = MeasuredItem::value("er", &bytes);
        let chal = [7u8; 16];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                attest(
                    black_box(&key),
                    black_box(&chal),
                    black_box(std::slice::from_ref(&item)),
                )
            })
        });
    }
    group.finish();
}

fn bench_pox_roundtrip(c: &mut Criterion) {
    let image = programs::fig4_authorized().unwrap();
    let spec = asap::VerifierSpec::from_image(&image).unwrap();
    c.bench_function("pox_roundtrip_asap", |b| {
        b.iter(|| {
            let mut device = device_for(&image, PoxMode::Asap).unwrap();
            device.run_until_pc(programs::done_pc(), 5_000);
            let mut vrf = asap::AsapVerifier::new(KEY, spec.clone());
            let session = vrf.begin();
            let resp = device.attest(session.request());
            black_box(session.evidence(resp).conclude(&vrf).is_verified())
        })
    });
}

criterion_group!(benches, bench_swatt_mac, bench_pox_roundtrip);
criterion_main!(benches);
