//! Component micro-benchmarks: the SSK kernel, GP fitting, each synthesis
//! transform, the LUT mapper and a full QoR evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{QorEvaluator, SequenceSpace};
use boils_gp::{Gp, Kernel, SskKernel};
use boils_mapper::{map_stats, MapperConfig};
use boils_synth::Transform;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ssk(c: &mut Criterion) {
    let kernel = SskKernel::new(4);
    let space = SequenceSpace::paper();
    let mut rng = StdRng::seed_from_u64(0);
    let a = space.sample(&mut rng);
    let b = space.sample(&mut rng);
    c.bench_function("ssk_eval_k20", |bencher| {
        bencher.iter(|| kernel.eval(black_box(&a), black_box(&b)))
    });
}

fn bench_gp_fit(c: &mut Criterion) {
    let space = SequenceSpace::paper();
    let mut rng = StdRng::seed_from_u64(1);
    for n in [25usize, 50] {
        let xs: Vec<Vec<u8>> = (0..n).map(|_| space.sample(&mut rng)).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        c.bench_with_input(BenchmarkId::new("gp_fit_ssk", n), &n, |bencher, _| {
            bencher.iter(|| {
                let gp = Gp::fit(SskKernel::new(4), xs.clone(), ys.clone(), 1e-4).expect("spd");
                black_box(gp.predict(&xs[0]))
            })
        });
    }
}

fn bench_transforms(c: &mut Criterion) {
    let aig = CircuitSpec::new(Benchmark::Square).build();
    let mut group = c.benchmark_group("transform");
    group.sample_size(10);
    for t in [
        Transform::Rewrite,
        Transform::Refactor,
        Transform::Resub,
        Transform::Balance,
        Transform::Fraig,
        Transform::Sopb,
    ] {
        group.bench_function(t.abc_name().replace(' ', ""), |bencher| {
            bencher.iter(|| black_box(t.apply(&aig)))
        });
    }
    group.finish();
}

fn bench_mapper(c: &mut Criterion) {
    let aig = CircuitSpec::new(Benchmark::Multiplier).build();
    c.bench_function("map_if_k6_multiplier", |bencher| {
        bencher.iter(|| black_box(map_stats(&aig, &MapperConfig::default())))
    });
}

fn bench_qor_eval(c: &mut Criterion) {
    let aig = CircuitSpec::new(Benchmark::BarrelShifter).build();
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let space = SequenceSpace::paper();
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("qor");
    group.sample_size(10);
    group.bench_function("evaluate_bar_k20", |bencher| {
        bencher.iter(|| {
            let seq = space.sample(&mut rng);
            black_box(evaluator.evaluate_tokens(&seq))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ssk,
    bench_gp_fit,
    bench_transforms,
    bench_mapper,
    bench_qor_eval
);
criterion_main!(benches);
