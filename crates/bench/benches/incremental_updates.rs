//! Criterion bench: per-update latency of the incremental kernel — the
//! quantity behind every speedup in Tables 3/4 and Figures 5/6 — plus the
//! predecessor-list ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ebc_core::incremental::UpdateConfig;
use ebc_core::state::{BetweennessState, Update};
use ebc_gen::standins::{standin, StandinKind};
use ebc_gen::streams::{addition_stream, removal_stream};
use std::hint::black_box;

fn bench_updates(c: &mut Criterion) {
    let s = standin(StandinKind::Synthetic(1000), 1, 42);
    let adds = addition_stream(&s.graph, 64, 7);
    let rems = removal_stream(&s.graph, 64, 8);

    let mut group = c.benchmark_group("incremental_1k");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, cfg) in [
        ("MO", UpdateConfig::default()),
        (
            "MP_pred_lists",
            UpdateConfig {
                maintain_predecessors: true,
            },
        ),
    ] {
        group.bench_function(BenchmarkId::new("add_stream", name), |b| {
            b.iter_batched(
                || BetweennessState::new_with(s.graph.clone(), cfg.clone()),
                |mut st| {
                    for &(u, v) in &adds {
                        st.apply(Update::add(u, v)).expect("valid");
                    }
                    black_box(st)
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("remove_stream", name), |b| {
            b.iter_batched(
                || BetweennessState::new_with(s.graph.clone(), cfg.clone()),
                |mut st| {
                    for &(u, v) in &rems {
                        st.apply(Update::remove(u, v)).expect("valid");
                    }
                    black_box(st)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
