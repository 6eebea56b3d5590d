//! Fault-campaign throughput: serial vs parallel scheduling, per fault
//! model (the faulter is the inner loop of the whole methodology).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rr_fault::{
    CampaignConfig, CampaignSession, Collect, FaultModel, FlagFlip, InstructionSkip, SingleBitFlip,
};

fn session(w: &rr_workloads::Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().expect("workload builds"))
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .expect("session")
}

fn bench_campaigns(c: &mut Criterion) {
    let w = rr_workloads::pincheck();
    let mut group = c.benchmark_group("campaign");
    group.sample_size(20);

    let models: [(&str, &dyn FaultModel); 3] =
        [("skip", &InstructionSkip), ("bitflip", &SingleBitFlip), ("flagflip", &FlagFlip)];

    for (name, model) in models {
        let serial = session(&w, CampaignConfig { threads: 1, ..CampaignConfig::default() });
        let total = serial.run(&[model], Collect).pop().unwrap().results.len() as u64;
        group.throughput(Throughput::Elements(total));
        group.bench_with_input(BenchmarkId::new("serial", name), &(), |b, ()| {
            b.iter(|| serial.run(&[model], Collect).pop().unwrap().results.len())
        });
        let parallel = session(&w, CampaignConfig::default());
        group.bench_with_input(BenchmarkId::new("parallel", name), &(), |b, ()| {
            b.iter(|| parallel.run(&[model], Collect).pop().unwrap().results.len())
        });
    }

    // One shared scheduling pass for all three models vs three passes.
    let shared = session(&w, CampaignConfig::default());
    let refs: Vec<&dyn FaultModel> = models.iter().map(|(_, m)| *m).collect();
    group.bench_function("multi-model/one-pass", |b| {
        b.iter(|| shared.run(&refs, Collect).iter().map(|r| r.results.len()).sum::<usize>())
    });
    group.bench_function("multi-model/three-passes", |b| {
        b.iter(|| {
            refs.iter()
                .map(|m| shared.run(&[*m], Collect).pop().unwrap().results.len())
                .sum::<usize>()
        })
    });

    // Session setup (golden runs + checkpoint recording + site decoding).
    group.bench_function("setup", |b| {
        b.iter(|| session(&w, CampaignConfig::default()).sites().len())
    });

    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
