//! End-to-end overlay benchmarks: full virtual runs measured in host
//! time (how fast the reproduction simulates, not protocol quality).

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_core::app::{shared_deliveries, CollectorApp};
use macedon_core::{Bytes, DownCall, Duration, MacedonKey, Time, World, WorldConfig};
use macedon_generated::chord::Chord;
use macedon_overlays::pastry::{Pastry, PastryConfig};
use macedon_overlays::testutil::star_topology;

fn bench_chord_convergence(c: &mut Criterion) {
    c.bench_function("overlay/chord 16-ring to 60 virtual s", |b| {
        b.iter(|| {
            let topo = star_topology(16);
            let hosts = topo.hosts().to_vec();
            let mut w = World::new(
                topo,
                WorldConfig {
                    seed: 1,
                    channels: macedon_generated::channel_table("chord").unwrap(),
                    ..Default::default()
                },
            );
            let sink = shared_deliveries();
            for (i, &h) in hosts.iter().enumerate() {
                w.spawn_at(
                    Time::from_millis(i as u64 * 100),
                    h,
                    vec![Box::new(Chord::new((i > 0).then(|| hosts[0])))],
                    Box::new(CollectorApp::new(sink.clone())),
                );
            }
            w.run_until(Time::from_secs(60));
            w.events_fired()
        })
    });
}

fn bench_pastry_lookups(c: &mut Criterion) {
    // Converge once, then measure lookup batches on the same world.
    c.bench_function("overlay/pastry 20 lookups on converged 16-mesh", |b| {
        let topo = star_topology(16);
        let hosts = topo.hosts().to_vec();
        let mut w = World::new(
            topo,
            WorldConfig {
                seed: 2,
                ..Default::default()
            },
        );
        let sink = shared_deliveries();
        for (i, &h) in hosts.iter().enumerate() {
            let cfg = PastryConfig {
                bootstrap: (i > 0).then(|| hosts[0]),
                ..Default::default()
            };
            w.spawn_at(
                Time::from_millis(i as u64 * 100),
                h,
                vec![Box::new(Pastry::new(cfg))],
                Box::new(CollectorApp::new(sink.clone())),
            );
        }
        w.run_until(Time::from_secs(60));
        let mut epoch = 60u64;
        b.iter(|| {
            for i in 0..20u64 {
                let mut p = vec![0u8; 32];
                p[..8].copy_from_slice(&i.to_be_bytes());
                w.api_at(
                    Time::from_secs(epoch) + Duration::from_millis(i),
                    hosts[(i % 16) as usize],
                    DownCall::Route {
                        dest: MacedonKey(
                            (i as u32)
                                .wrapping_mul(0x9E37_79B9)
                                .wrapping_add(epoch as u32),
                        ),
                        payload: Bytes::from(p),
                        priority: -1,
                    },
                );
            }
            epoch += 5;
            w.run_until(Time::from_secs(epoch));
        })
    });
}

criterion_group!(benches, bench_chord_convergence, bench_pastry_lookups);
criterion_main!(benches);
