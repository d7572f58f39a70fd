//! Cross-crate integration: Chord over the full stack (INET topology →
//! packet pipeline → transports → engine → the agent generated from
//! chord.mac), validating the ring and routing properties the Fig 10
//! experiment relies on.

use macedon::core::TraceEvent;
use macedon::generated::chord::Chord;
use macedon::net::topology::{inet, InetParams};
use macedon::overlays::testutil::{collect_ring, correct_owner, ring_successor};
use macedon::prelude::*;
use macedon::sim::SimRng;

fn chord_world(
    clients: usize,
    seed: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let mut rng = SimRng::new(seed);
    let topo = inet(
        &InetParams {
            routers: 150,
            clients,
            ..Default::default()
        },
        &mut rng,
    );
    let hosts = topo.hosts().to_vec();
    let mut w = World::new(
        topo,
        WorldConfig {
            seed,
            channels: macedon::generated::channel_table("chord").unwrap(),
            // Send records count routing hops (tracing never changes a run).
            trace_level: TraceLevel::Med,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        w.spawn_at(
            Time::from_millis(i as u64 * 200),
            h,
            vec![Box::new(Chord::new((i > 0).then(|| hosts[0])))],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    (w, hosts, sink)
}

fn successor(w: &World, h: NodeId) -> Option<NodeId> {
    let c: &Chord = w
        .stack(h)
        .unwrap()
        .agent(0)
        .as_any()
        .downcast_ref()
        .unwrap();
    ring_successor(w, h, c.neighbor_list("succs").unwrap())
}

/// `route_data` hops sent since `since`: sends on chord.mac's DATA
/// channel larger than its empty ping/pong messages.
fn data_hops_since(w: &World, since: Time) -> u64 {
    w.merged_trace()
        .into_iter()
        .filter(|r| r.at >= since)
        .filter(|r| {
            matches!(r.event, TraceEvent::Send { channel, bytes, .. }
                if channel == ChannelId(1) && bytes > 32)
        })
        .count() as u64
}

#[test]
fn ring_converges_on_realistic_topology() {
    let (mut w, hosts, _sink) = chord_world(20, 1);
    w.run_until(Time::from_secs(120));
    let ring = collect_ring(&w, &hosts);
    for (i, &(node, _)) in ring.iter().enumerate() {
        assert_eq!(
            successor(&w, node),
            Some(ring[(i + 1) % ring.len()].0),
            "ring position {i}"
        );
    }
}

#[test]
fn lookups_land_on_owners_with_log_hops() {
    let (mut w, hosts, sink) = chord_world(24, 3);
    w.run_until(Time::from_secs(150));
    let ring = collect_ring(&w, &hosts);
    let n = 40u64;
    for i in 0..n {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(150) + Duration::from_millis(i * 25),
            hosts[(i % 24) as usize],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0x85EB_CA6B)),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(200));
    let log = sink.lock();
    assert_eq!(log.len() as u64, n, "every lookup delivered");
    for rec in log.iter() {
        let seq = rec.seqno.unwrap();
        let dest = MacedonKey((seq as u32).wrapping_mul(0x85EB_CA6B));
        assert_eq!(rec.node, correct_owner(&ring, dest), "lookup {seq} owner");
    }
    drop(log);
    let avg_hops = data_hops_since(&w, Time::from_secs(150)) as f64 / n as f64;
    assert!(avg_hops <= 7.0, "O(log 24) routing, got {avg_hops}");
}

#[test]
fn overhead_accounting_via_transport_stats() {
    // The "communication overhead" evaluation metric: engine-level
    // counters must reflect maintenance traffic even when idle.
    let (mut w, hosts, _sink) = chord_world(8, 5);
    w.run_until(Time::from_secs(60));
    let mut total = 0u64;
    for &h in &hosts {
        total += w.endpoint(h).unwrap().total_bytes_sent();
    }
    assert!(total > 0, "stabilization traffic accounted");
}

#[test]
fn rdp_of_overlay_routing_bounded() {
    // Overlay routing pays a delay penalty but not an absurd one once
    // fingers converge (spot check of the metrics machinery).
    let (mut w, hosts, sink) = chord_world(16, 7);
    w.run_until(Time::from_secs(150));
    let src = hosts[0];
    let mut p = vec![0u8; 32];
    p[..8].copy_from_slice(&1u64.to_be_bytes());
    let dest = MacedonKey(0x7777_7777);
    w.api_at(
        Time::from_secs(150),
        src,
        DownCall::Route {
            dest,
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(160));
    let log = sink.lock();
    let rec = log.iter().find(|r| r.seqno == Some(1)).expect("delivered");
    let direct = w.net_mut().oracle_latency(src, rec.node).unwrap();
    let observed = rec.at.saturating_since(Time::from_secs(150));
    let rdp = observed.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    assert!(rdp >= 1.0 - 1e-9, "cannot beat the direct path");
    assert!(rdp < 60.0, "pathological delay penalty {rdp}");
}
