//! Cross-crate integration: the tree overlays (Overcast, RandTree, AMMO)
//! and NICE on realistic topologies, plus the global evaluation metrics
//! (§4.3: link stress, stretch). Overcast, RandTree and AMMO run from
//! their specs.

use macedon::baselines::spec_with;
use macedon::core::TraceEvent;
use macedon::lang::interp::{channel_table, InterpretedAgent};
use macedon::lang::Spec;
use macedon::net::metrics::{link_stress, tree_stretch};
use macedon::net::topology::{inet, InetParams};
use macedon::overlays::nice::{Nice, NiceConfig};
use macedon::prelude::*;
use macedon::sim::SimRng;
use std::collections::HashMap;
use std::sync::Arc;

/// A world on the INET topology running the interpreted `spec` on every
/// host, joins staggered `stagger_ms` apart through the first host.
fn spec_world(
    spec: &Arc<Spec>,
    clients: usize,
    seed: u64,
    stagger_ms: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let (mut w, hosts) = inet_world(clients, seed, channel_table(spec));
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        w.spawn_at(
            Time::from_millis(i as u64 * stagger_ms),
            h,
            vec![Box::new(InterpretedAgent::new(
                spec.clone(),
                (i > 0).then(|| hosts[0]),
            ))],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    (w, hosts, sink)
}

fn inet_world(clients: usize, seed: u64, channels: Vec<ChannelSpec>) -> (World, Vec<NodeId>) {
    let mut rng = SimRng::new(seed);
    let topo = inet(
        &InetParams {
            routers: 120,
            clients,
            ..Default::default()
        },
        &mut rng,
    );
    let hosts = topo.hosts().to_vec();
    let w = World::new(
        topo,
        WorldConfig {
            seed,
            channels,
            ..Default::default()
        },
    );
    (w, hosts)
}

#[test]
fn overcast_tree_on_inet_with_stretch_metric() {
    let (mut w, hosts, _sink) = spec_world(
        &Arc::new(spec_with("overcast", &[("MAXKIDS", 4)])),
        14,
        1,
        200,
    );
    w.run_until(Time::from_secs(90));
    // Extract the overlay tree and compute stretch via the oracle.
    let mut parents: HashMap<NodeId, NodeId> = HashMap::new();
    for &h in &hosts[1..] {
        let o: &InterpretedAgent = w
            .stack(h)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        if let Some(&p) = o.list("papa").unwrap().first() {
            parents.insert(h, p);
        }
    }
    assert_eq!(parents.len(), hosts.len() - 1, "everyone attached");
    let stretch = tree_stretch(w.net_mut(), hosts[0], &parents);
    assert!(!stretch.is_empty());
    for (&n, &s) in &stretch {
        assert!(s >= 1.0 - 1e-9, "stretch below 1 at {n:?}");
        assert!(s < 50.0, "unreasonable stretch {s} at {n:?}");
    }
}

#[test]
fn randtree_multicast_link_stress_bounded_by_fanout() {
    let (mut w, hosts, sink) = spec_world(
        &Arc::new(spec_with("randtree", &[("MAXKIDS", 3)])),
        12,
        3,
        100,
    );
    w.run_until(Time::from_secs(60));
    let baseline = w.net().link_counters();
    let mut p = vec![0u8; 512];
    p[..8].copy_from_slice(&1u64.to_be_bytes());
    w.api_at(
        Time::from_secs(60),
        hosts[0],
        DownCall::Multicast {
            group: MacedonKey(0),
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    // A narrow measurement window keeps engine heartbeats out of the
    // stress accounting (a LAN flood completes in tens of ms).
    w.run_until(Time::from_secs(61));
    let log = sink.lock();
    let got = log.iter().filter(|r| r.seqno == Some(1)).count();
    assert_eq!(got, hosts.len() - 1, "flood reached everyone");
    drop(log);
    // Link stress of a single multicast: a tree with fanout 3 puts at
    // most a handful of copies on any physical link (TCP ACKs and the
    // odd heartbeat share the access links, so allow headroom — but the
    // bound must stay far below a naive unicast-to-all's n copies).
    let stress = link_stress(w.net(), &baseline);
    assert!(stress.max > 0);
    assert!(
        stress.max <= 12,
        "tree multicast should bound per-link copies, got {}",
        stress.max
    );
}

#[test]
fn ammo_adapts_without_partition_on_inet() {
    let (mut w, hosts) = inet_world(14, 5, macedon::generated::channel_table("ammo").unwrap());
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        // Traced at High for the FSM transitions counted below.
        w.spawn_at_traced(
            Time::from_millis(i as u64 * 150),
            h,
            macedon::generated::build_stack("ammo", (i > 0).then(|| hosts[0])).unwrap(),
            Box::new(CollectorApp::new(sink.clone())),
            TraceLevel::High,
        );
    }
    w.run_until(Time::from_secs(180));
    // The tree stays connected after many adaptation epochs.
    let mut p = vec![0u8; 256];
    p[..8].copy_from_slice(&2u64.to_be_bytes());
    w.api_at(
        Time::from_secs(180),
        hosts[0],
        DownCall::Multicast {
            group: MacedonKey(0),
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(200));
    let log = sink.lock();
    let got = log.iter().filter(|r| r.seqno == Some(2)).count();
    assert!(
        got >= hosts.len() - 2,
        "post-adaptation multicast reached {got}/{}",
        hosts.len() - 1
    );
    drop(log);
    // A relocation is a probe epoch that leaves `evaluating` to rejoin
    // under a better-scoring parent.
    let reloc = w
        .merged_trace()
        .into_iter()
        .filter(|r| {
            matches!(&r.event, TraceEvent::FsmTransition { from, to }
                if from == "evaluating" && to == "joining")
        })
        .count();
    assert!(
        reloc > 0,
        "AMMO actually adapted on a heterogeneous topology"
    );
}

#[test]
fn nice_clusters_respect_latency_locality() {
    // Two latency islands: NICE's L0 clusters should not mix them.
    let lat = vec![
        vec![0, 5, 80, 80],
        vec![5, 0, 80, 80],
        vec![80, 80, 0, 5],
        vec![80, 80, 5, 0],
    ];
    let topo =
        macedon::net::topology::canned::sites(&lat, 3, macedon::net::topology::LinkSpec::lan());
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
        let cfg = NiceConfig {
            rendezvous: (i > 0).then(|| hosts[0]),
            ..Default::default()
        };
        w.spawn_at(
            Time::from_millis(i as u64 * 400),
            h,
            vec![Box::new(Nice::new(cfg))],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    w.run_until(Time::from_secs(240));
    // Count cross-island L0 cluster edges; locality should dominate.
    let island = |n: NodeId| hosts.iter().position(|&h| h == n).unwrap() / 6; // 2 sites/island
    let mut local = 0usize;
    let mut cross = 0usize;
    for &h in &hosts {
        let nice: &Nice = w
            .stack(h)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        for m in nice.cluster_members(0) {
            if m == h {
                continue;
            }
            if island(m) == island(h) {
                local += 1;
            } else {
                cross += 1;
            }
        }
    }
    assert!(local > 0);
    assert!(
        local >= cross,
        "latency clustering should favor local edges: local={local} cross={cross}"
    );
}
