//! Failure-injection integration: crash nodes, kill links, add loss —
//! the overlays must detect (engine g/f heartbeat failure detector) and
//! repair.

use macedon::generated::chord::Chord;
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{Scribe, ScribeConfig};
use macedon::overlays::testutil::{collect_ring, ring_successor};
use macedon::prelude::*;

fn star(n: usize) -> macedon::net::Topology {
    macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan())
}

/// A world running the generated chord.mac agent on every host of
/// `topo`, joins staggered 100 ms apart through the first host.
fn chord_world(
    topo: macedon::net::Topology,
    seed: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    chord_world_with(
        topo,
        WorldConfig {
            seed,
            ..Default::default()
        },
    )
}

/// [`chord_world`] with engine settings (failure-detector thresholds)
/// taken from `cfg`.
fn chord_world_with(
    topo: macedon::net::Topology,
    cfg: WorldConfig,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let hosts = topo.hosts().to_vec();
    let mut w = World::new(
        topo,
        WorldConfig {
            channels: macedon::generated::channel_table("chord").unwrap(),
            ..cfg
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

#[test]
fn chord_survives_cascading_crashes() {
    let (mut w, hosts, _sink) = chord_world(star(12), 1);
    w.run_until(Time::from_secs(60));
    // Crash three non-bootstrap nodes, staggered.
    let victims = [hosts[3], hosts[6], hosts[9]];
    w.crash_at(Time::from_secs(61), victims[0]);
    w.crash_at(Time::from_secs(75), victims[1]);
    w.crash_at(Time::from_secs(90), victims[2]);
    w.run_until(Time::from_secs(200));
    let alive: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !victims.contains(h))
        .collect();
    let ring = collect_ring(&w, &alive);
    for (i, &(node, _)) in ring.iter().enumerate() {
        let succ = successor(&w, node).expect("every survivor has a successor");
        assert_eq!(succ, ring[(i + 1) % ring.len()].0, "healed ring at {i}");
        assert!(!victims.contains(&succ));
    }

    // One crash on a 6-node ring heals under aggressive, the paper's
    // and lazy failure-detector g/f thresholds alike.
    for (g_s, f_s) in [(2u64, 6u64), (5, 15), (10, 30)] {
        let (mut w, hosts, _sink) = chord_world_with(
            star(6),
            WorldConfig {
                seed: 8,
                fd_g: Duration::from_secs(g_s),
                fd_f: Duration::from_secs(f_s),
                ..Default::default()
            },
        );
        w.run_until(Time::from_secs(30));
        let victim = hosts[3];
        w.crash_at(Time::from_secs(30), victim);
        w.run_until(Time::from_secs(30 + 4 * f_s + 20));
        let alive: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != victim).collect();
        let ring = collect_ring(&w, &alive);
        for (i, &(node, _)) in ring.iter().enumerate() {
            assert_eq!(
                successor(&w, node),
                Some(ring[(i + 1) % ring.len()].0),
                "g/f {g_s}/{f_s} s: healed ring at {i}"
            );
        }
    }
}

#[test]
fn chord_routes_correctly_after_heal() {
    let (mut w, hosts, sink) = chord_world(star(10), 3);
    w.run_until(Time::from_secs(60));
    let victim = hosts[5];
    w.crash_at(Time::from_secs(60), victim);
    w.run_until(Time::from_secs(150));
    let alive: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != victim).collect();
    let ring = collect_ring(&w, &alive);
    for i in 0..15u64 {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(150) + Duration::from_millis(i * 40),
            alive[(i % alive.len() as u64) as usize],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0x9E37_79B9)),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(200));
    let log = sink.lock();
    let delivered: Vec<_> = log
        .iter()
        .filter(|r| r.seqno.is_some() && r.at > Time::from_secs(150))
        .collect();
    assert_eq!(delivered.len(), 15, "all post-heal lookups delivered");
    for rec in &delivered {
        assert_ne!(rec.node, victim, "nothing delivered at the dead node");
        let dest = MacedonKey((rec.seqno.unwrap() as u32).wrapping_mul(0x9E37_79B9));
        let owner = macedon::overlays::testutil::correct_owner(&ring, dest);
        assert_eq!(rec.node, owner);
    }
}

#[test]
fn scribe_tree_repairs_after_forwarder_crash() {
    let topo = star(12);
    let hosts = topo.hosts().to_vec();
    let mut w = World::new(
        topo,
        WorldConfig {
            seed: 5,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let pastry = Pastry::new(PastryConfig {
            bootstrap: (i > 0).then(|| hosts[0]),
            ..Default::default()
        });
        let scribe = Scribe::new(ScribeConfig::default());
        w.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            vec![Box::new(pastry), Box::new(scribe)],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    let group = MacedonKey::of_name("resilient");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    // Crash a node that forwards for the group (has children).
    let victim = hosts[1..].iter().copied().find(|&h| {
        let s: &Scribe = w
            .stack(h)
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        !s.group_children(group).is_empty()
    });
    let Some(victim) = victim else {
        return; // flat tree: nothing to crash meaningfully
    };
    w.crash_at(Time::from_secs(80), victim);
    // Wait for failure detection + rejoin, then multicast.
    w.run_until(Time::from_secs(160));
    let mut p = vec![0u8; 128];
    p[..8].copy_from_slice(&42u64.to_be_bytes());
    let sender = hosts
        .iter()
        .copied()
        .find(|&h| h != victim && h != hosts[0])
        .unwrap();
    w.api_at(
        Time::from_secs(160),
        sender,
        DownCall::Multicast {
            group,
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(190));
    let log = sink.lock();
    let got: std::collections::HashSet<NodeId> = log
        .iter()
        .filter(|r| r.seqno == Some(42))
        .map(|r| r.node)
        .collect();
    // All surviving members (n-2: minus bootstrap non-member? bootstrap
    // never joined; minus the victim) modulo one straggler mid-rejoin.
    let members = hosts.len() - 2; // hosts[1..] joined, one crashed
    assert!(
        got.len() + 1 >= members,
        "post-repair multicast reached {}/{members}",
        got.len()
    );
}

#[test]
fn random_loss_does_not_break_chord_maintenance() {
    let (mut w, hosts, _sink) = chord_world(star(8), 7);
    w.net_mut().faults_mut().set_drop_probability(0.05);
    w.run_until(Time::from_secs(180));
    let ring = collect_ring(&w, &hosts);
    let mut correct = 0;
    for (i, &(node, _)) in ring.iter().enumerate() {
        if successor(&w, node) == Some(ring[(i + 1) % ring.len()].0) {
            correct += 1;
        }
    }
    assert!(
        correct >= ring.len() - 1,
        "ring nearly perfect under 5% loss: {correct}/{}",
        ring.len()
    );
}

#[test]
fn link_failure_and_heal_recovers_traffic() {
    let topo = star(4);
    let hosts = topo.hosts().to_vec();
    let phys0 = {
        let h = hosts[1];
        topo.link(topo.outgoing(h)[0]).phys
    };
    let (mut w, hosts, _sink) = chord_world(topo, 9);
    w.run_until(Time::from_secs(40));
    // Take hosts[1]'s access link down briefly; TCP retransmission and
    // engine heartbeats must ride it out.
    w.net_mut().faults_mut().fail_link(phys0);
    w.run_until(Time::from_secs(44));
    w.net_mut().faults_mut().heal_link(phys0);
    w.run_until(Time::from_secs(120));
    let ring = collect_ring(&w, &hosts);
    for (i, &(node, _)) in ring.iter().enumerate() {
        assert_eq!(successor(&w, node), Some(ring[(i + 1) % ring.len()].0));
    }
}
