//! Quickstart: build an emulated network, run a Chord ring on it, and
//! route messages through the overlay — the MACEDON development loop in
//! ~50 lines. The agents are the ones the translator generated from
//! `crates/lang/specs/chord.mac`.
//!
//! ```sh
//! cargo run --release -p macedon --example quickstart
//! ```

use macedon::generated::chord::Chord;
use macedon::net::topology::{inet, InetParams};
use macedon::prelude::*;
use macedon::sim::SimRng;

fn main() {
    // 1. An INET-like topology: 200 routers, 16 overlay hosts.
    let mut rng = SimRng::new(1);
    let topo = inet(
        &InetParams {
            routers: 200,
            clients: 16,
            ..Default::default()
        },
        &mut rng,
    );
    let hosts = topo.hosts().to_vec();

    // 2. A world: deterministic event loop + transports + engine, with
    //    the transport channels chord.mac declares.
    let channels = macedon::generated::channel_table("chord").expect("chord is generated");
    let mut world = World::new(
        topo,
        WorldConfig {
            channels,
            ..Default::default()
        },
    );

    // 3. One Chord agent per host, joining through hosts[0], with a
    //    delivery-collecting application on top.
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let bootstrap = (i > 0).then(|| hosts[0]);
        world.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            vec![Box::new(Chord::new(bootstrap))],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }

    // 4. Let the ring converge, then route ten messages to random keys.
    world.run_until(Time::from_secs(60));
    for i in 0..10u64 {
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&i.to_be_bytes());
        world.api_at(
            Time::from_secs(60) + Duration::from_millis(i * 100),
            hosts[(i % 16) as usize],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0x9E37_79B9)),
                payload: Bytes::from(payload),
                priority: DEFAULT_PRIORITY,
            },
        );
    }
    world.run_until(Time::from_secs(90));

    // 5. Inspect results: who owns what, in how many virtual seconds.
    println!(
        "virtual time: {}s, events: {}",
        world.now(),
        world.events_fired()
    );
    for rec in sink.lock().iter() {
        println!(
            "packet {:>2} delivered at node {:?} (key {}) at t={}",
            rec.seqno.unwrap_or(0),
            rec.node,
            world.key_of(rec.node),
            rec.at
        );
    }
}

use macedon::core::DEFAULT_PRIORITY;
