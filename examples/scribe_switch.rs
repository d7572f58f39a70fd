//! The paper's one-line layering switch: run Scribe application-layer
//! multicast over **Pastry**, then over **Chord**, changing nothing but
//! the DHT layer in the stack (§1: "the Scribe application-layer
//! multicast protocol can be switched from using Pastry to Chord by
//! changing a single line in its MACEDON specification").
//!
//! ```sh
//! cargo run --release -p macedon --example scribe_switch
//! ```

use macedon::generated::chord::Chord;
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{Scribe, ScribeConfig};
use macedon::prelude::*;

/// Which DHT carries Scribe — the "single line".
#[derive(Clone, Copy, Debug)]
enum Dht {
    Pastry,
    Chord,
}

fn run(dht: Dht) -> usize {
    let topo = macedon::net::topology::canned::star(12, macedon::net::topology::LinkSpec::lan());
    let hosts = topo.hosts().to_vec();
    // Each DHT brings the transport channels it declares.
    let channels = match dht {
        Dht::Pastry => ChannelSpec::default_table(),
        Dht::Chord => macedon::generated::channel_table("chord").expect("chord is generated"),
    };
    let mut world = World::new(
        topo,
        WorldConfig {
            seed: 7,
            channels,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    let group = MacedonKey::of_name("demo-group");

    for (i, &h) in hosts.iter().enumerate() {
        let bootstrap = (i > 0).then(|| hosts[0]);
        // protocol scribe uses pastry;   |   protocol scribe uses chord;
        let lower: Box<dyn Agent> = match dht {
            Dht::Pastry => Box::new(Pastry::new(PastryConfig {
                bootstrap,
                ..Default::default()
            })),
            Dht::Chord => Box::new(Chord::new(bootstrap)),
        };
        let scribe = Box::new(Scribe::new(ScribeConfig::default()));
        world.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            vec![lower, scribe],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }

    // Everyone joins; the source multicasts after convergence.
    world.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        world.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    world.run_until(Time::from_secs(70));
    for i in 0..5u64 {
        let mut p = vec![0u8; 256];
        p[..8].copy_from_slice(&i.to_be_bytes());
        world.api_at(
            Time::from_secs(70) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    world.run_until(Time::from_secs(90));
    let n = sink.lock().len();
    println!(
        "Scribe over {dht:?}: {n} deliveries across {} receivers",
        hosts.len() - 1
    );
    n
}

fn main() {
    let over_pastry = run(Dht::Pastry);
    let over_chord = run(Dht::Chord);
    println!(
        "\nSame Scribe agent, two DHTs: pastry={over_pastry} chord={over_chord} deliveries — \
         the MACEDON API makes the substrate interchangeable."
    );
}
