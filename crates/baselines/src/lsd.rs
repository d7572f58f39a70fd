//! The MIT `lsd` Chord model for the Figure 10 comparison.
//!
//! The paper: "While the lsd code dynamically adjusts the period of the
//! fix fingers timer, our current MACEDON implementation only supports
//! static periods (1 and 20 seconds in this experiment). ... our static
//! 1-second strategy outperforms lsd's dynamic strategy. The converse is
//! true with a 20-second timer setting. ... In lsd, convergence is not
//! as steady as fix fingers timers are dynamically adjusted."
//!
//! lsd's adaptation is AIMD-flavored: probe quickly while the routing
//! table is in flux, back off exponentially once entries stop changing.
//! chord.mac carries that policy behind two constants whose defaults keep
//! the period static, so every Figure 10 flavour interprets the *same*
//! spec ([`crate::spec_with`]) and differs only in [`LSD_CONSTANTS`]
//! versus a static `FIX_FINGERS_MS` — which keeps the comparison about the *policy*
//! rather than incidental implementation differences, the paper's own
//! methodological argument.

/// lsd's fix-fingers policy as chord.mac constant overrides: start at
/// 4 s and adapt between about half a second and half a minute,
/// depending on stability.
pub const LSD_CONSTANTS: [(&str, i64); 3] = [
    ("FIX_FINGERS_MS", 4_000),
    ("FIX_FINGERS_MIN_MS", 500),
    ("FIX_FINGERS_MAX_MS", 32_000),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_with;
    use macedon_core::app::{shared_deliveries, CollectorApp};
    use macedon_core::{Time, World, WorldConfig};
    use macedon_lang::interp::{channel_table, InterpretedAgent};
    use macedon_lang::Spec;
    use macedon_overlays::testutil::{
        collect_ring, correct_fingers, ring_successor, star_topology,
    };
    use std::sync::Arc;

    /// An interpreted chord ring of `n` nodes on `spec`, joins staggered
    /// 100 ms apart through the first host, run to `secs`.
    fn ring(
        spec: &Arc<Spec>,
        n: usize,
        seed: u64,
        secs: u64,
    ) -> (World, Vec<macedon_core::NodeId>) {
        let topo = star_topology(n);
        let hosts = topo.hosts().to_vec();
        let mut w = World::new(
            topo,
            WorldConfig {
                seed,
                channels: channel_table(spec),
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
        w.run_until(Time::from_secs(secs));
        (w, hosts)
    }

    fn chord(w: &World, h: macedon_core::NodeId) -> &InterpretedAgent {
        w.stack(h)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap()
    }

    #[test]
    fn lsd_ring_converges() {
        let (w, hosts) = ring(&Arc::new(spec_with("chord", &LSD_CONSTANTS)), 12, 3, 90);
        let ring = collect_ring(&w, &hosts);
        for (i, &(node, _)) in ring.iter().enumerate() {
            let c = chord(&w, node);
            assert_eq!(c.state(), "joined");
            assert_eq!(
                ring_successor(&w, node, c.list("succs").unwrap()),
                Some(ring[(i + 1) % ring.len()].0),
                "ring at {i}"
            );
        }
    }

    /// The headline shape of Fig 10: static 1 s converges fingers faster
    /// than lsd-dynamic early in the run.
    #[test]
    fn static_1s_beats_lsd_early() {
        let count_correct = |spec: Arc<Spec>| -> usize {
            let (w, hosts) = ring(&spec, 16, 11, 30);
            let ring = collect_ring(&w, &hosts);
            hosts
                .iter()
                .map(|&h| {
                    correct_fingers(&ring, w.key_of(h), chord(&w, h).list("fingers").unwrap())
                })
                .sum()
        };
        let static_1s = count_correct(Arc::new(spec_with("chord", &[("FIX_FINGERS_MS", 1_000)])));
        let lsd = count_correct(Arc::new(spec_with("chord", &LSD_CONSTANTS)));
        assert!(
            static_1s > lsd,
            "static 1s ({static_1s}) should beat lsd-dynamic ({lsd}) at t=30s"
        );
    }
}
