//! Cross-crate trace pipeline: pod → wire encoding → (simulated) network
//! → decode → hive must be byte-faithful, and the hive built from decoded
//! traces must match one built from the originals.

use softborg_hive::{Hive, HiveConfig};
use softborg_netsim::{Addr, LinkConfig, Proc, SimConfig, World, WorldCtx};
use softborg_pod::{Pod, PodConfig};
use softborg_program::scenarios;
use softborg_trace::wire;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn wire_roundtrip_preserves_every_pod_trace() {
    for s in scenarios::all() {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 77,
                ..PodConfig::default()
            },
        );
        for _ in 0..30 {
            let run = pod.run_once();
            let decoded = wire::decode(&wire::encode(&run.trace)).expect("roundtrip");
            assert_eq!(decoded, run.trace, "{}", s.name);
        }
    }
}

#[test]
fn hive_state_identical_via_wire_or_direct() {
    let s = scenarios::token_parser();
    let make_pod = || {
        Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 123,
                ..PodConfig::default()
            },
        )
    };
    let mut direct_pod = make_pod();
    let mut wire_pod = make_pod();
    let mut direct_hive = Hive::new(&s.program, HiveConfig::default());
    let mut wire_hive = Hive::new(&s.program, HiveConfig::default());
    for _ in 0..100 {
        let run = direct_pod.run_once();
        direct_hive.ingest(&run.trace);
        let run2 = wire_pod.run_once();
        let over_the_wire = wire::decode(&wire::encode(&run2.trace)).expect("roundtrip");
        wire_hive.ingest(&over_the_wire);
    }
    assert_eq!(direct_hive.stats(), wire_hive.stats());
    assert_eq!(direct_hive.tree().digest(), wire_hive.tree().digest());
    assert_eq!(direct_hive.coverage(), wire_hive.coverage());
}

/// A hive proc living in the simulated network: decodes trace payloads
/// and ingests them.
struct HiveNode<'p> {
    hive: Rc<RefCell<Hive<'p>>>,
}

impl Proc for HiveNode<'_> {
    fn on_message(&mut self, _from: Addr, payload: Vec<u8>, _ctx: &mut WorldCtx<'_>) {
        if let Ok(trace) = wire::decode(&payload) {
            self.hive.borrow_mut().ingest(&trace);
        }
    }
}

/// A pod proc that ships its traces at start.
struct PodNode {
    hive_addr: Addr,
    payloads: Vec<Vec<u8>>,
}

impl Proc for PodNode {
    fn on_start(&mut self, ctx: &mut WorldCtx<'_>) {
        for p in self.payloads.drain(..) {
            ctx.send(self.hive_addr, p);
        }
    }
}

#[test]
fn traces_survive_the_simulated_network() {
    let s = scenarios::token_parser();
    let hive = Rc::new(RefCell::new(Hive::new(&s.program, HiveConfig::default())));
    let mut world = World::new(SimConfig::default());
    let hive_addr = world.add_proc(Box::new(HiveNode { hive: hive.clone() }));
    let n_pods = 5u64;
    let per_pod = 20u64;
    for p in 0..n_pods {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                seed: 500 + p,
                ..PodConfig::default()
            },
        );
        let payloads: Vec<Vec<u8>> = (0..per_pod)
            .map(|_| wire::encode(&pod.run_once().trace))
            .collect();
        world.add_proc(Box::new(PodNode {
            hive_addr,
            payloads,
        }));
    }
    world.run();
    let stats = hive.borrow().stats();
    assert_eq!(
        stats.traces,
        n_pods * per_pod,
        "lossless network delivers all"
    );
    assert_eq!(stats.reconstructed, n_pods * per_pod);
    assert!(hive.borrow().coverage().distinct_paths > 1);
}

#[test]
fn lossy_network_degrades_gracefully() {
    let s = scenarios::token_parser();
    let hive = Rc::new(RefCell::new(Hive::new(&s.program, HiveConfig::default())));
    let mut world = World::new(SimConfig {
        link: LinkConfig {
            loss_per_mille: 400,
            ..Default::default()
        },
        seed: 3,
        ..SimConfig::default()
    });
    let hive_addr = world.add_proc(Box::new(HiveNode { hive: hive.clone() }));
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            seed: 1,
            ..PodConfig::default()
        },
    );
    let payloads: Vec<Vec<u8>> = (0..200)
        .map(|_| wire::encode(&pod.run_once().trace))
        .collect();
    world.add_proc(Box::new(PodNode {
        hive_addr,
        payloads,
    }));
    world.run();
    let stats = hive.borrow().stats();
    assert!(stats.traces > 50, "most traces should still arrive");
    assert!(stats.traces < 200, "≈40% loss must drop some");
    // Every arrived trace still reconstructs (loss is per-message, not
    // per-byte).
    assert_eq!(stats.reconstructed, stats.traces);
}
