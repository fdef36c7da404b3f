//! Fleet serving integrity over real TCP sockets.
//!
//! Every response that crosses the wire is held to the same standard as
//! the in-process server: **bit-identical** to `BatchEngine::run_plan` on
//! the caller's own input — across fleet sizes {1, 2, 4}, heterogeneous
//! device mixes from the `FpgaDevice` catalog, concurrent clients, a
//! replica killed mid-load, and a fleet-wide hot-swap. Routing, health
//! eviction and the frame codec may reorder *where* work runs, never
//! *what* it answers.

mod common;

use mixmatch::fpga::device::FpgaDevice;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::export::import_compiled;
use mixmatch::serve::health::HealthState;
use std::sync::Arc;
use std::time::Duration;

fn unique_images(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng))
        .collect()
}

/// Single-image plan results through a deterministic one-thread engine —
/// the bit-exact reference every wire response is held to.
fn references(artifact: &[u8], images: &[Tensor]) -> Vec<Vec<f32>> {
    let compiled = import_compiled(artifact).expect("import reference");
    let engine = BatchEngine::with_threads(1);
    images
        .iter()
        .map(|img| {
            let run = engine
                .run_plan_batch(&compiled, std::slice::from_ref(img))
                .expect("reference run");
            run.outputs[0].as_slice().to_vec()
        })
        .collect()
}

/// Enrolls one replica per device, labelled by index.
fn specs(devices: &[FpgaDevice]) -> Vec<ReplicaSpec> {
    devices
        .iter()
        .enumerate()
        .map(|(i, &device)| ReplicaSpec::new(format!("r{i}"), device))
        .collect()
}

fn start_wired_fleet(
    config: FleetConfig,
    devices: &[FpgaDevice],
) -> (Arc<FleetServer>, WireServer) {
    let fleet = Arc::new(FleetServer::start(config, specs(devices)));
    let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet)).expect("bind wire server");
    (fleet, wire)
}

#[test]
fn tcp_responses_are_bit_identical_to_run_plan_across_fleet_sizes() {
    let artifact = common::mlp_artifact(1);
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 8;
    let images = unique_images(CLIENTS * PER_CLIENT, &[12], 2);
    let refs = references(&artifact, &images);
    // Pairwise-distinct references: "matches my own reference" then also
    // proves "is not a neighbor's response".
    for i in 0..refs.len() {
        for j in i + 1..refs.len() {
            assert_ne!(refs[i], refs[j], "fixture degenerate: {i} vs {j}");
        }
    }

    let mixes: [&[FpgaDevice]; 3] = [
        &[FpgaDevice::XC7Z045],
        &[FpgaDevice::XC7Z045, FpgaDevice::XC7Z020],
        &[
            FpgaDevice::XC7Z045,
            FpgaDevice::XC7Z020,
            FpgaDevice::XCZU3CG,
            FpgaDevice::XCZU5CG,
        ],
    ];
    for devices in mixes {
        let (fleet, wire) = start_wired_fleet(
            FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
            devices,
        );
        let addr = wire.local_addr();
        // Load once over the wire: the artifact rolls across every replica.
        FleetClient::connect(addr)
            .expect("connect loader")
            .load("mlp", &artifact)
            .expect("load over tcp");

        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let images = &images;
                let refs = &refs;
                scope.spawn(move || {
                    let mut client = FleetClient::connect(addr).expect("connect client");
                    for i in (c * PER_CLIENT)..((c + 1) * PER_CLIENT) {
                        let out = client.infer("mlp", &images[i]).expect("infer over tcp");
                        assert_eq!(out.dims(), &[10]);
                        assert_eq!(
                            out.as_slice(),
                            &refs[i][..],
                            "request {i} corrupted over a {}-replica fleet",
                            devices.len()
                        );
                    }
                });
            }
        });

        // The wire stats snapshot agrees: every request completed, every
        // replica is priced and healthy.
        let stats = FleetClient::connect(addr)
            .expect("connect stats")
            .stats()
            .expect("stats over tcp");
        assert_eq!(stats.replicas.len(), devices.len());
        let completed: u64 = stats
            .replicas
            .iter()
            .flat_map(|r| r.models.iter())
            .map(|m| m.completed)
            .sum();
        assert_eq!(completed, (CLIENTS * PER_CLIENT) as u64);
        for replica in &stats.replicas {
            assert_eq!(replica.health.state, HealthState::Healthy);
            assert_eq!(replica.costs.len(), 1, "replica {} unpriced", replica.label);
            assert!(replica.costs[0].cost_per_image_us > 0.0);
        }
        wire.stop();
        fleet.shutdown();
    }
}

#[test]
fn killed_replica_mid_load_is_shed_with_zero_corrupted_responses() {
    let artifact = common::mlp_artifact(3);
    const REQUESTS: usize = 30;
    let images = unique_images(REQUESTS, &[12], 4);
    let refs = references(&artifact, &images);

    let (fleet, wire) = start_wired_fleet(
        FleetConfig::default()
            .with_health(
                HealthPolicy::default()
                    .with_evict_after(2)
                    .with_probe_after(Duration::from_secs(120)),
            )
            .with_replica_config(ServeConfig::default().with_threads(1)),
        &[FpgaDevice::XC7Z045, FpgaDevice::XC7Z020],
    );
    let addr = wire.local_addr();
    let mut client = FleetClient::connect(addr).expect("connect");
    client.load("mlp", &artifact).expect("load over tcp");

    for (i, image) in images.iter().enumerate() {
        // Kill replica 0 mid-load, with traffic before and after.
        if i == REQUESTS / 3 {
            assert!(fleet.kill_replica(0));
        }
        let out = client.infer("mlp", image).expect("infer survives the kill");
        assert_eq!(out.as_slice(), &refs[i][..], "response {i} corrupted");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.replicas[0].health.state,
        HealthState::Evicted,
        "dead replica not shed: {:?}",
        stats.replicas[0].health
    );
    assert_eq!(stats.replicas[1].health.state, HealthState::Healthy);
    assert!(stats.replicas[0].health.evictions >= 1);
    // Every request was answered exactly once, fleet-wide.
    let completed: u64 = stats
        .replicas
        .iter()
        .flat_map(|r| r.models.iter())
        .map(|m| m.completed)
        .sum();
    assert_eq!(completed, REQUESTS as u64);
    wire.stop();
    fleet.shutdown();
}

#[test]
fn fleet_wide_hot_swap_drops_nothing_and_every_reply_matches_a_version() {
    let v1 = common::mlp_artifact(10);
    let v2 = common::mlp_artifact(20);
    const REQUESTS: usize = 40;
    let images = unique_images(REQUESTS, &[12], 5);
    let refs1 = references(&v1, &images);
    let refs2 = references(&v2, &images);
    assert_ne!(refs1[0], refs2[0], "fixture versions must differ");

    let (fleet, wire) = start_wired_fleet(
        FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        &[FpgaDevice::XC7Z045, FpgaDevice::XCZU3CG],
    );
    let addr = wire.local_addr();
    let mut client = FleetClient::connect(addr).expect("connect");
    client.load("mlp", &v1).expect("load v1");

    let mut swapped = false;
    for (i, image) in images.iter().enumerate() {
        if i == REQUESTS / 2 {
            // Roll v2 across the whole fleet while traffic is in flight.
            client.load("mlp", &v2).expect("hot swap to v2");
            swapped = true;
        }
        let out = client.infer("mlp", image).expect("infer across the swap");
        let matches_v1 = out.as_slice() == &refs1[i][..];
        let matches_v2 = out.as_slice() == &refs2[i][..];
        assert!(
            matches_v1 || matches_v2,
            "response {i} matches neither artifact version"
        );
        if swapped {
            // The rolled swap is complete before load() returns: every
            // later admission serves v2.
            assert!(matches_v2, "response {i} served stale weights");
        }
    }
    wire.stop();
    fleet.shutdown();
}

#[test]
fn wire_errors_are_typed_and_shutdown_verb_stops_the_front_end() {
    let (fleet, wire) = start_wired_fleet(
        FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        &[FpgaDevice::XC7Z020],
    );
    let addr = wire.local_addr();
    let mut client = FleetClient::connect(addr).expect("connect");

    // Unknown model: typed across the wire, connection stays usable.
    let err = client
        .infer("ghost", &Tensor::zeros(&[12]))
        .expect_err("unknown model");
    assert_eq!(
        err,
        ServeError::UnknownModel {
            model: "ghost".into()
        }
    );
    // A malformed artifact is refused typed; nothing is registered.
    let err = client
        .load("mlp", b"not an artifact")
        .expect_err("bad load");
    assert!(matches!(err, ServeError::RemoteInference { .. }), "{err:?}");
    assert!(client.stats().expect("stats").replicas[0].models.is_empty());

    // The shutdown verb stops the front end; the fleet stays up for its
    // owner (replica servers still running) until shutdown() here.
    client.shutdown_server().expect("shutdown verb");
    wire.stop();
    assert!(wire.is_stopped());
    assert!(
        FleetClient::connect_with_timeout(addr, Duration::from_millis(200))
            .and_then(|mut c| c.stats())
            .is_err(),
        "front end still answering after shutdown"
    );
    assert_eq!(fleet.replica_count(), 1);
    fleet.shutdown();
}

#[test]
fn artifact_loads_refuse_an_unverifiable_artifact() {
    // Byte-valid, but its plan fails the verifier `import_compiled` runs:
    // every artifact load path refuses it typed and registers nothing.
    let bytes = common::unverifiable_mlp_artifact();
    let refused = |err: ServeError, path: &str| match err {
        ServeError::Verification { report } => {
            assert!(report.contains("geom-gemm"), "{path}: {report}")
        }
        other => panic!("{path}: expected Verification, got {other:?}"),
    };

    let server = ModelServer::start(ServeConfig::default().with_threads(1));
    refused(
        server
            .load_artifact("mlp", &bytes)
            .expect_err("server load"),
        "ModelServer::load_artifact",
    );
    assert!(server.models().is_empty());
    server.shutdown();

    let (fleet, wire) = start_wired_fleet(
        FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        &[FpgaDevice::XC7Z020, FpgaDevice::XC7Z045],
    );
    refused(
        fleet.load_artifact("mlp", &bytes).expect_err("fleet load"),
        "FleetServer::load_artifact",
    );
    let mut client = FleetClient::connect(wire.local_addr()).expect("connect");
    refused(
        client.load("mlp", &bytes).expect_err("wire load"),
        "FleetClient::load",
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.replicas.len(), 2);
    assert!(
        stats.replicas.iter().all(|r| r.models.is_empty()),
        "a refused artifact was registered"
    );
    wire.stop();
    fleet.shutdown();
}
