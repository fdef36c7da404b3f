//! The three workloads. Each has a set-up step (timed, repeated) and a
//! measured traffic window that checks every output against references
//! computed before the window starts. Each also hot-swaps the served
//! artifact between the seed-A and seed-B models through its own entry
//! point, so work moved from inference into loading shows in
//! `swap_p50_ms`.
//!
//! - `offline-b32`: closed loop, one caller, `run_plan_batch` on batch-32
//!   16×16 images — kernels, im2col and the engine fan-out. Its swap is
//!   `import_compiled` of the other artifact, timed between calls at the
//!   slice boundaries of the window.
//! - `serve-heavy`: open loop into an in-process `ModelServer`, Poisson
//!   arrivals at a fixed rate with large coalesced batches — admission,
//!   batching and queueing, no wire or router. Its swap is
//!   `load_artifact` into the idle server, timed outside the window.
//! - `tcp-sparse-swap`: open loop over two TCP connections into a
//!   two-replica `FleetServer` at a low fixed rate, so batches are about 1
//!   and fixed per-request costs dominate. Every 25th request on
//!   connection 0 is a LOAD, timed under traffic.

use crate::fixture::{self, MODEL, OFFLINE_HW, SERVE_HW};
use crate::stats::{poisson_schedule, Samples, Timed};
use mixmatch_fpga::device::FpgaDevice;
use mixmatch_obs::trace;
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::pipeline::CompiledModel;
use mixmatch_serve::{
    FleetClient, FleetConfig, FleetServer, ModelServer, Pending, ReplicaSpec, ServeConfig,
    ServeError, WireServer,
};
use mixmatch_tensor::Tensor;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Timed swaps on each side of the `serve-heavy` window. An even count,
/// so each side ends on the seed-A model the window is checked against.
pub const HEAVY_SWAPS: usize = 128;

/// Timed swaps at each slice boundary of the `offline-b32` window. A
/// 0.2 ms import runs at one of two speeds depending on the host's state,
/// which holds for a few hundred milliseconds at a time; only samples
/// spread over the whole run give a steady median.
pub const OFFLINE_SWAPS: usize = 16;

/// Latency percentiles, swap latency and closed-loop throughput are
/// medians over this many equal slices of the measured window, so a burst
/// of host noise in one or two slices does not move them.
pub const SLICES: usize = 10;

/// Offered rate of `serve-heavy`, images/s: a fixed number, never a
/// fraction of a capacity measured in the same run.
pub const HEAVY_RATE: f64 = 1800.0;

/// Total offered rate of `tcp-sparse-swap` over both connections, req/s.
pub const TCP_RATE: f64 = 100.0;

/// Connections (and generator threads) `tcp-sparse-swap` uses.
pub const TCP_CONNECTIONS: usize = 2;

/// Every `TCP_SWAP_EVERY`-th request on connection 0 is a LOAD.
pub const TCP_SWAP_EVERY: usize = 25;

/// What one traffic window measured.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Milliseconds per batch call (offline, stamped at the call's start)
    /// or per request from its due time (serving, stamped at the due time).
    pub latency: Timed,
    /// Images per batch call, stamped like `latency` (closed loop only).
    pub images: Timed,
    /// Milliseconds per LOAD (`tcp-sparse-swap`), stamped at its due time.
    pub swap: Timed,
    /// Length of the schedule (open loop) or of the timed loop (closed).
    pub span: Duration,
    /// How late the generator issued each request.
    pub late_ms: Samples,
    /// Wall time of each admission call (`ModelServer::infer`).
    pub admit_us: Samples,
    /// Requests, swaps or batch calls issued.
    pub sent: u64,
    pub completed_images: u64,
    /// Errors, timeouts and failed swaps.
    pub failed: u64,
    /// Admission refusals (`Overloaded`).
    pub rejected: u64,
    /// Replies whose bits matched no accepted reference.
    pub mismatches: u64,
    /// From the first due time to the last completion.
    pub window: Duration,
    /// Largest sampled `ModelServer::queue_len`.
    pub queue_max: u64,
}

impl Traffic {
    fn new(span: Duration) -> Self {
        Traffic {
            span,
            ..Traffic::default()
        }
    }

    /// Closed loop: the median over slices of images per second of batch
    /// calls. Open loop: completions over the window, which only falls
    /// below the fixed offered rate when the system cannot keep up.
    pub fn throughput_ips(&self) -> f64 {
        if self.images.len() > 0 {
            let ms_per_image = self.latency.sliced_ratio(&self.images, self.span, SLICES);
            1e3 / ms_per_image
        } else {
            self.completed_images as f64 / self.window.as_secs_f64()
        }
    }

    /// The median over slices of each slice's `q`-th latency percentile.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latency.sliced_percentile(self.span, SLICES, q)
    }

    /// The median over slices of each slice's median swap time.
    pub fn swap_p50_ms(&self) -> f64 {
        self.swap.sliced_percentile(self.span, SLICES, 50.0)
    }

    pub fn merge(&mut self, other: Traffic) {
        self.latency.extend(other.latency);
        self.images.extend(other.images);
        self.swap.extend(other.swap);
        self.late_ms.extend(other.late_ms);
        self.admit_us.extend(other.admit_us);
        self.span = self.span.max(other.span);
        self.sent += other.sent;
        self.completed_images += other.completed_images;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.mismatches += other.mismatches;
        self.window = self.window.max(other.window);
        self.queue_max = self.queue_max.max(other.queue_max);
    }
}

/// Swaps timed apart from the measured calls or arrivals. Each is checked
/// by one inference on the model it installed, so a swap that reports
/// success but leaves the old weights in place counts as a mismatch.
#[derive(Debug, Default)]
pub struct Swaps {
    pub ms: Samples,
    /// Swaps issued.
    pub sent: u64,
    /// Swaps or check inferences that returned an error.
    pub failed: u64,
    /// Check inferences whose bits differed from the installed model's.
    pub mismatches: u64,
}

/// Sleeps until `due`; returns how late the caller is afterwards.
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The seed-A and seed-B artifacts at `hw`, after `SETUP_REPS` timed
/// set-ups of A. One rep is `prepare` (what must run before the model
/// exists), quantize + export, then `finish`, which imports or loads the
/// artifact; the last rep's result is kept. Every rep must produce the
/// same bytes (set-up is seeded), so the references computed afterwards
/// hold for all of them.
fn artifacts<P, T>(
    seed: u64,
    hw: usize,
    setup_s: &mut Samples,
    mut prepare: impl FnMut() -> P,
    mut finish: impl FnMut(P, &[u8]) -> T,
) -> ([Vec<u8>; 2], T) {
    let mut kept: Option<(Vec<u8>, T)> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let prepared = prepare();
        let bytes = fixture::export(&fixture::quantize(
            fixture::derive(seed, fixture::MODEL_A),
            hw,
        ));
        let ready = finish(prepared, &bytes);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((first, _)) = &kept {
            assert_eq!(first, &bytes, "set-up is not deterministic");
        }
        kept = Some((bytes, ready));
    }
    let (a, ready) = kept.expect("at least one set-up rep");
    let b = fixture::export(&fixture::quantize(
        fixture::derive(seed, fixture::MODEL_B),
        hw,
    ));
    ([a, b], ready)
}

/// References for both artifacts: `refs[m][i]` is model `m`'s output for
/// input `i`.
fn references(artifacts: &[Vec<u8>; 2], inputs: &[Tensor]) -> [Vec<Tensor>; 2] {
    artifacts
        .each_ref()
        .map(|bytes| fixture::references(&fixture::import(bytes), inputs))
}

/// Whether `out` is the right answer for input `i`. `serving` names the
/// model the reply must come from; `None` accepts either model, for a
/// reply that races a swap.
fn matches_reference(
    refs: &[Vec<Tensor>; 2],
    serving: Option<usize>,
    i: usize,
    out: &Tensor,
) -> bool {
    match serving {
        Some(m) => fixture::same_bits(out, &refs[m][i]),
        None => refs.iter().any(|r| fixture::same_bits(out, &r[i])),
    }
}

// ---------------------------------------------------------------------------
// offline-b32
// ---------------------------------------------------------------------------

pub struct Offline {
    pub compiled: CompiledModel,
    pub batches: Vec<Vec<Tensor>>,
    artifacts: [Vec<u8>; 2],
    refs: [Vec<Tensor>; 2],
    pub setup_s: Samples,
}

/// Distinct batch-32 inputs cycled through by the closed loop.
const OFFLINE_BATCHES: usize = 8;

impl Offline {
    /// Set-up is quantize + export + import.
    pub fn setup(seed: u64) -> Self {
        let mut setup_s = Samples::new();
        let (artifacts, compiled) = artifacts(
            seed,
            OFFLINE_HW,
            &mut setup_s,
            || (),
            |(), bytes| fixture::import(bytes),
        );
        let images = fixture::images(seed, OFFLINE_HW, 32 * OFFLINE_BATCHES);
        let refs = references(&artifacts, &images);
        Offline {
            compiled,
            batches: images.chunks(32).map(<[Tensor]>::to_vec).collect(),
            artifacts,
            refs,
            setup_s,
        }
    }

    /// Back-to-back `run_plan_batch` calls on the global pool for `span`,
    /// on the seed-A model. With `swaps`, the caller also swaps at the
    /// start of each of the `SLICES` slices and after the last, between
    /// calls and outside their timing.
    pub fn run(&self, span: Duration, mut swaps: Option<&mut Swaps>) -> Traffic {
        let engine = BatchEngine::new();
        engine
            .run_plan_batch(&self.compiled, &self.batches[0])
            .expect("warm-up call");
        let mut traffic = Traffic::new(span);
        let start = Instant::now();
        let mut k = 0;
        let mut slice = 0;
        while start.elapsed() < span {
            if let Some(swaps) = swaps.as_deref_mut() {
                if start.elapsed() >= span.mul_f64(slice as f64 / SLICES as f64) {
                    self.swaps(swaps);
                    slice += 1;
                }
            }
            let which = k % self.batches.len();
            let t = Instant::now();
            let run = {
                let _span = trace::span("bench", "engine.run_plan_batch");
                engine.run_plan_batch(&self.compiled, &self.batches[which])
            };
            let took = t.elapsed();
            traffic.sent += 1;
            match run {
                Ok(run) => {
                    traffic.latency.push(t - start, ms(took));
                    traffic.images.push(t - start, run.outputs.len() as f64);
                    traffic.completed_images += run.outputs.len() as u64;
                    let refs = &self.refs[0][which * 32..];
                    traffic.mismatches += run
                        .outputs
                        .iter()
                        .zip(refs)
                        .filter(|(out, want)| !fixture::same_bits(out, want))
                        .count() as u64;
                }
                Err(_) => traffic.failed += 1,
            }
            k += 1;
        }
        traffic.window = start.elapsed();
        if let Some(swaps) = swaps {
            self.swaps(swaps);
        }
        traffic
    }

    /// `OFFLINE_SWAPS` timed swaps, alternating B and A. An offline caller
    /// has no server: its swap is importing the other artifact.
    fn swaps(&self, swaps: &mut Swaps) {
        let engine = BatchEngine::new();
        let image = &self.batches[0][..1];
        for k in 0..OFFLINE_SWAPS {
            let next = (k + 1) % 2;
            let t = Instant::now();
            let model = {
                let _span = trace::span("bench", "export.import_compiled");
                fixture::import(&self.artifacts[next])
            };
            swaps.ms.push_ms(t.elapsed());
            swaps.sent += 1;
            let plan = model.require_plan().expect("imported artifact has a plan");
            match engine.run_plan(model.model(), plan, image) {
                Ok(run) => {
                    swaps.mismatches += u64::from(!matches_reference(
                        &self.refs,
                        Some(next),
                        0,
                        &run.outputs[0],
                    ))
                }
                Err(_) => swaps.failed += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve-heavy
// ---------------------------------------------------------------------------

pub struct Heavy {
    pub server: ModelServer,
    images: Vec<Tensor>,
    artifacts: [Vec<u8>; 2],
    refs: [Vec<Tensor>; 2],
    pub setup_s: Samples,
}

/// Distinct 8×8 inputs cycled through by the serving workloads.
const SERVE_IMAGES: usize = 512;

impl Heavy {
    /// Set-up is quantize + export + server start + `load_artifact`.
    pub fn setup(seed: u64) -> Self {
        let mut setup_s = Samples::new();
        let (artifacts, server) = artifacts(
            seed,
            SERVE_HW,
            &mut setup_s,
            || (),
            |(), bytes| {
                let server = ModelServer::start(ServeConfig::default());
                server.load_artifact(MODEL, bytes).expect("load artifact");
                server
            },
        );
        let images = fixture::images(seed, SERVE_HW, SERVE_IMAGES);
        let refs = references(&artifacts, &images);
        Heavy {
            server,
            images,
            artifacts,
            refs,
            setup_s,
        }
    }

    /// One open-loop window on the seed-A model: a submit thread (this
    /// one) issues Poisson arrivals at `rate` for `span`; a reply thread
    /// joins each request in order and times it from its due time.
    pub fn window(&self, rate: f64, span: Duration, schedule_seed: u64) -> Traffic {
        let schedule = poisson_schedule(schedule_seed, rate, span);
        let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
        let start = Instant::now() + Duration::from_millis(2);
        std::thread::scope(|scope| {
            let refs = &self.refs;
            let replies = scope.spawn(move || {
                let mut t = Traffic::new(span);
                let mut last = start;
                for (img, due, pending) in rx {
                    let result = {
                        let _span = trace::span("bench", "pending.wait");
                        pending.wait()
                    };
                    let done = Instant::now();
                    last = done;
                    match result {
                        Ok(out) => {
                            t.latency
                                .push(due - start, ms(done.saturating_duration_since(due)));
                            t.completed_images += 1;
                            t.mismatches += u64::from(!matches_reference(refs, Some(0), img, &out));
                        }
                        Err(_) => t.failed += 1,
                    }
                }
                t.window = last.saturating_duration_since(start);
                t
            });
            let mut traffic = Traffic::new(span);
            for (i, offset) in schedule.iter().enumerate() {
                let due = start + *offset;
                let image = self.images[i % self.images.len()].clone();
                traffic.late_ms.push_ms(wait_until(due));
                traffic.sent += 1;
                let t = Instant::now();
                let admitted = {
                    let _span = trace::span("bench", "server.infer");
                    self.server.infer(MODEL, image)
                };
                traffic.admit_us.push_us(t.elapsed());
                match admitted {
                    Ok(pending) => tx
                        .send((i % self.images.len(), due, pending))
                        .expect("reply thread alive"),
                    Err(ServeError::Overloaded { .. }) => traffic.rejected += 1,
                    Err(_) => traffic.failed += 1,
                }
                if i % 8 == 0 {
                    traffic.queue_max = traffic.queue_max.max(self.server.queue_len());
                }
            }
            drop(tx);
            traffic.merge(replies.join().expect("reply thread"));
            traffic
        })
    }

    /// `HEAVY_SWAPS` timed `load_artifact` calls into the idle server,
    /// alternating B and A.
    pub fn swaps(&self, swaps: &mut Swaps) {
        for k in 0..HEAVY_SWAPS {
            let next = (k + 1) % 2;
            let t = Instant::now();
            let loaded = {
                let _span = trace::span("bench", "server.load_artifact");
                self.server.load_artifact(MODEL, &self.artifacts[next])
            };
            swaps.ms.push_ms(t.elapsed());
            swaps.sent += 1;
            let reply =
                loaded.and_then(|()| self.server.infer(MODEL, self.images[0].clone())?.wait());
            match reply {
                Ok(out) => {
                    swaps.mismatches +=
                        u64::from(!matches_reference(&self.refs, Some(next), 0, &out))
                }
                Err(_) => swaps.failed += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// tcp-sparse-swap
// ---------------------------------------------------------------------------

pub struct Tcp {
    /// Clients first: dropping them closes the connections before the
    /// wire server joins its handler threads.
    pub clients: Vec<FleetClient>,
    wire: WireServer,
    pub fleet: Arc<FleetServer>,
    artifacts: [Vec<u8>; 2],
    refs: [Vec<Tensor>; 2],
    images: Vec<Tensor>,
    /// Which artifact the fleet serves now (0 = A, 1 = B).
    serving: usize,
    pub setup_s: Samples,
}

/// The two heterogeneous replicas every fleet enrolls.
pub fn replica_specs() -> Vec<ReplicaSpec> {
    vec![
        ReplicaSpec::new("r0", fixture::target(FpgaDevice::XC7Z045, SERVE_HW)),
        ReplicaSpec::new("r1", fixture::target(FpgaDevice::XC7Z020, SERVE_HW)),
    ]
}

impl Tcp {
    /// Set-up is fleet and wire start + quantize + export + two
    /// connections + the initial LOAD over connection 0. The wire server
    /// starts before quantizing, so the connections meet its accept loop
    /// at a varying phase of its poll interval rather than racing its
    /// first poll.
    pub fn setup(seed: u64) -> Self {
        let mut setup_s = Samples::new();
        let (artifacts, (clients, wire, fleet)) = artifacts(
            seed,
            SERVE_HW,
            &mut setup_s,
            || {
                let fleet = Arc::new(FleetServer::start(FleetConfig::default(), replica_specs()));
                let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet)).expect("bind wire");
                (wire, fleet)
            },
            |(wire, fleet), bytes| {
                let mut clients: Vec<FleetClient> = (0..TCP_CONNECTIONS)
                    .map(|_| FleetClient::connect(wire.local_addr()).expect("connect"))
                    .collect();
                clients[0].load(MODEL, bytes).expect("initial LOAD");
                (clients, wire, fleet)
            },
        );
        let images = fixture::images(seed, SERVE_HW, SERVE_IMAGES);
        let refs = references(&artifacts, &images);
        Tcp {
            clients,
            wire,
            fleet,
            artifacts,
            refs,
            images,
            serving: 0,
            setup_s,
        }
    }

    /// One open-loop window: each connection runs on its own generator
    /// thread with its own Poisson schedule at half of `rate`, sending each
    /// request at its due time or, when the previous reply is late, right
    /// after it. Connection 0 turns every `TCP_SWAP_EVERY`-th request into
    /// a LOAD of the other artifact. It blocks on each call, so its
    /// replies must come from the model it loaded last; replies on
    /// connection 1 race the swaps and may come from either.
    pub fn window(&mut self, rate: f64, span: Duration, schedule_seed: u64) -> Traffic {
        let clients = std::mem::take(&mut self.clients);
        let start = Instant::now() + Duration::from_millis(2);
        let (images, refs, artifacts) = (&self.images, &self.refs, &self.artifacts);
        let first = self.serving;
        let results: Vec<(FleetClient, Traffic, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(conn, mut client)| {
                    scope.spawn(move || {
                        let schedule = poisson_schedule(
                            fixture::derive(schedule_seed, conn as u64),
                            rate / TCP_CONNECTIONS as f64,
                            span,
                        );
                        let mut t = Traffic::new(span);
                        let mut serving = first;
                        let mut last = start;
                        for (k, offset) in schedule.iter().enumerate() {
                            let due = start + *offset;
                            t.late_ms.push_ms(wait_until(due));
                            t.sent += 1;
                            if conn == 0 && k % TCP_SWAP_EVERY == TCP_SWAP_EVERY - 1 {
                                let next = 1 - serving;
                                let sent = Instant::now();
                                let loaded = {
                                    let _span = trace::span("bench", "client.load");
                                    client.load(MODEL, &artifacts[next])
                                };
                                last = Instant::now();
                                t.swap.push(*offset, ms(last - sent));
                                match loaded {
                                    Ok(()) => serving = next,
                                    Err(_) => t.failed += 1,
                                }
                                continue;
                            }
                            let img = (k * TCP_CONNECTIONS + conn) % images.len();
                            let reply = {
                                let _span = trace::span("bench", "client.infer");
                                client.infer(MODEL, &images[img])
                            };
                            let done = Instant::now();
                            last = done;
                            match reply {
                                Ok(out) => {
                                    t.latency
                                        .push(*offset, ms(done.saturating_duration_since(due)));
                                    t.completed_images += 1;
                                    let expect = (conn == 0).then_some(serving);
                                    t.mismatches +=
                                        u64::from(!matches_reference(refs, expect, img, &out));
                                }
                                Err(_) => t.failed += 1,
                            }
                        }
                        t.window = last.saturating_duration_since(start);
                        (client, t, serving)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut traffic = Traffic::new(span);
        for (conn, (client, t, serving)) in results.into_iter().enumerate() {
            if conn == 0 {
                self.serving = serving;
            }
            self.clients.push(client);
            traffic.merge(t);
        }
        traffic
    }

    pub fn shutdown(self) {
        drop(self.clients);
        self.wire.stop();
        self.fleet.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f32) -> Tensor {
        Tensor::from_vec(vec![v], &[1]).expect("tensor")
    }

    #[test]
    fn a_reply_from_the_stale_model_is_a_mismatch() {
        let refs = [vec![scalar(1.0)], vec![scalar(2.0)]];
        // Model B is installed: its answer is right, A's is stale.
        assert!(matches_reference(&refs, Some(1), 0, &scalar(2.0)));
        assert!(!matches_reference(&refs, Some(1), 0, &scalar(1.0)));
        // A reply racing the swap may come from either model, but no other.
        assert!(matches_reference(&refs, None, 0, &scalar(1.0)));
        assert!(matches_reference(&refs, None, 0, &scalar(2.0)));
        assert!(!matches_reference(&refs, None, 0, &scalar(3.0)));
    }
}
