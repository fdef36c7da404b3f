//! Hand-rolled length-prefixed wire protocol over `std::net` — the fleet's
//! socket front end. No external deps: the environment is vendored-only.
//!
//! # Frame layout
//!
//! ```text
//! ┌──────┬──────┬──────────────┬─────────────────┐
//! │ 0x4D │ 0x58 │ verb (1 B)   │ len (u32 LE)    │  7-byte header
//! ├──────┴──────┴──────────────┴─────────────────┤
//! │ payload (len bytes, ≤ 64 MiB)                │
//! └──────────────────────────────────────────────┘
//! ```
//!
//! Requests: [`verb::INFER`] (model string + tensor), [`verb::LOAD`]
//! (model string + artifact bytes), [`verb::STATS`] (empty),
//! [`verb::SHUTDOWN`] (empty), [`verb::METRICS`] (empty; answers with the
//! process-wide registry rendered as Prometheus text). Responses:
//! [`verb::OK`] with a
//! verb-specific payload, or [`verb::ERR`] carrying a typed error frame
//! that decodes back into a [`ServeError`] variant.
//!
//! Every length is validated before it allocates: frames above
//! [`MAX_FRAME_BYTES`] and tensors above [`MAX_TENSOR_ELEMENTS`] are
//! rejected typed, truncated payloads read only what actually arrived,
//! and malformed bytes can never panic the peer — `tests/wire_fuzz.rs`
//! holds the codec to the same standard as the `MMCM` artifact fuzzer.
//!
//! Strings are length-prefixed UTF-8 (u16), scalars little-endian; f32
//! tensor data crosses the wire bit-exactly, so a remote `infer` answer
//! is bit-identical to the engine's local output.

use crate::error::ServeError;
use crate::fleet::{FleetServer, FleetStats, ModelCost, ReplicaStats};
use crate::health::{HealthSnapshot, HealthState};
use crate::metrics::{ModelStats, StageStats};
use mixmatch_tensor::Tensor;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The two magic bytes opening every frame (`"MX"`).
pub const MAGIC: [u8; 2] = [0x4D, 0x58];

/// Hard cap on one frame's payload; a larger length prefix is rejected
/// before anything is allocated.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Largest tensor rank the codec accepts.
pub const MAX_TENSOR_RANK: usize = 8;

/// Largest element count the tensor codec accepts (16 Mi floats, 64 MiB).
pub const MAX_TENSOR_ELEMENTS: usize = 1 << 24;

/// Frame verbs (requests) and statuses (responses).
pub mod verb {
    /// Request: run one image through a model.
    pub const INFER: u8 = 0x01;
    /// Request: roll an `MMCM` artifact across the fleet.
    pub const LOAD: u8 = 0x02;
    /// Request: the fleet's per-replica stats snapshot.
    pub const STATS: u8 = 0x03;
    /// Request: stop the wire front end.
    pub const SHUTDOWN: u8 = 0x04;
    /// Request: the process-wide metrics registry as Prometheus text.
    pub const METRICS: u8 = 0x05;
    /// Response: success; payload depends on the request verb.
    pub const OK: u8 = 0x80;
    /// Response: a typed error frame (see `encode_error`).
    pub const ERR: u8 = 0x81;
}

/// Error codes inside an [`verb::ERR`] frame, mirroring [`ServeError`].
mod code {
    pub const OVERLOADED: u8 = 1;
    pub const UNKNOWN_MODEL: u8 = 2;
    pub const SHUTTING_DOWN: u8 = 3;
    pub const INFERENCE: u8 = 4;
    pub const DROPPED: u8 = 5;
    pub const TIMEOUT: u8 = 6;
    pub const WIRE: u8 = 7;
    pub const NO_REPLICA: u8 = 8;
    pub const VERIFICATION: u8 = 9;
}

/// The wire error code for every [`ServeError`] variant. The match is
/// deliberately wildcard-free: adding a `ServeError` variant without
/// deciding its wire mirroring is a compile error here, not a silent
/// protocol hole. [`encode_error`]/[`decode_error`] stay in lock-step with
/// this mapping (`wire_error_codes_cover_every_variant` round-trips it).
pub fn wire_code(error: &ServeError) -> u8 {
    match error {
        ServeError::Overloaded { .. } => code::OVERLOADED,
        ServeError::UnknownModel { .. } => code::UNKNOWN_MODEL,
        ServeError::ShuttingDown => code::SHUTTING_DOWN,
        // Local and remote inference failures share one wire code: the
        // structured QuantError never crosses the wire, only its rendering.
        ServeError::Inference(_) => code::INFERENCE,
        ServeError::RemoteInference { .. } => code::INFERENCE,
        ServeError::Dropped => code::DROPPED,
        ServeError::Timeout { .. } => code::TIMEOUT,
        ServeError::Wire { .. } => code::WIRE,
        ServeError::NoReplica { .. } => code::NO_REPLICA,
        ServeError::Verification { .. } => code::VERIFICATION,
    }
}

fn wire_err(reason: impl Into<String>) -> ServeError {
    ServeError::Wire {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one frame.
///
/// # Errors
///
/// [`ServeError::Wire`] on an oversized payload or a transport failure.
pub fn write_frame(w: &mut impl Write, verb: u8, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
            payload.len()
        )));
    }
    let mut header = [0u8; 7];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = verb;
    header[3..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| wire_err(format!("frame write failed: {e}")))
}

/// Reads one frame: `(verb, payload)`.
///
/// A lying length prefix cannot over-allocate: the cap is checked before
/// any allocation, and the payload buffer grows only with bytes that
/// actually arrive — a mid-frame disconnect fails typed with whatever
/// fraction was received.
///
/// # Errors
///
/// [`ServeError::Wire`] on bad magic, an over-cap length, truncation, or
/// a transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)
        .map_err(|e| wire_err(format!("frame header: {e}")))?;
    read_frame_rest(first[0], r)
}

/// [`read_frame`] with the first byte already consumed (the connection
/// handler peels one byte off to poll for idleness).
fn read_frame_rest(first: u8, r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
    let mut header = [0u8; 6];
    r.read_exact(&mut header)
        .map_err(|e| wire_err(format!("frame header: {e}")))?;
    if [first, header[0]] != MAGIC {
        return Err(wire_err("bad frame magic"));
    }
    let verb = header[1];
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| wire_err(format!("frame payload: {e}")))?;
    if payload.len() != len {
        return Err(wire_err(format!(
            "frame truncated: {} of {len} payload bytes arrived",
            payload.len()
        )));
    }
    Ok((verb, payload))
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a received payload.
struct Fields<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Fields { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| wire_err(format!("payload ends inside {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(
            self.bytes(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(
            self.bytes(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn string(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.u16(what)? as usize;
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| wire_err(format!("{what} is not UTF-8")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), ServeError> {
    let len = u16::try_from(s.len())
        .map_err(|_| wire_err(format!("string of {} bytes exceeds the u16 cap", s.len())))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Appends a tensor (rank, dims, bit-exact f32 data) to `out`.
///
/// # Errors
///
/// [`ServeError::Wire`] when the tensor exceeds the codec's rank or
/// element caps.
pub fn encode_tensor(out: &mut Vec<u8>, tensor: &Tensor) -> Result<(), ServeError> {
    let dims = tensor.dims();
    if dims.len() > MAX_TENSOR_RANK {
        return Err(wire_err(format!(
            "tensor rank {} exceeds the wire cap of {MAX_TENSOR_RANK}",
            dims.len()
        )));
    }
    let data = tensor.as_slice();
    if data.len() > MAX_TENSOR_ELEMENTS {
        return Err(wire_err(format!(
            "tensor of {} elements exceeds the wire cap of {MAX_TENSOR_ELEMENTS}",
            data.len()
        )));
    }
    out.push(dims.len() as u8);
    for &d in dims {
        let d = u32::try_from(d).map_err(|_| wire_err("tensor dimension exceeds u32"))?;
        put_u32(out, d);
    }
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// Decodes a tensor written by [`encode_tensor`] from `fields`.
fn decode_tensor_fields(fields: &mut Fields<'_>) -> Result<Tensor, ServeError> {
    let rank = fields.u8("tensor rank")? as usize;
    // Rank 0 is unrepresentable (`Shape` requires ≥ 1 dimension) — reject
    // it here or the constructor would panic on network-supplied bytes.
    if rank == 0 || rank > MAX_TENSOR_RANK {
        return Err(wire_err(format!(
            "tensor rank {rank} outside the wire range 1..={MAX_TENSOR_RANK}"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut elements = 1usize;
    for _ in 0..rank {
        let d = fields.u32("tensor dims")? as usize;
        elements = elements
            .checked_mul(d)
            .filter(|&n| n <= MAX_TENSOR_ELEMENTS)
            .ok_or_else(|| wire_err("tensor element count exceeds the wire cap"))?;
        dims.push(d);
    }
    let bytes = fields.bytes(elements * 4, "tensor data")?;
    let data: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Tensor::from_vec(data, &dims).map_err(|e| wire_err(format!("tensor rejected: {e}")))
}

/// Decodes a standalone tensor payload (the `INFER` response).
///
/// # Errors
///
/// [`ServeError::Wire`] on any malformed byte.
pub fn decode_tensor(payload: &[u8]) -> Result<Tensor, ServeError> {
    let mut fields = Fields::new(payload);
    let tensor = decode_tensor_fields(&mut fields)?;
    fields.finish("tensor")?;
    Ok(tensor)
}

/// Encodes an `INFER` request payload: model name + image.
///
/// # Errors
///
/// [`ServeError::Wire`] when the name or tensor exceeds the codec caps.
pub fn encode_infer_request(model: &str, image: &Tensor) -> Result<Vec<u8>, ServeError> {
    let mut out = Vec::with_capacity(16 + image.as_slice().len() * 4);
    put_string(&mut out, model)?;
    encode_tensor(&mut out, image)?;
    Ok(out)
}

/// Decodes an `INFER` request payload.
///
/// # Errors
///
/// [`ServeError::Wire`] on any malformed byte.
pub fn decode_infer_request(payload: &[u8]) -> Result<(String, Tensor), ServeError> {
    let mut fields = Fields::new(payload);
    let model = fields.string("model name")?;
    let image = decode_tensor_fields(&mut fields)?;
    fields.finish("infer request")?;
    Ok((model, image))
}

/// Encodes a `LOAD` request payload: model name + `MMCM` artifact bytes.
///
/// # Errors
///
/// [`ServeError::Wire`] when the name or artifact exceeds the codec caps.
pub fn encode_load_request(model: &str, artifact: &[u8]) -> Result<Vec<u8>, ServeError> {
    let mut out = Vec::with_capacity(4 + model.len() + artifact.len());
    put_string(&mut out, model)?;
    out.extend_from_slice(artifact);
    if out.len() > MAX_FRAME_BYTES {
        return Err(wire_err("artifact exceeds the frame cap"));
    }
    Ok(out)
}

/// Decodes a `LOAD` request payload.
///
/// # Errors
///
/// [`ServeError::Wire`] on any malformed byte.
pub fn decode_load_request(payload: &[u8]) -> Result<(String, Vec<u8>), ServeError> {
    let mut fields = Fields::new(payload);
    let model = fields.string("model name")?;
    let artifact = fields.rest().to_vec();
    Ok((model, artifact))
}

/// Encodes a [`ServeError`] as a typed error frame payload. The leading
/// code byte always comes from [`wire_code`]; the match here (also
/// wildcard-free) only decides the variant's payload fields.
pub fn encode_error(error: &ServeError) -> Vec<u8> {
    let mut out = vec![wire_code(error)];
    match error {
        ServeError::Overloaded { queue_depth } => {
            put_u64(&mut out, *queue_depth as u64);
        }
        ServeError::UnknownModel { model } => {
            let _ = put_string(&mut out, model);
        }
        ServeError::ShuttingDown => {}
        // The structured QuantError stays server-side; its rendering
        // crosses the wire and decodes as RemoteInference.
        ServeError::Inference(e) => {
            let _ = put_string(&mut out, &e.to_string());
        }
        ServeError::RemoteInference { detail } => {
            let _ = put_string(&mut out, detail);
        }
        ServeError::Dropped => {}
        ServeError::Timeout { waited } => {
            put_u64(&mut out, waited.as_micros().min(u64::MAX as u128) as u64);
        }
        ServeError::Wire { reason } => {
            let _ = put_string(&mut out, reason);
        }
        ServeError::NoReplica { model } => {
            let _ = put_string(&mut out, model);
        }
        ServeError::Verification { report } => {
            let _ = put_string(&mut out, report);
        }
    }
    out
}

/// Decodes a typed error frame payload back into a [`ServeError`]. A
/// malformed error frame decodes as [`ServeError::Wire`] — the caller
/// always gets *some* typed error.
pub fn decode_error(payload: &[u8]) -> ServeError {
    fn inner(payload: &[u8]) -> Result<ServeError, ServeError> {
        let mut fields = Fields::new(payload);
        let error = match fields.u8("error code")? {
            code::OVERLOADED => ServeError::Overloaded {
                queue_depth: fields.u64("queue depth")? as usize,
            },
            code::UNKNOWN_MODEL => ServeError::UnknownModel {
                model: fields.string("model name")?,
            },
            code::SHUTTING_DOWN => ServeError::ShuttingDown,
            code::INFERENCE => ServeError::RemoteInference {
                detail: fields.string("error detail")?,
            },
            code::DROPPED => ServeError::Dropped,
            code::TIMEOUT => ServeError::Timeout {
                waited: Duration::from_micros(fields.u64("timeout")?),
            },
            code::WIRE => ServeError::Wire {
                reason: fields.string("wire reason")?,
            },
            code::NO_REPLICA => ServeError::NoReplica {
                model: fields.string("model name")?,
            },
            code::VERIFICATION => ServeError::Verification {
                report: fields.string("verification report")?,
            },
            other => return Err(wire_err(format!("unknown error code {other}"))),
        };
        fields.finish("error frame")?;
        Ok(error)
    }
    inner(payload).unwrap_or_else(|e| e)
}

fn encode_model_stats(out: &mut Vec<u8>, stats: &ModelStats) -> Result<(), ServeError> {
    put_string(out, &stats.model)?;
    put_u64(out, stats.completed);
    put_u64(out, stats.rejected);
    put_u64(out, stats.failed);
    put_u64(out, stats.batches);
    put_u64(out, stats.mean_batch.to_bits());
    put_u64(out, stats.queue_depth);
    for p in [stats.p50, stats.p95, stats.p99, stats.p999] {
        put_u64(out, p.as_micros().min(u64::MAX as u128) as u64);
    }
    let stages =
        u16::try_from(stats.stages.len()).map_err(|_| wire_err("stage count exceeds u16"))?;
    put_u16(out, stages);
    for stage in &stats.stages {
        put_string(out, &stage.stage)?;
        put_u64(out, stage.count);
        for p in [stage.p50, stage.p95, stage.p99] {
            put_u64(out, p.as_micros().min(u64::MAX as u128) as u64);
        }
    }
    Ok(())
}

fn decode_model_stats(fields: &mut Fields<'_>) -> Result<ModelStats, ServeError> {
    let mut stats = ModelStats {
        model: fields.string("model name")?,
        completed: fields.u64("completed")?,
        rejected: fields.u64("rejected")?,
        failed: fields.u64("failed")?,
        batches: fields.u64("batches")?,
        mean_batch: fields.f64("mean batch")?,
        queue_depth: fields.u64("queue depth")?,
        p50: Duration::from_micros(fields.u64("p50")?),
        p95: Duration::from_micros(fields.u64("p95")?),
        p99: Duration::from_micros(fields.u64("p99")?),
        p999: Duration::from_micros(fields.u64("p999")?),
        stages: Vec::new(),
    };
    let stage_count = fields.u16("stage count")? as usize;
    stats.stages.reserve(stage_count.min(16));
    for _ in 0..stage_count {
        stats.stages.push(StageStats {
            stage: fields.string("stage name")?,
            count: fields.u64("stage count value")?,
            p50: Duration::from_micros(fields.u64("stage p50")?),
            p95: Duration::from_micros(fields.u64("stage p95")?),
            p99: Duration::from_micros(fields.u64("stage p99")?),
        });
    }
    Ok(stats)
}

/// Encodes a fleet snapshot (the `STATS` response payload).
///
/// # Errors
///
/// [`ServeError::Wire`] when a count or string exceeds its u16 cap.
pub fn encode_fleet_stats(stats: &FleetStats) -> Result<Vec<u8>, ServeError> {
    let mut out = Vec::new();
    let replicas =
        u16::try_from(stats.replicas.len()).map_err(|_| wire_err("replica count exceeds u16"))?;
    put_u16(&mut out, replicas);
    for replica in &stats.replicas {
        put_string(&mut out, &replica.label)?;
        put_string(&mut out, &replica.target)?;
        out.push(match replica.health.state {
            HealthState::Healthy => 0,
            HealthState::Evicted => 1,
            HealthState::Probing => 2,
        });
        put_u32(&mut out, replica.health.consecutive_failures);
        put_u64(&mut out, replica.health.evictions);
        put_u64(&mut out, replica.queue_depth);
        let costs =
            u16::try_from(replica.costs.len()).map_err(|_| wire_err("cost count exceeds u16"))?;
        put_u16(&mut out, costs);
        for cost in &replica.costs {
            put_string(&mut out, &cost.model)?;
            put_u64(&mut out, cost.cost_per_image_us.to_bits());
        }
        let models =
            u16::try_from(replica.models.len()).map_err(|_| wire_err("model count exceeds u16"))?;
        put_u16(&mut out, models);
        for model in &replica.models {
            encode_model_stats(&mut out, model)?;
        }
    }
    Ok(out)
}

/// Decodes a fleet snapshot written by [`encode_fleet_stats`].
///
/// # Errors
///
/// [`ServeError::Wire`] on any malformed byte.
pub fn decode_fleet_stats(payload: &[u8]) -> Result<FleetStats, ServeError> {
    let mut fields = Fields::new(payload);
    let replica_count = fields.u16("replica count")? as usize;
    let mut replicas = Vec::with_capacity(replica_count.min(256));
    for _ in 0..replica_count {
        let label = fields.string("replica label")?;
        let target = fields.string("replica target")?;
        let state = match fields.u8("health state")? {
            0 => HealthState::Healthy,
            1 => HealthState::Evicted,
            2 => HealthState::Probing,
            other => return Err(wire_err(format!("unknown health state {other}"))),
        };
        let health = HealthSnapshot {
            state,
            consecutive_failures: fields.u32("consecutive failures")?,
            evictions: fields.u64("evictions")?,
        };
        let queue_depth = fields.u64("queue depth")?;
        let cost_count = fields.u16("cost count")? as usize;
        let mut costs = Vec::with_capacity(cost_count.min(256));
        for _ in 0..cost_count {
            costs.push(ModelCost {
                model: fields.string("cost model")?,
                cost_per_image_us: fields.f64("cost value")?,
            });
        }
        let model_count = fields.u16("model count")? as usize;
        let mut models = Vec::with_capacity(model_count.min(256));
        for _ in 0..model_count {
            models.push(decode_model_stats(&mut fields)?);
        }
        replicas.push(ReplicaStats {
            label,
            target,
            health,
            queue_depth,
            costs,
            models,
        });
    }
    fields.finish("fleet stats")?;
    Ok(FleetStats { replicas })
}

// ---------------------------------------------------------------------------
// Blocking client
// ---------------------------------------------------------------------------

/// Small blocking client for the fleet wire protocol: one TCP connection,
/// lock-step request/response. Open-loop traffic runs one client per
/// submitter thread, as the repository benchmark (`perfbench`) does.
pub struct FleetClient {
    stream: TcpStream,
}

impl FleetClient {
    /// Connects with a 60 s I/O timeout on replies.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with_timeout(addr, Duration::from_secs(60))
    }

    /// Connects with an explicit reply timeout (a blocked read fails with
    /// a typed [`ServeError::Wire`] instead of hanging forever).
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] when the connection cannot be established.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| wire_err(format!("connect: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| wire_err(format!("set read timeout: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| wire_err(format!("set nodelay: {e}")))?;
        Ok(FleetClient { stream })
    }

    fn call(&mut self, request: u8, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        write_frame(&mut self.stream, request, payload)?;
        let (status, body) = read_frame(&mut self.stream)?;
        match status {
            verb::OK => Ok(body),
            verb::ERR => Err(decode_error(&body)),
            other => Err(wire_err(format!("unexpected response verb 0x{other:02x}"))),
        }
    }

    /// Runs one image through `model` on the remote fleet. The reply is
    /// bit-identical to the engine's local `run_plan` output.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the remote answered with, or
    /// [`ServeError::Wire`] when the transport failed.
    pub fn infer(&mut self, model: &str, image: &Tensor) -> Result<Tensor, ServeError> {
        let payload = encode_infer_request(model, image)?;
        decode_tensor(&self.call(verb::INFER, &payload)?)
    }

    /// Rolls an `MMCM` artifact across the remote fleet under `model`.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the remote answered with, or
    /// [`ServeError::Wire`] when the transport failed.
    pub fn load(&mut self, model: &str, artifact: &[u8]) -> Result<(), ServeError> {
        let payload = encode_load_request(model, artifact)?;
        self.call(verb::LOAD, &payload).map(|_| ())
    }

    /// Fetches the fleet's per-replica stats snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the remote answered with, or
    /// [`ServeError::Wire`] when the transport failed.
    pub fn stats(&mut self) -> Result<FleetStats, ServeError> {
        decode_fleet_stats(&self.call(verb::STATS, &[])?)
    }

    /// Fetches the remote process's metrics registry rendered as
    /// Prometheus text — per-stage request histograms
    /// (`mixmatch_request_stage_seconds`), kernel tier counters, pool
    /// activity, and anything else the process registered.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the remote answered with, or
    /// [`ServeError::Wire`] when the transport failed or the page was not
    /// UTF-8.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let body = self.call(verb::METRICS, &[])?;
        String::from_utf8(body).map_err(|_| wire_err("metrics page is not UTF-8"))
    }

    /// Asks the remote wire front end to stop accepting connections (the
    /// fleet behind it keeps running for its owner to drain).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the remote answered with, or
    /// [`ServeError::Wire`] when the transport failed.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        self.call(verb::SHUTDOWN, &[]).map(|_| ())
    }
}

// ---------------------------------------------------------------------------
// TCP front end
// ---------------------------------------------------------------------------

/// How long an idle connection poll sleeps between stop-flag checks.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Idle-poll read timeout on connection sockets (bounds how long a dead
/// client can hold its handler thread).
const CONN_POLL: Duration = Duration::from_millis(100);

/// Timeout for the remainder of a frame once its first byte arrived — a
/// peer that stalls mid-frame is treated as disconnected.
const FRAME_BODY_TIMEOUT: Duration = Duration::from_secs(10);

/// The fleet's TCP front end: an accept loop plus one handler thread per
/// connection, speaking the frame protocol above. Binding to port 0
/// picks an ephemeral port; read it back with [`WireServer::local_addr`].
pub struct WireServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl WireServer {
    /// Binds `addr` and starts serving `fleet` over it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] when the listener cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, fleet: Arc<FleetServer>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| wire_err(format!("bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| wire_err(format!("set nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| wire_err(format!("local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("mixmatch-wire-accept".into())
            .spawn(move || accept_loop(&listener, &fleet, &accept_stop))
            .expect("spawn wire accept thread");
        Ok(WireServer {
            local_addr,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the front end has been asked to stop (via [`WireServer::stop`]
    /// or a remote `SHUTDOWN` frame).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Stops accepting, drains the handler threads, and joins the accept
    /// loop. Idempotent; also runs on drop. The fleet behind the front
    /// end is left running — its owner decides when to drain it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.lock().expect("accept poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, fleet: &Arc<FleetServer>, stop: &Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let fleet = Arc::clone(fleet);
                let stop = Arc::clone(stop);
                let handler = std::thread::Builder::new()
                    .name("mixmatch-wire-conn".into())
                    .spawn(move || serve_conn(stream, &fleet, &stop))
                    .expect("spawn wire connection thread");
                handlers.push(handler);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// One connection: poll for a frame, dispatch, answer, repeat. Frame-level
/// decode errors are answered in-band (the frame boundary is intact);
/// header-level corruption desynchronizes the stream, so the handler
/// answers once and closes.
fn serve_conn(mut stream: TcpStream, fleet: &FleetServer, stop: &AtomicBool) {
    if stream.set_read_timeout(Some(CONN_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Peel one byte off so an idle wait keeps checking the stop flag.
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        }
        // The frame started: a peer stalling mid-frame now counts as a
        // mid-frame disconnect, not an idle wait.
        let _ = stream.set_read_timeout(Some(FRAME_BODY_TIMEOUT));
        let frame = read_frame_rest(first[0], &mut stream);
        let _ = stream.set_read_timeout(Some(CONN_POLL));
        let (request, payload) = match frame {
            Ok(frame) => frame,
            Err(e) => {
                // Desynchronized: answer typed and give the stream up.
                let _ = write_frame(&mut stream, verb::ERR, &encode_error(&e));
                return;
            }
        };
        let response = dispatch(request, &payload, fleet, stop);
        let written = match &response {
            Ok(body) => write_frame(&mut stream, verb::OK, body),
            Err(e) => write_frame(&mut stream, verb::ERR, &encode_error(e)),
        };
        if written.is_err() || stop.load(Ordering::Acquire) {
            return;
        }
    }
}

fn dispatch(
    request: u8,
    payload: &[u8],
    fleet: &FleetServer,
    stop: &AtomicBool,
) -> Result<Vec<u8>, ServeError> {
    match request {
        verb::INFER => {
            let (model, image) = decode_infer_request(payload)?;
            let output = fleet
                .infer(&model, image)?
                .wait_timeout(fleet.config().reply_timeout)?;
            let mut body = Vec::with_capacity(16 + output.as_slice().len() * 4);
            encode_tensor(&mut body, &output)?;
            Ok(body)
        }
        verb::LOAD => {
            let (model, artifact) = decode_load_request(payload)?;
            fleet.load_artifact(&model, &artifact)?;
            Ok(Vec::new())
        }
        verb::STATS => encode_fleet_stats(&fleet.stats()),
        // Like STATS, the payload is ignored: the verb is the request.
        verb::METRICS => Ok(mixmatch_obs::Registry::global()
            .render_prometheus()
            .into_bytes()),
        verb::SHUTDOWN => {
            stop.store(true, Ordering::Release);
            Ok(Vec::new())
        }
        other => Err(wire_err(format!("unknown verb 0x{other:02x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips_and_oversized_prefix_fails_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, verb::INFER, b"hello").expect("write");
        let (v, payload) = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!((v, payload.as_slice()), (verb::INFER, &b"hello"[..]));
        // A length prefix beyond the cap fails typed with no payload read.
        let mut lying = vec![MAGIC[0], MAGIC[1], verb::INFER];
        lying.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(&lying)).unwrap_err();
        assert!(matches!(err, ServeError::Wire { .. }), "{err:?}");
        // Bad magic fails typed.
        let err = read_frame(&mut Cursor::new(b"XX\x01\x00\x00\x00\x00")).unwrap_err();
        assert!(matches!(err, ServeError::Wire { .. }));
    }

    #[test]
    fn infer_request_round_trips_bit_exactly() {
        let image =
            Tensor::from_vec(vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0], &[2, 2]).expect("tensor");
        let payload = encode_infer_request("resnet", &image).expect("encode");
        let (model, back) = decode_infer_request(&payload).expect("decode");
        assert_eq!(model, "resnet");
        assert_eq!(back.dims(), image.dims());
        assert_eq!(back.as_slice(), image.as_slice());
    }

    #[test]
    fn error_frames_mirror_serve_error() {
        for error in [
            ServeError::Overloaded { queue_depth: 256 },
            ServeError::UnknownModel {
                model: "ghost".into(),
            },
            ServeError::ShuttingDown,
            ServeError::Dropped,
            ServeError::Timeout {
                waited: Duration::from_millis(250),
            },
            ServeError::Wire {
                reason: "boom".into(),
            },
            ServeError::NoReplica {
                model: "resnet".into(),
            },
            ServeError::RemoteInference {
                detail: "shape mismatch".into(),
            },
            ServeError::Verification {
                report: "[geom-conv] step 0: bad geometry".into(),
            },
        ] {
            let decoded = decode_error(&encode_error(&error));
            assert_eq!(decoded, error, "round trip of {error:?}");
        }
        // Garbage error frames still decode to something typed.
        assert!(matches!(decode_error(&[99, 1, 2]), ServeError::Wire { .. }));
        assert!(matches!(decode_error(&[]), ServeError::Wire { .. }));
    }

    /// One exemplar per [`ServeError`] variant; together with the
    /// wildcard-free matches in [`wire_code`]/[`encode_error`] this keeps
    /// the protocol total: a new variant fails compilation there and this
    /// test pins each variant's code byte and its encode/decode agreement.
    #[test]
    fn wire_error_codes_cover_every_variant() {
        use mixmatch_quant::QuantError;
        let exemplars: Vec<(ServeError, u8)> = vec![
            (ServeError::Overloaded { queue_depth: 1 }, code::OVERLOADED),
            (
                ServeError::UnknownModel { model: "m".into() },
                code::UNKNOWN_MODEL,
            ),
            (ServeError::ShuttingDown, code::SHUTTING_DOWN),
            (
                ServeError::Inference(QuantError::NoLoweredGraph),
                code::INFERENCE,
            ),
            (ServeError::Dropped, code::DROPPED),
            (
                ServeError::Timeout {
                    waited: Duration::from_micros(5),
                },
                code::TIMEOUT,
            ),
            (ServeError::Wire { reason: "r".into() }, code::WIRE),
            (
                ServeError::RemoteInference { detail: "d".into() },
                code::INFERENCE,
            ),
            (
                ServeError::NoReplica { model: "m".into() },
                code::NO_REPLICA,
            ),
            (
                ServeError::Verification { report: "v".into() },
                code::VERIFICATION,
            ),
        ];
        for (error, expected) in &exemplars {
            assert_eq!(wire_code(error), *expected, "code of {error:?}");
            let frame = encode_error(error);
            assert_eq!(frame[0], *expected, "frame byte of {error:?}");
            // Decoding always lands on the variant the code byte names
            // (Inference deliberately folds into RemoteInference).
            let decoded = decode_error(&frame);
            assert_eq!(wire_code(&decoded), *expected, "decode of {error:?}");
        }
        // Every declared code is exercised by some variant above.
        let covered: std::collections::HashSet<u8> = exemplars.iter().map(|(_, c)| *c).collect();
        for declared in [
            code::OVERLOADED,
            code::UNKNOWN_MODEL,
            code::SHUTTING_DOWN,
            code::INFERENCE,
            code::DROPPED,
            code::TIMEOUT,
            code::WIRE,
            code::NO_REPLICA,
            code::VERIFICATION,
        ] {
            assert!(covered.contains(&declared), "code {declared} unexercised");
        }
    }

    #[test]
    fn fleet_stats_round_trip() {
        let stats = FleetStats {
            replicas: vec![ReplicaStats {
                label: "r0".into(),
                target: "7Z045 1:2".into(),
                health: HealthSnapshot {
                    state: HealthState::Probing,
                    consecutive_failures: 2,
                    evictions: 1,
                },
                queue_depth: 7,
                costs: vec![ModelCost {
                    model: "resnet".into(),
                    cost_per_image_us: 123.456,
                }],
                models: vec![ModelStats {
                    model: "resnet".into(),
                    completed: 10,
                    rejected: 1,
                    failed: 2,
                    batches: 3,
                    mean_batch: 3.5,
                    queue_depth: 4,
                    p50: Duration::from_micros(128),
                    p95: Duration::from_micros(512),
                    p99: Duration::from_micros(1024),
                    p999: Duration::from_micros(4096),
                    stages: vec![
                        StageStats {
                            stage: "queue".into(),
                            count: 10,
                            p50: Duration::from_micros(2),
                            p95: Duration::from_micros(8),
                            p99: Duration::from_micros(16),
                        },
                        StageStats {
                            stage: "execute".into(),
                            count: 10,
                            p50: Duration::from_micros(64),
                            p95: Duration::from_micros(256),
                            p99: Duration::from_micros(512),
                        },
                    ],
                }],
            }],
        };
        let decoded =
            decode_fleet_stats(&encode_fleet_stats(&stats).expect("encode")).expect("decode");
        assert_eq!(decoded, stats);
    }

    #[test]
    fn truncated_payload_reports_received_fraction() {
        let mut buf = Vec::new();
        write_frame(&mut buf, verb::LOAD, &[7u8; 100]).expect("write");
        buf.truncate(buf.len() - 40);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        match err {
            ServeError::Wire { reason } => assert!(reason.contains("60 of 100"), "{reason}"),
            other => panic!("expected wire error, got {other:?}"),
        }
    }
}
