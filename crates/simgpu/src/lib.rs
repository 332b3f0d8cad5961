//! Simulated multi-GPU cluster substrate.
//!
//! The paper ran on a 50-node cluster of 8× Titan X GPUs connected by
//! PCIe (intra-node) and Infiniband FDR (inter-node), driving collectives
//! through CUDA-aware MPI. This crate recreates that execution
//! environment on one machine:
//!
//! * [`device::Device`] — a simulated GPU: an id plus a memory accountant
//!   with capacity, live usage, peak tracking and out-of-memory errors
//!   (how the paper's baseline dies beyond 24 GPUs).
//! * [`comm`] — a thread-group communicator with **real** data-moving
//!   collectives: one ALLREDUCE ([`comm::Rank::all_reduce`]) whose wire
//!   format (f32, FP16 with compression scaling, lossless codec) and
//!   wire schedule (the flat ring of Gibiansky's ring-allreduce the
//!   paper cites, or the two-tier §V-C schedule) are parameters and
//!   which returns the per-tier bytes it charged; four variable-size
//!   ALLGATHERs (`u32`, `f32`, FP16, codec-framed `u32`) whose visiting
//!   and codec forms return theirs too; a scalar reduce and a barrier.
//! * [`traffic::TrafficSnapshot`] — an additive ledger of those returned
//!   bytes by collective class and tier, so experiments can assert the
//!   paper's Θ(G·K·D) vs Θ(G·K + Ug·D) communication claims on what the
//!   collectives charged.
//! * [`fault::FaultPlan`] — declarative fault injection (rank death at
//!   step N, stragglers, asymmetric per-rank memory limits); together
//!   with the communicator's abort flag it turns "one rank failed" into
//!   a typed [`comm::CommError`] on every peer instead of a deadlock.
//! * [`hw::HardwareConfig`] — Table II hardware presets (Titan X cluster;
//!   the V100/NVLink system of §V-D).
//! * [`cost`] — the α–β (latency–bandwidth) model translating byte
//!   volumes and FLOP counts into simulated wall-clock seconds.
//! * [`trace`] — per-rank structured tracing: a lock-free span recorder
//!   (ring buffer of [`trace::TraceEvent`]s) plus a Chrome-trace JSON
//!   exporter, so individual collectives, barrier waits and injected
//!   straggler delays are visible per rank, not just in aggregates.
//! * [`pool::RunGate`] / [`pool::run_ranks`] — a bounded worker pool so
//!   hundreds of ranks multiplex over ~num_cpus OS-thread run slots,
//!   parking slot-free at collectives (paper-scale worlds of 48–192
//!   ranks in tests and benches).
//!
//! Threads stand in for GPUs: one (small-stack) thread per rank holds
//! the rank's program state; collectives are rendezvous-style, moving
//! every payload through shared sender-indexed slots. Each collective
//! prices its own sends from the payload it actually moved (a codec's
//! from its encoded frames) and returns them split per interconnect
//! [`traffic::Tier`] (PCIe within a node, Infiniband between nodes).

#![forbid(unsafe_code)]

pub mod codec;
pub mod comm;
pub mod cost;
pub mod device;
pub mod fault;
pub mod hw;
pub mod pool;
pub mod timing;
pub mod trace;
pub mod traffic;

pub use codec::{
    delta_varint_len, exp_pack_len, CodecError, DeltaVarintCodec, ExpPackCodec, IdentityCodec,
    WireCodec, WireCodecId,
};
pub use comm::{
    allreduce_send_bytes, chunk_range, f16_bits_to_f32, f32_to_f16_bits, peer_exchange_tier_bytes,
    quantize_f16, ring_send_tier, AbortOnDrop, BarrierDeadline, CommError, CommGroup, Rank,
    Topology, Wire,
};
pub use cost::{AlphaBeta, CostModel, TierCost};
pub use device::{Allocation, Device, OomError};
pub use fault::{DiskFault, DiskFaultPlan, FaultPlan};
pub use hw::HardwareConfig;
pub use pool::{run_ranks, RunGate};
pub use timing::PhaseTimer;
pub use trace::{
    chrome_trace_json, chrome_trace_json_with_counters, secs_to_ps, sim_trace_json, CounterTrack,
    SimSpan, SimStream, SpanKind, TraceEvent, TraceLog, TraceRecorder,
};
pub use traffic::{Tier, TierBytes, TrafficSnapshot};
