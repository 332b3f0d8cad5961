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
//! * [`comm`] — **real** data-moving collectives, twice over one
//!   implementation: [`comm::World`], the lockstep communicator the
//!   trainer calls once per collective over every rank's buffers, and a
//!   thread-group communicator ([`comm::Rank`]) whose rendezvous leader
//!   runs the same functions: one ALLREDUCE ([`comm::Rank::all_reduce`]) whose wire
//!   format (f32, FP16 with compression scaling, lossless codec) and
//!   wire schedule (the flat ring of Gibiansky's ring-allreduce the
//!   paper cites, or the two-tier §V-C schedule) are parameters and
//!   which returns the per-tier bytes it charged; three variable-size
//!   ALLGATHERs (`u32`, `f32`, FP16) whose visiting forms return theirs
//!   too; the unique path's index gather
//!   ([`comm::Rank::all_gather_unique`]), which returns the canonical
//!   unique set after one rendezvous and, across nodes, deduplicates per
//!   node so only node leaders cross Infiniband; a scalar reduce and a
//!   barrier.
//! * [`dedupe::NodeSets`] — the pure function behind that gather: each
//!   rank's, each node's and the global first-occurrence set in one
//!   pass.
//! * [`codec`] — the lossless wire codecs, one per payload type: one
//!   generic [`codec::WireCodec`] trait, implemented once by the `u32`
//!   index codec ([`codec::DeltaVarintCodec`]) and once by the `f32`
//!   gradient codec ([`codec::ExpPackCodec`]); [`codec::WireCodecId`]
//!   names the rungs a run selects.
//! * [`layout::NodeLayout`] — how the group's ranks sit on nodes, and
//!   the one place that decides whether a collective runs its two-tier
//!   ([`layout::Topology::TwoTier`]) schedule on them.
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
//!   hundreds of rank threads multiplex over ~num_cpus run slots,
//!   parking slot-free at collectives (paper-scale worlds of 48–192
//!   ranks in tests and benches of the threaded group).
//! * [`timing`] — phase stopwatches: [`timing::PhaseTimer`] for a
//!   threaded rank, [`timing::RankClock`] for a rank under a lockstep
//!   driver (its phases, and the wait before each collective).
//!
//! Under the trainer's lockstep driver a simulated GPU is a rank's state
//! and each collective one function call over all of them; in a threaded
//! group one (small-stack) thread per rank holds the rank's program
//! state and collectives are rendezvous-style, moving every payload
//! through shared sender-indexed slots. Each collective
//! prices its own sends from the payload it actually moved (a codec's
//! from its encoded frames) and returns them split per interconnect
//! [`traffic::Tier`] (PCIe within a node, Infiniband between nodes).

#![forbid(unsafe_code)]

pub mod codec;
pub mod comm;
pub mod cost;
pub mod dedupe;
pub mod device;
pub mod fault;
pub mod hw;
pub mod layout;
pub mod pool;
pub mod timing;
pub mod trace;
pub mod traffic;

pub use codec::{CodecError, DeltaVarintCodec, ExpPackCodec, WireCodec, WireCodecId};
pub use comm::{
    allreduce_send_bytes, chunk_range, f16_bits_to_f32, f32_to_f16_bits, peer_exchange_tier_bytes,
    quantize_f16, ring_send_tier, unique_gather_tier_bytes, BarrierDeadline, CommError, CommGroup,
    Rank, RankSum, UniqueFrames, UniqueGathered, Wire, World,
};
pub use cost::{AlphaBeta, CostModel, TierCost};
pub use dedupe::NodeSets;
pub use device::{Allocation, Device, OomError};
pub use fault::{DiskFault, DiskFaultPlan, FaultPlan};
pub use hw::HardwareConfig;
pub use layout::{NodeLayout, Topology};
pub use pool::{run_ranks, RunGate};
pub use timing::{PhaseTimer, RankClock};
pub use trace::{
    chrome_trace_json, chrome_trace_json_with_counters, secs_to_ps, sim_trace_json, CounterTrack,
    SimSpan, SimStream, SpanKind, TraceEvent, TraceLog, TraceRecorder,
};
pub use traffic::{Tier, TierBytes, TrafficSnapshot};
