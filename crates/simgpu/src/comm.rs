//! Collectives with real data movement and two-tier topology-aware wire
//! accounting, executed two ways over one implementation.
//!
//! Collectives are SPMD: every rank calls the same operation in the
//! same order (exactly the MPI contract the paper's TensorFlow+MPI
//! stack obeys). The lockstep [`World`] — what the trainer runs on —
//! holds no thread: its caller has every rank's buffers and calls each
//! collective once over all of them. A threaded group ([`CommGroup`])
//! gives each rank a [`Rank`] handle on its own OS thread (optionally
//! multiplexed over a bounded run-slot pool — see [`crate::pool`]), and
//! its rendezvous leader runs the same functions: the reduction, the
//! codec round-trip, the unique-set derivation and every byte price
//! exist once.
//!
//! ## Execution model: rendezvous collectives
//!
//! Every collective is a **rendezvous**: each rank publishes its
//! contribution to a sender-indexed slot, all ranks meet at one
//! abort-aware barrier where the *last arriver* executes the group-wide
//! reduction, and each rank then takes its result. This is O(1)
//! synchronisation rounds per collective regardless of world size —
//! what makes 192-rank groups practical on a small machine — and all
//! payload bytes still genuinely move through shared memory. The
//! ALLREDUCE ([`Rank::all_reduce`]) publishes by *lending*: each rank
//! moves its own buffer into its slot, the last arriver reduces every
//! lent range in place and writes the sum back into each, and each rank
//! moves its buffer back — no payload is copied in or out. A gather
//! has no reduction: after the rendezvous each rank *visits* every
//! sender's slot in rank order, under a shared read lock
//! ([`Rank::all_gather_f32_visit`] and its `u32` / `f16` siblings hand
//! the payload to the caller where it lies; the `_into` forms are the
//! visitors that concatenate it), and a second rendezvous keeps slots
//! from being rewritten under a reader. The unique path's index gather
//! ([`Rank::all_gather_unique`]) has a reduction instead — the last
//! arriver derives the canonical unique set from every slot — so, like
//! the ALLREDUCE, it needs one rendezvous.
//!
//! Reductions are computed in **canonical ascending rank order**
//! (left-associated, rank 0 first) no matter which wire schedule is
//! being modelled, so the flat ring and the hierarchical two-tier
//! schedule produce bit-identical results by construction.
//!
//! ## Wire model: what the accounting charges
//!
//! Byte accounting follows the *modelled* schedule, not the rendezvous
//! mechanics. The flat ALLREDUCE charges the bandwidth-optimal **ring
//! algorithm** the paper cites (Gibiansky, "Bringing HPC techniques to
//! deep learning"): reduce-scatter + all-gather, `2(G−1)` steps, each
//! rank sending `2(G−1)/G · n` elements. The hierarchical ALLREDUCE
//! charges a four-phase two-tier schedule (intra-node ring
//! reduce-scatter, chunk hand-off to the node leader, leader ring over
//! the Infiniband tier, intra-node broadcast). Every charge lands in a
//! per-[`Tier`] bucket that exactly matches the analytic helper
//! [`allreduce_send_bytes`] under the same [`Topology`], so analytic ==
//! recorded holds to the byte, per tier. The unique-set gather charges
//! the flat peer gather, or across nodes its node schedule (members hand
//! their locally unique indices to the leader, leaders exchange node
//! sets over Infiniband and broadcast the global set), matching
//! [`unique_gather_tier_bytes`] the same way.
//!
//! Wire format and wire schedule are parameters of the one ALLREDUCE
//! ([`Rank::all_reduce`] takes a [`Wire`] and a [`Topology`]), not
//! sibling APIs: [`Wire::F16`] is §III-C's compression (per-hop
//! binary16 quantisation emulated in canonical hop order, wire bytes
//! halved), [`Wire::Codec`] frames the reduced payload with a lossless
//! [`WireCodec`] and charges encoded lengths.
//!
//! A group has one node size, stated when it is created
//! ([`CommGroup::create_full`]): [`Topology`] only says flat or
//! two-tier, and [`NodeLayout`] decides whether a two-tier schedule
//! runs (the group spans nodes) and where each rank's node and leader
//! are. The analytic helpers take the same `(world, gpus_per_node)`.
//!
//! ## Failure model
//!
//! Synchronous collectives deadlock if one rank stops calling them: every
//! peer blocks on the step barrier forever. The group therefore carries a
//! group-wide **abort flag**, and every barrier inside every collective is
//! abort-checking: [`Rank::abort`] records the first failed rank and
//! wakes all waiters. Every collective returns `Result<_, CommError>`, and a
//! surviving rank is guaranteed to observe `Err` no later than its next
//! barrier crossing — bounded time, no stranded threads. The abort is
//! permanent: a poisoned group cannot be revived, matching the MPI
//! convention that a communicator with a dead member is unusable.

use crate::codec::WireCodec;
use crate::dedupe::NodeSets;
use crate::layout::{NodeLayout, Topology};
use crate::pool::RunGate;
use crate::traffic::{Tier, TierBytes};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};

/// Thin wrapper over `std::sync::Mutex` with `parking_lot`-style
/// `lock()` ergonomics (no `Result`). A poisoned lock is recovered
/// rather than propagated: mailbox payloads are plain data that stay
/// valid even if a peer rank panicked mid-step, and the panicking rank
/// already aborts the whole test via its joined thread.
#[derive(Debug, Default)]
struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The same poison-tolerant wrapper over `std::sync::RwLock`, for the
/// sender-indexed slots: between a gather's two rendezvous every rank
/// reads every slot in the same order, and a visiting gather holds each
/// one for a whole `K×D` apply — shared reads keep the ranks from
/// convoying behind one exclusive lock.
#[derive(Debug, Default)]
struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A collective failed because some rank poisoned the group.
///
/// Carries the *first* failure only: later aborts lose the race and keep
/// the original attribution, so every surviving rank reports the same
/// root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A rank announced its own failure (or a decoder attributed a
    /// corrupt frame to its sender) and poisoned the group.
    Abort {
        /// Rank whose failure poisoned the group.
        failed_rank: usize,
        /// Human-readable description of that first failure.
        reason: String,
    },
    /// A barrier deadline expired: some peer went silent *without*
    /// aborting (a hung rank), so the waiter gave up after the
    /// configured retries instead of parking forever.
    Timeout {
        /// The rank that gave up waiting (the hung peer is unknowable —
        /// any subset of the group may be silent).
        rank: usize,
        /// Total simulated wait across all retry slices, picoseconds.
        waited_ps: u64,
    },
}

impl CommError {
    /// A rank-attributed group poisoning.
    pub fn abort(failed_rank: usize, reason: impl Into<String>) -> Self {
        CommError::Abort {
            failed_rank,
            reason: reason.into(),
        }
    }

    /// Rank this error attributes: the failed rank for aborts, the
    /// waiter that gave up for timeouts.
    pub fn failed_rank(&self) -> usize {
        match self {
            CommError::Abort { failed_rank, .. } => *failed_rank,
            CommError::Timeout { rank, .. } => *rank,
        }
    }

    /// Human-readable description of the failure.
    pub fn reason(&self) -> String {
        match self {
            CommError::Abort { reason, .. } => reason.clone(),
            CommError::Timeout { waited_ps, .. } => {
                format!("barrier deadline expired after {waited_ps} ps (silent peer)")
            }
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Abort {
                failed_rank,
                reason,
            } => write!(
                f,
                "collective aborted: rank {failed_rank} failed ({reason})"
            ),
            CommError::Timeout { rank, waited_ps } => write!(
                f,
                "collective timed out: rank {rank} waited {waited_ps} ps for a silent peer"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Deadline policy for the abort barrier: how long a rank parks waiting
/// for peers before concluding the group contains a silent (hung) rank.
///
/// Each retry doubles the wait slice (bounded exponential backoff), so
/// the total wall budget is `timeout · (2^(retries+1) − 1)`. With no
/// deadline configured the barrier parks forever — the pre-existing
/// behaviour, correct when every fault announces itself via
/// [`Rank::abort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierDeadline {
    /// First wait slice; doubles on each retry.
    pub timeout: std::time::Duration,
    /// Number of *additional* timed waits after the first expires.
    pub retries: u32,
}

impl BarrierDeadline {
    /// The whole retry budget, `timeout · (2^(retries+1) − 1)`, in
    /// picoseconds (saturating): what a waiter has waited when it gives
    /// up, and so the `waited_ps` of every [`CommError::Timeout`].
    pub fn budget_ps(&self) -> u64 {
        let (mut slice, mut total) = (self.timeout, std::time::Duration::ZERO);
        for _ in 0..=self.retries {
            total = total.saturating_add(slice);
            if total == std::time::Duration::MAX {
                break;
            }
            slice = slice.saturating_mul(2);
        }
        total.as_nanos().saturating_mul(1000).min(u64::MAX as u128) as u64
    }
}

/// Barrier state behind the abort-aware barrier's mutex.
#[derive(Debug, Default)]
struct BarrierState {
    /// Ranks parked in the current round.
    arrived: usize,
    /// Incremented each time a round completes; waiters key on it.
    generation: u64,
    /// First failure, if any. Permanent once set.
    abort: Option<CommError>,
}

/// `std::sync::Barrier` with an escape hatch: [`AbortBarrier::abort`]
/// wakes every parked waiter and makes this and all future waits return
/// the recorded [`CommError`] immediately. This is what converts "one
/// rank died" from an eternal hang into typed error propagation.
#[derive(Debug)]
struct AbortBarrier {
    world: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
    /// When set, parked waiters give up after the retry budget and
    /// poison the group with [`CommError::Timeout`] instead of hanging
    /// on a silent peer.
    deadline: Option<BarrierDeadline>,
}

impl AbortBarrier {
    fn new(world: usize, deadline: Option<BarrierDeadline>) -> Self {
        Self {
            world,
            state: Mutex::new(BarrierState::default()),
            cvar: Condvar::new(),
            deadline,
        }
    }

    /// Parks until all `world` ranks arrive, or until the group aborts.
    /// The **last arriver** runs `leader_work` before releasing the
    /// round — this is the rendezvous hook every collective uses to
    /// compute its reduction exactly once, with all inputs published
    /// and no rank able to race ahead (peers are parked until the
    /// generation bumps, which happens strictly after `leader_work`).
    ///
    /// `leader_work` runs under the barrier mutex; concurrent
    /// [`AbortBarrier::abort`] calls block for its duration, which is
    /// safe (abort only needs to set the flag and wake waiters, and
    /// every waiter is still parked here anyway).
    fn wait_leader<F: FnOnce()>(&self, rank: usize, leader_work: F) -> Result<(), CommError> {
        let mut st = self.state.lock();
        if let Some(e) = &st.abort {
            return Err(e.clone());
        }
        st.arrived += 1;
        if st.arrived == self.world {
            leader_work();
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        // Retry budget for the deadline path: the first slice plus
        // `retries` doubled slices. Spurious wakeups and abort/round
        // completions are handled inside the loop either way.
        let mut slice = self.deadline.map(|d| d.timeout);
        let mut attempts_left = self.deadline.map_or(0, |d| d.retries);
        loop {
            let timed_out = match slice {
                None => {
                    st = self
                        .cvar
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    false
                }
                Some(dur) => {
                    let (guard, res) = self
                        .cvar
                        .wait_timeout(st, dur)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st = guard;
                    res.timed_out()
                }
            };
            // Generation first: if the round completed before the abort
            // landed, this barrier crossing succeeded — the caller will
            // observe the abort at its next crossing.
            if st.generation != gen {
                return Ok(());
            }
            if let Some(e) = &st.abort {
                return Err(e.clone());
            }
            if timed_out {
                let dur = slice.expect("timed_out implies a deadline slice");
                if attempts_left == 0 {
                    // Out of retries: the group contains a silent peer.
                    // Poison it (first failure wins — a racing abort
                    // keeps its attribution) and fail typed, having
                    // waited every slice.
                    let deadline = self.deadline.expect("a slice implies a deadline");
                    let err = CommError::Timeout {
                        rank,
                        waited_ps: deadline.budget_ps(),
                    };
                    if st.abort.is_none() {
                        st.abort = Some(err);
                    }
                    let recorded = st.abort.clone().expect("abort just recorded");
                    self.cvar.notify_all();
                    return Err(recorded);
                }
                attempts_left -= 1;
                slice = Some(dur.saturating_mul(2));
            }
        }
    }

    /// Poisons the group (first failure wins) and wakes all waiters.
    fn abort(&self, err: CommError) {
        let mut st = self.state.lock();
        if st.abort.is_none() {
            st.abort = Some(err);
        }
        self.cvar.notify_all();
    }

    /// The recorded failure, if the group is poisoned.
    fn status(&self) -> Option<CommError> {
        self.state.lock().abort.clone()
    }
}

/// Converts f32 to IEEE binary16 bits (round-to-nearest-even).
///
/// Duplicated from `tensor::f16` to keep `simgpu` free of the tensor
/// dependency (the substrate layers must stay acyclic); the two are
/// cross-checked bit-for-bit in `tests/f16_crosscheck.rs`.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        let nan = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        let round = mant & 0x1fff;
        let mut out = sign | half_exp | half_mant;
        if round > 0x1000 || (round == 0x1000 && (half_mant & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    if unbiased >= -25 {
        let full = mant | 0x0080_0000;
        let shift = (-unbiased - 1) as u32; // 13 + (−14 − unbiased)
        let half_mant = (full >> shift) as u16;
        let mask = (1u32 << shift) - 1;
        let round = full & mask;
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | half_mant;
        if round > halfway || (round == halfway && (half_mant & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    sign
}

/// Converts binary16 bits to f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let bits = h as u32;
    let sign = (bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let mant = bits & 0x03ff;
    let out = if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else if exp != 0 {
        sign | ((exp + 112) << 23) | (mant << 13)
    } else if mant != 0 {
        let mut m = mant;
        let mut e: u32 = 113;
        while m & 0x0400 == 0 {
            m <<= 1;
            e -= 1;
        }
        sign | (e << 23) | ((m & 0x03ff) << 13)
    } else {
        sign
    };
    f32::from_bits(out)
}

/// What a value reads after one trip over the FP16 wire:
/// `f16_bits_to_f32(f32_to_f16_bits(x))` for every one of the 2³² bit
/// patterns of `x` (`tests/f16_crosscheck.rs` sweeps them all), fused
/// into one branch-free pass over the f32's own bits so the reduction
/// loop behind [`Rank::all_reduce`] vectorises. The two converters above
/// stay the readable reference and the only producers of real `u16`
/// wire bits.
///
/// * **binary16's normal range** — round-to-nearest-even on the 13
///   mantissa bits binary16 drops, as an integer add whose carry runs
///   into the exponent (a mantissa that rounds up to 2.0 becomes the
///   next power of two; one that reaches 2¹⁶ becomes ±Inf).
/// * **binary16's subnormal range** (`|x| < 2⁻¹⁴`) — the grid there is
///   the fixed 2⁻²⁴, which is exactly the ulp of `[0.5, 1)`: adding 0.5
///   makes the FPU's own round-to-nearest-even land `|x|` on that grid
///   and subtracting it again is exact. The two operations must stay
///   two; `(|x| + 0.5) − 0.5` is not `|x|`.
/// * **NaN** — any payload becomes the quiet NaN `0x7fc0_0000`, which
///   is what the reference's `0x7e00` decodes to. Inf takes the
///   overflow select. The sign bit is carried around all of it.
#[inline]
pub fn quantize_f16(x: f32) -> f32 {
    const INF: u32 = 0x7f80_0000;
    const MIN_NORMAL_F16: u32 = 0x3880_0000; // 2⁻¹⁴
    const OVERFLOW: u32 = 0x4780_0000; // 2¹⁶: what 65 520 and above round to
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7fff_ffff;
    let rounded = (abs + 0x0fff + ((abs >> 13) & 1)) & !0x1fff;
    let normal = if rounded >= OVERFLOW { INF } else { rounded };
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let finite = if abs < MIN_NORMAL_F16 {
        subnormal
    } else {
        normal
    };
    let out = if abs > INF { 0x7fc0_0000 } else { finite };
    f32::from_bits(sign | out)
}

/// Shared state of one communicator group.
struct GroupCore {
    /// The group's ranks on their nodes: every tier label and two-tier
    /// schedule reads it. [`CommGroup::create`] makes single-node groups
    /// (`gpus_per_node == world`), so every byte lands intra-node.
    layout: NodeLayout,
    barrier: AbortBarrier,
    /// Sender-indexed tables for gather-style collectives: written by
    /// their owner before a rendezvous, read by everyone after it.
    gather_u32: Vec<RwLock<Vec<u32>>>,
    gather_f32: Vec<RwLock<Vec<f32>>>,
    gather_u16: Vec<RwLock<Vec<u16>>>,
    /// Whether each sender's latest published frame is torn in flight
    /// (its consumed [`Rank::corrupt_next_codec_frame`] latch): readers
    /// see what [`delivered`] makes of the slot.
    torn: Vec<AtomicBool>,
    /// Each rank's `(sum, max)` inputs to
    /// [`Rank::all_reduce_sum_max`].
    scalar: Vec<Mutex<(f64, [u64; 2])>>,
    /// Each rank's buffer, lent for one [`Rank::all_reduce`]: its own
    /// `Vec` (moved in, not copied) and the range being reduced. Empty
    /// between collectives; the rendezvous leader reduces every lent
    /// range in place.
    lent: Vec<Mutex<(Vec<f32>, Range<usize>)>>,
    /// The scalar reduction's result, written by the rendezvous leader.
    reduced_scalar: Mutex<(f64, [u64; 2])>,
    /// The unique-set gather's sets and charges, written by the
    /// rendezvous leader, read by all.
    unique: RwLock<UniqueState>,
    /// Optional bounded run pool: ranks release their run slot while
    /// parked at the rendezvous and re-acquire it on wake-up.
    gate: Option<Arc<RunGate>>,
}

/// Factory for communicator groups.
///
/// ```
/// use simgpu::{CommGroup, Topology, Wire};
/// let ranks = CommGroup::create(4);
/// let sums: Vec<f32> = std::thread::scope(|s| {
///     let handles: Vec<_> = ranks
///         .into_iter()
///         .map(|rank| s.spawn(move || {
///             let mut v = vec![rank.rank() as f32; 8];
///             rank.all_reduce(&mut v, 0..8, Wire::F32, Topology::Flat)
///                 .expect("no rank aborted");
///             v[0]
///         }))
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3 on every rank
/// ```
pub struct CommGroup;

impl CommGroup {
    /// Creates a group of `world` ranks. Hand each [`Rank`] to its own
    /// thread; all collectives must then be called by *every* rank.
    ///
    /// The group is single-node for tier attribution (all bytes count
    /// as intra-node), unpooled and without a barrier deadline; use
    /// [`CommGroup::create_full`] for anything else.
    pub fn create(world: usize) -> Vec<Rank> {
        Self::create_full(world, world, 0, None)
    }

    /// Fully-parameterised constructor.
    ///
    /// * Layout: ranks are laid out `gpus_per_node` per node (node
    ///   `i` owns ranks `[i·gpus_per_node, (i+1)·gpus_per_node)`, with
    ///   a smaller last node when the division is ragged) — the one
    ///   node size of the group ([`NodeLayout`]). It decides which
    ///   [`Tier`] bucket each collective's bytes are charged to and
    ///   which nodes a [`Topology::TwoTier`] schedule runs on; results
    ///   are identical on any layout.
    /// * Pool: with `pool_workers > 0` the ranks multiplex over a
    ///   bounded run pool of that many slots (`0` means unpooled).
    ///   Spawn them with [`crate::pool::run_ranks`]: each rank holds a
    ///   run slot while executing and parks slot-free at collective
    ///   rendezvous, so at most `pool_workers` ranks ever run
    ///   concurrently no matter how large `world` is.
    /// * Deadline: an optional barrier deadline converts silent-peer
    ///   hangs into [`CommError::Timeout`] after a bounded
    ///   retry/backoff budget.
    pub fn create_full(
        world: usize,
        gpus_per_node: usize,
        pool_workers: usize,
        deadline: Option<BarrierDeadline>,
    ) -> Vec<Rank> {
        assert!(world >= 1, "group needs at least one rank");
        let core = Arc::new(GroupCore {
            layout: NodeLayout::new(world, gpus_per_node),
            barrier: AbortBarrier::new(world, deadline),
            gather_u32: (0..world).map(|_| RwLock::new(Vec::new())).collect(),
            gather_f32: (0..world).map(|_| RwLock::new(Vec::new())).collect(),
            gather_u16: (0..world).map(|_| RwLock::new(Vec::new())).collect(),
            scalar: (0..world).map(|_| Mutex::new((0.0, [0; 2]))).collect(),
            torn: (0..world).map(|_| AtomicBool::new(false)).collect(),
            lent: (0..world).map(|_| Mutex::default()).collect(),
            reduced_scalar: Mutex::new((0.0, [0; 2])),
            unique: RwLock::new(UniqueState::default()),
            gate: (pool_workers > 0).then(|| RunGate::new(pool_workers)),
        });
        (0..world)
            .map(|rank| Rank {
                rank,
                core: Arc::clone(&core),
                corrupt_next_frame: AtomicBool::new(false),
            })
            .collect()
    }
}

/// What a frame delivers after the transient wire-corruption fault: a
/// torn frame arrives empty, or as one `stray` element when it was
/// already empty; an intact one arrives as sent. Row payloads of the
/// visiting gathers tear the same way, by element — their visitor,
/// which knows the expected length, is the framing.
///
/// Tearing — not bit-flipping — is the modelled fault because it is
/// *detectable by construction* for every codec: a non-empty payload
/// decoded from zero bytes is a guaranteed `Truncated`, and a stray
/// byte on an empty payload is guaranteed trailing garbage. A flipped
/// bit inside a raw frame would instead decode silently into wrong
/// values — the wire layer has no CRC (that lives in the checkpoint
/// frames), so the harness injects the fault class the framing can
/// actually catch.
fn delivered<'a, T>(frame: &'a [T], torn: bool, stray: &'a [T; 1]) -> &'a [T] {
    match (torn, frame.is_empty()) {
        (false, _) => frame,
        (true, true) => stray,
        (true, false) => &[],
    }
}

/// One rank's handle into the group.
pub struct Rank {
    rank: usize,
    core: Arc<GroupCore>,
    /// One-shot wire-corruption latch (see
    /// [`Rank::corrupt_next_codec_frame`]): when armed, the next codec
    /// frame this rank publishes is damaged in flight.
    corrupt_next_frame: AtomicBool,
}

/// Chunk boundaries for the ring algorithm: `G` nearly-equal ranges.
/// Public so analytic wire accounting (and its tests) can price
/// per-chunk codec-encoded lengths over the exact same partition the
/// collectives use.
pub fn chunk_range(n: usize, world: usize, chunk: usize) -> Range<usize> {
    let lo = chunk * n / world;
    let hi = (chunk + 1) * n / world;
    lo..hi
}

/// Exact bytes `rank` sends during one ring ALLREDUCE — iterating the
/// same chunk schedule as [`Rank::all_reduce`] on a flat topology, so
/// analytic wire accounting matches what the collective returns to the
/// byte even when the payload does not divide evenly by `world` — pricing
/// each transmitted chunk through `chunk_bytes(parts, chunk)`: the wire
/// bytes of chunk `chunk` of the `parts`-way partition of the payload.
/// With the raw closure `|parts, c| chunk_range(n, parts, c).len() as
/// u64 * elem_bytes` this is the identity accounting; wire codecs
/// substitute the encoded length of each chunk of the *reduced* payload
/// (the steady-state re-encode model — see `codec`), which is identical
/// on every rank, so analytic == returned still holds per tier.
fn ring_allreduce_send_bytes_parts<F: Fn(usize, usize) -> u64>(
    world: usize,
    rank: usize,
    chunk_bytes: F,
) -> u64 {
    let (g, r) = (world, rank);
    // Reduce-scatter send at step s, then all-gather send at step s; a
    // group of one (or none) sends nothing.
    (0..g.saturating_sub(1))
        .map(|s| chunk_bytes(g, (r + g - s) % g) + chunk_bytes(g, (r + 1 + g - s) % g))
        .sum()
}

/// The [`Tier`] of the flat ring link `rank → (rank + 1) % world` on a
/// cluster of `gpus_per_node`-GPU nodes: intra-node unless the link
/// crosses a node boundary (including the wrap-around link whenever the
/// group spans more than one node).
pub fn ring_send_tier(world: usize, gpus_per_node: usize, rank: usize) -> Tier {
    let layout = NodeLayout::new(world, gpus_per_node);
    if layout.node(rank) == layout.node((rank + 1) % world) {
        Tier::Intra
    } else {
        Tier::Inter
    }
}

/// Tier split of a peer-to-peer exchange pattern where `rank` sends
/// `payload_bytes` to every other rank directly (ALLGATHER, scalar
/// reduce): peers on `rank`'s own node receive over the
/// intra tier, all others over the inter tier.
pub fn peer_exchange_tier_bytes(
    world: usize,
    gpus_per_node: usize,
    rank: usize,
    payload_bytes: u64,
) -> TierBytes {
    let members = NodeLayout::new(world, gpus_per_node).members(rank);
    TierBytes {
        intra: payload_bytes * (members as u64 - 1),
        inter: payload_bytes * (world - members) as u64,
    }
}

/// The index frames one rank's unique-set gather ([`Rank::all_gather_unique`])
/// can send, each at its wire length (the codec's encoded length, or 4
/// bytes per index raw). A schedule sends only some of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniqueFrames {
    /// The rank's index vector `J_r`: its frame to every peer on the
    /// flat schedule.
    pub indices: u64,
    /// Its locally unique `Ĵ_r`: a node member's hand-off to its leader.
    pub local: u64,
    /// Its node's set `U_n`: a leader's frame to every other leader.
    pub node: u64,
    /// The global set `Î`: a leader's broadcast to its members.
    pub global: u64,
}

/// Exact per-tier bytes `rank` sends in one unique-set gather on a group
/// laid out `gpus_per_node` per node — what [`Rank::all_gather_unique`]
/// returns, given the rank's `frames`.
///
/// [`Topology::TwoTier`] over a group that spans nodes runs the node
/// schedule: each member hands `Ĵ_r` to its leader (one intra send), the
/// `N` leaders exchange their node sets `U_n` (`N−1` inter sends each)
/// and each leader broadcasts `Î` to its `m−1` members (intra). Anything
/// else is the flat peer gather, [`peer_exchange_tier_bytes`] of `J_r`.
pub fn unique_gather_tier_bytes(
    world: usize,
    gpus_per_node: usize,
    topology: Topology,
    rank: usize,
    frames: UniqueFrames,
) -> TierBytes {
    let Some(nodes) = NodeLayout::new(world, gpus_per_node).two_tier(topology) else {
        return peer_exchange_tier_bytes(world, gpus_per_node, rank, frames.indices);
    };
    if !nodes.is_leader(rank) {
        return TierBytes::on(Tier::Intra, frames.local);
    }
    TierBytes {
        intra: frames.global * (nodes.members(rank) as u64 - 1),
        inter: frames.node * (nodes.nodes() as u64 - 1),
    }
}

/// Exact per-tier bytes `rank` sends during one hierarchical ALLREDUCE
/// on the group's `nodes` — the analytic mirror of what
/// [`Rank::all_reduce`] charges under [`Topology::TwoTier`], phase by
/// phase, so per-tier analytic == returned holds to the byte even on
/// ragged worlds. Every transmitted chunk is priced through
/// `chunk_bytes` as in [`ring_allreduce_send_bytes_parts`] (phase 4's
/// full payload is chunk 0 of the 1-way partition).
///
/// The modelled schedule:
/// 1. intra-node ring reduce-scatter over the node's `m` members
///    (each member sends `(m−1)/m · n` elements, intra tier);
/// 2. each non-leader hands its owned fully-node-reduced chunk to the
///    node leader (intra tier);
/// 3. leaders run a flat ring ALLREDUCE over the `N` nodes (inter
///    tier — the only traffic on the Infiniband pipe);
/// 4. each leader broadcasts the final `n` elements to its `m−1`
///    members (intra tier).
///
/// `nodes` is what [`NodeLayout::two_tier`] returned: the group spans
/// more than one node.
fn hierarchical_allreduce_send_bytes_parts<F: Fn(usize, usize) -> u64>(
    nodes: NodeLayout,
    rank: usize,
    chunk_bytes: F,
) -> TierBytes {
    let (leader, m) = (nodes.leader(rank), nodes.members(rank));
    let j = rank - leader;
    // Phase 1: intra-node ring reduce-scatter over m members — the
    // first half of the ring schedule alone.
    let mut intra: u64 = (0..m - 1).map(|s| chunk_bytes(m, (j + m - s) % m)).sum();
    if rank != leader {
        // Phase 2: hand the owned chunk to the leader.
        intra += chunk_bytes(m, (j + 1) % m);
    } else {
        // Phase 4: broadcast the result to the other members.
        intra += chunk_bytes(1, 0) * (m as u64 - 1);
    }
    // Phase 3: leaders-only flat ring across nodes.
    let inter = if rank == leader {
        ring_allreduce_send_bytes_parts(nodes.nodes(), nodes.node(rank), &chunk_bytes)
    } else {
        0
    };
    TierBytes { intra, inter }
}

/// Exact per-tier bytes `rank` sends during one ALLREDUCE over `n`
/// elements of `elem_bytes` each under `topology`, on a group laid out
/// `gpus_per_node` per node — what [`Rank::all_reduce`] returns for a
/// fixed-width wire, whichever schedule applies.
pub fn allreduce_send_bytes(
    n: usize,
    world: usize,
    gpus_per_node: usize,
    topology: Topology,
    rank: usize,
    elem_bytes: u64,
) -> TierBytes {
    let layout = NodeLayout::new(world, gpus_per_node);
    allreduce_send_bytes_parts(layout, topology, rank, |parts, c| {
        chunk_range(n, parts, c).len() as u64 * elem_bytes
    })
}

/// Closure-parameterised [`allreduce_send_bytes`]: the two-tier
/// schedule ([`hierarchical_allreduce_send_bytes_parts`]) when
/// [`NodeLayout::two_tier`] says it runs, otherwise the flat ring, whose
/// bytes land on the tier of the link `rank → rank + 1` under `layout`.
/// See [`ring_allreduce_send_bytes_parts`] for the closure contract.
fn allreduce_send_bytes_parts<F: Fn(usize, usize) -> u64>(
    layout: NodeLayout,
    topology: Topology,
    rank: usize,
    chunk_bytes: F,
) -> TierBytes {
    match layout.two_tier(topology) {
        Some(nodes) => hierarchical_allreduce_send_bytes_parts(nodes, rank, chunk_bytes),
        None => TierBytes::on(
            ring_send_tier(layout.world(), layout.gpus_per_node(), rank),
            ring_allreduce_send_bytes_parts(layout.world(), rank, chunk_bytes),
        ),
    }
}

/// Wire format of an ALLREDUCE payload — a parameter of
/// [`Rank::all_reduce`], which prices every transmitted chunk through
/// [`Wire::encoded_len`].
#[derive(Clone, Copy)]
pub enum Wire<'a> {
    /// Raw `f32`, 4 bytes per element.
    F32,
    /// binary16 with compression scaling (§III-C), 2 bytes per element;
    /// `scale` must be positive and finite.
    F16 {
        /// Factor applied before every down-cast, divided out after.
        scale: f32,
    },
    /// `f32` framed by a lossless gradient codec; each chunk costs its
    /// encoded length.
    Codec(&'a dyn WireCodec<f32>),
}

impl<'a> Wire<'a> {
    /// The framing codec, if the format has one.
    pub fn codec(self) -> Option<&'a dyn WireCodec<f32>> {
        match self {
            Wire::Codec(codec) => Some(codec),
            Wire::F32 | Wire::F16 { .. } => None,
        }
    }

    /// Bytes per element before any codec framing.
    pub fn elem_bytes(self) -> u64 {
        match self {
            Wire::F16 { .. } => 2,
            Wire::F32 | Wire::Codec(_) => 4,
        }
    }

    /// Wire bytes of `data` sent as one frame in this format.
    pub fn encoded_len(self, data: &[f32]) -> u64 {
        match self {
            Wire::Codec(codec) => codec.encoded_len(data),
            Wire::F32 | Wire::F16 { .. } => data.len() as u64 * self.elem_bytes(),
        }
    }
}

/// Elements [`reduce_in_place`] reduces at a time — 8 KiB of
/// accumulator, which with one hop's 8 KiB of input stays in L1 across
/// all `G−1` hops and the write-back to every rank instead of the whole
/// payload leaving the cache between them.
const REDUCE_BLOCK: usize = 2048;

/// The FP16 wire's round trip of a partial: scaled, down-cast to
/// binary16, up-cast and un-scaled (`inv` is the scale's reciprocal).
fn cast_f16(a: f32, (scale, inv): (f32, f32)) -> f32 {
    quantize_f16(a * scale) * inv
}

/// One hop of the canonical ALLREDUCE: the next rank's `x` folded into
/// the running partial `acc`, over the elements both have. Under the
/// FP16 wire (`f16` holds the scale and its reciprocal) the partial
/// crosses the wire first, as on the compressed ring (§III-C). The one
/// spelling of a hop: [`reduce_in_place`] walks it block-major over
/// lent buffers, [`RankSum::fold`] once per rank as each buffer is made.
fn hop(acc: &mut [f32], x: &[f32], f16: Option<(f32, f32)>) {
    match f16 {
        None => {
            for (a, &x) in acc.iter_mut().zip(x) {
                *a += x;
            }
        }
        Some(f16) => {
            for (a, &x) in acc.iter_mut().zip(x) {
                *a = x + cast_f16(*a, f16);
            }
        }
    }
}

/// The final wire-quantisation after the last hop, so the distributed
/// value is the wire value; nothing on an f32 payload.
fn finish_hops(acc: &mut [f32], f16: Option<(f32, f32)>) {
    if let Some(f16) = f16 {
        for a in acc.iter_mut() {
            *a = cast_f16(*a, f16);
        }
    }
}

/// Canonical ALLREDUCE over every rank's buffer, in place: the
/// left-associated elementwise sum in ascending rank order, written into
/// `bufs[0]` and copied from there into every other buffer. Threadless —
/// [`Rank::all_reduce`]'s rendezvous leader calls it once per collective
/// on the ranges the ranks lent.
///
/// With a `scale` it emulates the FP16 ring's per-hop quantisation
/// (§III-C): the running partial is scaled, down-cast to binary16,
/// up-cast and un-scaled at every hop — `G−1` hops in canonical
/// ascending order, then one final wire-quantisation so the distributed
/// value is the wire value, bit-identical on every rank.
///
/// The walk is block-major: rank 0's block is the accumulator, every hop
/// and the final quantisation run over it while it sits in L1, the block
/// is copied into ranks `1..G`, then the next block. Each element still
/// sees the hops in ascending rank order, so the result is the hop-major
/// one — and [`RankSum`]'s — to the bit (the `tests` module keeps that
/// loop as the oracle). A buffer shorter than rank 0's contributes, and
/// receives, only the elements it has; a longer one's tail is neither
/// read nor written.
fn reduce_in_place(bufs: &mut [&mut [f32]], scale: Option<f32>) {
    let f16 = scale.map(|scale| (scale, 1.0 / scale));
    let Some((acc, peers)) = bufs.split_first_mut() else {
        return;
    };
    for (i, block) in acc.chunks_mut(REDUCE_BLOCK).enumerate() {
        let start = i * REDUCE_BLOCK;
        for x in peers.iter() {
            hop(block, x.get(start..).unwrap_or_default(), f16);
        }
        finish_hops(block, f16);
        for peer in peers.iter_mut() {
            let out = peer.get_mut(start..).unwrap_or_default();
            let m = out.len().min(block.len());
            out[..m].copy_from_slice(&block[..m]);
        }
    }
}

/// The canonical ALLREDUCE's sum built one rank at a time, as each
/// rank's buffer is made: rank 0's buffer becomes the accumulator and
/// every later one is one hop — the left-associated sum in ascending
/// rank order that [`Rank::all_reduce`] computes over lent buffers, bit
/// for bit (FP16 per-hop casts included), without every rank's buffer
/// alive at once. [`World::all_reduce`] takes it after the last rank's
/// fold.
#[derive(Debug, Default)]
pub struct RankSum {
    sum: Vec<f32>,
    /// Buffers folded since [`RankSum::begin`].
    ranks: usize,
    /// The FP16 wire's scale, checked, or `None` for an f32 payload.
    scale: Option<f32>,
    /// One row of zeros: what [`RankSum::fold_rows`] folds for a row a
    /// rank lacks.
    zeros: Vec<f32>,
}

impl RankSum {
    /// An empty sum; the buffer grows on the first fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new sum of payloads that cross `wire`. Panics on an FP16
    /// scale that is not positive and finite.
    pub fn begin(&mut self, wire: Wire<'_>) {
        self.ranks = 0;
        self.scale = f16_scale(wire);
    }

    /// Folds the next rank's buffer in, ranks in ascending order. The
    /// first is not copied: its allocation becomes the sum, and `x` is
    /// left empty, holding the sum's previous allocation for reuse. Every
    /// later buffer must be as long as the first and is left as it was.
    pub fn fold(&mut self, x: &mut Vec<f32>) {
        if self.ranks == 0 {
            std::mem::swap(&mut self.sum, x);
            x.clear();
        } else {
            assert_eq!(x.len(), self.sum.len(), "every rank's buffer is one length");
            hop(&mut self.sum, x, self.scale.map(|s| (s, 1.0 / s)));
        }
        self.ranks += 1;
    }

    /// [`RankSum::fold`] of the next rank's buffer given row by row,
    /// without the buffer being built: `rows` yields each of its
    /// `d`-wide rows in order, `None` for a row of zeros. The first
    /// rank's rows become the sum as they are; every later row is one
    /// hop, a row of zeros too (it turns a −0 partial into +0, as adding
    /// the zeros of a built buffer would). Every later rank gives as many
    /// rows as the first. Allocates nothing once the sum and one row have
    /// reached their size.
    pub fn fold_rows<'a>(&mut self, d: usize, rows: impl IntoIterator<Item = Option<&'a [f32]>>) {
        self.zeros.resize(d, 0.0);
        let zeros = &self.zeros[..];
        if self.ranks == 0 {
            self.sum.clear();
            for row in rows {
                self.sum.extend_from_slice(row.unwrap_or(zeros));
            }
        } else {
            let f16 = self.scale.map(|s| (s, 1.0 / s));
            let mut n = 0;
            for row in rows {
                let acc = self.sum.get_mut(n..n + d);
                let acc = acc.expect("every rank's buffer is one length");
                hop(acc, row.unwrap_or(zeros), f16);
                n += d;
            }
            assert_eq!(n, self.sum.len(), "every rank's buffer is one length");
        }
        self.ranks += 1;
    }

    /// The sum's buffer, the sum ended.
    pub fn into_vec(self) -> Vec<f32> {
        self.sum
    }

    /// The sum so far; the reduced payload once [`World::all_reduce`]
    /// has returned `Ok` for every range of it.
    pub fn as_slice(&self) -> &[f32] {
        &self.sum
    }

    /// [`RankSum::as_slice`], mutably (an in-place average, say).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.sum
    }
}

/// The FP16 wire's scale, checked, or `None` for an f32 payload.
fn f16_scale(wire: Wire<'_>) -> Option<f32> {
    match wire {
        Wire::F16 { scale } => Some(checked_scale(scale)),
        Wire::F32 | Wire::Codec(_) => None,
    }
}

fn checked_scale(scale: f32) -> f32 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "compression scale must be positive and finite"
    );
    scale
}

/// What one ALLREDUCE charges `rank` for delivering the reduced `data`
/// under `topology` on `layout`: every transmitted chunk priced at its
/// length in `wire` — for a codec, the encoded length of the *reduced*
/// chunk (the steady-state re-encode model, identical on every rank).
fn all_reduce_sent(
    layout: NodeLayout,
    topology: Topology,
    rank: usize,
    wire: Wire<'_>,
    data: &[f32],
) -> TierBytes {
    let n = data.len();
    let chunk_bytes =
        |parts: usize, chunk: usize| wire.encoded_len(&data[chunk_range(n, parts, chunk)]);
    allreduce_send_bytes_parts(layout, topology, rank, chunk_bytes)
}

/// Passes every flat ring chunk of `rank`'s delivered `data` through a
/// real encode→decode round-trip in place, on the flat `world`-way
/// partition under either schedule: losslessness (not chunk boundaries)
/// is what keeps the schedules bit-identical. Lossless codecs make this
/// a bit-exact no-op; anything else corrupts the payload visibly. A
/// `torn` first frame fails to decode: an error naming `rank`.
fn codec_roundtrip_chunks(
    data: &mut [f32],
    codec: &dyn WireCodec<f32>,
    world: usize,
    rank: usize,
    mut torn: bool,
) -> Result<(), CommError> {
    let n = data.len();
    let mut wire = Vec::new();
    let mut decoded: Vec<f32> = Vec::new();
    for c in 0..world {
        let range = chunk_range(n, world, c);
        wire.clear();
        codec.encode(&data[range.clone()], &mut wire);
        decoded.clear();
        let frame = delivered(&wire, std::mem::take(&mut torn), &[0xA5]);
        if let Err(e) = codec.decode(frame, range.len(), &mut decoded) {
            return Err(codec_error(rank, codec.name(), e));
        }
        data[range].copy_from_slice(&decoded);
    }
    Ok(())
}

/// §III-C's gather encoding: binary16 of `x · scale`, replacing `out`.
fn encode_f16(local: &[f32], scale: f32, out: &mut Vec<u16>) {
    out.clear();
    out.extend(local.iter().map(|&x| f32_to_f16_bits(x * scale)));
}

/// The receiving side of [`encode_f16`]: each half up-cast and divided
/// by the scale (`inv` is its reciprocal), replacing `out`.
fn decode_f16(frame: &[u16], inv: f32, out: &mut Vec<f32>) {
    out.clear();
    out.extend(frame.iter().map(|&h| f16_bits_to_f32(h) * inv));
}

/// The scalar reduction: `0.0 + v_0 + v_1 + …` in rank order, and the
/// elementwise maxes of the pairs.
fn fold_sum_max(values: impl IntoIterator<Item = (f64, [u64; 2])>) -> (f64, [u64; 2]) {
    values
        .into_iter()
        .fold((0.0, [0; 2]), |(sum, [a, b]), (v, [x, y])| {
            (sum + v, [a.max(x), b.max(y)])
        })
}

/// What one [`Rank::all_gather_unique`] returns besides `Î`. Every
/// field but `sent` is the same on every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniqueGathered {
    /// This rank's sends, per tier: [`unique_gather_tier_bytes`] of its
    /// frames.
    pub sent: TierBytes,
    /// Σ over ranks of the published index frames `J_r` at their wire
    /// lengths.
    pub frames: u64,
    /// Σ over ranks of `|J_r|`: the indices published world-wide.
    pub indices: u64,
    /// `Σ_n |U_n|`, the node sets the leaders exchange, when the node
    /// schedule ran; 0 on the flat one.
    pub node_sets: u64,
}

/// The unique-set gather's group-wide work and result: filled once per
/// call, by the threaded rendezvous's leader or the lockstep [`World`],
/// and read by every rank. Buffers are reused across calls.
#[derive(Debug, Default)]
struct UniqueState {
    /// One sender's encoded frame (under a codec).
    frame: Vec<u8>,
    /// Every rank's published `J_r`, rank-major (decoded under a codec).
    indices: Vec<u32>,
    /// End of each rank's `J_r` in `indices`.
    ends: Vec<usize>,
    /// Wire length of each rank's published frame.
    published: Vec<u64>,
    /// `Ĵ_r`, `U_n` and `Î`.
    sets: NodeSets,
    /// Every rank's sends.
    sent: Vec<TierBytes>,
    /// The rank-invariant part of the result.
    totals: UniqueGathered,
    /// The first sender whose frame failed to decode, as every rank
    /// reports it.
    error: Option<CommError>,
}

impl UniqueState {
    /// The unique-set gather over every rank's `locals[r] = J_r`, run
    /// once per call: each `J_r` crosses as published (under `codec`,
    /// encoded, damaged when `torn(r)` — asked once per sender, only
    /// under a codec — and decoded; a frame that fails is an error
    /// naming its sender), the sets are built with [`NodeSets::build`],
    /// then every rank's frames are priced under `topology` — the node
    /// schedule's `Ĵ_r` / `U_n` / `Î` at their encoded lengths, or the
    /// flat schedule's `J_r` as published.
    fn gather(
        &mut self,
        layout: NodeLayout,
        codec: Option<&dyn WireCodec<u32>>,
        topology: Topology,
        locals: &[&[u32]],
        mut torn: impl FnMut(usize) -> bool,
    ) -> Result<(), CommError> {
        let world = layout.world();
        self.indices.clear();
        self.ends.clear();
        self.published.clear();
        for (sender, local) in locals.iter().enumerate() {
            let published = match codec {
                None => {
                    self.indices.extend_from_slice(local);
                    local.len() as u64 * 4
                }
                Some(codec) => {
                    self.frame.clear();
                    codec.encode(local, &mut self.frame);
                    let frame = delivered(&self.frame, torn(sender), &[0xA5]);
                    codec
                        .decode(frame, local.len(), &mut self.indices)
                        .map_err(|e| codec_error(sender, codec.name(), e))?;
                    frame.len() as u64
                }
            };
            self.ends.push(self.indices.len());
            self.published.push(published);
        }
        let two_tier = layout.two_tier(topology);
        let (indices, ends) = (&self.indices, &self.ends);
        let slots = (0..world).map(|r| &indices[if r == 0 { 0 } else { ends[r - 1] }..ends[r]]);
        // The flat schedule reads only `Î`: one node holds every rank.
        self.sets
            .build(slots, two_tier.unwrap_or(NodeLayout::new(world, world)));
        let sets = &self.sets;
        let len = |v: &[u32]| codec.map_or(v.len() as u64 * 4, |c| c.encoded_len(v));
        let global = two_tier.map_or(0, |_| len(sets.global()));
        self.sent.clear();
        for r in 0..world {
            let mut frames = UniqueFrames {
                indices: self.published[r],
                global,
                ..UniqueFrames::default()
            };
            match two_tier {
                Some(nodes) if nodes.is_leader(r) => frames.node = len(sets.node(nodes.node(r))),
                Some(_) => frames.local = len(sets.local(r)),
                None => {}
            }
            let sent = unique_gather_tier_bytes(world, layout.gpus_per_node(), topology, r, frames);
            self.sent.push(sent);
        }
        self.totals = UniqueGathered {
            sent: TierBytes::default(),
            frames: self.published.iter().sum(),
            indices: self.indices.len() as u64,
            node_sets: two_tier.map_or(0, |_| sets.node_total() as u64),
        };
        Ok(())
    }

    /// Rank `rank`'s result of the last [`UniqueState::gather`].
    fn result(&self, rank: usize) -> UniqueGathered {
        UniqueGathered {
            sent: self.sent[rank],
            ..self.totals
        }
    }
}

/// A codec decode failure as a group poisoning attributed to `sender`,
/// the rank whose published frame failed to decode — not the decoding
/// rank — so every decoder names the *same* culprit and elastic
/// recovery can shrink around it deterministically.
fn codec_error(sender: usize, codec: &str, err: crate::codec::CodecError) -> CommError {
    CommError::abort(sender, format!("wire codec {codec} decode failed: {err}"))
}

impl Rank {
    /// This rank's id in `0..world()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size `G`.
    pub fn world(&self) -> usize {
        self.core.layout.world()
    }

    /// The group's node size: what tier attribution and every
    /// [`Topology::TwoTier`] schedule use (`world` for the single-node
    /// groups of [`CommGroup::create`]).
    pub fn gpus_per_node(&self) -> usize {
        self.core.layout.gpus_per_node()
    }

    /// The group's bounded run pool, if it was created with
    /// [`CommGroup::create_full`]. Exposed so tests can assert the
    /// scheduling invariant `peak_running() <= cap()`.
    pub fn run_gate(&self) -> Option<Arc<RunGate>> {
        self.core.gate.clone()
    }

    /// Synchronises all ranks; `Err` if any rank aborted the group.
    pub fn barrier(&self) -> Result<(), CommError> {
        self.sync_leader(|| {})
    }

    /// The rendezvous every collective funnels through: release the run
    /// slot (parked ranks must not occupy the bounded pool), meet at
    /// the abort-aware barrier — where the last arriver runs
    /// `leader_work` — then re-acquire a slot before resuming.
    ///
    /// The leader computes slot-free by design: when it runs, every
    /// other rank is parked inside this same barrier, so the pool
    /// bound on *runnable* ranks still holds.
    fn sync_leader<F: FnOnce()>(&self, leader_work: F) -> Result<(), CommError> {
        if let Some(gate) = &self.core.gate {
            gate.release();
        }
        let res = self.core.barrier.wait_leader(self.rank, leader_work);
        if let Some(gate) = &self.core.gate {
            gate.acquire();
        }
        res
    }

    /// Poisons the group on behalf of this rank: all peers blocked in a
    /// collective wake with `Err`, and every future collective fails
    /// immediately. Idempotent; the first abort's attribution wins.
    pub fn abort(&self, reason: impl Into<String>) {
        self.core.barrier.abort(CommError::abort(self.rank, reason));
    }

    /// Arms the one-shot wire-corruption latch: the next codec frame
    /// this rank publishes into a collective is damaged in flight (its
    /// final byte is torn off; an empty frame instead grows a stray
    /// byte). Because every codec's framing disambiguates packed from
    /// raw *by length*, the damage is guaranteed to surface as a typed
    /// [`crate::codec::CodecError`] at each decoder — never a silent
    /// wrong answer — which poisons the group attributed to this rank.
    /// A row payload published into a visiting gather
    /// ([`Rank::all_gather_f32_visit`], [`Rank::all_gather_f16_visit`])
    /// consumes the latch the same way and is caught by the visitor's
    /// length check.
    pub fn corrupt_next_codec_frame(&self) {
        self.corrupt_next_frame.store(true, Ordering::Relaxed);
    }

    /// Consumes the wire-corruption latch (true at most once per arm).
    fn take_corrupt_frame(&self) -> bool {
        self.corrupt_next_frame.swap(false, Ordering::Relaxed)
    }

    /// Cheap non-blocking poll: `Err` if the group is poisoned. Lets
    /// long local compute phases between collectives bail out early.
    pub fn check_abort(&self) -> Result<(), CommError> {
        match self.core.barrier.status() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// ALLREDUCE (sum) over `data[range]` — the one reduction every wire
    /// format, wire schedule and gradient bucket goes through (a bucket
    /// is a range of one buffer; a whole payload is `0..len`). On return
    /// every rank's range holds the elementwise sum across all ranks,
    /// computed in canonical ascending rank order: bit-identical on every
    /// rank and under every `topology`, and for a lossless
    /// [`Wire::Codec`] bit-identical to [`Wire::F32`] too. Elements
    /// outside `range` are not touched. All ranks must pass
    /// equal-length ranges and the same `wire` and `topology`; a range
    /// past `data`'s end panics before the rank joins the collective.
    ///
    /// **The buffer is lent, not copied.** The rank moves its `Vec` into
    /// its group slot, the rendezvous leader reduces every rank's range
    /// in place and writes the result back into each, and the rank moves
    /// its `Vec` back out. `data` always comes back as the caller's own
    /// buffer with its length and capacity unchanged — on `Err` too.
    /// `Err` (with the range's contents unspecified) if any rank aborts
    /// the group before or during the collective; the group stays
    /// poisoned, so every later collective on it is a typed `Err` as
    /// well.
    ///
    /// **Wire format.** [`Wire::F16`] implements §III-C: the reduction
    /// emulates the compressed ring hop by hop — every hop multiplies
    /// the running partial by `scale`, down-casts to binary16, and the
    /// receiver up-casts and divides, with a final wire-quantisation so
    /// the distributed value *is* the wire value; quantisation error
    /// accumulates per hop as on real FP16 interconnect paths.
    /// [`Wire::Codec`] reduces in f32 and then passes the distributed
    /// result chunk-by-chunk through a real encode→decode round-trip —
    /// modelling the all-gather phase delivering encoded chunks, so a
    /// codec that is not bit-exact visibly corrupts training instead of
    /// silently compressing. A frame that fails to decode (an armed
    /// [`Rank::corrupt_next_codec_frame`]) is this rank's `Err` and
    /// poisons the group: peers get it at their next collective.
    ///
    /// **Wire schedule and accounting.** [`Topology::Flat`] charges the
    /// ring schedule: this rank's `2(G−1)/G · n` elements land on the
    /// tier of its ring link `r → r+1` under the group's layout.
    /// [`Topology::TwoTier`] charges the four-phase §V-C schedule on the
    /// group's nodes ([`allreduce_send_bytes`] under the same topology),
    /// phase by phase per tier (ragged last nodes included), and falls
    /// back to the flat ring when the group fits in one node. Every
    /// transmitted chunk is priced at its length in the wire format; for
    /// a codec that is the encoded length of the *reduced* chunk (the
    /// steady-state re-encode model — identical on every rank). The
    /// returned [`TierBytes`] are this rank's sends and the only record
    /// of them, so callers report wire volume without re-deriving it.
    pub fn all_reduce(
        &self,
        data: &mut Vec<f32>,
        range: Range<usize>,
        wire: Wire<'_>,
        topology: Topology,
    ) -> Result<TierBytes, CommError> {
        let scale = f16_scale(wire);
        assert!(
            range.start <= range.end && range.end <= data.len(),
            "all_reduce range {range:?} is not within a buffer of {}",
            data.len()
        );
        if self.world() == 1 {
            return Ok(TierBytes::default());
        }
        let slot = &self.core.lent[self.rank];
        *slot.lock() = (std::mem::take(data), range.clone());
        let lent = &self.core.lent;
        let met = self.sync_leader(|| {
            let mut slots: Vec<_> = lent.iter().map(|slot| slot.lock()).collect();
            let mut bufs: Vec<&mut [f32]> = slots
                .iter_mut()
                .map(|slot| {
                    let (buf, range) = &mut **slot;
                    &mut buf[range.clone()]
                })
                .collect();
            reduce_in_place(&mut bufs, scale);
        });
        // Taken back on `Err` too. No departure barrier is needed: the
        // next rendezvous's leader only reads the slots once *every*
        // rank has taken its buffer back here and lent the next one.
        *data = std::mem::take(&mut slot.lock().0);
        met?;
        let data = &mut data[range];
        if let Some(codec) = wire.codec() {
            let torn = self.take_corrupt_frame();
            codec_roundtrip_chunks(data, codec, self.world(), self.rank, torn)
                .map_err(|e| self.poison(e))?;
        }
        Ok(all_reduce_sent(
            self.core.layout,
            topology,
            self.rank,
            wire,
            data,
        ))
    }

    /// Flat f32 ALLREDUCE of the whole buffer. Exists only because the
    /// benchmark (`e2e/`) calls it by name; everything else uses
    /// [`Rank::all_reduce`].
    pub fn all_reduce_sum(&self, data: &mut Vec<f32>) -> Result<(), CommError> {
        let n = data.len();
        self.all_reduce(data, 0..n, Wire::F32, Topology::Flat)
            .map(drop)
    }

    /// Flat FP16-wire ALLREDUCE of the whole buffer. Exists only because
    /// the benchmark (`e2e/`) calls it by name; everything else uses
    /// [`Rank::all_reduce`].
    pub fn all_reduce_sum_f16(&self, data: &mut Vec<f32>, scale: f32) -> Result<(), CommError> {
        let n = data.len();
        self.all_reduce(data, 0..n, Wire::F16 { scale }, Topology::Flat)
            .map(drop)
    }

    /// Two-tier f32 ALLREDUCE of the whole buffer. Exists only because
    /// the benchmark (`e2e/`) calls it by name; everything else uses
    /// [`Rank::all_reduce`]. `gpus_per_node` must be the group's node
    /// size: anything else is a typed [`CommError`] on every rank that
    /// leaves the group usable.
    pub fn all_reduce_sum_hierarchical(
        &self,
        data: &mut Vec<f32>,
        gpus_per_node: usize,
    ) -> Result<(), CommError> {
        self.own_node_size(gpus_per_node)?;
        let n = data.len();
        self.all_reduce(data, 0..n, Wire::F32, Topology::TwoTier)
            .map(drop)
    }

    /// Two-tier FP16-wire ALLREDUCE of the whole buffer. Exists only
    /// because the benchmark (`e2e/`) calls it by name; everything else
    /// uses [`Rank::all_reduce`]. `gpus_per_node` is checked as in
    /// [`Rank::all_reduce_sum_hierarchical`].
    pub fn all_reduce_sum_f16_hierarchical(
        &self,
        data: &mut Vec<f32>,
        scale: f32,
        gpus_per_node: usize,
    ) -> Result<(), CommError> {
        self.own_node_size(gpus_per_node)?;
        let n = data.len();
        self.all_reduce(data, 0..n, Wire::F16 { scale }, Topology::TwoTier)
            .map(drop)
    }

    /// `Ok` when `gpus_per_node` is the group's node size; otherwise a
    /// typed error that does not poison the group (every rank passes the
    /// same argument under SPMD, so all see it and stay in lockstep).
    fn own_node_size(&self, gpus_per_node: usize) -> Result<(), CommError> {
        let own = self.gpus_per_node();
        if gpus_per_node == own {
            return Ok(());
        }
        Err(CommError::abort(
            self.rank,
            format!("invalid topology: gpus_per_node {gpus_per_node} is not the group's {own}"),
        ))
    }

    /// The rendezvous every ALLGATHER funnels through: `publish` fills
    /// this rank's slot and returns the payload's wire bytes, which
    /// travel to `G−1` peers (same-node peers over the intra tier, the
    /// rest over the inter tier — [`peer_exchange_tier_bytes`], which is
    /// what it returns), and `torn` says whether the frame is damaged in
    /// flight; after the group meets, `collect` sees every sender's slot
    /// and torn flag in rank order, under a shared read lock. A second
    /// barrier keeps a fast rank from overwriting its slot while a peer
    /// is still reading it.
    fn gather_rendezvous<S>(
        &self,
        slots: &[RwLock<S>],
        torn: bool,
        publish: impl FnOnce(&mut S) -> u64,
        mut collect: impl FnMut(usize, &S, bool) -> Result<(), CommError>,
    ) -> Result<TierBytes, CommError> {
        let payload_bytes = publish(&mut slots[self.rank].write());
        self.core.torn[self.rank].store(torn, Ordering::Relaxed);
        self.barrier()?;
        for (sender, slot) in slots.iter().enumerate() {
            let torn = self.core.torn[sender].load(Ordering::Relaxed);
            collect(sender, &slot.read(), torn)?;
        }
        self.barrier()?;
        Ok(peer_exchange_tier_bytes(
            self.world(),
            self.gpus_per_node(),
            self.rank,
            payload_bytes,
        ))
    }

    /// Poisons the group with `err` (first failure wins) and hands it
    /// back: how a rank that finds a sender's payload unusable between
    /// a gather's two rendezvous keeps its peers from parking at the
    /// second one forever.
    fn poison(&self, err: CommError) -> CommError {
        self.core.barrier.abort(err.clone());
        err
    }

    /// Visiting ALLGATHER of fixed-width elements sent as they are:
    /// publish `local`, rendezvous, hand `visit` each sender's payload
    /// in rank order *where it lies* (nothing is concatenated or
    /// copied), departure rendezvous. An `Err` from `visit` poisons the
    /// group and is returned. `torn` damages the published payload in
    /// flight (the wire-corruption fault).
    fn gather_raw_visit<T: Copy + Default>(
        &self,
        slots: &[RwLock<Vec<T>>],
        local: &[T],
        torn: bool,
        mut visit: impl FnMut(usize, &[T]) -> Result<(), CommError>,
    ) -> Result<TierBytes, CommError> {
        self.gather_rendezvous(
            slots,
            torn,
            |slot| {
                slot.clear();
                slot.extend_from_slice(local);
                std::mem::size_of_val(local) as u64
            },
            |sender, slot, torn| {
                visit(sender, delivered(slot, torn, &[T::default()])).map_err(|e| self.poison(e))
            },
        )
    }

    /// Visiting variable-size ALLGATHER of `u32` payloads: `visit(s,
    /// payload)` sees every sender's contribution in rank order, read in
    /// place from the sender's slot. Same rendezvous, same wire charge
    /// as [`Rank::all_gather_u32_into`], which is this with an
    /// `extend_from_slice` visitor; use it when per-sender boundaries
    /// matter or the concatenation would only be streamed once. Returns
    /// this rank's sends: its payload to each of `G−1` peers, per tier
    /// ([`peer_exchange_tier_bytes`]). An `Err` from `visit` poisons the
    /// group (peers get it at the departure rendezvous) and is returned.
    pub fn all_gather_u32_visit(
        &self,
        local: &[u32],
        visit: impl FnMut(usize, &[u32]) -> Result<(), CommError>,
    ) -> Result<TierBytes, CommError> {
        self.gather_raw_visit(&self.core.gather_u32, local, false, visit)
    }

    /// Visiting variable-size ALLGATHER of `f32` payloads — the paper's
    /// *baseline* dense gradient exchange (`Θ(G·K·D)` wire bytes)
    /// without the host materialising `G·K×D` on every rank: `visit(s,
    /// rows)` reads sender `s`'s payload in its slot, in rank order.
    /// Slots are read-shared, so all ranks may sit in the same sender's
    /// payload at once. The visitor is the framing: it must check each
    /// payload's length against what it expects and return `Err`
    /// (attributed to the *sender*, as decode failures are) when it
    /// does not fit — which is also how an armed
    /// [`Rank::corrupt_next_codec_frame`] latch, which tears this rank's
    /// published payload, surfaces as a typed error on every rank. An
    /// `Err` from `visit` poisons the group and is returned; otherwise
    /// this rank's sends, as [`Rank::all_gather_u32_visit`] returns them.
    pub fn all_gather_f32_visit(
        &self,
        local: &[f32],
        visit: impl FnMut(usize, &[f32]) -> Result<(), CommError>,
    ) -> Result<TierBytes, CommError> {
        self.gather_raw_visit(
            &self.core.gather_f32,
            local,
            self.take_corrupt_frame(),
            visit,
        )
    }

    /// [`Rank::all_gather_f32_visit`] under §III-C compression: payloads
    /// cross as binary16 of `x · scale`, and each sender's is decoded
    /// into `staging` (reused; one sender's `K×D`, never `G·K×D`) just
    /// before `visit` sees it. Returns this rank's sends at 2 bytes per
    /// element.
    pub fn all_gather_f16_visit(
        &self,
        local: &[f32],
        scale: f32,
        staging: &mut Vec<f32>,
        mut visit: impl FnMut(usize, &[f32]) -> Result<(), CommError>,
    ) -> Result<TierBytes, CommError> {
        let inv = 1.0 / checked_scale(scale);
        self.gather_rendezvous(
            &self.core.gather_u16,
            self.take_corrupt_frame(),
            |slot| {
                encode_f16(local, scale, slot);
                (local.len() * 2) as u64
            },
            |sender, slot, torn| {
                decode_f16(delivered(slot, torn, &[0]), inv, staging);
                visit(sender, staging).map_err(|e| self.poison(e))
            },
        )
    }

    /// Variable-size ALLGATHER of `u32` payloads into `out`: every
    /// rank's contribution concatenated in rank order (identical on all
    /// ranks) replaces `out`'s contents, reusing its capacity. This is
    /// the cheap index exchange at the heart of the paper's uniqueness
    /// technique — `Θ(G·K)` elements instead of `Θ(G·K·D)`.
    pub fn all_gather_u32_into(&self, local: &[u32], out: &mut Vec<u32>) -> Result<(), CommError> {
        out.clear();
        self.all_gather_u32_visit(local, |_, payload| {
            out.extend_from_slice(payload);
            Ok(())
        })
        .map(drop)
    }

    /// [`Rank::all_gather_f32_visit`] materialised: the concatenation
    /// of every rank's payload, rank order, replaces `out`'s contents
    /// (capacity reused).
    pub fn all_gather_f32_into(&self, local: &[f32], out: &mut Vec<f32>) -> Result<(), CommError> {
        out.clear();
        self.all_gather_f32_visit(local, |_, rows| {
            out.extend_from_slice(rows);
            Ok(())
        })
        .map(drop)
    }

    /// [`Rank::all_gather_f16_visit`] materialised into `out` (capacity
    /// reused; the one-sender staging buffer is this call's own).
    pub fn all_gather_f16_into(
        &self,
        local: &[f32],
        scale: f32,
        out: &mut Vec<f32>,
    ) -> Result<(), CommError> {
        out.clear();
        self.all_gather_f16_visit(local, scale, &mut Vec::new(), |_, rows| {
            out.extend_from_slice(rows);
            Ok(())
        })
        .map(drop)
    }

    /// Sums one scalar across ranks in rank order (deterministic) and
    /// takes the elementwise max of a pair of integers — the trainer's
    /// loss and its step time's two peaks. Each rank sends its 8-byte
    /// summand to every peer: `peer_exchange_tier_bytes(G,
    /// gpus_per_node, rank, 8)`, which a caller that books the
    /// reduction charges. The maxes ride along as host bookkeeping for
    /// the modelled barrier, not as modelled traffic.
    ///
    /// One rendezvous, as [`Rank::all_reduce`]: the last arriver folds
    /// `0.0 + v_0 + v_1 + …` in rank order and the maxes over every
    /// rank, and every rank reads that one result.
    pub fn all_reduce_sum_max(
        &self,
        sum: f64,
        max: [u64; 2],
    ) -> Result<(f64, [u64; 2]), CommError> {
        *self.core.scalar[self.rank].lock() = (sum, max);
        let core = &self.core;
        self.sync_leader(|| {
            let folded = fold_sum_max(core.scalar.iter().map(|slot| *slot.lock()));
            *core.reduced_scalar.lock() = folded;
        })?;
        // No departure barrier, for the reason `all_reduce` gives.
        Ok(*self.core.reduced_scalar.lock())
    }

    /// [`Rank::all_reduce_sum_max`]'s sum alone. Exists only because
    /// the benchmark (`e2e/`) calls it by name; everything else uses
    /// [`Rank::all_reduce_sum_max`].
    pub fn all_reduce_scalar_f64(&self, v: f64) -> Result<f64, CommError> {
        self.all_reduce_sum_max(v, [0; 2]).map(|(sum, _)| sum)
    }

    /// §III-A's unique-set gather: every rank publishes its indices
    /// `J_r` and meets the group at **one** rendezvous, whose last
    /// arriver derives each rank's `Ĵ_r`, each node's `U_n` and the
    /// canonical global set `Î` ([`NodeSets::build`]: first occurrence
    /// over the node-major concatenation of the `U_n`, which is first
    /// occurrence over the rank-major concatenation of the `J_r`). `Î`
    /// replaces `out`'s contents, identical on every rank and under every
    /// `topology`.
    ///
    /// With a `codec` each `J_r` crosses as its encoded frame and the
    /// leader decodes all of them; a frame that fails to decode (an
    /// armed [`Rank::corrupt_next_codec_frame`] tears it) poisons the
    /// group with a typed error naming its sender, on every rank. Raw
    /// publishes do not consume the latch.
    ///
    /// **Wire schedule and accounting** ([`unique_gather_tier_bytes`]):
    /// [`Topology::TwoTier`] over a group that spans nodes charges the
    /// node schedule — a member's `Ĵ_r` to its leader, each leader's
    /// `U_n` to the `N−1` other leaders, each leader's `Î` to its
    /// members — with every frame at its wire length (the codec's
    /// encoded length), on the group's nodes. [`Topology::Flat`], and a
    /// group that fits in one node, charge the flat peer gather of `J_r`
    /// as published. The returned [`UniqueGathered`] holds this rank's
    /// sends and the rank-invariant totals.
    pub fn all_gather_unique(
        &self,
        local: &[u32],
        codec: Option<&dyn WireCodec<u32>>,
        topology: Topology,
        out: &mut Vec<u32>,
    ) -> Result<UniqueGathered, CommError> {
        {
            let mut slot = self.core.gather_u32[self.rank].write();
            slot.clear();
            slot.extend_from_slice(local);
        }
        let torn = codec.is_some() && self.take_corrupt_frame();
        self.core.torn[self.rank].store(torn, Ordering::Relaxed);
        let core = &self.core;
        self.sync_leader(|| {
            let slots: Vec<_> = core.gather_u32.iter().map(|slot| slot.read()).collect();
            let locals: Vec<&[u32]> = slots.iter().map(|slot| slot.as_slice()).collect();
            let mut st = core.unique.write();
            let torn = |sender: usize| core.torn[sender].load(Ordering::Relaxed);
            st.error = st.gather(core.layout, codec, topology, &locals, torn).err();
        })?;
        // No departure barrier: slots are read only by the leader, and
        // the next rendezvous's leader work — the only writer of this
        // state — runs once every rank has finished here.
        let st = self.core.unique.read();
        if let Some(err) = st.error.clone() {
            drop(st);
            return Err(self.poison(err));
        }
        out.clear();
        out.extend_from_slice(st.sets.global());
        Ok(st.result(self.rank))
    }
}

/// The lockstep communicator: one caller holds every rank's buffers
/// and calls each collective **once, over all of them** — the same
/// functions a threaded group's rendezvous leader runs (the ALLREDUCE's
/// hop, here folded as each rank's buffer is made ([`RankSum`]), and
/// the codec round-trip, the unique-set
/// gather's decode / [`NodeSets::build`] / pricing, the f16 gather's
/// encoding, the scalar fold), so each collective's arithmetic, byte
/// ledger and codec framing has one implementation. No thread parks:
/// a rendezvous is [`World::meet`], a check of the group's state.
///
/// The failure model is [`Rank`]'s, made deterministic. The first
/// failure ([`World::abort`], a frame that fails to decode) poisons the
/// group for good and every later collective returns it. A rank that
/// [`World::go_silent`]s makes the next rendezvous a
/// [`CommError::Timeout`] naming the lowest-numbered rank still
/// talking (rank 0 if none is), having waited the deadline's whole
/// budget ([`BarrierDeadline::budget_ps`]) — simulated, not slept.
#[derive(Debug)]
pub struct World {
    layout: NodeLayout,
    deadline: Option<BarrierDeadline>,
    /// First failure, if any. Permanent once set.
    abort: Option<CommError>,
    /// Ranks that stopped calling collectives without aborting.
    silent: Vec<bool>,
    /// Each rank's wire-corruption latch
    /// ([`World::corrupt_next_codec_frame`]).
    torn: Vec<bool>,
    /// The unique-set gather's work and result, buffers reused.
    unique: UniqueState,
    /// One sender's FP16 frame, reused by the f16 gather.
    frame: Vec<u16>,
}

impl World {
    /// A world of `world` ranks laid out `gpus_per_node` per node, with
    /// an optional deadline for silent ranks — the arguments of
    /// [`CommGroup::create_full`] but its thread pool.
    pub fn new(world: usize, gpus_per_node: usize, deadline: Option<BarrierDeadline>) -> Self {
        assert!(world >= 1, "group needs at least one rank");
        World {
            layout: NodeLayout::new(world, gpus_per_node),
            deadline,
            abort: None,
            silent: vec![false; world],
            torn: vec![false; world],
            unique: UniqueState::default(),
            frame: Vec::new(),
        }
    }

    /// Group size `G`.
    pub fn world(&self) -> usize {
        self.layout.world()
    }

    /// The group's node size.
    pub fn gpus_per_node(&self) -> usize {
        self.layout.gpus_per_node()
    }

    /// Poisons the group on behalf of `rank` ([`Rank::abort`]): the
    /// first failure's attribution wins.
    pub fn abort(&mut self, rank: usize, reason: impl Into<String>) {
        self.fail(CommError::abort(rank, reason));
    }

    /// `rank` stops calling collectives without aborting (a hang): the
    /// next rendezvous times out. Panics without a deadline — nothing
    /// would ever end the wait.
    pub fn go_silent(&mut self, rank: usize) {
        assert!(
            self.deadline.is_some(),
            "a silent rank needs a barrier deadline"
        );
        self.silent[rank] = true;
    }

    /// Arms `rank`'s one-shot wire-corruption latch
    /// ([`Rank::corrupt_next_codec_frame`]): the next frame of `rank`
    /// a collective frames — a codec frame, a row payload of a visiting
    /// f32 / f16 gather — is torn in flight.
    pub fn corrupt_next_codec_frame(&mut self, rank: usize) {
        self.torn[rank] = true;
    }

    /// The rendezvous: `Err` once the group is poisoned, and a
    /// [`CommError::Timeout`] (which then poisons it) while any rank is
    /// silent.
    pub fn meet(&mut self) -> Result<(), CommError> {
        if let Some(e) = &self.abort {
            return Err(e.clone());
        }
        if let Some(deadline) = self.deadline.filter(|_| self.silent.contains(&true)) {
            let rank = self.silent.iter().position(|&s| !s).unwrap_or(0);
            return Err(self.fail(CommError::Timeout {
                rank,
                waited_ps: deadline.budget_ps(),
            }));
        }
        Ok(())
    }

    /// Records `err` as the group's failure unless one came first, and
    /// hands it back.
    fn fail(&mut self, err: CommError) -> CommError {
        self.abort.get_or_insert_with(|| err.clone());
        err
    }

    /// [`Rank::all_reduce`] over `sum[range]`, every rank's buffer
    /// already folded in ([`RankSum::fold`], once per rank in rank
    /// order): the final FP16 cast, the codec round trip and every
    /// rank's bytes, `sent[r]` what rank `r` sent. On `Ok` the range
    /// holds the reduction every rank's buffer would hold. Call it once
    /// per range — a gradient bucket is a range of the one sum. Every
    /// rank's copy of the reduction is this one, so a codec frames it
    /// once; a frame that fails to decode is an `Err` naming the first
    /// rank whose latch was armed, which consumes the latches up to and
    /// including that rank's, as the ranks' own round trips would.
    /// Panics unless the sum folded `G` buffers under `wire`'s scale —
    /// after the rendezvous, which fails first on a poisoned world.
    pub fn all_reduce(
        &mut self,
        sum: &mut RankSum,
        range: Range<usize>,
        wire: Wire<'_>,
        topology: Topology,
        sent: &mut [TierBytes],
    ) -> Result<(), CommError> {
        let scale = f16_scale(wire);
        self.meet()?;
        assert_eq!(sum.ranks, self.world(), "the sum folds every rank's buffer");
        assert_eq!(sum.scale, scale, "the sum was folded for another wire");
        sent.fill(TierBytes::default());
        if self.world() == 1 {
            return Ok(());
        }
        let data = &mut sum.sum[range];
        finish_hops(data, scale.map(|s| (s, 1.0 / s)));
        if let Some(codec) = wire.codec() {
            let torn = (0..self.world()).find(|&r| std::mem::take(&mut self.torn[r]));
            let sender = torn.unwrap_or(0);
            codec_roundtrip_chunks(data, codec, self.world(), sender, torn.is_some())
                .map_err(|e| self.fail(e))?;
        }
        for (r, sent) in sent.iter_mut().enumerate() {
            *sent = all_reduce_sent(self.layout, topology, r, wire, data);
        }
        Ok(())
    }

    /// [`Rank::all_gather_unique`] over every rank's `locals[r] = J_r`.
    /// Read the result with [`World::unique_set`] and
    /// [`World::unique_gathered`].
    pub fn all_gather_unique(
        &mut self,
        locals: &[&[u32]],
        codec: Option<&dyn WireCodec<u32>>,
        topology: Topology,
    ) -> Result<(), CommError> {
        self.meet()?;
        let torn = &mut self.torn;
        let res = self
            .unique
            .gather(self.layout, codec, topology, locals, |sender| {
                std::mem::take(&mut torn[sender])
            });
        res.map_err(|e| self.fail(e))
    }

    /// The canonical global set `Î` of the last unique-set gather.
    pub fn unique_set(&self) -> &[u32] {
        self.unique.sets.global()
    }

    /// Rank `rank`'s [`UniqueGathered`] of the last unique-set gather.
    pub fn unique_gathered(&self, rank: usize) -> UniqueGathered {
        self.unique.result(rank)
    }

    /// [`Rank::all_gather_f32_visit`] over every rank's `payloads[r]`:
    /// `visit(s, rows)` sees each sender's payload once, in rank order,
    /// where it lies (torn when the sender's latch is armed). Each
    /// rank's sends are [`peer_exchange_tier_bytes`] of its payload. An
    /// `Err` from `visit` poisons the group and is returned.
    pub fn all_gather_f32_visit(
        &mut self,
        payloads: &[&[f32]],
        mut visit: impl FnMut(usize, &[f32]) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        self.meet()?;
        for (sender, payload) in payloads.iter().enumerate() {
            let torn = std::mem::take(&mut self.torn[sender]);
            visit(sender, delivered(payload, torn, &[0.0])).map_err(|e| self.fail(e))?;
        }
        Ok(())
    }

    /// [`Rank::all_gather_f16_visit`] over every rank's `payloads[r]`:
    /// each sender's payload is encoded to binary16 once, decoded into
    /// `staging` and visited, in rank order.
    pub fn all_gather_f16_visit(
        &mut self,
        payloads: &[&[f32]],
        scale: f32,
        staging: &mut Vec<f32>,
        mut visit: impl FnMut(usize, &[f32]) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        let inv = 1.0 / checked_scale(scale);
        self.meet()?;
        for (sender, payload) in payloads.iter().enumerate() {
            encode_f16(payload, scale, &mut self.frame);
            let torn = std::mem::take(&mut self.torn[sender]);
            decode_f16(delivered(&self.frame, torn, &[0]), inv, staging);
            visit(sender, staging).map_err(|e| self.fail(e))?;
        }
        Ok(())
    }

    /// [`Rank::all_reduce_sum_max`] over every rank's `(sum, max)`, in
    /// rank order.
    pub fn all_reduce_sum_max(
        &mut self,
        values: impl IntoIterator<Item = (f64, [u64; 2])>,
    ) -> Result<(f64, [u64; 2]), CommError> {
        self.meet()?;
        Ok(fold_sum_max(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat ring's bytes for `n` elements of `elem_bytes` each.
    fn ring_allreduce_send_bytes(n: usize, world: usize, rank: usize, elem_bytes: u64) -> u64 {
        ring_allreduce_send_bytes_parts(world, rank, |parts, c| {
            chunk_range(n, parts, c).len() as u64 * elem_bytes
        })
    }

    /// The two-tier schedule's per-tier bytes for `n` elements of
    /// `elem_bytes` each.
    fn hierarchical_allreduce_send_bytes(
        n: usize,
        world: usize,
        gpus_per_node: usize,
        rank: usize,
        elem_bytes: u64,
    ) -> TierBytes {
        let nodes = NodeLayout::new(world, gpus_per_node);
        hierarchical_allreduce_send_bytes_parts(nodes, rank, |parts, c| {
            chunk_range(n, parts, c).len() as u64 * elem_bytes
        })
    }

    /// Runs `f` on every rank of a fresh group, returning rank results.
    fn run_group<T: Send>(world: usize, f: impl Fn(Rank) -> T + Sync) -> Vec<T> {
        let ranks = CommGroup::create(world);
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for rank in ranks {
                let f = &f;
                handles.push(s.spawn(move || f(rank)));
            }
            for (i, h) in handles.into_iter().enumerate() {
                out[i] = Some(h.join().expect("rank thread panicked"));
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    /// The `_into` gathers into a fresh buffer, for tests that only
    /// look at the result.
    fn gather_u32(rank: &Rank, local: &[u32]) -> Result<Vec<u32>, CommError> {
        let mut out = Vec::new();
        rank.all_gather_u32_into(local, &mut out).map(|()| out)
    }

    fn gather_f32(rank: &Rank, local: &[f32]) -> Result<Vec<f32>, CommError> {
        let mut out = Vec::new();
        rank.all_gather_f32_into(local, &mut out).map(|()| out)
    }

    fn gather_f16(rank: &Rank, local: &[f32], scale: f32) -> Result<Vec<f32>, CommError> {
        let mut out = Vec::new();
        rank.all_gather_f16_into(local, scale, &mut out)
            .map(|()| out)
    }

    #[test]
    fn f16_helpers_round_trip_known_values() {
        for &x in &[0.0f32, 1.0, -2.5, 65504.0, 6.1e-5, -0.125] {
            let h = f32_to_f16_bits(x);
            let back = f16_bits_to_f32(h);
            assert!((back - x).abs() <= x.abs() * 1e-3 + 1e-7, "{x} -> {back}");
        }
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0)), 1.0);
    }

    #[test]
    fn all_reduce_matches_serial_sum() {
        for world in [1usize, 2, 3, 4, 7, 8] {
            let n = 37;
            let results = run_group(world, |rank| {
                let r = rank.rank();
                let mut data: Vec<f32> = (0..n).map(|i| (i + r * 100) as f32).collect();
                rank.all_reduce(&mut data, 0..n, Wire::F32, Topology::Flat)
                    .unwrap();
                data
            });
            let expected: Vec<f32> = (0..n)
                .map(|i| (0..world).map(|r| (i + r * 100) as f32).sum())
                .collect();
            for (r, res) in results.iter().enumerate() {
                for (a, b) in res.iter().zip(&expected) {
                    assert!((a - b).abs() < 1e-3, "world {world} rank {r}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_ranks_agree_exactly() {
        let results = run_group(5, |rank| {
            let r = rank.rank();
            let mut data: Vec<f32> = (0..23).map(|i| (i as f32 * 0.37) + r as f32).collect();
            rank.all_reduce(&mut data, 0..23, Wire::F32, Topology::Flat)
                .unwrap();
            data
        });
        for r in 1..5 {
            assert_eq!(results[0], results[r], "rank {r} diverged");
        }
    }

    #[test]
    fn all_reduce_f16_approximates_sum() {
        let world = 4;
        let n = 64;
        let results = run_group(world, |rank| {
            let r = rank.rank();
            let mut data: Vec<f32> = (0..n).map(|i| 0.01 * (i as f32 + r as f32)).collect();
            rank.all_reduce(&mut data, 0..n, Wire::F16 { scale: 512.0 }, Topology::Flat)
                .unwrap();
            data
        });
        let expected: Vec<f32> = (0..n)
            .map(|i| (0..world).map(|r| 0.01 * (i as f32 + r as f32)).sum())
            .collect();
        for res in &results {
            for (a, b) in res.iter().zip(&expected) {
                assert!((a - b).abs() < b.abs() * 0.01 + 1e-3, "{a} vs {b}");
            }
        }
        // All ranks agree bit-exactly after the gather phase.
        for r in 1..world {
            assert_eq!(results[0], results[r]);
        }
    }

    #[test]
    fn all_gather_u32_preserves_rank_order_and_varying_sizes() {
        let results = run_group(4, |rank| {
            let r = rank.rank() as u32;
            let local: Vec<u32> = (0..=r).map(|i| r * 10 + i).collect(); // size r+1
            gather_u32(&rank, &local).unwrap()
        });
        let expected = vec![0u32, 10, 11, 20, 21, 22, 30, 31, 32, 33];
        for res in &results {
            assert_eq!(res, &expected);
        }
    }

    #[test]
    fn all_gather_f32_baseline() {
        let results = run_group(3, |rank| {
            let local = vec![rank.rank() as f32; 2];
            gather_f32(&rank, &local).unwrap()
        });
        for res in &results {
            assert_eq!(res, &vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn all_gather_f16_compresses_but_preserves_values() {
        let results = run_group(2, |rank| {
            let local = vec![0.5 + rank.rank() as f32, -0.25];
            gather_f16(&rank, &local, 256.0).unwrap()
        });
        for res in &results {
            assert!((res[0] - 0.5).abs() < 1e-3);
            assert!((res[2] - 1.5).abs() < 1e-3);
            assert!((res[1] + 0.25).abs() < 1e-3);
        }
    }

    #[test]
    fn scalar_reduce_deterministic() {
        let results = run_group(6, |rank| {
            let r = rank.rank() as u64;
            let v = r as f64 + 0.5;
            let sum = rank.all_reduce_scalar_f64(v).unwrap();
            (
                sum,
                rank.all_reduce_sum_max(v, [(r * 5) % 6, 10 - r]).unwrap(),
            )
        });
        for res in &results {
            // 0.5+1.5+...+5.5; max of 0, 5, 4, 3, 2, 1 and of 10..=5.
            assert_eq!(*res, (18.0, (18.0, [5, 10])));
        }
    }

    /// Σ over a fresh group of `world` ranks on `gpn`-GPU nodes of what
    /// one ALLREDUCE of `n` ones returned.
    fn all_reduce_sent(world: usize, gpn: usize, n: usize, wire: Wire<'_>, t: Topology) -> u64 {
        run_group_topo(world, gpn, |rank| {
            let mut data = vec![1.0f32; n];
            rank.all_reduce(&mut data, 0..n, wire, t).unwrap().total()
        })
        .iter()
        .sum()
    }

    #[test]
    fn traffic_counts_ring_volume() {
        let world = 4;
        let n = 100usize;
        // Ring: each rank sends 2(G−1) chunks of ~n/G floats.
        let expected = (2 * (world - 1) * n / world * 4 * world) as u64;
        let got = all_reduce_sent(world, world, n, Wire::F32, Topology::Flat);
        assert!(
            (got as i64 - expected as i64).unsigned_abs() <= (world * world * 8) as u64,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn traffic_f16_is_half_of_f32() {
        let world = 4;
        let n = 128usize; // divisible by world so chunks are even
        let f32_bytes = all_reduce_sent(world, world, n, Wire::F32, Topology::Flat);
        let f16 = Wire::F16 { scale: 512.0 };
        let f16_bytes = all_reduce_sent(world, world, n, f16, Topology::Flat);
        assert_eq!(f16_bytes * 2, f32_bytes);
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        let results = run_group(4, |rank| {
            let mut acc = 0.0f64;
            for i in 0..50 {
                let mut v = vec![i as f32; 8];
                rank.all_reduce(&mut v, 0..8, Wire::F32, Topology::Flat)
                    .unwrap();
                let g = gather_u32(&rank, &[rank.rank() as u32]).unwrap();
                acc += v[0] as f64 + g.len() as f64;
            }
            acc
        });
        for r in &results {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn hierarchical_moves_fewer_leader_hops() {
        // With 8 ranks in 2 nodes, only the 2 leaders speak "inter-node";
        // the bytes charged are below the flat ring's for the same
        // payload per additional member.
        let n = 4096usize;
        let flat = all_reduce_sent(8, 4, n, Wire::F32, Topology::Flat);
        let hier = all_reduce_sent(8, 4, n, Wire::F32, Topology::TwoTier);
        // Both are Θ(G·n); the point is correctness of accounting, and
        // that the leader ring is only 2 wide (2·(2−1)/2·n per leader).
        assert!(hier > 0 && flat > 0);
        let leader_ring = n as u64 * 4; // 2·(2−1)/2 · n · 4B
        assert!(hier as i64 - leader_ring as i64 > 0);
    }

    #[test]
    fn chunk_ranges_partition_buffer() {
        for n in [0usize, 1, 5, 17, 64] {
            for g in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for c in 0..g {
                    let r = chunk_range(n, g, c);
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn all_gather_empty_slices() {
        // Every rank empty, and a mix of empty/non-empty contributions
        // (the `equivalence_with_empty_contributions` scenario at the
        // comm layer).
        let all_empty = run_group(3, |rank| {
            let u = gather_u32(&rank, &[]).unwrap();
            let f = gather_f32(&rank, &[]).unwrap();
            let h = gather_f16(&rank, &[], 512.0).unwrap();
            (u.len(), f.len(), h.len())
        });
        for r in &all_empty {
            assert_eq!(*r, (0, 0, 0));
        }

        let mixed = run_group(3, |rank| {
            let local: Vec<u32> = if rank.rank() == 1 {
                vec![]
            } else {
                vec![rank.rank() as u32 * 10]
            };
            gather_u32(&rank, &local).unwrap()
        });
        for res in &mixed {
            assert_eq!(res, &vec![0u32, 20]);
        }
    }

    #[test]
    fn gather_into_reuses_capacity() {
        let results = run_group(4, |rank| {
            let r = rank.rank() as u32;
            let local: Vec<u32> = (0..=r).map(|i| r * 10 + i).collect();
            let rows: Vec<f32> = (0..3).map(|i| (r * 10 + i) as f32).collect();
            let mut u = Vec::new();
            let mut f = Vec::new();
            let mut h = Vec::new();
            // Repeated calls into the same buffers must not grow past
            // the first call's capacity (zero steady-state allocation).
            rank.all_gather_u32_into(&local, &mut u).unwrap();
            rank.all_gather_f32_into(&rows, &mut f).unwrap();
            rank.all_gather_f16_into(&rows, 512.0, &mut h).unwrap();
            let (cu, cf, ch) = (u.capacity(), f.capacity(), h.capacity());
            for _ in 0..5 {
                rank.all_gather_u32_into(&local, &mut u).unwrap();
                rank.all_gather_f32_into(&rows, &mut f).unwrap();
                rank.all_gather_f16_into(&rows, 512.0, &mut h).unwrap();
            }
            assert_eq!(u.capacity(), cu);
            assert_eq!(f.capacity(), cf);
            assert_eq!(h.capacity(), ch);
            (f, h)
        });
        for (f, h) in &results {
            assert_eq!(f.len(), 12);
            assert_eq!(h.len(), 12);
            for (a, b) in f.iter().zip(h) {
                assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-3);
            }
        }
    }

    #[test]
    fn ring_send_bytes_helper_matches_recorder_exactly() {
        // The analytic per-rank helper must reproduce what every rank's
        // collective returns to the byte, including non-divisible chunk
        // sizes.
        for (world, n) in [
            (2usize, 10usize),
            (4, 7),
            (8, 13),
            (8, 4096),
            (5, 0),
            (3, 2),
        ] {
            for (elem, wire) in [(4u64, Wire::F32), (2, Wire::F16 { scale: 512.0 })] {
                let sent = run_group(world, |rank| {
                    let mut data = vec![1.0f32; n];
                    rank.all_reduce(&mut data, 0..n, wire, Topology::Flat)
                        .unwrap()
                });
                for (r, sent) in sent.iter().enumerate() {
                    let analytic = ring_allreduce_send_bytes(n, world, r, elem);
                    assert_eq!(
                        *sent,
                        TierBytes::on(Tier::Intra, analytic),
                        "world {world} n {n} elem {elem} rank {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn abort_wakes_blocked_barrier_waiters_with_failed_rank() {
        let results = run_group(3, |rank| {
            if rank.rank() == 2 {
                rank.abort("simulated failure");
                Ok(())
            } else {
                rank.barrier()
            }
        });
        for (r, res) in results.iter().enumerate() {
            if r == 2 {
                assert_eq!(*res, Ok(()));
            } else {
                let err = res.clone().unwrap_err();
                assert_eq!(err.failed_rank(), 2);
                assert_eq!(err.reason(), "simulated failure");
            }
        }
    }

    #[test]
    fn collectives_error_after_peer_abort() {
        let results = run_group(4, |rank| {
            if rank.rank() == 1 {
                rank.abort("rank 1 died");
                return Vec::new();
            }
            let mut errs = Vec::new();
            let mut data = vec![1.0f32; 8];
            errs.push(
                rank.all_reduce(&mut data, 0..8, Wire::F32, Topology::Flat)
                    .unwrap_err(),
            );
            errs.push(gather_u32(&rank, &[7]).unwrap_err());
            errs.push(rank.all_reduce_scalar_f64(1.0).unwrap_err());
            errs.push(rank.barrier().unwrap_err());
            errs
        });
        for (r, errs) in results.iter().enumerate() {
            if r == 1 {
                continue;
            }
            assert_eq!(errs.len(), 4);
            for e in errs {
                assert_eq!(e.failed_rank(), 1, "rank {r} misattributed: {e}");
            }
        }
    }

    #[test]
    fn first_failure_wins_attribution() {
        let results = run_group(3, |rank| match rank.rank() {
            0 => {
                rank.abort("root cause");
                rank.check_abort()
            }
            1 => {
                // Deterministically lose the race: only abort after
                // rank 0's poison is already visible.
                while rank.check_abort().is_ok() {
                    std::thread::yield_now();
                }
                rank.abort("echo failure");
                rank.check_abort()
            }
            _ => {
                while rank.check_abort().is_ok() {
                    std::thread::yield_now();
                }
                rank.check_abort()
            }
        });
        for res in results {
            let err = res.unwrap_err();
            assert_eq!(err.failed_rank(), 0);
            assert_eq!(err.reason(), "root cause");
        }
    }

    #[test]
    fn poisoned_group_stays_poisoned() {
        let results = run_group(2, |rank| {
            if rank.rank() == 0 {
                rank.abort("permanent");
            } else {
                while rank.check_abort().is_ok() {
                    std::thread::yield_now();
                }
            }
            // Every subsequent collective fails immediately.
            let a = rank.barrier().unwrap_err();
            let b = gather_f32(&rank, &[1.0]).unwrap_err();
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a.failed_rank(), 0);
            assert_eq!(b, a);
        }
    }

    /// Like [`run_group`] but with a barrier deadline configured.
    fn run_group_deadline<T: Send>(
        world: usize,
        deadline: BarrierDeadline,
        f: impl Fn(Rank) -> T + Sync,
    ) -> Vec<T> {
        let ranks = CommGroup::create_full(world, world, 0, Some(deadline));
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for rank in ranks {
                let f = &f;
                handles.push(s.spawn(move || f(rank)));
            }
            for (i, h) in handles.into_iter().enumerate() {
                out[i] = Some(h.join().expect("rank thread panicked"));
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn silent_peer_times_out_instead_of_hanging() {
        let deadline = BarrierDeadline {
            timeout: std::time::Duration::from_millis(5),
            retries: 2,
        };
        let results = run_group_deadline(3, deadline, |rank| {
            if rank.rank() == 2 {
                // Go silent: never call a collective, never abort.
                // Wait for the poison so the thread still joins.
                while rank.check_abort().is_ok() {
                    std::thread::yield_now();
                }
                return rank.check_abort();
            }
            rank.barrier()
        });
        // Total budget: 5 + 10 + 20 ms slices → waited_ps ≥ 35e9.
        for (r, res) in results.iter().enumerate() {
            let err = res.clone().unwrap_err();
            match err {
                CommError::Timeout { rank, waited_ps } => {
                    assert!(rank < 2, "a waiter (not the silent rank) attributes");
                    assert!(
                        waited_ps >= 35_000_000_000,
                        "rank {r}: waited_ps {waited_ps} below the slice budget"
                    );
                }
                other => panic!("rank {r}: expected Timeout, got {other}"),
            }
        }
    }

    #[test]
    fn deadline_is_inert_when_peers_arrive() {
        // A configured deadline that no host scheduling delay reaches:
        // the test checks that the deadline stays inert while every peer
        // arrives, not how fast a loaded host wakes four threads.
        let deadline = BarrierDeadline {
            timeout: std::time::Duration::from_secs(3600),
            retries: 0,
        };
        let sums = run_group_deadline(4, deadline, |rank| {
            let mut v = vec![rank.rank() as f32; 8];
            for _ in 0..50 {
                rank.all_reduce(&mut v, 0..8, Wire::F32, Topology::Flat)
                    .expect("no one is silent");
                v.iter_mut().for_each(|x| *x /= 4.0);
            }
            v[0]
        });
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn explicit_abort_beats_pending_timeout_attribution() {
        let deadline = BarrierDeadline {
            timeout: std::time::Duration::from_millis(50),
            retries: 5,
        };
        let results = run_group_deadline(2, deadline, |rank| {
            if rank.rank() == 1 {
                // Let rank 0 park first, then announce the failure —
                // well inside the first 50 ms slice.
                std::thread::sleep(std::time::Duration::from_millis(2));
                rank.abort("announced failure");
                return rank.check_abort();
            }
            rank.barrier()
        });
        let err = results[0].clone().unwrap_err();
        assert_eq!(err, CommError::abort(1, "announced failure"));
    }

    #[test]
    fn corrupt_frame_on_allgather_names_the_sender_on_every_rank() {
        use crate::codec::WireCodecId;
        let results = run_group(3, |rank| {
            if rank.rank() == 1 {
                rank.corrupt_next_codec_frame();
            }
            let local = vec![rank.rank() as u32 * 100; 16];
            let codec = WireCodecId::Lossless.index_codec();
            assert!(codec.is_some(), "lossless has an index codec");
            rank.all_gather_unique(&local, codec, Topology::Flat, &mut Vec::new())
        });
        for (r, res) in results.iter().enumerate() {
            let err = res.clone().unwrap_err();
            assert_eq!(
                err.failed_rank(),
                1,
                "rank {r} must attribute the corrupt frame to its sender: {err}"
            );
            assert!(err.reason().contains("decode failed"), "{err}");
        }
    }

    #[test]
    fn corrupt_frame_on_allreduce_codec_poisons_with_sender() {
        use crate::codec::WireCodecId;
        let results = run_group(4, |rank| {
            if rank.rank() == 2 {
                rank.corrupt_next_codec_frame();
            }
            let mut data = vec![1.5f32; 32];
            // The damaged round-trip is local to rank 2, which fails
            // mid-collective; peers observe the poison no later than
            // their next barrier crossing.
            let codec = WireCodecId::Lossless
                .grad_codec()
                .expect("lossless has a grad codec");
            rank.all_reduce(&mut data, 0..32, Wire::Codec(codec), Topology::Flat)
                .and_then(|_| rank.barrier())
        });
        for (r, res) in results.iter().enumerate() {
            let err = res.clone().unwrap_err();
            assert_eq!(err.failed_rank(), 2, "rank {r}: {err}");
        }
    }

    /// [`Rank::all_reduce`] over the whole of `data`, asserting that the
    /// lent buffer comes back as the caller's own allocation with its
    /// length and capacity, whatever the outcome.
    fn lend_whole(rank: &Rank, data: &mut Vec<f32>, wire: Wire<'_>) -> Result<(), CommError> {
        let before = (data.len(), data.capacity(), data.as_ptr());
        let res = rank.all_reduce(data, 0..before.0, wire, Topology::Flat);
        let after = (data.len(), data.capacity(), data.as_ptr());
        assert_eq!(
            after,
            before,
            "rank {} got another buffer back",
            rank.rank()
        );
        res.map(drop)
    }

    /// The lent buffers' failure paths: a peer that aborts while the
    /// others are parked with their buffers lent, and a codec frame torn
    /// in flight. Every survivor gets a typed `Err` and its own `Vec`
    /// back, and the next collective on the poisoned group is a typed
    /// `Err` too — no panic, no hang.
    #[test]
    fn lent_buffers_come_back_on_every_error_path() {
        let (n, cap) = (2 * REDUCE_BLOCK + 5, 3 * REDUCE_BLOCK);
        let buffer = move |r: usize| {
            let mut data = Vec::with_capacity(cap);
            data.extend(hostile_payload(r, n));
            data
        };
        let aborted = within_watchdog("peer abort with buffers lent", move || {
            run_group(4, |rank| {
                if rank.rank() == 1 {
                    // Die only once every peer has lent its buffer and
                    // parked at the rendezvous.
                    while rank.core.barrier.state.lock().arrived < 3 {
                        std::thread::yield_now();
                    }
                    rank.abort("died with its peers' buffers lent");
                    return Vec::new();
                }
                let mut data = buffer(rank.rank());
                vec![
                    lend_whole(&rank, &mut data, Wire::F32).unwrap_err(),
                    lend_whole(&rank, &mut data, Wire::F16 { scale: 64.0 }).unwrap_err(),
                ]
            })
        });
        for (r, errs) in aborted.iter().enumerate().filter(|&(r, _)| r != 1) {
            assert_eq!(errs.len(), 2);
            for e in errs {
                assert_eq!(e.failed_rank(), 1, "rank {r}: {e}");
            }
        }
        let torn = within_watchdog("torn codec frame", move || {
            run_group(4, |rank| {
                use crate::codec::WireCodecId;
                let codec = WireCodecId::Lossless.grad_codec().expect("lossless codec");
                if rank.rank() == 2 {
                    rank.corrupt_next_codec_frame();
                }
                let mut data = buffer(rank.rank());
                // Rank 2's own round trip fails; its peers, already past
                // the rendezvous, see the poison at the next collective.
                let first = lend_whole(&rank, &mut data, Wire::Codec(codec));
                let next = lend_whole(&rank, &mut data, Wire::Codec(codec));
                (first.and(next.clone()).unwrap_err(), next.unwrap_err())
            })
        });
        for (r, (first, next)) in torn.iter().enumerate() {
            for e in [first, next] {
                assert_eq!(e.failed_rank(), 2, "rank {r}: {e}");
                assert!(e.reason().contains("decode failed"), "rank {r}: {e}");
            }
        }
    }

    #[test]
    fn corrupt_latch_is_one_shot() {
        use crate::codec::WireCodecId;
        let results = run_group(2, |rank| {
            let codec = WireCodecId::Lossless.index_codec();
            let mut out = Vec::new();
            if rank.rank() == 0 {
                rank.corrupt_next_codec_frame();
            }
            let first = rank.all_gather_unique(&[1, 2, 3], codec, Topology::Flat, &mut out);
            (first, rank.check_abort())
        });
        for (first, after) in &results {
            assert!(first.is_err(), "armed frame must fail the collective");
            assert!(after.is_err(), "group stays poisoned");
        }
        // The latch itself is consumed: a fresh group with no arming
        // round-trips the identical payload cleanly.
        let clean = run_group(2, |rank| {
            let mut out = Vec::new();
            let codec = WireCodecId::Lossless.index_codec();
            rank.all_gather_unique(&[1, 2, 3, 1], codec, Topology::Flat, &mut out)
                .map(|_| out)
        });
        for res in clean {
            assert_eq!(res.unwrap(), vec![1, 2, 3]);
        }
    }

    /// Like `run_group` but over an explicit-topology group.
    fn run_group_topo<T: Send>(
        world: usize,
        gpus_per_node: usize,
        f: impl Fn(Rank) -> T + Sync,
    ) -> Vec<T> {
        crate::pool::run_ranks(CommGroup::create_full(world, gpus_per_node, 0, None), &f)
    }

    /// Runs `scenario` on a detached thread and fails with `expired` if
    /// it has not finished in a minute: a regression that deadlocks
    /// hangs that thread, not the harness.
    fn within_watchdog<T: Send + 'static>(
        expired: &str,
        scenario: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(scenario());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("watchdog expired: {expired}"))
    }

    #[test]
    fn hierarchical_gpn_zero_is_typed_error_and_recoverable() {
        // A two-tier shim handed a node size that is not the group's —
        // 0, or any other — must be a typed CommError, not a panic, and
        // must NOT poison the group, so the same ranks can go on to run
        // valid collectives.
        type Shim = fn(&Rank, &mut Vec<f32>, usize) -> Result<(), CommError>;
        let shims: [Shim; 2] = [
            |r, d, gpn| r.all_reduce_sum_hierarchical(d, gpn),
            |r, d, gpn| r.all_reduce_sum_f16_hierarchical(d, 64.0, gpn),
        ];
        for shim in shims {
            let results = run_group_topo(4, 2, |rank| {
                let mut data = vec![rank.rank() as f32; 5];
                for gpn in [0, 3] {
                    let err = shim(&rank, &mut data, gpn).unwrap_err();
                    assert_eq!(err.failed_rank(), rank.rank());
                    assert!(err.reason().contains("gpus_per_node"), "{}", err.reason());
                }
                // Group still healthy: a valid collective succeeds.
                shim(&rank, &mut data, 2).unwrap();
                data[0]
            });
            for r in &results {
                assert_eq!(*r, 6.0); // 0+1+2+3, exact in binary16 too
            }
        }
    }

    /// The one ALLREDUCE, every wire format × wire schedule × awkward
    /// length: the result is bit-identical across schedules (and across
    /// the lossless formats), the returned [`TierBytes`] are this
    /// rank's analytic schedule share, and the benchmark-pinned shims
    /// are the core.
    #[test]
    fn all_reduce_wire_by_topology_by_length_table() {
        use crate::codec::ExpPackCodec;
        let scale = 64.0f32;
        // (name, wire, fixed element width if the format has one)
        let wires: [(&str, Wire<'static>, Option<u64>); 3] = [
            ("f32", Wire::F32, Some(4)),
            ("f16", Wire::F16 { scale }, Some(2)),
            ("exp-pack", Wire::Codec(&ExpPackCodec), None),
        ];
        // Two full nodes; ragged last nodes of 1 and of 3; one node.
        for (world, gpn) in [(8usize, 4usize), (7, 3), (11, 4), (4, 8)] {
            // n < G with empty chunks, n = 0, n not divisible by G.
            for n in [3usize, 0, 33] {
                let input =
                    |r: usize| -> Vec<f32> { (0..n).map(|i| (i + r * 10) as f32 * 0.37).collect() };
                // Canonical ascending-rank, left-associated sum.
                let exact: Vec<f32> = (0..n)
                    .map(|i| (0..world).map(|r| input(r)[i]).sum())
                    .collect();
                for (name, wire, elem) in wires {
                    let mut results = Vec::new();
                    for topology in [Topology::Flat, Topology::TwoTier] {
                        let ctx = format!("{name} {topology:?} world {world}/{gpn} n {n}");
                        let out = run_group_topo(world, gpn, |rank| {
                            let mut data = input(rank.rank());
                            let sent = rank.all_reduce(&mut data, 0..n, wire, topology).unwrap();
                            (data, sent)
                        });
                        let two_tier = topology != Topology::Flat && world > gpn;
                        let mut total = TierBytes::default();
                        for (r, (data, sent)) in out.iter().enumerate() {
                            assert_eq!(data, &out[0].0, "{ctx}: rank {r} diverged");
                            let chunk_bytes = |parts: usize, c: usize| {
                                wire.encoded_len(&data[chunk_range(n, parts, c)])
                            };
                            let on_ring_link =
                                |bytes: u64| TierBytes::on(ring_send_tier(world, gpn, r), bytes);
                            let analytic = if two_tier {
                                let nodes = NodeLayout::new(world, gpn);
                                hierarchical_allreduce_send_bytes_parts(nodes, r, chunk_bytes)
                            } else {
                                on_ring_link(ring_allreduce_send_bytes_parts(world, r, chunk_bytes))
                            };
                            assert_eq!(*sent, analytic, "{ctx}: rank {r} returned bytes");
                            if let Some(elem) = elem {
                                let fixed = if two_tier {
                                    hierarchical_allreduce_send_bytes(n, world, gpn, r, elem)
                                } else {
                                    on_ring_link(ring_allreduce_send_bytes(n, world, r, elem))
                                };
                                assert_eq!(*sent, fixed, "{ctx}: rank {r} fixed-width bytes");
                            }
                            total += *sent;
                        }
                        if two_tier && n > 0 {
                            assert!(total.inter > 0, "{ctx}: leaders pay IB");
                        }
                        results.push(out.into_iter().next().unwrap().0);
                    }
                    assert_eq!(results[0], results[1], "{name}: topology moved bits");
                    if matches!(wire, Wire::F16 { .. }) {
                        for (a, b) in results[0].iter().zip(&exact) {
                            assert!((a - b).abs() <= b.abs() * 0.01 + 1e-2, "{name}: {a} vs {b}");
                        }
                    } else {
                        assert_eq!(results[0], exact, "{name}: world {world} n {n}");
                    }
                }
            }
        }
        // Each pinned shim is its (wire, topology) cell of the table.
        type Shim = fn(&Rank, &mut Vec<f32>) -> Result<(), CommError>;
        let two_tier = Topology::TwoTier;
        let shims: [(Shim, Wire<'static>, Topology); 4] = [
            (|r, d| r.all_reduce_sum(d), Wire::F32, Topology::Flat),
            (
                |r, d| r.all_reduce_sum_f16(d, 64.0),
                Wire::F16 { scale },
                Topology::Flat,
            ),
            (
                |r, d| r.all_reduce_sum_hierarchical(d, 3),
                Wire::F32,
                two_tier,
            ),
            (
                |r, d| r.all_reduce_sum_f16_hierarchical(d, 64.0, 3),
                Wire::F16 { scale },
                two_tier,
            ),
        ];
        for (i, (shim, wire, topology)) in shims.into_iter().enumerate() {
            let input = |r: usize| -> Vec<f32> { (0..33).map(|i| (i + r) as f32 * 0.37).collect() };
            let via_shim = run_group_topo(7, 3, |rank| {
                let mut data = input(rank.rank());
                shim(&rank, &mut data).unwrap();
                data
            });
            let via_core = run_group_topo(7, 3, |rank| {
                let mut data = input(rank.rank());
                rank.all_reduce(&mut data, 0..33, wire, topology).unwrap();
                data
            });
            assert_eq!(via_shim, via_core, "shim {i}");
        }
    }

    /// The hop-major reduction the block walk of [`reduce_in_place`]
    /// replaced, kept as the oracle: the same hops over the whole payload
    /// into an accumulator of its own, each cast a round trip through the two
    /// scalar converters. Returns every rank's expected buffer: the sum
    /// on the elements it shares with rank 0, its own tail past them.
    fn hop_major_oracle(inputs: &[Vec<f32>], scale: Option<f32>) -> Vec<Vec<f32>> {
        let mut acc = inputs[0].clone();
        match scale {
            None => {
                for slot in &inputs[1..] {
                    for (a, &x) in acc.iter_mut().zip(slot) {
                        *a += x;
                    }
                }
            }
            Some(scale) => {
                let inv = 1.0 / scale;
                let round_trip = |a: f32| f16_bits_to_f32(f32_to_f16_bits(a * scale)) * inv;
                for slot in &inputs[1..] {
                    for (a, &x) in acc.iter_mut().zip(slot) {
                        *a = x + round_trip(*a);
                    }
                }
                for a in acc.iter_mut() {
                    *a = round_trip(*a);
                }
            }
        }
        let expected = |input: &Vec<f32>| {
            let mut want = input.clone();
            let m = want.len().min(acc.len());
            want[..m].copy_from_slice(&acc[..m]);
            want
        };
        inputs.iter().map(expected).collect()
    }

    /// Rank `r`'s `n`-element payload for the differential: magnitudes
    /// from below binary16's subnormal grid to past its overflow (both
    /// after `·scale`), both signs, and NaN / ±Inf at fixed strides.
    fn hostile_payload(r: usize, n: usize) -> Vec<f32> {
        let mut state = 0x9e37_79b9u32.wrapping_mul(r as u32 + 1);
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let unit = (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                match (i + 3 * r) % 41 {
                    0 => f32::NAN,
                    7 => f32::INFINITY,
                    13 => f32::NEG_INFINITY,
                    // Past 65 504 once scaled by 64.
                    19 => unit * 4_000.0,
                    // Inside and below the 2⁻²⁴ grid once scaled.
                    23 => unit * 1e-6,
                    29 => unit * 1e-10,
                    _ => unit,
                }
            })
            .collect()
    }

    /// `to_bits` equality, naming the first element that differs.
    #[track_caller]
    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        let differs = |(g, w): (&f32, &f32)| g.to_bits() != w.to_bits();
        if let Some(i) = got.iter().zip(want).position(differs) {
            panic!("{ctx}: element {i} is {:e}, want {:e}", got[i], want[i]);
        }
    }

    /// The block walk against the hop-major oracle, bit for bit, on
    /// every rank's buffer: [`reduce_in_place`] called directly (ragged
    /// buffer lengths included) and [`Rank::all_reduce`] on real rank
    /// threads.
    #[test]
    fn blocked_reduction_matches_hop_major_oracle() {
        let b = REDUCE_BLOCK;
        let check = |lens: &[usize], scale: Option<f32>, ctx: &str| {
            let inputs: Vec<Vec<f32>> = lens
                .iter()
                .enumerate()
                .map(|(s, &n)| hostile_payload(s, n))
                .collect();
            let want = hop_major_oracle(&inputs, scale);
            let mut got = inputs;
            let mut bufs: Vec<&mut [f32]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            reduce_in_place(&mut bufs, scale);
            for (r, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_same_bits(got, want, &format!("{ctx} rank {r}"));
            }
            want
        };
        for world in [1usize, 2, 3, 8] {
            for n in [0usize, 1, b - 1, b, b + 1, 3 * b + 7] {
                for scale in [None, Some(64.0)] {
                    let wire = scale.map_or(Wire::F32, |scale| Wire::F16 { scale });
                    let ctx = format!("{scale:?} world {world} n {n}");
                    let want = check(&vec![n; world], scale, &ctx);
                    if world == 1 {
                        continue; // `all_reduce` has nothing to reduce
                    }
                    for topology in [Topology::Flat, Topology::TwoTier] {
                        let out = run_group_topo(world, 2, |rank| {
                            let mut data = hostile_payload(rank.rank(), n);
                            rank.all_reduce(&mut data, 0..n, wire, topology).unwrap();
                            data
                        });
                        for (r, got) in out.iter().enumerate() {
                            let ctx = format!("{ctx} {topology:?} rank {r}");
                            assert_same_bits(got, &want[r], &ctx);
                        }
                    }
                }
            }
        }
        // A buffer shorter than rank 0's adds to, and receives, the
        // elements it has; a longer one's tail is neither read nor
        // written.
        for scale in [None, Some(64.0)] {
            check(
                &[2 * b + 5, b + 3, 0, 3 * b],
                scale,
                &format!("ragged {scale:?}"),
            );
        }
    }

    /// Bit oracle for [`Rank::all_reduce`], driven through the public API
    /// only: one FNV-1a hash over the `to_bits` of every rank's buffer
    /// after the collective, for each wire format (f32, binary16 at two
    /// scales, the lossless codec) × flat / two-tier on 3-GPU nodes ×
    /// G ∈ {2, 3, 8} × n ∈ {0, 1, G−1, `REDUCE_BLOCK` ± 1} on the
    /// hostile payloads — plus a ragged bucket split of one buffer (one
    /// bucket empty) whose head and tail lie outside every range and
    /// must come back bit-identical.
    #[test]
    fn all_reduce_characterisation() {
        use crate::codec::WireCodecId;
        let lossless = WireCodecId::Lossless
            .grad_codec()
            .expect("lossless has a grad codec");
        let wires = [
            Wire::F32,
            Wire::F16 { scale: 512.0 },
            Wire::F16 { scale: 64.0 },
            Wire::Codec(lossless),
        ];
        let b = REDUCE_BLOCK;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for wire in wires {
            for topology in [Topology::Flat, Topology::TwoTier] {
                for world in [2usize, 3, 8] {
                    // (buffer length, bucket boundaries in it)
                    let whole = [0, 1, world - 1, b - 1, b + 1].map(|n| (n, vec![0, n]));
                    let len = 2 * b + 9;
                    let split = (len, vec![2, 3, b + 3, b + 3, len - 3]);
                    for (n, cuts) in whole.into_iter().chain([split]) {
                        let out = run_group_topo(world, 3, |rank| {
                            let mut data = hostile_payload(rank.rank(), n);
                            for bucket in cuts.windows(2) {
                                rank.all_reduce(&mut data, bucket[0]..bucket[1], wire, topology)
                                    .unwrap();
                            }
                            data
                        });
                        let (head, tail) = (cuts[0], cuts[cuts.len() - 1]);
                        for (r, data) in out.iter().enumerate() {
                            let input = hostile_payload(r, n);
                            let ctx = format!("world {world} {topology:?} n {n} rank {r}");
                            assert_same_bits(&data[..head], &input[..head], &ctx);
                            assert_same_bits(&data[tail..], &input[tail..], &ctx);
                            fold(data.len() as u64);
                            for x in data {
                                fold(u64::from(x.to_bits()));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(hash, 0xbf90_611f_a63b_3bad, "all_reduce output bits moved");
    }

    /// The lockstep ALLREDUCE of `inputs` (rank `r`'s payload, all of
    /// one length) on `world` as one bucket: the reduced payload every
    /// rank reads and every rank's sends.
    fn world_all_reduce(
        world: &mut World,
        inputs: &[Vec<f32>],
        wire: Wire<'_>,
        topology: Topology,
    ) -> Result<(Vec<f32>, Vec<TierBytes>), CommError> {
        let mut sum = RankSum::new();
        sum.begin(wire);
        for input in inputs {
            sum.fold(&mut input.clone());
        }
        let mut sent = vec![TierBytes::default(); inputs.len()];
        let n = sum.as_slice().len();
        world.all_reduce(&mut sum, 0..n, wire, topology, &mut sent)?;
        Ok((sum.as_slice().to_vec(), sent))
    }

    /// Rank `r`'s payload whose sums cancel: `−0.0` on every rank, `x`
    /// on even ranks against `−x` on odd ones, a lone `−0.0` beside
    /// `+0.0`, and a hostile value.
    fn cancelling_payload(r: usize, n: usize) -> Vec<f32> {
        let hostile = hostile_payload(r, n);
        (0..n)
            .map(|i| match i % 4 {
                0 => -0.0,
                1 if r.is_multiple_of(2) => 1.5 + i as f32,
                1 => -(1.5 + i as f32),
                2 if r == 0 => -0.0,
                2 => 0.0,
                _ => hostile[i],
            })
            .collect()
    }

    /// `xs` with every NaN replaced by one quiet NaN. IEEE 754 leaves
    /// which payload a sum of two NaNs carries to the implementation,
    /// and the compiler may commute an `f32` add, so only NaN-ness is
    /// the reduction's to keep when many ranks' NaNs and infinities
    /// meet.
    fn canonical_nans(mut xs: Vec<f32>) -> Vec<f32> {
        for x in xs.iter_mut().filter(|x| x.is_nan()) {
            *x = f32::NAN;
        }
        xs
    }

    /// The lockstep ALLREDUCE against the hop-major oracle, bit for bit,
    /// with every rank's sends: G ∈ {1, 2, 3, 8, 192} × f32 and binary16
    /// at two scales and the lossless codec × flat / two-tier on 3-GPU
    /// nodes × n ∈ {0, 1, `REDUCE_BLOCK` ± 1, a non-multiple of G} on
    /// the hostile payloads and on payloads that cancel to ±0 — folded
    /// into one FNV-1a literal. NaNs compare as NaN (`canonical_nans`).
    #[test]
    fn lockstep_reduction_characterisation() {
        use crate::codec::WireCodecId;
        let lossless = WireCodecId::Lossless
            .grad_codec()
            .expect("lossless has a grad codec");
        let b = REDUCE_BLOCK;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for world in [1usize, 2, 3, 8, 192] {
            for wire in [
                Wire::F32,
                Wire::F16 { scale: 64.0 },
                Wire::F16 { scale: 512.0 },
                Wire::Codec(lossless),
            ] {
                for topology in [Topology::Flat, Topology::TwoTier] {
                    for n in [0, 1, b - 1, b + 1, 5 * world + 3] {
                        for payload in [hostile_payload, cancelling_payload] {
                            let inputs: Vec<Vec<f32>> = (0..world).map(|r| payload(r, n)).collect();
                            let mut w = World::new(world, 3, None);
                            let (got, sent) =
                                world_all_reduce(&mut w, &inputs, wire, topology).unwrap();
                            let scale = f16_scale(wire).filter(|_| world > 1);
                            let want = hop_major_oracle(&inputs, scale).swap_remove(0);
                            let ctx = format!("world {world} {topology:?} n {n}");
                            let (got, want) = (canonical_nans(got), canonical_nans(want));
                            assert_same_bits(&got, &want, &ctx);
                            for x in &got {
                                fold(u64::from(x.to_bits()));
                            }
                            for s in &sent {
                                fold(s.intra);
                                fold(s.inter);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            hash, 0xefc2_653a_9808_6f43,
            "lockstep all_reduce bits or bytes moved"
        );
    }

    /// [`RankSum::fold_rows`] against [`RankSum::fold`] of each rank's
    /// built buffer — its rows where it has them, zeros where it lacks
    /// them — at f32 and FP16 (scales 64 and 512), G 1 / 2 / 3 / 8, on
    /// payloads whose sums cancel to ±0 (a −0 partial meeting a lacked
    /// row included) and on one reused sum: the same bits.
    #[test]
    fn fold_rows_matches_folding_the_built_buffer() {
        let (d, rows) = (5, 7);
        // Rank `r` lacks row `i` when `(i + r) % 3 == 0`.
        let has = |r: usize, i: usize| !(i + r).is_multiple_of(3);
        let mut got = RankSum::new();
        for (label, wire) in [
            ("f32", Wire::F32),
            ("f16 64", Wire::F16 { scale: 64.0 }),
            ("f16 512", Wire::F16 { scale: 512.0 }),
        ] {
            for world in [1usize, 2, 3, 8] {
                let payloads: Vec<Vec<f32>> = (0..world)
                    .map(|r| cancelling_payload(r, rows * d))
                    .collect();
                let mut want = RankSum::new();
                want.begin(wire);
                got.begin(wire);
                for (r, payload) in payloads.iter().enumerate() {
                    let mut built: Vec<f32> = (0..rows * d)
                        .map(|j| if has(r, j / d) { payload[j] } else { 0.0 })
                        .collect();
                    want.fold(&mut built);
                    let lent = (0..rows).map(|i| has(r, i).then(|| &payload[i * d..(i + 1) * d]));
                    got.fold_rows(d, lent);
                }
                let ctx = format!("{label} world {world}");
                assert_same_bits(got.as_slice(), want.as_slice(), &ctx);
            }
        }
    }

    /// A torn codec frame on the lockstep ALLREDUCE names the first rank
    /// whose latch is armed, consumes the latches up to and including
    /// it, and leaves every later one armed.
    #[test]
    fn lockstep_reduction_consumes_latches_up_to_the_first_torn() {
        use crate::codec::WireCodecId;
        let lossless = WireCodecId::Lossless
            .grad_codec()
            .expect("lossless has a grad codec");
        let inputs: Vec<Vec<f32>> = (0..6).map(|r| hostile_payload(r, 40)).collect();
        let mut w = World::new(6, 3, None);
        for r in [2, 4] {
            w.corrupt_next_codec_frame(r);
        }
        let err = world_all_reduce(&mut w, &inputs, Wire::Codec(lossless), Topology::Flat)
            .expect_err("a torn frame fails the collective");
        assert_eq!(err.failed_rank(), 2, "{err}");
        assert_eq!(w.torn, [false, false, false, false, true, false]);
        // Fixed-width wires frame nothing: every latch stays armed.
        let mut w = World::new(6, 3, None);
        w.corrupt_next_codec_frame(1);
        world_all_reduce(&mut w, &inputs, Wire::F16 { scale: 64.0 }, Topology::Flat).unwrap();
        assert_eq!(w.torn, [false, true, false, false, false, false]);
    }

    #[test]
    fn flat_ring_tier_split_follows_group_topology() {
        // A flat allreduce on a multi-node group charges each rank's
        // ring bytes to the tier of its r → r+1 link; node-boundary
        // ranks (and the wrap link) are inter.
        let (world, per_node, n) = (8usize, 4usize, 100usize);
        let returned = run_group_topo(world, per_node, |rank| {
            let mut data = vec![1.0f32; n];
            rank.all_reduce(&mut data, 0..n, Wire::F32, Topology::Flat)
                .unwrap()
        });
        let mut expect = TierBytes::default();
        let cost = crate::CostModel::new(crate::HardwareConfig::titan_x_cluster(), 0.4);
        for (r, &sent) in returned.iter().enumerate() {
            assert_eq!(
                sent,
                allreduce_send_bytes(n, world, per_node, Topology::Flat, r, 4),
                "rank {r}"
            );
            let link = ring_send_tier(world, per_node, r);
            assert_eq!(
                sent,
                TierBytes::on(link, ring_allreduce_send_bytes(n, world, r, 4))
            );
            expect += sent;
            // The clock books the ring's time on the tier the collective
            // books its bytes on.
            let price = cost.allreduce(sent, world, per_node, Topology::Flat, r);
            assert_eq!(price.intra.secs() > 0.0, link == Tier::Intra, "rank {r}");
            assert_eq!(price.inter.secs() > 0.0, link == Tier::Inter, "rank {r}");
        }
        // Ranks 3 and 7 cross node boundaries: exactly 2 of 8 ring
        // links are inter.
        assert!(expect.inter > 0 && expect.intra > expect.inter);
    }

    #[test]
    fn gather_and_scalar_tier_split_follows_group_topology() {
        let (world, per_node) = (5usize, 2usize); // nodes {0,1},{2,3},{4}
        let returned = run_group_topo(world, per_node, |rank| {
            rank.all_gather_f32_visit(&[1.0f32; 3], |_, _| Ok(()))
                .unwrap()
        });
        let mut ag = TierBytes::default();
        let mut sc = TierBytes::default();
        for (r, sent) in returned.iter().enumerate() {
            assert_eq!(*sent, peer_exchange_tier_bytes(world, per_node, r, 12));
            ag += *sent;
            sc += peer_exchange_tier_bytes(world, per_node, r, 8);
        }
        // Node {4} is alone: its sends are all inter.
        assert_eq!(returned[4], TierBytes::on(Tier::Inter, 48));
        // Totals stay what the single-tier contract always said.
        assert_eq!(ag.total(), (world * 3 * 4 * (world - 1)) as u64);
        assert_eq!(sc.total(), (world * 8 * (world - 1)) as u64);
    }

    #[test]
    fn pooled_group_bounds_concurrency_and_matches_unpooled() {
        // World 16 over 2 run slots: results bit-match the ungated
        // group and the pool cap is never exceeded.
        let (world, per_node, cap, n) = (16usize, 4usize, 2usize, 41usize);
        let ranks = CommGroup::create_full(world, per_node, cap, None);
        let gate = ranks[0].run_gate().expect("pooled group has a gate");
        let body = |rank: Rank| {
            let mut flat: Vec<f32> = (0..n).map(|i| (i * (rank.rank() + 1)) as f32).collect();
            let mut hier = flat.clone();
            rank.all_reduce(&mut flat, 0..n, Wire::F32, Topology::Flat)
                .unwrap();
            rank.all_reduce(&mut hier, 0..n, Wire::F32, Topology::TwoTier)
                .unwrap();
            assert_eq!(flat, hier);
            flat
        };
        let pooled = crate::pool::run_ranks(ranks, body);
        assert!(
            gate.peak_running() <= cap,
            "pool bound violated: peak {} > cap {cap}",
            gate.peak_running()
        );
        assert_eq!(gate.running(), 0, "all slots returned after the run");
        let unpooled = run_group(world, body);
        assert_eq!(pooled, unpooled);
    }

    #[test]
    fn killing_a_node_leader_poisons_both_tiers_within_watchdog() {
        // Satellite: rank 4 is the leader of node 1 at gpn=4. Its death
        // mid-schedule must fail every survivor on both tiers (members
        // of its own node and leaders of other nodes alike) instead of
        // deadlocking the leader ring.
        let results = within_watchdog("leader kill deadlocked the group", || {
            run_group_topo(16, 4, |rank| -> Result<(), CommError> {
                if rank.rank() == 4 {
                    rank.abort("leader of node 1 killed");
                    return Ok(());
                }
                let mut data = vec![1.0f32; 64];
                loop {
                    // Survivors keep issuing hierarchical collectives
                    // until the poison lands (at most one rendezvous).
                    rank.all_reduce(&mut data, 0..64, Wire::F32, Topology::TwoTier)?;
                }
            })
        });
        for (r, res) in results.iter().enumerate() {
            if r == 4 {
                assert_eq!(*res, Ok(()));
            } else {
                let err = res.clone().unwrap_err();
                assert_eq!(err.failed_rank(), 4, "rank {r} misattributed the kill");
                assert!(err.reason().contains("leader of node 1"));
            }
        }
    }

    /// What one gather shape leaves behind on a rank, by either route:
    /// the three concatenations (f32 as bits).
    type Gathered = (Vec<u32>, Vec<u32>, Vec<u32>);

    /// Rank `r`'s payload length under `shape`: uniform, ragged with an
    /// empty contribution in the middle, or all empty.
    fn shape_len(shape: usize, r: usize) -> usize {
        match shape {
            0 => 5,
            1 => (r * 7 + 3) % 5 * usize::from(r != 1),
            _ => 0,
        }
    }

    #[test]
    fn visiting_gathers_match_into_gathers_bit_for_bit() {
        // The `_into` gathers are extend-visitors, so this differential
        // pins the visitor's contract from the outside: per-sender
        // payloads in rank order, nothing dropped or repeated — on
        // single-node and multi-node groups — and each visiting gather
        // returns its payload to every peer, per tier.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (world, gpn) in [(1, 1), (2, 2), (3, 3), (8, 8), (3, 2), (8, 3)] {
            for shape in 0..3 {
                let idx = |r: usize| -> Vec<u32> {
                    (0..shape_len(shape, r))
                        .map(|i| (r * 100 + i) as u32)
                        .collect()
                };
                let rows = |r: usize| hostile_payload(r, shape_len(shape, r) * 3);
                let into = run_group_topo(world, gpn, |rank| -> Gathered {
                    let r = rank.rank();
                    let u = gather_u32(&rank, &idx(r)).unwrap();
                    let f = gather_f32(&rank, &rows(r)).unwrap();
                    let h = gather_f16(&rank, &rows(r), 512.0).unwrap();
                    (u, bits(&f), bits(&h))
                });
                let visit = run_group_topo(world, gpn, |rank| -> Gathered {
                    let r = rank.rank();
                    let (mut u, mut f, mut h) = (Vec::new(), Vec::new(), Vec::new());
                    let mut senders = Vec::new();
                    let mut staging = Vec::new();
                    let sent = [
                        rank.all_gather_u32_visit(&idx(r), |s, payload| {
                            assert_eq!(payload.len(), shape_len(shape, s));
                            senders.push(s);
                            u.extend_from_slice(payload);
                            Ok(())
                        }),
                        rank.all_gather_f32_visit(&rows(r), |s, payload| {
                            assert_eq!(payload.len(), shape_len(shape, s) * 3);
                            senders.push(s);
                            f.extend_from_slice(payload);
                            Ok(())
                        }),
                        rank.all_gather_f16_visit(&rows(r), 512.0, &mut staging, |s, payload| {
                            assert_eq!(payload.len(), shape_len(shape, s) * 3);
                            senders.push(s);
                            h.extend_from_slice(payload);
                            Ok(())
                        }),
                    ]
                    .map(Result::unwrap);
                    let in_order: Vec<usize> = (0..3).flat_map(|_| 0..world).collect();
                    assert_eq!(senders, in_order, "every sender once, rank order");
                    let len = shape_len(shape, r) as u64;
                    let want = [4 * len, 3 * 4 * len, 3 * 2 * len]
                        .map(|bytes| peer_exchange_tier_bytes(world, gpn, r, bytes));
                    assert_eq!(sent, want, "rank {r}: returned sends");
                    (u, bits(&f), bits(&h))
                });
                assert_eq!(visit, into, "world {world} gpn {gpn} shape {shape}");
            }
        }
    }

    #[test]
    fn visitors_share_a_senders_slot() {
        // Every rank's visitor parks on a plain barrier while inside
        // sender 0's payload: that only completes if all G of them hold
        // the slot at once. An exclusive slot lock deadlocks here, which
        // the watchdog turns into a failure.
        const G: usize = 4;
        let results = within_watchdog("visitors do not share a sender's slot", || {
            let inside = std::sync::Barrier::new(G);
            run_group(G, |rank| {
                rank.all_gather_f32_visit(&[rank.rank() as f32], |sender, _| {
                    if sender == 0 {
                        inside.wait();
                    }
                    Ok(())
                })
            })
        });
        assert!(results.iter().all(Result::is_ok), "{results:?}");
    }

    #[test]
    fn visitor_error_poisons_the_group_with_its_attribution() {
        // One rank's visitor rejects sender 1's payload; its peers,
        // whose visitors accept everything, must not be stranded at the
        // departure rendezvous and must report the same culprit.
        let results = run_group(3, |rank| {
            let r = rank.rank();
            let first = rank.all_gather_f32_visit(&[r as f32], |sender, _| {
                if r == 2 && sender == 1 {
                    return Err(CommError::abort(sender, "payload does not fit"));
                }
                Ok(())
            });
            (first, rank.barrier())
        });
        for (r, (first, after)) in results.iter().enumerate() {
            let err = after.clone().expect_err("group stays poisoned");
            assert_eq!(err.failed_rank(), 1, "rank {r}");
            assert!(err.reason().contains("does not fit"));
            assert_eq!(first.clone().expect_err("poisoned mid-gather"), err);
        }
    }

    #[test]
    fn torn_row_payload_reaches_every_visitor_once() {
        // The wire-corruption latch on a row gather: the armed rank's
        // payload arrives emptied (or, if it was empty, with a stray
        // element) at every rank, exactly once, f32 and f16 alike.
        let lens = run_group(3, |rank| {
            let local = vec![1.0f32; if rank.rank() == 2 { 0 } else { 4 }];
            let mut seen = Vec::new();
            let mut staging = Vec::new();
            for round in 0..4 {
                if round % 2 == 0 && rank.rank() != 0 {
                    rank.corrupt_next_codec_frame();
                }
                let mut lens = Vec::new();
                let visit = |_: usize, rows: &[f32]| {
                    lens.push(rows.len());
                    Ok(())
                };
                if round < 2 {
                    rank.all_gather_f32_visit(&local, visit).unwrap();
                } else {
                    rank.all_gather_f16_visit(&local, 512.0, &mut staging, visit)
                        .unwrap();
                }
                seen.push(lens);
            }
            seen
        });
        let (torn, clean) = (vec![4, 0, 1], vec![4, 4, 0]);
        for seen in &lens {
            assert_eq!(
                *seen,
                [torn.clone(), clean.clone(), torn.clone(), clean.clone()]
            );
        }
    }

    #[test]
    fn tier_helpers_cover_edges() {
        // Single node: every ring link intra, no peer-exchange inter.
        for r in 0..4 {
            assert_eq!(ring_send_tier(4, 4, r), Tier::Intra);
            assert_eq!(ring_send_tier(4, 8, r), Tier::Intra);
        }
        // Two nodes of 2: links 1→2 and 3→0 cross.
        assert_eq!(ring_send_tier(4, 2, 0), Tier::Intra);
        assert_eq!(ring_send_tier(4, 2, 1), Tier::Inter);
        assert_eq!(ring_send_tier(4, 2, 2), Tier::Intra);
        assert_eq!(ring_send_tier(4, 2, 3), Tier::Inter);
        // Singleton world: no peers, no bytes.
        assert_eq!(peer_exchange_tier_bytes(1, 1, 0, 100), TierBytes::default());
        assert_eq!(
            allreduce_send_bytes(64, 1, 1, Topology::TwoTier, 0, 4),
            TierBytes::default()
        );
        // One-node fallback is the flat ring, all intra.
        let tb = allreduce_send_bytes(64, 4, 8, Topology::TwoTier, 1, 4);
        assert_eq!(tb.intra, ring_allreduce_send_bytes(64, 4, 1, 4));
        assert_eq!(tb.inter, 0);
        // Ragged singleton last node: its leader pays no intra bytes
        // beyond nothing (m == 1) but full inter ring bytes.
        let tb = hierarchical_allreduce_send_bytes(64, 5, 2, 4, 4);
        assert_eq!(tb.intra, 0);
        assert_eq!(tb.inter, ring_allreduce_send_bytes(64, 3, 2, 4));
    }

    /// Rank `r`'s skewed indices (hot words repeat within and across
    /// ranks): `tokens` of them, every fifth rank contributing none.
    fn skewed_indices(r: usize, tokens: usize) -> Vec<u32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77 + r as u64);
        let n = if r % 5 == 3 { 0 } else { tokens };
        (0..n)
            .map(|_| (rng.gen::<f64>().powi(3) * 300.0) as u32)
            .collect()
    }

    /// First-occurrence order of `v`, by a set rather than by marks.
    fn first_occurrence(v: &[u32]) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        v.iter().copied().filter(|&w| seen.insert(w)).collect()
    }

    /// Rank `r`'s frames when rank `q` contributes `indices(q)` on nodes
    /// of `gpn`, each *encoded* under `codec` and measured (4 bytes per
    /// index without one).
    fn encoded_frames(
        world: usize,
        gpn: usize,
        r: usize,
        codec: Option<&dyn WireCodec<u32>>,
        indices: &impl Fn(usize) -> Vec<u32>,
    ) -> UniqueFrames {
        let len = |v: Vec<u32>| match codec {
            None => v.len() as u64 * 4,
            Some(c) => {
                let mut frame = Vec::new();
                c.encode(&v, &mut frame);
                frame.len() as u64
            }
        };
        let gather =
            |ranks: std::ops::Range<usize>| -> Vec<u32> { ranks.flat_map(indices).collect() };
        let node = r / gpn * gpn;
        UniqueFrames {
            indices: len(indices(r)),
            local: len(first_occurrence(&indices(r))),
            node: len(first_occurrence(&gather(node..(node + gpn).min(world)))),
            global: len(first_occurrence(&gather(0..world))),
        }
    }

    /// One unique-set gather of [`skewed_indices`] on a `world`-rank
    /// group of `gpn`-GPU nodes: every rank gets the flat path's set in
    /// order, sends exactly [`unique_gather_tier_bytes`] of its frames
    /// encoded under `codec`, and reads the same totals.
    fn check_unique_gather(
        world: usize,
        gpn: usize,
        topology: Topology,
        codec: Option<&dyn WireCodec<u32>>,
    ) {
        let indices = |q: usize| skewed_indices(q, 1 + world % 7 * 3);
        let ctx = format!(
            "world {world} gpn {gpn} {topology:?} {:?}",
            codec.map(|c| c.name())
        );
        let got = run_group_topo(world, gpn, |rank| {
            let mut out = vec![7];
            let g = rank.all_gather_unique(&indices(rank.rank()), codec, topology, &mut out);
            (g.unwrap(), out)
        });
        let all: Vec<u32> = (0..world).flat_map(indices).collect();
        let frames: Vec<UniqueFrames> = (0..world)
            .map(|r| encoded_frames(world, gpn, r, codec, &indices))
            .collect();
        let node_sets = match topology {
            Topology::TwoTier if world > gpn => (0..world)
                .step_by(gpn)
                .map(|q| encoded_frames(world, gpn, q, None, &indices).node / 4)
                .sum(),
            _ => 0,
        };
        let mut inter = 0;
        for (r, (g, out)) in got.iter().enumerate() {
            assert_eq!(*out, first_occurrence(&all), "{ctx} rank {r}: Î");
            let want = UniqueGathered {
                sent: unique_gather_tier_bytes(world, gpn, topology, r, frames[r]),
                frames: frames.iter().map(|f| f.indices).sum(),
                indices: all.len() as u64,
                node_sets,
            };
            assert_eq!(*g, want, "{ctx} rank {r}");
            if node_sets > 0 && r % gpn != 0 {
                assert_eq!(g.sent.inter, 0, "{ctx}: member {r} crossed nodes");
            }
            inter += g.sent.inter;
        }
        if node_sets > 0 {
            assert!(inter > 0, "{ctx}: leaders must cross nodes");
        }
    }

    #[test]
    fn unique_gather_returns_its_analytic_tier_bytes() {
        use crate::codec::WireCodecId;
        let delta = WireCodecId::LosslessIndex.index_codec();
        assert!(delta.is_some(), "lossless-index has an index codec");
        for world in [1usize, 2, 3, 5, 11, 24, 192] {
            for gpn in [1usize, 2, 3, 8] {
                for topology in [Topology::Flat, Topology::TwoTier] {
                    for codec in [None, delta] {
                        check_unique_gather(world, gpn, topology, codec);
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_unique_gather_frame_names_its_member_or_leader_on_every_rank() {
        use crate::codec::WireCodecId;
        let codec = WireCodecId::Lossless.index_codec();
        let (world, gpn) = (24usize, 8usize);
        // Rank 5 is a member of node 0, rank 8 leads node 1.
        for culprit in [5usize, 8] {
            let results = run_group_topo(world, gpn, |rank| {
                if rank.rank() == culprit {
                    rank.corrupt_next_codec_frame();
                }
                let local = skewed_indices(rank.rank(), 12);
                let topology = Topology::TwoTier;
                let first = rank.all_gather_unique(&local, codec, topology, &mut Vec::new());
                (first, rank.barrier())
            });
            for (r, (first, after)) in results.iter().enumerate() {
                let err = first.clone().unwrap_err();
                assert_eq!(err.failed_rank(), culprit, "rank {r}: {err}");
                assert!(err.reason().contains("decode failed"), "rank {r}: {err}");
                assert_eq!(after.as_ref().unwrap_err(), &err, "group stays poisoned");
            }
        }
    }
}
