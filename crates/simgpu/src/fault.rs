//! Fault-injection plans for the simulated fabric.
//!
//! A [`FaultPlan`] describes, per rank, the failures a run must survive
//! *with a typed error rather than a hang*: a rank that dies at a given
//! step, a straggler that sleeps before every collective round, or an
//! asymmetric per-rank memory limit. The plan itself is inert data —
//! the trainer consults it at the top of each step and before device
//! allocations, and converts a triggered fault into [`crate::CommError`]
//! propagation via [`crate::Rank::abort`].
//!
//! Keeping the plan in `simgpu` (not the trainer crate) matches the
//! layering: faults are a property of the simulated hardware/fabric,
//! and any future consumer of the communicator gets the same knobs.

use std::collections::BTreeMap;
use std::time::Duration;

/// Declarative description of injected faults, keyed by rank.
///
/// Construct with [`FaultPlan::none`] and the builder methods:
///
/// ```
/// use simgpu::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::none()
///     .kill_rank(2, 5) // rank 2 dies at the start of step 5
///     .straggle(1, Duration::from_millis(2))
///     .limit_rank_memory(3, 64 * 1024);
/// assert!(plan.should_die(2, 5));
/// assert!(!plan.should_die(2, 4));
/// assert_eq!(plan.mem_limit(3), Some(64 * 1024));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// rank → first step index at which the rank dies (inclusive).
    kills: BTreeMap<usize, usize>,
    /// rank → first step index at which the rank dies *once*: unlike
    /// `kills`, a transient kill is consumed by recovery (the elastic
    /// driver drops it from the follow-up plan and renumbers the rest),
    /// so a resumed run proceeds without the dead rank instead of
    /// re-triggering the same fault forever.
    transient_kills: BTreeMap<usize, usize>,
    /// rank → artificial delay injected at the top of every step.
    stragglers: BTreeMap<usize, Duration>,
    /// rank → device capacity override in bytes.
    mem_limits: BTreeMap<usize, u64>,
    /// rank → step at which the rank goes *silent*: it stops calling
    /// collectives without aborting. Detectable only by a barrier
    /// deadline ([`crate::BarrierDeadline`]) — without one the group
    /// hangs, which is exactly the failure mode the deadline exists for.
    hangs: BTreeMap<usize, usize>,
    /// rank → step at which the rank's next published codec frame is
    /// corrupted in flight (one-shot, identity-keyed like
    /// `transient_kills`: consumed by recovery, renumbered for
    /// survivors).
    wire_corruptions: BTreeMap<usize, usize>,
}

impl FaultPlan {
    /// A plan that injects nothing. Running under `FaultPlan::none()`
    /// is behaviourally identical to not having a plan at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects no fault on any rank.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.transient_kills.is_empty()
            && self.stragglers.is_empty()
            && self.mem_limits.is_empty()
            && self.hangs.is_empty()
            && self.wire_corruptions.is_empty()
    }

    /// Kill `rank` at the start of global step `step` (0-based). The
    /// rank stops participating in collectives from that step onward,
    /// poisoning the group so peers observe the failure.
    pub fn kill_rank(mut self, rank: usize, step: usize) -> Self {
        self.kills.insert(rank, step);
        self
    }

    /// Kill `rank` at the start of global step `step` (0-based), *once*.
    ///
    /// The fault itself is indistinguishable from [`FaultPlan::kill_rank`]
    /// inside one run — the rank aborts and poisons the group. The
    /// difference is elastic-recovery semantics: a transient kill is a
    /// one-shot *event* keyed to this rank's identity. After the elastic
    /// driver shrinks the world to the survivors, the triggered entry is
    /// consumed and the remaining transient kills are renumbered to the
    /// survivors' new ranks (see `FaultPlan::remap_for_survivors`), so
    /// multi-failure schedules can be scripted against the original
    /// world. Permanent faults (`kill_rank`, `straggle`,
    /// `limit_rank_memory`) instead stay keyed to the rank *slot* and
    /// re-apply to whichever rank occupies it after the shrink — a
    /// persistently bad node rather than a one-off crash.
    pub fn kill_rank_transient(mut self, rank: usize, step: usize) -> Self {
        self.transient_kills.insert(rank, step);
        self
    }

    /// Make `rank` sleep for `delay` at the top of every step —
    /// exercises the bounded-time guarantee under skew without killing
    /// anyone.
    pub fn straggle(mut self, rank: usize, delay: Duration) -> Self {
        self.stragglers.insert(rank, delay);
        self
    }

    /// Cap `rank`'s device memory at `bytes`, overriding the uniform
    /// per-GPU budget. Asymmetric limits are the canonical way to force
    /// a *one-sided* OOM, which must surface as an error on every rank.
    pub fn limit_rank_memory(mut self, rank: usize, bytes: u64) -> Self {
        self.mem_limits.insert(rank, bytes);
        self
    }

    /// Make `rank` go *silent* at the start of global step `step`
    /// (0-based): it stops calling collectives but — unlike a kill —
    /// never aborts the group. Peers block at their next barrier until
    /// a configured [`crate::BarrierDeadline`] expires and converts the
    /// hang into [`crate::CommError::Timeout`]. Without a deadline
    /// nothing would ever end the wait, so the trainer's `run` rejects
    /// such a plan up front — `TrainError::InvalidConfig` on every rank,
    /// naming the hung rank and step — instead of deadlocking.
    /// Slot-keyed like `kill_rank` (a persistently hung node).
    pub fn hang_rank(mut self, rank: usize, step: usize) -> Self {
        self.hangs.insert(rank, step);
        self
    }

    /// Corrupt the codec frame `rank` publishes at global step `step`
    /// (0-based), in flight, *once*. The frame damage is guaranteed to
    /// surface as a typed decode error on every receiver, attributed to
    /// the sender — so elastic recovery shrinks around the corrupting
    /// rank exactly like a transient kill. Identity-keyed and consumed
    /// by recovery (see [`FaultPlan::remap_for_survivors`]). On a run
    /// with no codec-framed collective the next *row payload* the rank
    /// publishes into a visiting gather (the baseline exchange) is torn
    /// instead, and that exchange's per-sender length check plays the
    /// decoder's part.
    pub fn corrupt_wire(mut self, rank: usize, step: usize) -> Self {
        self.wire_corruptions.insert(rank, step);
        self
    }

    /// Whether `rank` is scheduled to die at or before `step` (by a
    /// permanent or a transient kill).
    pub fn should_die(&self, rank: usize, step: usize) -> bool {
        self.kills.get(&rank).is_some_and(|&k| step >= k)
            || self.transient_kills.get(&rank).is_some_and(|&k| step >= k)
    }

    /// The step at which a *transient* kill is scheduled for `rank`.
    pub fn transient_kill_at(&self, rank: usize) -> Option<usize> {
        self.transient_kills.get(&rank).copied()
    }

    /// Whether `rank` is scheduled to go silent at or before `step`.
    pub fn should_hang(&self, rank: usize, step: usize) -> bool {
        self.hangs.get(&rank).is_some_and(|&k| step >= k)
    }

    /// The step at which `rank` goes silent, if it is scheduled to.
    pub fn hang_at(&self, rank: usize) -> Option<usize> {
        self.hangs.get(&rank).copied()
    }

    /// The step at which `rank`'s published frame is corrupted, if any.
    pub fn wire_corruption_at(&self, rank: usize) -> Option<usize> {
        self.wire_corruptions.get(&rank).copied()
    }

    /// True when the plan schedules any hang (callers must configure a
    /// barrier deadline; the trainer rejects the plan otherwise).
    pub fn has_hangs(&self) -> bool {
        !self.hangs.is_empty()
    }

    /// True when the plan schedules any in-flight wire corruption
    /// (callers must route gradients through a codec-framed collective
    /// for the fault to have a wire to corrupt).
    pub fn has_wire_corruptions(&self) -> bool {
        !self.wire_corruptions.is_empty()
    }

    /// The highest rank any entry of the plan targets, or `None` for an
    /// empty plan. Callers that know the world size use this to reject
    /// plans that would otherwise silently no-op (a kill/straggle/limit
    /// on `rank >= world` never fires).
    pub fn max_rank_targeted(&self) -> Option<usize> {
        [
            self.kills.keys().next_back(),
            self.transient_kills.keys().next_back(),
            self.stragglers.keys().next_back(),
            self.mem_limits.keys().next_back(),
            self.hangs.keys().next_back(),
            self.wire_corruptions.keys().next_back(),
        ]
        .into_iter()
        .flatten()
        .max()
        .copied()
    }

    /// The follow-up plan after an elastic shrink to `survivors` (old
    /// rank ids, ascending — the new rank of old rank `r` is its index
    /// in the slice).
    ///
    /// * **Transient kills** are events keyed to rank identity: entries
    ///   whose rank died (is not a survivor) are consumed; the rest are
    ///   renumbered to the survivors' new ranks.
    /// * **Permanent faults** (`kill_rank`, `straggle`,
    ///   `limit_rank_memory`) model bad *slots* and are kept under their
    ///   original keys; entries beyond the shrunken world (slots that no
    ///   longer exist) are dropped so the follow-up plan stays valid.
    pub fn remap_for_survivors(&self, survivors: &[usize]) -> FaultPlan {
        debug_assert!(survivors.windows(2).all(|w| w[0] < w[1]), "unsorted");
        let world = survivors.len();
        let slot_keyed = |m: &BTreeMap<usize, usize>| -> BTreeMap<usize, usize> {
            m.range(..world).map(|(&r, &v)| (r, v)).collect()
        };
        FaultPlan {
            kills: slot_keyed(&self.kills),
            transient_kills: self
                .transient_kills
                .iter()
                .filter_map(|(&r, &step)| {
                    survivors.binary_search(&r).ok().map(|new_r| (new_r, step))
                })
                .collect(),
            stragglers: self
                .stragglers
                .range(..world)
                .map(|(&r, &d)| (r, d))
                .collect(),
            mem_limits: self
                .mem_limits
                .range(..world)
                .map(|(&r, &b)| (r, b))
                .collect(),
            hangs: slot_keyed(&self.hangs),
            wire_corruptions: self
                .wire_corruptions
                .iter()
                .filter_map(|(&r, &step)| {
                    survivors.binary_search(&r).ok().map(|new_r| (new_r, step))
                })
                .collect(),
        }
    }

    /// The straggler delay for `rank`, if any.
    pub fn straggler_delay(&self, rank: usize) -> Option<Duration> {
        self.stragglers.get(&rank).copied()
    }

    /// The memory-capacity override for `rank`, if any.
    pub fn mem_limit(&self, rank: usize) -> Option<u64> {
        self.mem_limits.get(&rank).copied()
    }
}

/// One injected storage fault, applied to a single checkpoint write.
///
/// These model the three ways a crash or flaky disk damages an on-disk
/// checkpoint: the write is cut short (torn), a bit rots after the
/// write completes, or the file vanishes entirely. A CRC-framed store
/// must classify all three at recovery time instead of loading garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The write is torn at byte `keep`: only the first `keep` bytes of
    /// the framed file reach the disk (simulating a crash mid-`write`
    /// before the atomic rename — the temp file is truncated, then
    /// renamed anyway so the damage is visible to the recovery scan).
    TornWrite {
        /// Bytes that survive; clamped to the frame length.
        keep: usize,
    },
    /// After a fully successful write, bit `bit` of byte `byte` flips
    /// (byte index wraps modulo the file length, so any value is valid).
    BitFlip {
        /// Byte offset into the framed file (taken modulo its length).
        byte: usize,
        /// Bit index 0..8 within that byte (taken modulo 8).
        bit: u8,
    },
    /// The file is unlinked after the write (checkpoint silently lost).
    Unlink,
}

/// Schedule of [`DiskFault`]s keyed by `(rank, step)`: each entry fires
/// at most once, when that rank persists its checkpoint for that step.
///
/// Held by the disk-backed checkpoint store and consumed at write time;
/// inert for steps/ranks with no entry. Kept in `simgpu::fault` beside
/// [`FaultPlan`] so every fault class a chaos schedule composes lives
/// in one module, even though the wire faults and disk faults are
/// consumed by different layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    faults: BTreeMap<(usize, u64), DiskFault>,
}

impl DiskFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no disk fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule `fault` for the checkpoint `rank` writes at `step`
    /// (later calls for the same `(rank, step)` override).
    pub fn inject(mut self, rank: usize, step: u64, fault: DiskFault) -> Self {
        self.faults.insert((rank, step), fault);
        self
    }

    /// Consume the fault scheduled for `(rank, step)`, if any. One-shot:
    /// a second write of the same checkpoint (e.g. after recovery
    /// replays the step) lands clean.
    pub fn take(&mut self, rank: usize, step: u64) -> Option<DiskFault> {
        self.faults.remove(&(rank, step))
    }

    /// Iterate the scheduled faults (for diagnostics / tests).
    pub fn entries(&self) -> impl Iterator<Item = (usize, u64, DiskFault)> + '_ {
        self.faults.iter().map(|(&(r, s), &f)| (r, s, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for rank in 0..8 {
            assert!(!plan.should_die(rank, 0));
            assert!(!plan.should_die(rank, 1000));
            assert_eq!(plan.straggler_delay(rank), None);
            assert_eq!(plan.mem_limit(rank), None);
        }
    }

    #[test]
    fn kill_triggers_at_and_after_step() {
        let plan = FaultPlan::none().kill_rank(2, 5);
        assert!(!plan.is_empty());
        assert!(!plan.should_die(2, 0));
        assert!(!plan.should_die(2, 4));
        assert!(plan.should_die(2, 5));
        assert!(plan.should_die(2, 99));
        assert!(!plan.should_die(1, 99), "other ranks unaffected");
    }

    #[test]
    fn transient_kill_triggers_like_permanent_within_a_run() {
        let plan = FaultPlan::none().kill_rank_transient(1, 4);
        assert!(!plan.is_empty());
        assert!(!plan.should_die(1, 3));
        assert!(plan.should_die(1, 4));
        assert!(plan.should_die(1, 10));
        assert_eq!(plan.transient_kill_at(1), Some(4));
        assert_eq!(plan.transient_kill_at(0), None);
    }

    #[test]
    fn max_rank_targeted_spans_all_fault_kinds() {
        assert_eq!(FaultPlan::none().max_rank_targeted(), None);
        let plan = FaultPlan::none()
            .kill_rank(1, 0)
            .kill_rank_transient(5, 2)
            .straggle(3, Duration::from_millis(1))
            .limit_rank_memory(2, 64);
        assert_eq!(plan.max_rank_targeted(), Some(5));
    }

    #[test]
    fn remap_consumes_dead_transients_and_renumbers_the_rest() {
        // World 4: transient kills on ranks 2 (dies) and 3 (pending).
        let plan = FaultPlan::none()
            .kill_rank_transient(2, 1)
            .kill_rank_transient(3, 7);
        let next = plan.remap_for_survivors(&[0, 1, 3]);
        // Rank 2's entry is consumed; old rank 3 is new rank 2.
        assert_eq!(next.transient_kill_at(2), Some(7));
        assert!(!next.should_die(0, 100));
        assert!(!next.should_die(1, 100));
        assert_eq!(next.max_rank_targeted(), Some(2));
    }

    #[test]
    fn remap_keeps_slot_keyed_faults_and_drops_vanished_slots() {
        let plan = FaultPlan::none()
            .kill_rank(0, 9)
            .straggle(1, Duration::from_millis(2))
            .limit_rank_memory(3, 1024);
        // Shrink 4 → 2: slots 0 and 1 remain, slot 3 no longer exists.
        let next = plan.remap_for_survivors(&[0, 2]);
        assert!(next.should_die(0, 9), "slot-keyed kill persists");
        assert_eq!(next.straggler_delay(1), Some(Duration::from_millis(2)));
        assert_eq!(next.mem_limit(3), None, "vanished slot dropped");
        assert_eq!(next.max_rank_targeted(), Some(1));
    }

    #[test]
    fn hang_and_wire_corruption_enter_plan_bookkeeping() {
        let plan = FaultPlan::none().hang_rank(3, 6).corrupt_wire(5, 2);
        assert!(!plan.is_empty());
        assert!(plan.has_hangs());
        assert!(plan.has_wire_corruptions());
        assert!(!plan.should_hang(3, 5));
        assert!(plan.should_hang(3, 6));
        assert!(!plan.should_hang(2, 100));
        assert_eq!(plan.wire_corruption_at(5), Some(2));
        assert_eq!(plan.wire_corruption_at(4), None);
        assert_eq!(plan.max_rank_targeted(), Some(5));
    }

    #[test]
    fn remap_treats_hangs_as_slots_and_corruptions_as_identities() {
        // World 4: hang on slot 3, corruptions on ranks 1 (dies) and 2.
        let plan = FaultPlan::none()
            .hang_rank(3, 9)
            .corrupt_wire(1, 3)
            .corrupt_wire(2, 8);
        let next = plan.remap_for_survivors(&[0, 2, 3]);
        // Slot 3 vanished (world is now 3), so the hang is dropped.
        assert!(!next.should_hang(3, 100));
        // Rank 1's corruption is consumed; old rank 2 is new rank 1.
        assert_eq!(next.wire_corruption_at(1), Some(8));
        assert_eq!(next.wire_corruption_at(0), None);
    }

    #[test]
    fn disk_fault_plan_is_one_shot_per_rank_step() {
        let mut plan = DiskFaultPlan::none()
            .inject(0, 4, DiskFault::TornWrite { keep: 10 })
            .inject(1, 4, DiskFault::Unlink)
            .inject(1, 4, DiskFault::BitFlip { byte: 3, bit: 7 });
        assert!(!plan.is_empty());
        assert_eq!(plan.entries().count(), 2, "same (rank, step) overrides");
        assert_eq!(plan.take(0, 4), Some(DiskFault::TornWrite { keep: 10 }));
        assert_eq!(plan.take(0, 4), None, "consumed");
        assert_eq!(plan.take(2, 4), None);
        assert_eq!(
            plan.take(1, 4),
            Some(DiskFault::BitFlip { byte: 3, bit: 7 })
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn builders_compose_per_rank() {
        let plan = FaultPlan::none()
            .kill_rank(0, 1)
            .straggle(1, Duration::from_millis(3))
            .limit_rank_memory(2, 4096)
            .limit_rank_memory(2, 8192); // later call overrides
        assert_eq!(plan.straggler_delay(1), Some(Duration::from_millis(3)));
        assert_eq!(plan.mem_limit(2), Some(8192));
        assert!(plan.should_die(0, 1));
        assert_eq!(plan.mem_limit(0), None);
    }
}
