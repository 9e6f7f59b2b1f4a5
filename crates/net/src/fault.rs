//! Seeded fault injection for the discrete-event simulator.
//!
//! A [`FaultPlan`] decides, deterministically from a seed, what happens to
//! every transmission the protocol layer attempts: per-link message drops,
//! duplicates, and delay jitter; timed link partitions; and node
//! crash/restart windows. The plan is *consulted*, never in control — the
//! protocol calls [`FaultPlan::transmit`] (usually through
//! [`Simulator::send_faulty`](crate::Simulator::send_faulty)) for each hop
//! and checks [`FaultPlan::is_up`] on receipt, so any experiment is exactly
//! reproducible from `(topology seed, fault seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sim::SimTime;
use crate::topology::NodeId;

/// Per-link fault probabilities and delay jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability that a transmission is silently dropped.
    pub drop_p: f64,
    /// Probability that a (non-dropped) transmission is duplicated.
    pub dup_p: f64,
    /// Maximum extra delay added to each copy, drawn uniformly from
    /// `0..=jitter_us`.
    pub jitter_us: u64,
}

impl LinkFaults {
    /// A perfectly reliable link.
    pub const NONE: LinkFaults = LinkFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        jitter_us: 0,
    };

    /// A link that only drops, with the given probability.
    pub fn drops(p: f64) -> Self {
        LinkFaults {
            drop_p: p,
            ..Self::NONE
        }
    }

    fn is_none(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.jitter_us == 0
    }
}

/// Probabilities for the disk-fault axis consumed by durable-log code:
/// torn (partial) appends, short replay reads, and fsync failures. All
/// draws come from the owning [`FaultPlan`]'s seeded RNG, so disk chaos
/// is exactly as reproducible as link chaos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaults {
    /// Probability that an append is torn: only a strict prefix of the
    /// record reaches the platter before the simulated crash.
    pub torn_write_p: f64,
    /// Probability that a replay read returns fewer bytes than asked
    /// (the caller must treat the read as failed and retry).
    pub short_read_p: f64,
    /// Probability that an fsync reports failure (data loss risk — the
    /// caller must treat the record as not durable).
    pub fsync_fail_p: f64,
}

impl DiskFaults {
    /// A perfectly reliable disk.
    pub const NONE: DiskFaults = DiskFaults {
        torn_write_p: 0.0,
        short_read_p: 0.0,
        fsync_fail_p: 0.0,
    };

    /// Whether every probability is zero (fast-path check).
    pub fn is_none(&self) -> bool {
        self.torn_write_p <= 0.0 && self.short_read_p <= 0.0 && self.fsync_fail_p <= 0.0
    }
}

/// A half-open simulated-time interval `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive) — for a crash window, the restart time.
    pub until: SimTime,
}

impl Window {
    /// Builds a window; `until ≤ from` yields an empty window.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Counters of what the plan did to the traffic that crossed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transmissions attempted.
    pub attempts: u64,
    /// Copies actually scheduled (≥ attempts − drops, counting duplicates).
    pub copies: u64,
    /// Transmissions dropped by link loss.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Transmissions swallowed by an active partition.
    pub partitioned: u64,
    /// Appends torn mid-record by the disk axis.
    pub torn_writes: u64,
    /// Replay reads returned short by the disk axis.
    pub short_reads: u64,
    /// Fsyncs failed by the disk axis.
    pub fsync_failures: u64,
}

/// The outcome of one transmission attempt: extra delays (on top of the
/// link latency) for each copy that survives. Empty = the message is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Transmit {
    /// Jitter of the primary copy, when it survives.
    pub first: Option<SimTime>,
    /// Jitter of a duplicated second copy, when injected.
    pub dup: Option<SimTime>,
}

impl Transmit {
    /// Number of copies scheduled (0, 1, or 2).
    pub fn copies(&self) -> usize {
        self.first.is_some() as usize + self.dup.is_some() as usize
    }

    /// Iterates over the surviving copies' extra delays.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> {
        self.first.into_iter().chain(self.dup)
    }
}

/// A deterministic, seeded fault model over links and nodes.
///
/// # Example
///
/// ```
/// use psguard_net::{FaultPlan, LinkFaults, NodeId, Window};
///
/// let mut plan = FaultPlan::new(7).with_default_link_faults(LinkFaults::drops(0.5));
/// plan.add_crash(NodeId(3), Window::new(100, 200));
/// assert!(plan.is_up(NodeId(3), 99));
/// assert!(!plan.is_up(NodeId(3), 150));
/// assert!(plan.is_up(NodeId(3), 200)); // restarted
/// let outcomes: usize = (0..1000)
///     .map(|_| plan.transmit(NodeId(0), NodeId(1), 0).copies())
///     .sum();
/// assert!(outcomes > 300 && outcomes < 700); // ≈ half survive
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    partitions: Vec<(u32, u32, Window)>,
    crashes: Vec<(NodeId, Window)>,
    disk: DiskFaults,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultPlan {
    /// A fault-free plan (useful as the zero-overhead baseline).
    pub fn none(seed: u64) -> Self {
        Self::new(seed)
    }

    /// A plan with no faults configured yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::NONE,
            partitions: Vec::new(),
            crashes: Vec::new(),
            disk: DiskFaults::NONE,
            rng: StdRng::seed_from_u64(seed ^ 0xfa_17_5e_ed),
            stats: FaultStats::default(),
        }
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the fault profile applied to every link.
    pub fn with_default_link_faults(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Sets the disk-fault profile consulted by durable-log appenders.
    // DEAD-PUB-OK: fault seam for the log-recovery tests
    pub fn with_disk_faults(mut self, disk: DiskFaults) -> Self {
        self.disk = disk;
        self
    }

    /// Cuts the (undirected) link `a — b` for the given window.
    // DEAD-PUB-OK: fault seam for the chaos partition tests
    pub fn add_partition(&mut self, a: NodeId, b: NodeId, window: Window) {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.partitions.push((lo, hi, window));
    }

    /// Crashes `node` for the given window; it restarts (empty-state) at
    /// `window.until`.
    pub fn add_crash(&mut self, node: NodeId, window: Window) {
        self.crashes.push((node, window));
    }

    /// The configured crash windows (for pre-scheduling restart events).
    pub fn crash_windows(&self) -> &[(NodeId, Window)] {
        &self.crashes
    }

    /// Whether `node` is alive at time `at`.
    pub fn is_up(&self, node: NodeId, at: SimTime) -> bool {
        !self
            .crashes
            .iter()
            .any(|(n, w)| *n == node && w.contains(at))
    }

    /// Whether the undirected link `a — b` is cut by a partition at `at`.
    pub fn link_cut(&self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.partitions
            .iter()
            .any(|&(pa, pb, w)| pa == lo && pb == hi && w.contains(at))
    }

    /// Decides the fate of one `src → dst` transmission attempted at `at`.
    ///
    /// Returns the extra delays (jitter) of each surviving copy; an empty
    /// outcome means the message was dropped or partitioned away. Decisions
    /// are drawn from the plan's seeded RNG, so a deterministic caller
    /// (e.g. the simulator loop) gets a deterministic fault sequence.
    pub fn transmit(&mut self, src: NodeId, dst: NodeId, at: SimTime) -> Transmit {
        self.stats.attempts += 1;
        // Fast path for a plan with nothing configured (the zero-overhead
        // baseline): skip the partition scan.
        if self.partitions.is_empty() && self.default_link.is_none() {
            self.stats.copies += 1;
            return Transmit {
                first: Some(0),
                dup: None,
            };
        }
        if self.link_cut(src, dst, at) {
            self.stats.partitioned += 1;
            return Transmit::default();
        }
        let faults = self.default_link;
        if faults.is_none() {
            self.stats.copies += 1;
            return Transmit {
                first: Some(0),
                dup: None,
            };
        }
        if faults.drop_p > 0.0 && self.rng.gen_bool(faults.drop_p.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            return Transmit::default();
        }
        let jitter = |rng: &mut StdRng| {
            if faults.jitter_us == 0 {
                0
            } else {
                rng.gen_range(0..=faults.jitter_us)
            }
        };
        let first = jitter(&mut self.rng);
        let dup = (faults.dup_p > 0.0 && self.rng.gen_bool(faults.dup_p.clamp(0.0, 1.0)))
            .then(|| jitter(&mut self.rng));
        self.stats.copies += 1 + dup.is_some() as u64;
        if dup.is_some() {
            self.stats.duplicated += 1;
        }
        Transmit {
            first: Some(first),
            dup,
        }
    }

    /// Decides whether an append of `len` bytes is torn. `Some(n)` means
    /// only the first `n` bytes (a strict prefix, possibly zero) reach
    /// the disk before the simulated crash; `None` means the append
    /// completes. Deterministic per plan seed.
    pub fn disk_torn_write(&mut self, len: usize) -> Option<usize> {
        if self.disk.torn_write_p <= 0.0 || len == 0 {
            return None;
        }
        if !self.rng.gen_bool(self.disk.torn_write_p.clamp(0.0, 1.0)) {
            return None;
        }
        self.stats.torn_writes += 1;
        Some(self.rng.gen_range(0..len))
    }

    /// Decides whether the next replay read comes back short (the caller
    /// treats the read as failed and retries later).
    pub fn disk_short_read(&mut self) -> bool {
        if self.disk.short_read_p <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.disk.short_read_p.clamp(0.0, 1.0));
        if hit {
            self.stats.short_reads += 1;
        }
        hit
    }

    /// Decides whether the next fsync reports failure.
    pub fn disk_fsync_fails(&mut self) -> bool {
        if self.disk.fsync_fail_p <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.disk.fsync_fail_p.clamp(0.0, 1.0));
        if hit {
            self.stats.fsync_failures += 1;
        }
        hit
    }

    /// What the plan has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_passes_everything_unchanged() {
        let mut plan = FaultPlan::none(1);
        for _ in 0..100 {
            let t = plan.transmit(NodeId(0), NodeId(1), 5);
            assert_eq!(t.first, Some(0));
            assert_eq!(t.dup, None);
        }
        assert_eq!(plan.stats().dropped, 0);
        assert_eq!(plan.stats().copies, 100);
    }

    #[test]
    fn drops_are_seed_deterministic() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with_default_link_faults(LinkFaults::drops(0.3));
            (0..200)
                .map(|i| plan.transmit(NodeId(0), NodeId(1), i).copies())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn duplicate_probability_injects_second_copies() {
        let mut plan = FaultPlan::new(3).with_default_link_faults(LinkFaults {
            drop_p: 0.0,
            dup_p: 1.0,
            jitter_us: 0,
        });
        let t = plan.transmit(NodeId(0), NodeId(1), 0);
        assert_eq!(t.copies(), 2);
        assert_eq!(plan.stats().duplicated, 1);
    }

    #[test]
    fn jitter_bounded_and_applied() {
        let mut plan = FaultPlan::new(4).with_default_link_faults(LinkFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            jitter_us: 50,
        });
        let mut seen_nonzero = false;
        for _ in 0..100 {
            let t = plan.transmit(NodeId(0), NodeId(1), 0);
            let j = t.first.unwrap();
            assert!(j <= 50);
            seen_nonzero |= j > 0;
        }
        assert!(seen_nonzero, "jitter must actually perturb delays");
    }

    #[test]
    fn partition_cuts_both_directions_within_window() {
        let mut plan = FaultPlan::new(5);
        plan.add_partition(NodeId(1), NodeId(2), Window::new(10, 20));
        assert_eq!(plan.transmit(NodeId(1), NodeId(2), 15).copies(), 0);
        assert_eq!(plan.transmit(NodeId(2), NodeId(1), 15).copies(), 0);
        assert_eq!(plan.transmit(NodeId(1), NodeId(2), 9).copies(), 1);
        assert_eq!(plan.transmit(NodeId(1), NodeId(2), 20).copies(), 1);
        assert_eq!(plan.stats().partitioned, 2);
    }

    #[test]
    fn crash_windows_and_restart() {
        let mut plan = FaultPlan::new(6);
        plan.add_crash(NodeId(4), Window::new(100, 300));
        plan.add_crash(NodeId(4), Window::new(500, 600));
        assert!(plan.is_up(NodeId(4), 0));
        assert!(!plan.is_up(NodeId(4), 100));
        assert!(!plan.is_up(NodeId(4), 299));
        assert!(plan.is_up(NodeId(4), 300));
        assert!(!plan.is_up(NodeId(4), 550));
        assert!(plan.is_up(NodeId(5), 150));
        assert_eq!(plan.crash_windows().len(), 2);
    }

    #[test]
    fn disk_faults_are_seed_deterministic_and_counted() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with_disk_faults(DiskFaults {
                torn_write_p: 0.3,
                short_read_p: 0.3,
                fsync_fail_p: 0.3,
            });
            let mut trace = Vec::new();
            for _ in 0..100 {
                trace.push((
                    plan.disk_torn_write(64),
                    plan.disk_short_read(),
                    plan.disk_fsync_fails(),
                ));
            }
            (trace, plan.stats())
        };
        let (t9, s9) = run(9);
        assert_eq!((t9.clone(), s9), run(9));
        assert_ne!(t9, run(10).0);
        assert!(s9.torn_writes > 0 && s9.short_reads > 0 && s9.fsync_failures > 0);
        assert_eq!(
            s9.torn_writes,
            t9.iter().filter(|t| t.0.is_some()).count() as u64
        );
    }

    #[test]
    fn torn_writes_are_strict_prefixes() {
        let mut plan = FaultPlan::new(11).with_disk_faults(DiskFaults {
            torn_write_p: 1.0,
            short_read_p: 0.0,
            fsync_fail_p: 0.0,
        });
        for len in [1usize, 2, 7, 4096] {
            let torn = plan.disk_torn_write(len).expect("p=1.0 must tear");
            assert!(torn < len, "torn prefix must be strict: {torn} vs {len}");
        }
        assert_eq!(plan.disk_torn_write(0), None, "empty append cannot tear");
    }

    #[test]
    fn no_disk_faults_never_fire() {
        let mut plan = FaultPlan::new(12);
        assert!(plan.disk.is_none());
        for _ in 0..100 {
            assert_eq!(plan.disk_torn_write(128), None);
            assert!(!plan.disk_short_read());
            assert!(!plan.disk_fsync_fails());
        }
        let s = plan.stats();
        assert_eq!((s.torn_writes, s.short_reads, s.fsync_failures), (0, 0, 0));
    }
}
