//! A deterministic discrete-event simulator.
//!
//! The paper ran its prototype on a LAN cluster while *simulating* the
//! wide-area delays produced by GT-ITM. This simulator plays the same
//! role: a virtual clock plus a priority queue of timestamped deliveries.
//! Protocol logic (brokers, publishers, subscribers) runs outside and
//! feeds events back in, so experiments are exactly reproducible from a
//! seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fault::FaultPlan;
use crate::topology::NodeId;

/// Simulated time in microseconds.
pub type SimTime = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    dst: NodeId,
    msg: M,
}

impl<M: Eq> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, seq): seq breaks ties FIFO for determinism.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<M: Eq> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A delivery handed to protocol logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Simulated delivery time (µs).
    pub at: SimTime,
    /// Destination node.
    pub dst: NodeId,
    /// The message.
    pub msg: M,
}

/// The event queue and virtual clock.
///
/// # Example
///
/// ```
/// use psguard_net::{NodeId, Simulator};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_in(5, NodeId(1), "world");
/// sim.schedule_in(1, NodeId(0), "hello");
/// let d1 = sim.next().unwrap();
/// assert_eq!((d1.at, d1.msg), (1, "hello"));
/// let d2 = sim.next().unwrap();
/// assert_eq!((d2.at, d2.msg), (5, "world"));
/// assert!(sim.next().is_none());
/// ```
#[derive(Debug)]
pub struct Simulator<M> {
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
}

impl<M: Eq> Default for Simulator<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Eq> Simulator<M> {
    /// A simulator at time 0 with an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A simulator whose queue is pre-sized for `capacity` scheduled
    /// events, avoiding heap regrowth when the caller knows the load up
    /// front (e.g. an engine pre-scheduling a whole publication run).
    pub fn with_capacity(capacity: usize) -> Self {
        Simulator {
            queue: BinaryHeap::with_capacity(capacity),
            now: 0,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of deliveries popped so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Pending (not yet delivered) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a delivery at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, dst: NodeId, msg: M) {
        let at = at.max(self.now);
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            dst,
            msg,
        }));
    }

    /// Schedules a delivery `delay` µs from now.
    pub fn schedule_in(&mut self, delay: SimTime, dst: NodeId, msg: M) {
        self.schedule_at(self.now + delay, dst, msg);
    }

    /// Pops the next delivery, advancing the clock. Returns `None` when
    /// the queue is empty.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivery<M>> {
        let Reverse(s) = self.queue.pop()?;
        debug_assert!(s.at >= self.now, "time must not move backwards");
        self.now = s.at;
        self.delivered += 1;
        Some(Delivery {
            at: s.at,
            dst: s.dst,
            msg: s.msg,
        })
    }

    /// Sends `msg` from `src` to `dst` through a [`FaultPlan`]: the plan
    /// may drop the message, duplicate it, or add jitter on top of
    /// `base_delay`. Returns the number of copies actually scheduled
    /// (0, 1, or 2). Receiver-side crash windows are *not* checked here —
    /// protocol logic decides what a dead node does with arrivals.
    pub fn send_faulty(
        &mut self,
        plan: &mut FaultPlan,
        src: NodeId,
        dst: NodeId,
        base_delay: SimTime,
        msg: M,
    ) -> usize
    where
        M: Clone,
    {
        let outcome = plan.transmit(src, dst, self.now);
        match (outcome.first, outcome.dup) {
            // Common single-copy path: the message is moved, not cloned.
            (Some(j), None) | (None, Some(j)) => self.schedule_in(base_delay + j, dst, msg),
            (Some(j1), Some(j2)) => {
                self.schedule_in(base_delay + j1, dst, msg.clone());
                self.schedule_in(base_delay + j2, dst, msg);
            }
            (None, None) => {}
        }
        outcome.copies()
    }

    /// Runs `handler` on every delivery until the queue drains or
    /// `max_events` is hit; the handler can schedule more events.
    /// Returns the number of deliveries processed.
    pub fn run<F>(&mut self, max_events: u64, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, Delivery<M>),
    {
        let mut n = 0;
        while n < max_events {
            let Some(d) = self.next() else { break };
            n += 1;
            handler(self, d);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_tiebreak_at_equal_times() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(10, NodeId(0), 1);
        sim.schedule_at(10, NodeId(0), 2);
        sim.schedule_at(10, NodeId(0), 3);
        let order: Vec<u32> = std::iter::from_fn(|| sim.next().map(|d| d.msg)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(100, NodeId(0), 0);
        sim.schedule_at(50, NodeId(0), 1);
        sim.next();
        assert_eq!(sim.now(), 50);
        // Scheduling in the past clamps to now.
        sim.schedule_at(10, NodeId(0), 2);
        let d = sim.next().unwrap();
        assert_eq!(d.at, 50);
        assert_eq!(d.msg, 2);
    }

    #[test]
    fn run_with_feedback() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(0, NodeId(0), 3);
        // Each delivery of k>0 schedules k-1 after 10 µs.
        let n = sim.run(100, |sim, d| {
            if d.msg > 0 {
                sim.schedule_in(10, NodeId(0), d.msg - 1);
            }
        });
        assert_eq!(n, 4); // 3, 2, 1, 0
        assert_eq!(sim.now(), 30);
        assert_eq!(sim.delivered(), 4);
    }

    #[test]
    fn max_events_bounds_run() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(0, NodeId(0), 0);
        // Infinite feedback loop, bounded by max_events.
        let n = sim.run(10, |sim, _| sim.schedule_in(1, NodeId(0), 0));
        assert_eq!(n, 10);
        assert_eq!(sim.pending(), 1);
    }
}
