//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A min-heap of timestamped events with deterministic FIFO tie-breaking.
///
/// The parameter-server engine schedules worker state transitions
/// (compute-done, push-done, pull-done) through this queue; processing
/// events in global timestamp order is what gives SSP/ASP staleness real
/// semantics in a single-threaded, reproducible simulation.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`. Events at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(t(5.0), "late");
        q.push(t(1.0), "early");
        assert_eq!(q.pop(), Some((t(1.0), "early")));
        q.push(t(2.0), "mid");
        assert_eq!(q.pop(), Some((t(2.0), "mid")));
        assert_eq!(q.pop(), Some((t(5.0), "late")));
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
