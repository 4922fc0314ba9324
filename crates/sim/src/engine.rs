//! The discrete-event kernel: a time-ordered event queue with deterministic
//! FIFO tie-breaking.

use crate::time::Cycle;

/// A time-ordered event queue.
///
/// Events at the same instant are delivered in insertion order, which makes
/// whole-machine runs deterministic.
///
/// The machine keeps about one pending event per hardware context plus a
/// few wakes, so the queue is a short `Vec` kept sorted latest-first: the
/// earliest event sits at the tail, where [`EventQueue::pop`] takes it. A
/// new event is inserted nearer the head than every pending event at the
/// same instant, so it is delivered after them.
///
/// ```
/// use cchunter_sim::engine::EventQueue;
/// use cchunter_sim::Cycle;
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "b");
/// q.push(Cycle::new(5), "a");
/// q.push(Cycle::new(10), "c");
/// assert_eq!(q.pop(), Some((Cycle::new(5), "a")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "b")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Pending events, sorted by nonincreasing time; among equal times the
    /// most recently pushed comes first.
    events: Vec<(Cycle, T)>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { events: Vec::new() }
    }

    /// Schedules `payload` at `when`, after every pending event at the same
    /// instant.
    pub fn push(&mut self, when: Cycle, payload: T) {
        let at = self.events.partition_point(|&(t, _)| t > when);
        self.events.insert(at, (when, payload));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.events.pop()
    }

    /// The instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.events.last().map(|&(when, _)| when)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(3), 30);
        q.push(Cycle::new(1), 10);
        q.push(Cycle::new(3), 31);
        q.push(Cycle::new(2), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![10, 20, 30, 31]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(7), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_pushes_and_pops_keep_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 'a');
        q.push(Cycle::new(5), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(5), 'a')));
        // A same-instant event pushed after a pop still queues behind 'b'.
        q.push(Cycle::new(5), 'c');
        q.push(Cycle::new(4), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['d', 'b', 'c']);
    }
}
