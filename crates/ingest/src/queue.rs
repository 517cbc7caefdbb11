//! A bounded, blocking MPMC queue.
//!
//! The ingest pipeline's stages are connected by these queues. Capacity
//! is a hard bound: when a queue is full, the producer parks until a
//! consumer makes room, so pressure propagates upstream and nothing is
//! ever shed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// The bounded queue. `T: Send` makes it usable across threads.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Pushes one item, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Hands the item back untouched when the queue is (or, while the
    /// producer waited, became) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        while g.items.len() >= self.capacity && !g.closed {
            g = self.not_full.wait(g).expect("queue lock poisoned");
        }
        if g.closed {
            return Err(item);
        }
        g.items.push_back(item);
        g.high_water = g.high_water.max(g.items.len());
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops the oldest item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(x) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(x);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: producers get their item back, consumers
    /// drain what remains and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been (a backpressure gauge).
    pub fn high_water(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(i), Ok(()));
        }
        assert_eq!(q.high_water(), 4);
        q.close();
        assert_eq!(
            (0..5).map(|_| q.pop()).collect::<Vec<_>>(),
            vec![Some(0), Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn push_after_close_returns_item() {
        let q = BoundedQueue::new(2);
        q.close();
        assert_eq!(q.push(9), Err(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        assert_eq!(q.push(0), Ok(()));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1) == Ok(()));
        // The producer is (or will be) parked on the full queue; popping
        // must release it.
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().expect("producer"));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(consumer.join().expect("consumer"), None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        // Capacity 0 would park every producer forever; the constructor
        // clamps to 1 instead.
        let q = Arc::new(BoundedQueue::new(0));
        assert_eq!(q.push(1), Ok(()));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(producer.join().expect("producer"), Ok(()));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        // N producers race into a tiny queue while one consumer drains
        // it: every pushed item is popped exactly once.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let q = Arc::new(BoundedQueue::new(2));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).expect("queue closed early");
                    }
                })
            })
            .collect();
        let mut seen: Vec<u64> = (0..PRODUCERS * PER_PRODUCER)
            .map(|_| q.pop().expect("open queue"))
            .collect();
        handles
            .into_iter()
            .for_each(|h| h.join().expect("producer"));
        q.close();
        assert_eq!(q.pop(), None);
        seen.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(seen, expected, "an item was lost or duplicated");
    }

    #[test]
    fn close_releases_producers_blocked_on_a_full_queue() {
        // Shutdown-while-blocked: producers parked in a full push
        // must wake on close and get their items handed back, not hang.
        const PRODUCERS: usize = 3;
        let q = Arc::new(BoundedQueue::new(1));
        assert_eq!(q.push(99), Ok(()));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let q = q.clone();
                std::thread::spawn(move || q.push(i))
            })
            .collect();
        // Let the producers reach the condvar wait before closing. Not
        // required for correctness — close must wake them either way.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let mut returned: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("producer").expect_err("closed on shutdown"))
            .collect();
        returned.sort_unstable();
        assert_eq!(returned, (0..PRODUCERS).collect::<Vec<_>>());
        // The pre-close item is still drainable.
        assert_eq!(q.pop(), Some(99));
        assert_eq!(q.pop(), None);
    }
}
