//! Bounded admission queue: `Mutex<VecDeque>` + `Condvar`, FIFO, with
//! reject-at-capacity admission (load shedding) instead of blocking
//! producers — the queue is the *only* buffer between clients and
//! workers, so its capacity bounds gateway memory no matter how hard
//! callers push.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC FIFO queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

/// Why a push was refused; the item comes back so the caller can
/// resolve it with a typed error (nothing is silently dropped).
pub enum PushError<T> {
    /// Queue at capacity — shed.
    Full(T),
    /// Queue closed for shutdown.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Current depth (advisory: may change before the caller acts on
    /// it; admission decisions re-check under the lock).
    pub fn len(&self) -> usize {
        crate::sync::lock(&self.inner).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: enqueues, or returns the item when the
    /// queue is at capacity ([`PushError::Full`]) or closed
    /// ([`PushError::Closed`]).
    ///
    /// # Errors
    ///
    /// See [`PushError`]; the rejected item is always handed back.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = crate::sync::lock(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means the consumer should exit. Items enqueued
    /// before [`close`](Self::close) are still delivered — shutdown
    /// never strands an admitted request.
    pub fn pop(&self) -> Option<T> {
        let mut inner = crate::sync::lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // Timed wait so a missed notify can never hang a worker;
            // recover from poison like `sync::lock` (a panicking worker
            // must not take the queue down with it).
            let (guard, _) = match self.ready.wait_timeout(inner, Duration::from_millis(50)) {
                Ok(woke) => woke,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner = guard;
        }
    }

    /// Closes the queue: admissions fail from now on, consumers drain
    /// what is left and then see `None`.
    pub fn close(&self) {
        crate::sync::lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).ok(), Some(1));
        assert_eq!(q.try_push(2).ok(), Some(2));
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_terminates() {
        let q = BoundedQueue::new(4);
        q.try_push(7).ok().expect("push");
        q.close();
        assert!(matches!(q.try_push(8), Err(PushError::Closed(8))));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cross_thread_handoff() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..20 {
            // Spin on Full: the consumer drains concurrently.
            let mut item = i;
            loop {
                match q.try_push(item) {
                    Ok(_) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let got = consumer.join().expect("join");
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
