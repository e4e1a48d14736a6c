//! A bounded multi-producer multi-consumer queue on `Mutex` + `Condvar`.
//!
//! A std-only discipline: all state under one mutex, two condvars for
//! the two directions of blocking, and a `closed` flag that lets consumers
//! *drain* remaining items before observing end-of-stream — the property
//! the engine's clean shutdown relies on.
//!
//! # Close/drain ordering guarantee
//!
//! Every push and the close decision happen under the one queue mutex, so
//! acceptance is linearized against [`close`](Bounded::close):
//!
//! 1. **No item is accepted after close.** A [`push`](Bounded::push) /
//!    [`try_push`](Bounded::try_push) that returns `Ok` took the mutex
//!    *before* `close` did; any push that observes `closed == true` —
//!    including one that was already blocked waiting for room — returns
//!    the item to the caller instead of enqueueing it. There is no window
//!    in which a push succeeds but the item is dropped.
//! 2. **Every accepted item is delivered.** `close` never discards:
//!    [`pop`](Bounded::pop) keeps returning queued items after close and
//!    only reports end-of-stream (`None`) once the backlog is empty. With
//!    consumers that keep popping until `None`, accepted = delivered,
//!    which is exactly the "every accepted job is answered" half of the
//!    service's shutdown contract (the other half — answering items the
//!    push *returned* — is the caller's).
//!
//! The `close_ordering_*` tests below pin both properties under
//! concurrency; the chaos suite re-checks them end-to-end through the
//! server.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a [`Bounded::try_push`] did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity (admission control should shed).
    Full,
    /// The queue was closed (the service is shutting down).
    Closed,
}

/// A bounded MPMC queue. `push` blocks while full, `pop` blocks while
/// empty; [`close`](Bounded::close) wakes everyone, after which `push`
/// fails and `pop` drains what is left before returning `None`.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("queue lock");
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// The admission-control entry point: a full queue is a shed decision
    /// for the caller, never a stall on the submitting (event-loop)
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns the item back with [`PushError::Full`] when the queue is at
    /// capacity and [`PushError::Closed`] once the queue is closed.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// empty (`None`). Items enqueued before `close` are all delivered.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: pending and future `push`es fail, `pop` drains
    /// the backlog and then reports end-of-stream.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Number of items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_blocks_producers_until_consumed() {
        let q = Arc::new(Bounded::new(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..100 {
                    q.push(i).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(q.pop().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_push_distinguishes_full_from_closed() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        q.close();
        assert_eq!(q.try_push(5), Err((5, PushError::Closed)));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    /// Pins guarantee (1): a push that was *blocked* at close time fails
    /// rather than sneaking its item in afterwards.
    #[test]
    fn close_ordering_blocked_push_fails_and_backlog_survives() {
        let q = Arc::new(Bounded::new(1));
        q.push(0).unwrap();
        let blocked: Vec<_> = (1..=3)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(i))
            })
            .collect();
        // Give the pushers time to park on the not_full condvar.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        for h in blocked {
            assert!(
                h.join().unwrap().is_err(),
                "blocked push accepted after close"
            );
        }
        assert_eq!(q.pop(), Some(0), "close dropped an accepted item");
        assert_eq!(q.pop(), None);
    }

    /// Pins both halves of the ordering guarantee under concurrency:
    /// with pushers racing a close, exactly the items whose push returned
    /// `Ok` come out of the queue — no loss, no post-close acceptance.
    #[test]
    fn close_ordering_accepted_equals_drained_under_race() {
        for round in 0..20 {
            let q = Arc::new(Bounded::new(4));
            let pushers: Vec<_> = (0..4u64)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut accepted = Vec::new();
                        for i in 0..100u64 {
                            let v = p * 1000 + i;
                            let ok = if i % 2 == 0 {
                                q.push(v).is_ok()
                            } else {
                                q.try_push(v).is_ok()
                            };
                            if ok {
                                accepted.push(v);
                            }
                        }
                        accepted
                    })
                })
                .collect();
            let drainer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            };
            // Close at a pseudo-random point in the race.
            std::thread::sleep(std::time::Duration::from_micros(37 * (round + 1)));
            q.close();
            let mut accepted: Vec<u64> = pushers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            let mut drained = drainer.join().unwrap();
            accepted.sort_unstable();
            drained.sort_unstable();
            assert_eq!(
                accepted, drained,
                "round {round}: accepted set != drained set across close"
            );
        }
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        let q = Arc::new(Bounded::new(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        q.push(p * 50 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
