//! A closable FIFO hand-off queue.
//!
//! Two hand-offs ride on it: the pool's region wake-ups (unbounded, with
//! preallocated room) and the serving front end's request queue (bounded,
//! for backpressure). It is one `Mutex` over the items and a `closed`
//! flag, with two condition variables: `ready` (an item arrived, or the
//! queue closed) and `space` (a bounded queue freed a slot, or closed).
//!
//! Closing is how both users shut down: after [`Queue::close`] every
//! push fails and hands its item back, every parked pusher and popper
//! wakes, and the items queued before the close still drain — a pop
//! returns `None` only once the queue is closed *and* empty.

// Plain `std::sync` only: raw-pointer and atomics tricks live in the
// audited modules (see FB-L4 in crates/analyze).
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why [`Queue::try_push`] refused an item; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// A bounded queue is at capacity.
    Full(T),
    /// The queue is closed.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A multi-producer, multi-consumer FIFO queue that can be closed.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    /// Signalled once per push, and on close.
    ready: Condvar,
    /// Signalled once per pop of a bounded queue, and on close.
    space: Condvar,
    /// `None` = unbounded.
    capacity: Option<usize>,
}

impl<T> Queue<T> {
    /// An unbounded queue with room for `room` items before it grows, so
    /// a push allocates only once more than `room` are queued.
    pub fn with_room(room: usize) -> Self {
        Self::new(None, room)
    }

    /// A queue holding at most `capacity` items (at least 1); `push`
    /// parks and `try_push` reports [`TryPushError::Full`] while it is
    /// full. Nothing is preallocated, so `usize::MAX` is a valid
    /// capacity.
    pub fn bounded(capacity: usize) -> Self {
        Self::new(Some(capacity.max(1)), 0)
    }

    fn new(capacity: Option<usize>, room: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(room),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn full(&self, state: &State<T>) -> bool {
        self.capacity.is_some_and(|cap| state.items.len() >= cap)
    }

    /// Pops the front item and, on a bounded queue, wakes one pusher
    /// parked on the freed slot.
    fn take(&self, state: &mut State<T>) -> Option<T> {
        let item = state.items.pop_front()?;
        if self.capacity.is_some() {
            self.space.notify_one();
        }
        Some(item)
    }

    /// Appends `item` unless the queue is closed or full, then wakes one
    /// parked popper.
    fn append(&self, mut state: MutexGuard<'_, State<T>>, item: T) -> Result<(), TryPushError<T>> {
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if self.full(&state) {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Appends `item`, parking while a bounded queue is full. Fails,
    /// handing the item back, once the queue is closed — also when the
    /// close comes while this push is parked.
    pub fn push(&self, item: T) -> Result<(), T> {
        let state = self
            .space
            .wait_while(self.lock(), |s| !s.closed && self.full(s))
            .unwrap_or_else(PoisonError::into_inner);
        self.append(state, item)
            .map_err(|(TryPushError::Full(item) | TryPushError::Closed(item))| item)
    }

    /// Appends `item` without parking.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        self.append(self.lock(), item)
    }

    /// Pops the front item without parking; `None` when the queue is
    /// empty, closed or not.
    pub fn try_pop(&self) -> Option<T> {
        self.take(&mut self.lock())
    }

    /// Pops the front item, parking while the queue is empty and open.
    /// `None` means closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self
            .ready
            .wait_while(self.lock(), |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        self.take(&mut state)
    }

    /// Like [`Queue::pop`], but gives up at `deadline`. A queued item is
    /// delivered even when the deadline has already passed; `None` means
    /// the deadline passed with the queue empty, or the queue is closed
    /// and drained. A wake-up that finds the queue empty — spurious, or
    /// its item taken by another popper — parks again for the time left.
    pub fn pop_until(&self, deadline: Instant) -> Option<T> {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (mut state, _) = self
            .ready
            .wait_timeout_while(self.lock(), timeout, |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        self.take(&mut state)
    }

    /// Closes the queue: later pushes fail, and every parked pusher and
    /// popper wakes. Items already queued still drain. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Whether [`Queue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn after(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    /// `producers` threads push 1000 items through `queue` to `consumers`
    /// threads, which must receive each item exactly once.
    fn delivers_each_item_once(queue: Queue<usize>, producers: usize, consumers: usize) {
        let (queue, per) = (&queue, 1000 / producers);
        let mut all: Vec<usize> = thread::scope(|s| {
            let poppers: Vec<_> = (0..consumers)
                .map(|_| s.spawn(|| std::iter::from_fn(|| queue.pop()).collect::<Vec<_>>()))
                .collect();
            let pushers: Vec<_> = (0..producers)
                .map(|p| s.spawn(move || (0..per).for_each(|i| queue.push(p * per + i).unwrap())))
                .collect();
            pushers.into_iter().for_each(|h| h.join().unwrap());
            queue.close();
            poppers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..producers * per).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_each_item_delivered_once() {
        delivers_each_item_once(Queue::with_room(0), 1, 4);
    }

    #[test]
    fn bounded_mpmc_backpressure_stress() {
        delivers_each_item_once(Queue::bounded(3), 4, 2);
    }

    #[test]
    fn fifo_order() {
        let queue = Queue::with_room(4);
        (0..6).for_each(|i| queue.push(i).unwrap());
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.try_pop(), Some(1));
        assert_eq!(queue.pop_until(Instant::now()), Some(2));
        assert_eq!(
            std::iter::from_fn(|| queue.try_pop()).collect::<Vec<_>>(),
            [3, 4, 5]
        );
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        for queue in [Queue::with_room(0), Queue::bounded(4)] {
            thread::scope(|s| {
                let popper = s.spawn(|| queue.pop());
                thread::sleep(Duration::from_millis(10));
                queue.push(7u32).unwrap();
                assert_eq!(popper.join().unwrap(), Some(7));
            });
        }
    }

    #[test]
    fn blocked_pop_until_wakes_on_push() {
        for queue in [Queue::with_room(0), Queue::bounded(4)] {
            thread::scope(|s| {
                let timed = s.spawn(|| queue.pop_until(after(5_000)));
                thread::sleep(Duration::from_millis(10));
                queue.push(42u32).unwrap();
                assert_eq!(timed.join().unwrap(), Some(42));
            });
        }
    }

    #[test]
    fn try_push_full_vs_closed() {
        let queue = Queue::bounded(2);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        assert_eq!(queue.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(3).unwrap();
        queue.close();
        assert_eq!(queue.try_push(4), Err(TryPushError::Closed(4)));
        assert_eq!(queue.push(5), Err(5));
        let unbounded = Queue::with_room(1);
        unbounded.close();
        assert_eq!(unbounded.try_push(6), Err(TryPushError::Closed(6)));
    }

    #[test]
    fn push_parks_until_space() {
        let queue = Queue::bounded(1);
        queue.push(1u32).unwrap();
        thread::scope(|s| {
            // Parks until the pop below frees the slot.
            let pusher = s.spawn(|| queue.push(2).map(|()| Instant::now()));
            thread::sleep(Duration::from_millis(30));
            let popped_at = Instant::now();
            assert_eq!(queue.pop(), Some(1));
            assert!(pusher.join().unwrap().unwrap() >= popped_at);
        });
        assert_eq!(queue.pop(), Some(2));
    }

    #[test]
    fn close_wakes_parked_pushers() {
        let full = Queue::bounded(1);
        full.push(1u32).unwrap();
        thread::scope(|s| {
            let pusher = s.spawn(|| full.push(2));
            thread::sleep(Duration::from_millis(20));
            full.close();
            assert_eq!(pusher.join().unwrap(), Err(2), "the item comes back");
        });
        assert!(full.is_closed());
        full.close(); // idempotent
        assert_eq!(full.pop(), Some(1));
    }

    #[test]
    fn close_wakes_parked_poppers() {
        let empty = Queue::<u32>::with_room(0);
        thread::scope(|s| {
            let popper = s.spawn(|| empty.pop());
            let timed = s.spawn(|| empty.pop_until(after(60_000)));
            thread::sleep(Duration::from_millis(20));
            empty.close();
            assert_eq!(popper.join().unwrap(), None);
            assert_eq!(timed.join().unwrap(), None);
        });
        assert!(empty.is_closed());
    }

    #[test]
    fn items_queued_before_close_still_drain() {
        let queue = Queue::bounded(4);
        (5..8u8).for_each(|i| queue.push(i).unwrap());
        queue.close();
        assert_eq!(queue.pop(), Some(5));
        assert_eq!(queue.try_pop(), Some(6));
        assert_eq!(queue.pop_until(after(60_000)), Some(7));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.try_pop(), None);
        assert_eq!(queue.pop_until(after(60_000)), None);
    }

    #[test]
    fn pop_until_times_out_then_delivers() {
        let queue = Queue::<u8>::with_room(0);
        let start = Instant::now();
        assert_eq!(queue.pop_until(start + Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
        queue.push(9).unwrap();
        assert_eq!(queue.pop_until(after(20)), Some(9));
    }

    #[test]
    fn past_deadline_on_an_empty_queue_times_out_at_once() {
        let queue = Queue::<u8>::with_room(0);
        let start = Instant::now();
        assert_eq!(queue.pop_until(start - Duration::from_millis(1)), None);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn past_deadline_still_delivers_a_queued_item() {
        // The serving window relies on this: once `max_delay` has passed,
        // requests already queued still join the window, and only an
        // empty queue times out.
        let queue = Queue::with_room(0);
        queue.push(5u8).unwrap();
        queue.push(6u8).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(queue.pop_until(past), Some(5));
        assert_eq!(queue.pop_until(past), Some(6));
        assert_eq!(queue.pop_until(past), None);
        // After close, an empty queue still reports the end.
        queue.close();
        assert_eq!(queue.pop_until(past), None);
    }

    #[test]
    fn stolen_wakeup_near_the_deadline_times_out_cleanly() {
        // A parked popper is notified, but a sibling takes the item before
        // it reacquires the lock: the loser must time out at its own
        // deadline — never hang, never return a phantom item.
        for _ in 0..20 {
            let queue = Queue::with_room(0);
            let (parked, thief) = thread::scope(|s| {
                let parked = s.spawn(|| queue.pop_until(after(25)));
                let thief = s.spawn(|| queue.pop_until(after(60)));
                thread::sleep(Duration::from_millis(5));
                queue.push(42u8).unwrap();
                (parked.join().unwrap(), thief.join().unwrap())
            });
            match (parked, thief) {
                (Some(42), None) | (None, Some(42)) => {}
                other => panic!("item duplicated or lost: {other:?}"),
            }
        }
    }

    #[test]
    fn spurious_wakeup_with_empty_queue_rechecks_the_deadline() {
        // Push-then-steal cycles give the parked popper wake-ups that find
        // the queue empty; it must still honour its deadline.
        let queue = Queue::with_room(0);
        let deadline = after(40);
        let (result, finished_at, stolen) = thread::scope(|s| {
            let parked = s.spawn(|| (queue.pop_until(deadline), Instant::now()));
            let thief = s.spawn(|| {
                (0..12)
                    .filter(|_| queue.pop_until(after(4)).is_some())
                    .count()
            });
            for i in 0..8usize {
                queue.push(i).unwrap();
                thread::sleep(Duration::from_millis(1));
            }
            let (result, finished_at) = parked.join().unwrap();
            (result, finished_at, thief.join().unwrap())
        });
        assert!(
            result.is_some() || finished_at >= deadline,
            "timed out early"
        );
        let left = std::iter::from_fn(|| queue.try_pop()).count();
        assert_eq!(
            usize::from(result.is_some()) + stolen + left,
            8,
            "no item lost"
        );
    }

    #[test]
    fn try_push_racing_close_is_full_or_closed_never_lost() {
        // `try_submit` racing `shutdown`: every refusal hands the item
        // back, a `Closed` is final, and every accepted item drains.
        for _ in 0..10 {
            let queue = Queue::bounded(2);
            let (sent, got) = thread::scope(|s| {
                let queue = &queue;
                let producers: Vec<_> = (0..3usize)
                    .map(|p| {
                        s.spawn(move || {
                            let mut ok = 0usize;
                            for i in (0..100).map(|i| p * 100 + i) {
                                match queue.try_push(i) {
                                    Ok(()) => ok += 1,
                                    Err(TryPushError::Full(v)) => assert_eq!(v, i),
                                    Err(TryPushError::Closed(v)) => {
                                        assert_eq!(v, i);
                                        assert_eq!(queue.try_push(0), Err(TryPushError::Closed(0)));
                                        break;
                                    }
                                }
                                thread::yield_now();
                            }
                            ok
                        })
                    })
                    .collect();
                let mut got = (0..40)
                    .filter(|_| {
                        thread::yield_now();
                        queue.try_pop().is_some()
                    })
                    .count();
                queue.close();
                got += std::iter::from_fn(|| queue.pop()).count();
                let sent: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
                (sent, got)
            });
            assert_eq!(sent, got, "every accepted item drains");
        }
    }
}
