//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the exact API subset the workspace uses: [`channel`], the
//! MPMC bounded/unbounded channels the executor's submission queue and
//! the one-shot reply and durability-acknowledgement handles run on. The
//! implementation favours simplicity over the lock-free performance of
//! the real crate: a mutex + condvars, and a `send` that signals
//! `not_empty` whether or not anybody is waiting. That was measured *not*
//! to be negligible where a consumer is woken per message for nothing —
//! on the command-log path it was a fifth of worker time (ISSUE 22), and
//! the group committer now stages commit records in a queue of its own
//! that signals only for cause. The executor queue is the remaining hot
//! user; there a wake-up per request is the work arriving.

/// MPMC channels with the crossbeam-channel surface.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        buf: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending side of a channel. Clonable (multi-producer).
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving side of a channel. Clonable (multi-consumer).
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The channel is disconnected (all receivers dropped); the value is
    /// returned to the caller.
    pub struct SendError<T>(pub T);

    /// The channel is empty and disconnected (all senders dropped).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct RecvError;

    /// Why a timed receive returned without a value.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders dropped and the buffer is drained.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                buf: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// Creates a channel holding at most `cap` in-flight messages; sends
    /// block when full (backpressure).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap.max(1)))
    }

    /// Creates a channel with an unbounded buffer; sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        /// Fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut g = self
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if g.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = g.cap.is_some_and(|c| g.buf.len() >= c);
                if !full {
                    g.buf.push_back(value);
                    drop(g);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                g = self
                    .0
                    .not_full
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or every sender
        /// is dropped and the buffer is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = g.buf.pop_front() {
                    drop(g);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if g.senders == 0 {
                    return Err(RecvError);
                }
                g = self
                    .0
                    .not_empty
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Like [`Receiver::recv`] but gives up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut g = self
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = g.buf.pop_front() {
                    drop(g);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if g.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .0
                    .not_empty
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                g = guard;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut g = self
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.senders -= 1;
            if g.senders == 0 {
                drop(g);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut g = self
                .0
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.receivers -= 1;
            if g.receivers == 0 {
                // Like crossbeam: nobody can receive what is still queued,
                // so drop it now (outside the lock) and not when the last
                // sender goes — a queued reply handle must disconnect.
                let unread = std::mem::take(&mut g.buf);
                drop(g);
                self.0.not_full.notify_all();
                drop(unread);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn unbounded_mpmc_roundtrip() {
        let (tx, rx) = unbounded::<u32>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(got.len(), 400);
    }

    #[test]
    fn bounded_applies_backpressure_and_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(3)) // blocks until a recv
        };
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn dropping_the_last_receiver_drops_what_is_queued() {
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = bounded::<()>(1);
        tx.send(reply_tx).unwrap();
        drop(rx);
        assert!(reply_rx.recv().is_err(), "the queued reply handle must be gone");
        assert!(tx.send(bounded(1).0).is_err());
    }
}
