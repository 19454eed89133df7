//! Offline shim for the subset of `crossbeam` used by this workspace.
//!
//! Only `crossbeam::channel::{unbounded, Sender, Receiver,
//! RecvTimeoutError}` is needed. The queue is `std::sync::mpsc` (std's
//! `Sender` has been `Sync` since 1.72); the [`Receiver`](channel::Receiver)
//! is a newtype over std's that adds the one behaviour of the real crate
//! this workspace's performance depends on — a blocking receive *snoozes*
//! (re-checks the queue across a few `yield_now` rounds) before it parks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel {
    //! MPMC-flavoured channels (here: std MPSC, sufficient for the
    //! one-receiver-per-mailbox topology this workspace uses).

    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, Sender, TryRecvError};

    /// How many times a blocking receive re-checks an empty queue, yielding
    /// the processor between checks, before it parks.
    ///
    /// crossbeam-channel's receiver backs off the same way (its `Backoff`
    /// spins briefly, then yields for four rounds, and the receiver parks
    /// only once the backoff completes); std's parks at once. A park and
    /// its wake-up cost ~10–15 µs of CPU on the 2-vCPU box the benchmark
    /// runs on, and a replica thread that parks between the messages of
    /// one protocol round paid that 6 times per op. With more runnable
    /// threads than cores a yield is not a spin: it runs the thread that is
    /// about to send. Measured on `cycle.threads` (2 clients, 4 replicas;
    /// 5 s runs, 3 seeds, everything else equal): 0 yields 7.9–8.6 k ops/s
    /// at 205–223 µs CPU/op, 2 yields 10.7–11.5 k, **4 yields 11.8–12.5 k
    /// at 144–148**, 8 yields 10.6–13.3 k, 16 yields 12.4–13.4 k at
    /// 144–150; on `cycle.tcp-wal`, where cores do go idle, CPU/op rises
    /// with the count (773–807 µs at 4, 816–826 at 16). Four is the real
    /// crate's yield count and the knee of that curve. The bound keeps an
    /// idle receiver asleep: after these rounds it parks like std's.
    const SNOOZE_YIELDS: u32 = 4;

    /// The receiving half of a channel; see [`unbounded`].
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Takes a waiting message without blocking.
        ///
        /// # Errors
        ///
        /// `Empty` when nothing waits, `Disconnected` when in addition
        /// every sender is gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv()
        }

        /// Blocks for the next message.
        ///
        /// # Errors
        ///
        /// [`RecvError`] once the queue is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            match self.snooze() {
                Some(done) => done.map_err(|_| RecvError),
                None => self.inner.recv(),
            }
        }

        /// Blocks for the next message, up to `timeout`.
        ///
        /// # Errors
        ///
        /// `Timeout` when none arrived in time, `Disconnected` once the
        /// queue is empty and every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            match self.snooze() {
                Some(done) => done.map_err(|_| RecvTimeoutError::Disconnected),
                None => self
                    .inner
                    .recv_timeout(deadline.saturating_duration_since(Instant::now())),
            }
        }

        /// The bounded wait before parking: `Some` as soon as a message (or
        /// the disconnect) shows up, `None` when the queue stayed empty
        /// through every round and the caller should park.
        fn snooze(&self) -> Option<Result<T, mpsc::RecvError>> {
            for _ in 0..SNOOZE_YIELDS {
                match self.inner.try_recv() {
                    Ok(value) => return Some(Ok(value)),
                    Err(TryRecvError::Disconnected) => return Some(Err(mpsc::RecvError)),
                    Err(TryRecvError::Empty) => {
                        #[cfg(test)]
                        tests::YIELDS.with(|y| y.set(y.get() + 1));
                        std::thread::yield_now();
                    }
                }
            }
            // The park checks the queue once more itself.
            None
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, inner) = mpsc::channel();
        (tx, Receiver { inner })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::cell::Cell;
        use std::sync::{Arc, Barrier};

        thread_local! {
            /// Yields the snooze made on this thread.
            pub(super) static YIELDS: Cell<u32> = const { Cell::new(0) };
        }

        fn yields() -> u32 {
            YIELDS.with(Cell::get)
        }

        #[test]
        fn send_recv_and_timeout() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            assert_eq!(rx.recv().unwrap(), 7);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn a_value_already_queued_is_received_without_a_yield() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(2));
            assert_eq!(yields(), 0);
        }

        /// Values sent before the receiver starts, while it snoozes or has
        /// parked (the sender is released by the same barrier the receiver
        /// leaves to start receiving, and keeps sending with pauses long
        /// enough to park it), and after: each once, in order.
        #[test]
        fn values_sent_before_during_and_after_the_snooze_arrive_once_in_order() {
            let (tx, rx) = unbounded();
            let start = Arc::new(Barrier::new(2));
            for v in 0..100u32 {
                tx.send(v).unwrap();
            }
            let sender = {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for v in 100..400u32 {
                        tx.send(v).unwrap();
                        if v % 50 == 0 {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
            };
            start.wait();
            let mut got = Vec::new();
            while let Ok(v) = rx.recv_timeout(Duration::from_secs(5)) {
                got.push(v);
            }
            sender.join().unwrap();
            assert_eq!(got, (0..400).collect::<Vec<_>>());
            assert_eq!(rx.recv(), Err(RecvError), "the sender is gone");
        }

        #[test]
        fn an_empty_channel_times_out_on_time_after_a_bounded_snooze() {
            let (_tx, rx) = unbounded::<u8>();
            let timeout = Duration::from_millis(5);
            let spent = (0..20)
                .map(|_| {
                    let start = Instant::now();
                    assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
                    start.elapsed()
                })
                .min()
                .expect("20 rounds");
            assert!(spent >= timeout, "returned after {spent:?}");
            // The quickest of 20 rounds: what the snooze itself adds, with
            // the scheduler's worst moments left out.
            assert!(
                spent < timeout + Duration::from_millis(1),
                "the snooze and park took {spent:?} for a {timeout:?} timeout"
            );
        }

        /// An idle receiver must sleep, not spin: every blocking call
        /// yields at most `SNOOZE_YIELDS` times and then parks until its
        /// timeout (or the message).
        #[test]
        fn a_blocked_receiver_yields_a_bounded_number_of_times_then_parks() {
            let (tx, rx) = unbounded::<u8>();
            let before = yields();
            let start = Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(50)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(yields() - before, SNOOZE_YIELDS, "one bounded snooze");
            assert!(start.elapsed() >= Duration::from_millis(50), "then a park");

            // `recv` too: the receiver below parks until the send 30 ms on.
            let before = yields();
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                tx.send(9).unwrap();
            });
            assert_eq!(rx.recv(), Ok(9));
            assert!(yields() - before <= SNOOZE_YIELDS);
            sender.join().unwrap();
        }
    }
}
