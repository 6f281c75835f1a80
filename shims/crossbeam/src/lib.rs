//! Offline shim for `crossbeam`: an unbounded MPMC channel with the
//! `crossbeam-channel` surface this workspace uses (`unbounded`, `send`
//! failing once all receivers are gone, `try_iter`, disconnect probing).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// The queue's length, written under its lock: an empty channel is
        /// probed without taking the lock.
        len: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver has been
    /// dropped; carries the rejected message like crossbeam's `SendError`.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

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

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.is_disconnected() {
                return Err(SendError(msg));
            }
            let mut q = self.shared.queue.lock().expect("channel poisoned");
            q.push_back(msg);
            self.shared.len.store(q.len(), Ordering::SeqCst);
            Ok(())
        }

        /// True once every receiver has been dropped: sends would fail.
        pub fn is_disconnected(&self) -> bool {
            self.shared.receivers.load(Ordering::SeqCst) == 0
        }

        /// Number of messages waiting in the channel.
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::SeqCst)
        }

        /// True if no messages are waiting.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.senders.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Pops the next waiting message, if any. An empty channel is
        /// answered from the message count, without the lock; it is
        /// disconnected only when no sender is left and the count, read
        /// again after the senders, is still 0 (a last send may land
        /// between the two reads).
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &*self.shared;
            if shared.len.load(Ordering::SeqCst) == 0 {
                if shared.senders.load(Ordering::SeqCst) != 0 {
                    return Err(TryRecvError::Empty);
                }
                if shared.len.load(Ordering::SeqCst) == 0 {
                    return Err(TryRecvError::Disconnected);
                }
            }
            let mut q = shared.queue.lock().expect("channel poisoned");
            match q.pop_front() {
                Some(v) => {
                    shared.len.store(q.len(), Ordering::SeqCst);
                    Ok(v)
                }
                // Another receiver took it.
                None if shared.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Iterator draining currently queued messages without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// Number of messages waiting in the channel.
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::SeqCst)
        }

        /// True if no messages are waiting.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_and_try_iter() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded();
            assert!(!tx.is_disconnected());
            drop(rx);
            assert!(tx.is_disconnected());
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn recv_reports_disconnect_after_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn an_empty_probe_sees_a_send_made_before_it() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            std::thread::spawn(move || tx.send(7).unwrap()).join().unwrap();
            assert_eq!(rx.len(), 1);
            assert_eq!(rx.try_recv(), Ok(7));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn a_disconnected_channel_yields_its_queued_message_first() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert!(rx.is_empty());
        }
    }
}
