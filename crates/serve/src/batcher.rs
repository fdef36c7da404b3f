//! The dynamic-batching policy: when the executor comes free, it takes the
//! request that woke it plus whatever is already queued, up to
//! `max_batch` items, and never waits for more.
//!
//! A lone request on an idle server runs at once, at batch-1 cost, like a
//! frame entering the accelerator's streaming dataflow. Under load the
//! batches still grow: requests queue while the executor runs, and the
//! next drain hands them to `BatchEngine::run_plan_batch` together (the
//! adaptive batching of Clipper, without a hold-open timer). The policy is
//! generic over the item type so it is testable without a server.

use std::sync::mpsc::Receiver;

/// Collects a batch starting from `first`: drains the queued items without
/// blocking, until `max_batch` items are in hand or the queue is empty.
/// A disconnected channel ends the drain like an empty one; the caller
/// observes the disconnect on its next blocking receive.
pub fn coalesce<T>(rx: &Receiver<T>, first: T, max_batch: usize) -> Vec<T> {
    std::iter::once(first)
        .chain(rx.try_iter())
        .take(max_batch.max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn fills_to_max_batch_without_waiting_when_queue_is_hot() {
        let (tx, rx) = mpsc::channel();
        for i in 1..10 {
            tx.send(i).unwrap();
        }
        let start = Instant::now();
        let batch = coalesce(&rx, 0, 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait");
        // The rest (5 queued + the blocking receive) forms the next batch.
        assert_eq!(coalesce(&rx, rx.recv().unwrap(), 16).len(), 6);
    }

    #[test]
    fn max_batch_one_never_waits() {
        let (_tx, rx) = mpsc::channel::<u32>();
        let start = Instant::now();
        let batch = coalesce(&rx, 7, 1);
        assert_eq!(batch, vec![7]);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn empty_queue_returns_first_without_blocking() {
        // A live sender with nothing queued: the drain must not wait for it.
        let (tx, rx) = mpsc::channel::<u32>();
        let start = Instant::now();
        assert_eq!(coalesce(&rx, 7, 32), vec![7]);
        assert!(start.elapsed() < Duration::from_secs(1));
        // A later arrival is left for the next batch.
        tx.send(8).unwrap();
        assert_eq!(rx.recv().unwrap(), 8);
    }

    #[test]
    fn disconnect_returns_the_partial_batch() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(coalesce(&rx, 0, 8), vec![0, 1]);
    }
}
