//! Deterministic scoped fork-join for task-grain parallelism.
//!
//! The unit of work is one *item*: a Gram band, a selection bootstrap,
//! an estimation resample or a block of VAR column paths. [`map`] hands
//! the items of a batch to at most `workers` threads (the calling thread
//! is one of them) on [`std::thread::scope`], so items may borrow from
//! the caller.
//!
//! ## Determinism
//!
//! Workers claim items through a shared counter, so *which* thread runs
//! an item depends on timing — but every item is claimed exactly once,
//! runs to completion on its claimer, and its result lands in the slot
//! of its index. An item's arithmetic therefore never depends on the
//! worker count or on scheduling, and results come back in index order.
//! Reductions across items are the caller's to do, in that order, after
//! the join.
//!
//! `workers <= 1` (or a batch of at most one item) runs inline on the
//! caller with no spawn. A panic in any item stops further claims and is
//! re-raised on the caller with its original payload once every worker
//! has been joined.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on up to `workers` threads and return the
/// results in item order.
pub fn map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let work = || {
        let _guard = StopOnPanic(&stop);
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = cells[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each item is claimed exactly once");
            done.push((i, f(item)));
        }
        done
    };

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers - 1);
        for _ in 1..workers {
            handles.push(s.spawn(work));
        }
        let own = panic::catch_unwind(AssertUnwindSafe(work));
        for part in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
            match part {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Raises the stop flag when its worker unwinds, so the other workers
/// stop claiming items.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in 1..=5 {
            let items: Vec<usize> = (0..37).collect();
            let out = map(workers, items, |i| {
                // Uneven item costs shuffle the completion order.
                std::thread::sleep(std::time::Duration::from_micros(
                    ((i * 7919) % 13) as u64 * 50,
                ));
                i * i
            });
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn more_workers_than_items_and_empty_input() {
        let empty: Vec<u32> = map(8, Vec::new(), |x: u32| x + 1);
        assert!(empty.is_empty());
        assert_eq!(map(16, vec![1, 2, 3], |x| x * 10), vec![10, 20, 30]);
        assert_eq!(map(0, vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn one_worker_runs_inline_without_spawning() {
        let caller = std::thread::current().id();
        let ids = map(1, (0..8).collect(), |_: i32| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // A single item also stays on the caller, whatever the worker count.
        let ids = map(4, vec![0], |_: i32| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        map(3, (0..64).collect(), |i: usize| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn items_may_be_mutable_borrows() {
        let mut data = vec![0u64; 10];
        let slots: Vec<&mut u64> = data.iter_mut().collect();
        map(3, slots.into_iter().enumerate().collect(), |(i, v)| {
            *v = i as u64 + 1
        });
        assert_eq!(data, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn a_worker_panic_propagates_with_its_payload() {
        for workers in [1, 2, 4] {
            let err = panic::catch_unwind(|| {
                map(workers, (0..16).collect(), |i: usize| {
                    if i == 5 {
                        panic!("item five failed");
                    }
                    i
                })
            })
            .expect_err("the panic must reach the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .expect("original payload is preserved");
            assert_eq!(msg, "item five failed", "workers={workers}");
        }
    }
}
