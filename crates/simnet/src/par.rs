//! # par — deterministic parallel sweep executor
//!
//! The simulation figures average many independent (rate, placement-seed)
//! runs; nothing couples one run to another except the final reduction.
//! This module fans those runs across OS threads with a work-stealing
//! index counter and hands the results back **in index order**, so any
//! reduction that folds the results left-to-right produces bit-identical
//! output regardless of the number of workers or their scheduling.
//!
//! There is no task queue and no channel: workers claim the next job by
//! bumping a shared atomic counter, keep `(index, result)` pairs locally,
//! and the caller scatters them into an index-ordered vector at join
//! time. With `threads == 1` the jobs run inline on the caller's thread
//! (no spawn, no atomics) — this is the reference serial path the
//! determinism tests compare against.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves the worker-thread count: an explicit request (`--threads`)
/// wins, then the `SMP_THREADS` environment variable, then the host's
/// available parallelism. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Some(t) = std::env::var("SMP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        return t.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..n)` across `threads` workers and returns the results in
/// index order. `f` must be independent across indices; results are
/// identical to the serial `(0..n).map(f)` for any thread count.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // join() only errs if a worker panicked; re-raising the panic on
            // the caller is the correct propagation.
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for worker in per_worker {
        for (i, v) in worker {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(v);
        }
    }
    // The atomic counter hands out each index in 0..n exactly once, so
    // every slot is filled.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_in_order() {
        let serial = run_indexed(100, 1, |i| i * 3 + 1);
        let parallel = run_indexed(100, 8, |i| i * 3 + 1);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 22);
    }

    #[test]
    fn each_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let counts: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        let out = run_indexed(257, 5, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn degenerate_sizes() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 9), vec![9]);
        // More threads than jobs clamps to the job count.
        assert_eq!(run_indexed(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
