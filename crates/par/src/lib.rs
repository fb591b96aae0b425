//! # pds2-par — deterministic fork-join parallelism
//!
//! A small scoped-thread runtime for the PDS² fan-outs (Merkle hashing,
//! evaluation sweeps) built on std threads and `parking_lot`, with one
//! hard guarantee:
//!
//! > **The thread count never changes a result.** A worker count
//! > (`with_threads`) of 1 and one of 64 produce bit-identical outputs.
//!
//! Two mechanisms deliver that guarantee:
//!
//! 1. **Index-ordered results** — [`par_map_indexed`] hands each worker
//!    dynamically-scheduled chunks but reassembles outputs strictly by
//!    input index, so the caller sees exactly the serial ordering; a
//!    caller that folds the results folds them in input order.
//! 2. **Per-task RNG streams** — [`stream_rng`] derives an independent
//!    generator from `(seed, task_index)`, so randomized tasks (e.g.
//!    Shapley permutations) draw the same values no matter which thread
//!    or which order executes them.
//!
//! ## Worker count
//!
//! The worker count is the scoped [`with_threads`] override if one is
//! set (benchmarks and tests use it to compare parallel and serial runs
//! inside one process), else [`hardware_cores`]. A value of `1` executes
//! on the calling thread with zero spawning overhead — exactly the code a
//! serial implementation would have run.
//!
//! ## Serial-fallback cutoff
//!
//! Inputs below [`MIN_PAR_ITEMS`] items run on the calling thread:
//! fork-join setup dwarfs the work for tiny batches. This changes only
//! *where* code runs, never what it computes — the determinism contract
//! (bit-identical at any worker count) already guarantees that.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Scoped per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Cached hardware thread count (read once per process).
static HW_CORES: OnceLock<usize> = OnceLock::new();

/// Inputs smaller than this run on the calling thread regardless of the
/// worker count: fork-join setup costs more than the work it would
/// distribute.
pub const MIN_PAR_ITEMS: usize = 16;

/// Number of hardware threads the machine reports (cached; ≥ 1).
pub fn hardware_cores() -> usize {
    *HW_CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count parallel operations will use right now.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(hardware_cores)
}

/// Runs `f` with the worker count forced to `n` on this thread.
///
/// Restores the previous setting afterwards (also on panic), so tests
/// and benchmarks can compare `with_threads(1, ..)` and
/// `with_threads(8, ..)` inside one process without racing on global
/// state.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Derives the RNG for task `index` of a computation seeded with `seed`.
///
/// Uses two rounds of SplitMix64 finalization over `seed ^ φ·index`, so
/// neighbouring task indices receive statistically independent streams
/// and task 0's stream differs from `StdRng::seed_from_u64(seed)`.
pub fn stream_rng(seed: u64, index: u64) -> StdRng {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Chunk size giving each worker several chunks for load balancing.
fn default_chunk(len: usize, threads: usize) -> usize {
    (len / (threads * 4)).max(1)
}

/// Applies `f(index, &item)` to every item and returns the results in
/// input order.
///
/// Workers pull contiguous chunks from a shared queue (dynamic load
/// balancing), but the output vector is assembled by input index, so the
/// result is identical to the serial `items.iter().enumerate().map(f)`
/// for every thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = current_threads();
    if threads <= 1 || items.len() < MIN_PAR_ITEMS {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = default_chunk(items.len(), threads);
    let n_chunks = items.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    let workers = threads.min(n_chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    return;
                }
                let lo = c * chunk;
                let hi = (lo + chunk).min(items.len());
                let out: Vec<R> = items[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(lo + i, t))
                    .collect();
                done.lock().push((c, out));
            });
        }
    });
    let mut chunks = done.into_inner();
    chunks.sort_unstable_by_key(|(c, _)| *c);
    debug_assert_eq!(chunks.len(), n_chunks);
    let mut result = Vec::with_capacity(items.len());
    for (_, mut part) in chunks {
        result.append(&mut part);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn map_preserves_index_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8] {
            let par = with_threads(threads, || par_map_indexed(&items, |i, v| v * 3 + i as u64));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_small_and_empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(4, || par_map_indexed(&empty, |_, v| *v)).is_empty());
        let one = [7u32];
        assert_eq!(
            with_threads(4, || par_map_indexed(&one, |_, v| v + 1)),
            vec![8]
        );
    }

    #[test]
    fn stream_rngs_are_independent_and_deterministic() {
        let mut a = stream_rng(42, 0);
        let mut a2 = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let xs: Vec<u64> = (0..32).map(|_| a.random()).collect();
        let xs2: Vec<u64> = (0..32).map(|_| a2.random()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.random()).collect();
        assert_eq!(xs, xs2, "same (seed, index) must replay");
        assert_ne!(xs, ys, "different indices must diverge");
        let mut c = stream_rng(43, 0);
        let zs: Vec<u64> = (0..32).map(|_| c.random()).collect();
        assert_ne!(xs, zs, "different seeds must diverge");
    }

    #[test]
    fn with_threads_nests_and_restores() {
        assert_eq!(with_threads(3, current_threads), 3);
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            assert_eq!(with_threads(5, current_threads), 5);
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn tiny_inputs_stay_on_the_calling_thread() {
        let main_id = std::thread::current().id();
        let items: Vec<u32> = (0..MIN_PAR_ITEMS as u32 - 1).collect();
        let ids = with_threads(8, || {
            par_map_indexed(&items, |_, _| std::thread::current().id())
        });
        assert!(
            ids.iter().all(|id| *id == main_id),
            "below the work-size threshold no worker may be spawned"
        );
        // Results are identical either way, threshold or not.
        let serial: Vec<u32> = items.iter().map(|v| v * 2).collect();
        assert_eq!(
            with_threads(8, || par_map_indexed(&items, |_, v| v * 2)),
            serial
        );
    }

    #[test]
    fn map_actually_runs_on_worker_threads() {
        let main_id = std::thread::current().id();
        let items: Vec<u32> = (0..256).collect();
        let ids = with_threads(4, || {
            par_map_indexed(&items, |_, _| std::thread::current().id())
        });
        assert!(
            ids.iter().any(|id| *id != main_id),
            "expected at least one item processed off the main thread"
        );
    }
}
