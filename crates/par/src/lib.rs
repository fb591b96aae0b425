//! # pds2-par — the worker-count shim
//!
//! Every computation in the workspace runs on the calling thread. What is
//! left here is the worker-count setting that the end-to-end benchmark's
//! adapter still reads and prints; nothing in the program consults it.
//! ROADMAP 8(a) deletes these three functions with the crate.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Cached hardware thread count (read once per process).
static HW_CORES: OnceLock<usize> = OnceLock::new();

/// Number of hardware threads the machine reports (cached; ≥ 1).
// Kept for benchmark/src/adapter.rs; ROADMAP 8(a) deletes it.
#[doc(hidden)]
pub fn hardware_cores() -> usize {
    *HW_CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count set by the innermost [`with_threads`], else
/// [`hardware_cores`].
// Kept for benchmark/src/adapter.rs; ROADMAP 8(a) deletes it.
#[doc(hidden)]
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(hardware_cores)
}

/// Runs `f` with the worker count set to `n` on this thread.
///
/// Restores the previous setting afterwards (also on panic).
// Kept for benchmark/src/adapter.rs; ROADMAP 8(a) deletes it.
#[doc(hidden)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_nests_and_restores() {
        assert_eq!(with_threads(3, current_threads), 3);
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            assert_eq!(with_threads(5, current_threads), 5);
            assert_eq!(current_threads(), 2);
        });
    }
}
