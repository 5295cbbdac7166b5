//! The pluggable kernel backend: every inner loop of the tensor engine.
//!
//! This module owns all compute kernels — matmul, elementwise maps,
//! reductions, softmax, gather/scatter-rows and the fused forward/backward
//! kernels used by autograd — behind the object-safe [`Backend`] trait.
//! [`Tensor`](crate::Tensor), `Var` and `nn` contain *no* loops of their own;
//! they validate shapes and dispatch here.
//!
//! # Determinism contract
//!
//! Both backends produce **bit-identical** results for every kernel, at any
//! thread count. This is achieved by construction rather than by testing
//! alone (though it is property-tested too):
//!
//! * A kernel parallelises only over **disjoint output regions**, and every
//!   element of the output is computed with a fixed, input-independent flop
//!   order. Which thread computes which region — and in what interleaving —
//!   cannot change a single bit.
//! * Full reductions (`sum`, `sum_sq`, loss totals) use a **fixed-shape
//!   reduction tree**: the input is split into [`REDUCE_CHUNK`]-element
//!   chunks whose partial sums are folded left-to-right. The chunk size is a
//!   compile-time constant, independent of thread count, and the same tree is
//!   evaluated by `Serial` and `Parallel`.
//! * Segmented scatter-add partitions the *output* rows into segments; each
//!   segment scans the full index list in order, so per-row accumulation
//!   order is index order regardless of segmentation.
//! * Every matmul element is one accumulator from `+0.0` over `k` ascending,
//!   a multiply then an add per step (no fused multiply-add, no split sum).
//!   A kernel may choose *which* elements — columns and rows — it computes
//!   together, never how one is summed, so results do not depend on tile
//!   shape either.
//! * A kernel may be compiled for a wider vector unit: a lane-wise multiply
//!   and a lane-wise add are the same IEEE operations at four lanes and at
//!   eight, and nothing contracts the two into a fused multiply-add
//!   (`f32::mul_add`, `-C target-cpu`/`target-feature=+fma` build flags and
//!   fast-math stay out of this crate for that reason). The matmul tile
//!   exists in a baseline and an AVX2 copy of one source, picked per call
//!   from what the CPU reports ([`isa`] says which).
//! * Each elementwise expression is written once (`unary_eval`,
//!   `binary_eval` in [`ops`]). The kernels pick the variant once per call
//!   and run a loop compiled for it, so the arithmetic variants vectorise;
//!   the `libm` ones (`tanh`, `exp`, `ln`, `cos`, `sin`) stay scalar calls,
//!   because any other evaluation of them would move bits.
//!
//! Consequently a checkpoint written under `--threads 8` resumes bit-
//! identically under `--threads 1` and vice versa, and the backend choice is
//! deliberately excluded from the config fingerprint.
//!
//! # Adding a backend
//!
//! Implement [`Backend`]: the whole surface is `run_tasks`, an indexed
//! task-parallel for-loop over disjoint work items. Vector width is not a
//! backend: the loops in [`ops`] are written so the compiler vectorises them,
//! and the one kernel worth a wider unit is compiled twice inside [`ops`]. A
//! GPU backend would instead intercept the typed kernel entry points in
//! [`ops`]; the determinism contract above is the bar any new backend must
//! clear.

pub mod ops;
pub mod pool;

use std::sync::{Arc, OnceLock, RwLock};

pub use ops::{isa, Binary, Unary, REDUCE_CHUNK};
pub use pool::busy_nanos;

/// An execution strategy for kernels: a way of running `n_tasks` independent
/// work items that each write a disjoint region of the output.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (exported by `logcl-serve` metrics).
    fn name(&self) -> &'static str;

    /// Number of compute threads this backend uses (1 for [`Serial`]).
    fn threads(&self) -> usize;

    /// Executes `task(i)` for every `i in 0..n_tasks`, in any order and with
    /// any parallelism. Tasks must be independent and write disjoint data.
    fn run_tasks(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// Reference backend: runs every task on the calling thread, in order.
pub struct Serial;

impl Backend for Serial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn threads(&self) -> usize {
        1
    }

    fn run_tasks(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n_tasks {
            task(i);
        }
    }
}

/// Multi-threaded backend over a persistent std-only worker pool. Bit-
/// identical to [`Serial`] (see the module docs for why).
pub struct Parallel {
    pool: pool::Pool,
}

impl Parallel {
    /// A parallel backend using `threads` compute threads (including the
    /// calling thread, which participates in every kernel).
    pub fn new(threads: usize) -> Parallel {
        Parallel {
            pool: pool::Pool::new(threads.max(2)),
        }
    }
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn run_tasks(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.pool.run(n_tasks, task);
    }
}

// ------------------------------------------------------- global selection

static GLOBAL: OnceLock<RwLock<Arc<dyn Backend>>> = OnceLock::new();

fn make_backend(threads: usize) -> Arc<dyn Backend> {
    if threads <= 1 {
        Arc::new(Serial)
    } else {
        Arc::new(Parallel::new(threads))
    }
}

/// Thread count used when none is configured: the `LOGCL_THREADS`
/// environment variable if set, otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LOGCL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    // logcl-allow(L003): thread-count only sizes the worker pool — backends are bit-identical across counts (PR 3)
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cell() -> &'static RwLock<Arc<dyn Backend>> {
    GLOBAL.get_or_init(|| RwLock::new(make_backend(default_threads())))
}

/// The process-wide backend every `Tensor`/`Var` op routes through.
/// Poison-tolerant: the stored `Arc` is always a fully constructed backend,
/// so a panic elsewhere cannot leave it half-swapped.
pub fn backend() -> Arc<dyn Backend> {
    cell().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Selects the process-wide backend by thread count: `1` selects [`Serial`],
/// `>= 2` a [`Parallel`] pool of that size, `0` re-applies the default
/// (env `LOGCL_THREADS`, else available parallelism). Idempotent when the
/// count is unchanged. Safe to call at any time — in-flight kernels finish
/// on the backend they started with.
pub fn set_threads(threads: usize) {
    let t = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let mut guard = cell().write().unwrap_or_else(|e| e.into_inner());
    if guard.threads() == t {
        return;
    }
    *guard = make_backend(t);
}

/// Thread count of the current process-wide backend.
pub fn current_threads() -> usize {
    backend().threads()
}

/// Name of the current process-wide backend (`"serial"` / `"parallel"`).
pub fn backend_name() -> &'static str {
    backend().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runs_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        Serial.run_tasks(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_runs_all_tasks() {
        let p = Parallel::new(4);
        assert_eq!(p.name(), "parallel");
        assert_eq!(p.threads(), 4);
        let count = AtomicUsize::new(0);
        p.run_tasks(123, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn global_backend_is_switchable() {
        // Only checks the accessors are consistent; other tests run
        // concurrently and may switch the backend too, so take one snapshot.
        let b = backend();
        assert!(b.threads() >= 1);
        assert_eq!(b.name() == "serial", b.threads() == 1);
    }
}
