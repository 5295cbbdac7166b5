//! Path-scoped lint configuration.
//!
//! Scoping lives *here*, in one audited table, rather than as inline
//! `logcl-allow` noise: a crate that is exempt from a lint by design (e.g.
//! `bench` stamps `Instant`-derived wall times into its BENCH_*.json
//! reports, and `cli` prints wall-clock progress) is excluded by path
//! prefix, and DESIGN.md documents each exclusion. Inline allows are
//! reserved for *individual* justified sites inside an in-scope file.
//!
//! Rules:
//! * Paths are workspace-relative with `/` separators.
//! * A file is in scope for a lint when it matches an `include` prefix and
//!   no `exclude` prefix. The longest matching rule wins by construction
//!   (excludes are checked after includes, so an exclude always carves a
//!   hole out of a broader include).
//! * Files under `tests/`, `benches/`, `examples/`, or `fixtures/`
//!   directories are never linted (test/fixture code is exempt globally),
//!   and `#[cfg(test)] mod` bodies inside library files are exempt via
//!   token spans.

/// Path scope of one lint (or one rule group inside a lint).
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Prefixes a file must match to be linted.
    pub include: &'static [&'static str],
    /// Prefixes carved out of the includes.
    pub exclude: &'static [&'static str],
}

impl Scope {
    /// Whether `path` (workspace-relative, `/`-separated) is in scope.
    pub fn contains(&self, path: &str) -> bool {
        self.include.iter().any(|p| path.starts_with(p))
            && !self.exclude.iter().any(|p| path.starts_with(p))
    }
}

/// Directory names whose contents are never linted, anywhere.
pub const GLOBAL_EXEMPT_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// True when `path` contains a globally exempt directory component.
pub fn globally_exempt(path: &str) -> bool {
    path.split('/').any(|seg| GLOBAL_EXEMPT_DIRS.contains(&seg))
}

/// L001 kernel-boundary: raw f32/f64 buffer compute may exist only inside
/// `crates/tensor/src/kernels/`.
pub const L001_SCOPE: Scope = Scope {
    include: &["crates/", "src/"],
    exclude: &["crates/tensor/src/kernels/", "crates/analyze/"],
};

/// L002 panic-freedom: no unwrap/expect/panic-family macros in non-test
/// library code of the fail-closed crates (PR 2's contract).
pub const L002_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/",
        "crates/gnn/src/",
        "crates/core/src/",
        "crates/tkg/src/",
        "crates/serve/src/",
        "crates/cluster/src/",
        "crates/analyze/src/",
    ],
    exclude: &[],
};

/// L003 (collections rule): hash-ordered containers are banned in compute,
/// model, and serving paths — ordered collections or sorted drains only.
/// `bench` and `cli` are excluded by design: they are presentation-layer
/// code whose outputs are either explicitly sorted or human-facing logs.
pub const L003_COLLECTIONS_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/",
        "crates/gnn/src/",
        "crates/core/src/",
        "crates/tkg/src/",
        "crates/baselines/src/",
        "crates/serve/src/",
        "crates/cluster/src/",
        "crates/loadgen/src/",
    ],
    exclude: &[],
};

/// L003 (time-source rule): wall-clock reads are banned in compute/model
/// paths. `serve` is additionally excluded here (but *not* from the
/// collections rule): request timing, request deadlines, and latency
/// metrics are wall-clock by nature and never feed model math. `bench`
/// and `cli` are excluded for the same reason as above — `bench` exists
/// to stamp `Instant`-derived wall times into BENCH_*.json.
///
/// `loadgen` IS in scope with one narrow carve-out: its schedule, histogram
/// and report modules must stay deterministic (the seeded-schedule guarantee
/// depends on it), so only `timing.rs` — the harness's single clock
/// module — may read the wall clock.
pub const L003_TIME_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/",
        "crates/gnn/src/",
        "crates/core/src/",
        "crates/tkg/src/",
        "crates/baselines/src/",
        "crates/loadgen/src/",
    ],
    exclude: &["crates/loadgen/src/timing.rs"],
};

/// L004 fsync-discipline: any file that both creates files and renames
/// them (the atomic-replace pattern) must fsync before the rename.
pub const L004_SCOPE: Scope = Scope {
    include: &["crates/", "src/"],
    exclude: &["crates/analyze/"],
};

/// L005 lock hygiene: guards must not span a blocking wait on another
/// primitive. Scoped to the serving stack (worker and router alike), which
/// holds locks around channels and condvars, and to the kernels, which
/// hold none and must keep it that way.
pub const L005_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/kernels/",
        "crates/serve/src/",
        "crates/cluster/src/",
    ],
    exclude: &[],
};

/// L006 error-context: crate-boundary `Result`s must carry typed errors —
/// no `Box<dyn Error>` and no `Result<_, String>` in public signatures.
pub const L006_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/",
        "crates/gnn/src/",
        "crates/core/src/",
        "crates/tkg/src/",
        "crates/serve/src/",
        "crates/cluster/src/",
        "crates/analyze/src/",
    ],
    exclude: &[],
};

/// L007 head-indexing: `expr[0]` on possibly-empty request/batch data in
/// the serving stack must be `.first()`/`.get(0)` instead. Scoped to
/// `serve` where the data is attacker-controlled; numeric crates index
/// shape vectors under validated invariants.
pub const L007_SCOPE: Scope = Scope {
    include: &["crates/serve/src/"],
    exclude: &[],
};

/// L008 fault-isolation: references to the deterministic fault-injection
/// machinery (`fault::…` hooks, `FaultPlan`/`FaultPoint`) must sit inside a
/// `#[cfg(feature = …)]` gate, so default release builds contain no fault
/// hooks at all. Each crate's `fault.rs` is its gated module and excluded.
pub const L008_SCOPE: Scope = Scope {
    include: &["crates/serve/src/", "crates/cluster/src/"],
    exclude: &["crates/serve/src/fault.rs", "crates/cluster/src/fault.rs"],
};

/// L009 lock-order: the cross-file lock-acquisition graph must stay
/// acyclic. Same scope as L005 — the serving stack (worker and router) is
/// the only place that holds named guards.
pub const L009_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/kernels/",
        "crates/serve/src/",
        "crates/cluster/src/",
    ],
    exclude: &[],
};

/// L010 blocking-under-lock: fsync/sleep/socket writes (and, through
/// calls, channel reads and condvar waits) must not be reachable while a
/// guard is live. Same scope as L009: the lock-holding subsystems.
pub const L010_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/kernels/",
        "crates/serve/src/",
        "crates/cluster/src/",
    ],
    exclude: &[],
};

/// L011 atomic-ordering: `Ordering::Relaxed` is reserved for the telemetry
/// plane. `metrics.rs` IS the telemetry plane — every atomic in it is a
/// monotonic counter family whose staleness is harmless — so it is excluded
/// wholesale; elsewhere, counter bumps mentioning `metrics` are exempted
/// structurally and anything else needs Acquire/Release or a written
/// `logcl-allow(L011)` justification.
pub const L011_SCOPE: Scope = Scope {
    include: &[
        "crates/tensor/src/kernels/",
        "crates/serve/src/",
        "crates/cluster/src/",
    ],
    exclude: &[
        "crates/serve/src/metrics.rs",
        "crates/cluster/src/metrics.rs",
    ],
};

/// L012 wire-boundary: the product has one HTTP/1.1 codec and one client,
/// `crates/serve/src/http.rs`, and one server-side connection loop,
/// `crates/serve/src/listener.rs`. Two rules, each with its own hole (see
/// below); this is their union. Scoped like L001 — everything — minus
/// `crates/benchmark/`, whose load driver is deliberately independent of the
/// code it measures (and frozen: BENCHMARK.json lists its path).
pub const L012_SCOPE: Scope = Scope {
    include: &["crates/", "src/"],
    exclude: &["crates/benchmark/", "crates/analyze/"],
};

/// L012 (outbound rule): no non-test code outside `http.rs` may spell the
/// protocol version in a literal or open an outbound `TcpStream`. The
/// listener module is *not* a hole here: it wakes its own `accept` through
/// `http::Client` like everybody else.
pub const L012_OUTBOUND_SCOPE: Scope = Scope {
    include: L012_SCOPE.include,
    exclude: &[
        "crates/serve/src/http.rs",
        "crates/benchmark/",
        "crates/analyze/",
    ],
};

/// L012 (inbound rule): no non-test code outside `listener.rs` may bind a
/// `TcpListener` — a second bind is a second accept loop, with its own
/// keep-alive lifecycle, cap and drain.
pub const L012_INBOUND_SCOPE: Scope = Scope {
    include: L012_SCOPE.include,
    exclude: &[
        "crates/serve/src/listener.rs",
        "crates/benchmark/",
        "crates/analyze/",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_prefix_logic() {
        assert!(L001_SCOPE.contains("crates/gnn/src/rgcn.rs"));
        assert!(!L001_SCOPE.contains("crates/tensor/src/kernels/ops.rs"));
        assert!(L003_COLLECTIONS_SCOPE.contains("crates/serve/src/server.rs"));
        assert!(!L003_TIME_SCOPE.contains("crates/serve/src/server.rs"));
        assert!(!L003_TIME_SCOPE.contains("crates/bench/src/common.rs"));
        // Loadgen: deterministic modules are time-checked, the clock module
        // is the single carve-out — and the carve-out must not leak to
        // siblings, to other crates' files of the same name, or to the
        // collections rule.
        assert!(L003_TIME_SCOPE.contains("crates/loadgen/src/schedule.rs"));
        assert!(L003_TIME_SCOPE.contains("crates/loadgen/src/runner.rs"));
        assert!(!L003_TIME_SCOPE.contains("crates/loadgen/src/timing.rs"));
        assert!(L003_COLLECTIONS_SCOPE.contains("crates/loadgen/src/timing.rs"));
        assert!(L003_COLLECTIONS_SCOPE.contains("crates/loadgen/src/hist.rs"));
        assert!(L003_TIME_SCOPE.contains("crates/loadgen/src/timing_helpers.rs"));
        assert!(L008_SCOPE.contains("crates/serve/src/batcher.rs"));
        assert!(!L008_SCOPE.contains("crates/serve/src/fault.rs"));
        // Router crate: linted like serve, except its gated fault module and
        // its telemetry plane — and it keeps wall-clock freedom (timeouts,
        // backoff and probes are wall-clock by nature, like serve's timing).
        assert!(L002_SCOPE.contains("crates/cluster/src/router.rs"));
        assert!(L005_SCOPE.contains("crates/cluster/src/router.rs"));
        assert!(L008_SCOPE.contains("crates/cluster/src/router.rs"));
        assert!(!L008_SCOPE.contains("crates/cluster/src/fault.rs"));
        assert!(L009_SCOPE.contains("crates/cluster/src/health.rs"));
        assert!(L010_SCOPE.contains("crates/cluster/src/client.rs"));
        assert!(L011_SCOPE.contains("crates/cluster/src/health.rs"));
        assert!(!L011_SCOPE.contains("crates/cluster/src/metrics.rs"));
        assert!(!L003_TIME_SCOPE.contains("crates/cluster/src/router.rs"));
        assert!(L003_COLLECTIONS_SCOPE.contains("crates/cluster/src/merge.rs"));
        assert!(L009_SCOPE.contains("crates/serve/src/wal.rs"));
        assert!(L009_SCOPE.contains("crates/tensor/src/kernels/ops.rs"));
        assert!(!L010_SCOPE.contains("crates/tensor/src/parallel_glue.rs"));
        assert!(L011_SCOPE.contains("crates/serve/src/shed.rs"));
        assert!(!L011_SCOPE.contains("crates/serve/src/metrics.rs"));
        // The wire boundary: http.rs is the one hole in L012's outbound
        // rule, and being the boundary buys it nothing else — its new client
        // half answers to the panic-freedom and typed-error lints like the
        // rest of serve.
        assert!(!L012_OUTBOUND_SCOPE.contains("crates/serve/src/http.rs"));
        assert!(L012_OUTBOUND_SCOPE.contains("crates/serve/src/server.rs"));
        assert!(L012_OUTBOUND_SCOPE.contains("crates/cluster/src/client.rs"));
        assert!(L012_OUTBOUND_SCOPE.contains("crates/loadgen/src/runner.rs"));
        assert!(L012_OUTBOUND_SCOPE.contains("crates/cli/src/commands.rs"));
        // listener.rs is the one hole in the inbound rule, and only there:
        // each boundary file answers to the other's rule.
        assert!(!L012_INBOUND_SCOPE.contains("crates/serve/src/listener.rs"));
        assert!(L012_OUTBOUND_SCOPE.contains("crates/serve/src/listener.rs"));
        assert!(L012_INBOUND_SCOPE.contains("crates/serve/src/http.rs"));
        assert!(L012_INBOUND_SCOPE.contains("crates/cluster/src/router.rs"));
        for scope in [L012_SCOPE, L012_OUTBOUND_SCOPE, L012_INBOUND_SCOPE] {
            assert!(!scope.contains("crates/benchmark/src/load.rs"));
        }
        assert!(L002_SCOPE.contains("crates/serve/src/http.rs"));
        assert!(L006_SCOPE.contains("crates/serve/src/http.rs"));
    }

    #[test]
    fn global_exemptions() {
        assert!(globally_exempt("crates/tensor/tests/proptest_kernels.rs"));
        assert!(globally_exempt("examples/quickstart.rs"));
        assert!(globally_exempt("crates/analyze/fixtures/l001.rs"));
        assert!(!globally_exempt("crates/tensor/src/tensor.rs"));
    }
}
