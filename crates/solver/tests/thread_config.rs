//! Regression test for the `PPDL_THREADS` read-once semantics.
//!
//! The env var is sampled into a `OnceLock` at the first
//! `current_threads()` call (i.e. the first fork). Changing the
//! variable afterwards must be silently ignored, while `set_threads`
//! must keep working — that asymmetry is documented on
//! `current_threads` and is why every CLI routes `--threads` through
//! `set_threads` before any parallel work runs.
//!
//! This lives in its own integration-test binary so the process starts
//! with the cache unset regardless of what other tests do.

use ppdl_solver::parallel::{current_threads, set_threads};

#[test]
fn env_is_cached_on_first_use_and_set_threads_still_wins() {
    // Pin the env value BEFORE the first current_threads() call. The
    // test binary may inherit PPDL_THREADS from CI; overriding here is
    // safe because nothing has sampled it yet (this is the binary's
    // only test, so no other thread races the cache initialisation).
    std::env::set_var("PPDL_THREADS", "2");
    assert_eq!(current_threads(), 2, "env read at first use");

    // Mutating the env after the first use is ignored: the OnceLock
    // sample is final.
    std::env::set_var("PPDL_THREADS", "7");
    assert_eq!(
        current_threads(),
        2,
        "PPDL_THREADS changes after first kernel use must be ignored"
    );

    // The runtime override always wins over the cached env value…
    set_threads(5);
    assert_eq!(current_threads(), 5, "set_threads overrides the cache");

    // …and resetting it restores the *original* sample, not the
    // mutated env var.
    set_threads(0);
    assert_eq!(
        current_threads(),
        2,
        "reset falls back to the first-use sample"
    );
}
