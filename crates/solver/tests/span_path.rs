//! Spans opened inside `par_map_vec` items nest under the caller's
//! path on every thread. In its own test binary because telemetry
//! collection is process-wide.

use ppdl_solver::parallel::{par_map_vec, set_threads};

#[test]
fn worker_spans_nest_under_the_callers_path() {
    ppdl_obs::set_enabled(true);
    set_threads(2);
    let items: Vec<usize> = (0..6).collect();
    {
        let _outer = ppdl_obs::span("outer");
        let out = par_map_vec(&items, |_, &i| {
            let _inner = ppdl_obs::span("inner");
            i * 2
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }
    set_threads(0);
    ppdl_obs::set_enabled(false);
    let reg = ppdl_obs::global();
    let (count, _) = reg.span_stats("outer/inner").expect("outer/inner");
    assert_eq!(count, items.len() as u64);
    assert!(
        reg.span_stats("inner").is_none(),
        "a worker span became a root"
    );
    assert!(reg.span_stats("outer").is_some());
}
