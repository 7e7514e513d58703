//! `load_app`, the trace loader of the hand-rolled benches: a given app
//! and budget always yield the same trace, drawn from the app's own
//! program.

use ripple_bench::load_app;
use ripple_workloads::App;

#[test]
fn load_app_is_deterministic_and_in_program() {
    let a = load_app(App::Cassandra, 20_000);
    let b = load_app(App::Cassandra, 20_000);
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace.blocks(), b.trace.blocks());
    let num_blocks = a.app.program.num_blocks();
    assert!(a.trace.blocks().iter().all(|id| id.index() < num_blocks));
}
