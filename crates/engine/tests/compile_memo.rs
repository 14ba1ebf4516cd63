//! The compiled-plan memo's deterministic work counters: once a system
//! has been planned and executed, repeating it with new known windows
//! runs no `triangularize` at all.
//!
//! The memo and its counters are process-wide, so this binary holds a
//! single test: no concurrent test can bump the counters between the
//! two rounds.

use scq_bbox::Bbox;
use scq_core::parse_system;
use scq_engine::workload::{map_workload, MapParams};
use scq_engine::{
    bbox_execute, bbox_execute_parallel, compile_cache_counters, naive_execute,
    order_by_selectivity, ExecOptions, IndexKind, Query, SpatialDatabase,
};
use scq_region::{AaBox, Region};

const SMUGGLER: &str = "A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C";

fn grown(r: &Region<2>, by: f64) -> Region<2> {
    let Bbox::Box { lo, hi } = r.bbox() else {
        panic!("window must be nonempty");
    };
    Region::from_box(AaBox::new(
        [lo[0] - by, lo[1] - by],
        [hi[0] + by, hi[1] + by],
    ))
}

#[test]
fn repeated_planned_solve_with_new_windows_never_recompiles() {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let w = map_workload(
        &mut db,
        7,
        &MapParams {
            n_towns: 12,
            n_roads: 40,
            ..MapParams::default()
        },
    );
    let counters = compile_cache_counters();
    let mut orders = Vec::new();
    let mut round = |by: f64| {
        let query = Query::new(parse_system(SMUGGLER).unwrap())
            .known("C", grown(&w.country, by))
            .known("A", grown(&w.area, by))
            .from_collection("T", w.towns)
            .from_collection("R", w.roads)
            .from_collection("B", w.states);
        let (hits, misses) = (counters.hits.get(), counters.misses.get());
        let plan = order_by_selectivity(&db, &query, IndexKind::RTree).unwrap();
        assert!(plan.stats.compile_ns > 0, "the planner times its compiles");
        let mut planned = query.clone();
        planned.order = Some(plan.order.clone());
        orders.push(plan.order);
        let seq = bbox_execute(&db, &planned, IndexKind::RTree).unwrap();
        assert!(seq.stats.compile_ns > 0, "the executor times its compile");
        let par =
            bbox_execute_parallel(&db, &planned, IndexKind::RTree, 2, ExecOptions::all()).unwrap();
        assert!(par.stats.compile_ns > 0);
        let naive = naive_execute(&db, &query).unwrap();
        assert_eq!(seq.stats.solutions, naive.stats.solutions);
        assert_eq!(par.stats.solutions, naive.stats.solutions);
        assert!(naive.stats.solutions > 0, "the map has smuggling routes");
        (counters.hits.get() - hits, counters.misses.get() - misses)
    };
    // One compile per unknown in the planner, one per executor.
    let (hits, misses) = round(0.0);
    assert_eq!(hits + misses, 5);
    assert!(misses >= 3, "a cold system compiles each planner order");
    let (hits, misses) = round(3.0);
    assert_eq!(
        orders[0], orders[1],
        "the windows move too little to reorder"
    );
    assert_eq!(misses, 0, "new known windows must not recompile");
    assert_eq!(hits, 5);
}
