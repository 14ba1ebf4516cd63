//! The compiled-plan memo: compile once per (system, retrieval order).
//!
//! Algorithm 1's triangular form and Algorithm 2's [`BboxPlan`] depend
//! only on the normalized constraint system and the retrieval order —
//! never on the data or the known windows. Every compile site (the
//! sequential and parallel executors, the selectivity planner's
//! per-unknown loop, `EXPLAIN`) therefore goes through one process-wide
//! memo keyed by (normal system, order, `K`).
//!
//! The key fully determines the value, so the memo needs no
//! invalidation: there are no epochs and no data in it. It is bounded
//! at 256 entries and cleared when full.
//!
//! `triangularize` panics on a malformed order; it runs **outside** the
//! memo lock, and a poisoned lock is recovered rather than propagated,
//! so a caught compile panic cannot break later compiles.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use scq_boolean::Var;
use scq_core::plan::BboxPlan;
use scq_core::{triangularize, NormalSystem};
use scq_obs::Counter;

/// Entries the memo holds before it is cleared.
const COMPILE_CACHE_CAP: usize = 256;

/// A `static` is shared by every instantiation of a generic fn, so the
/// dimension is part of the key.
#[derive(PartialEq, Eq, Hash)]
struct PlanKey {
    dims: usize,
    system: NormalSystem,
    order: Vec<Var>,
}

/// The memo's work counters: a miss is one `triangularize` +
/// `BboxPlan::compile` run, a hit is a compile that ran neither.
#[derive(Debug, Default)]
pub struct CompileCacheCounters {
    /// `engine.compile_cache_hits`: compiles served from the memo.
    pub hits: Counter,
    /// `engine.compile_cache_misses`: compiles that ran Algorithms 1–2.
    pub misses: Counter,
}

#[derive(Default)]
struct Memo {
    plans: Mutex<HashMap<PlanKey, Arc<dyn Any + Send + Sync>>>,
    counters: CompileCacheCounters,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// The process-wide memo counters (shared cells: scrapes see them live).
pub fn compile_cache_counters() -> &'static CompileCacheCounters {
    &memo().counters
}

/// The compiled plan of `system` under retrieval `order`, from the memo
/// or compiled and memoized on a miss.
///
/// # Panics
/// Like [`triangularize`], if `order` has duplicates or misses a system
/// variable. The panic leaves the memo usable.
pub(crate) fn compile_plan<const K: usize>(
    system: &NormalSystem,
    order: &[Var],
) -> Arc<BboxPlan<K>> {
    let m = memo();
    let key = PlanKey {
        dims: K,
        system: system.clone(),
        order: order.to_vec(),
    };
    // Recovering a poisoned lock is sound: every update (one insert or
    // one clear) leaves the map valid.
    let cached = m
        .plans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned();
    if let Some(plan) = cached.and_then(|p| p.downcast::<BboxPlan<K>>().ok()) {
        m.counters.hits.inc();
        return plan;
    }
    m.counters.misses.inc();
    let plan = Arc::new(BboxPlan::<K>::compile(&triangularize(system, order)));
    let mut plans = m.plans.lock().unwrap_or_else(PoisonError::into_inner);
    if plans.len() >= COMPILE_CACHE_CAP {
        plans.clear();
    }
    plans.insert(key, plan.clone());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpatialDatabase;
    use crate::exec::{bbox_execute, naive_execute, QueryResult};
    use crate::query::{IndexKind, Query};
    use crate::workload::uniform_boxes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scq_boolean::Formula;
    use scq_core::parse_system;
    use scq_region::{AaBox, Region};

    fn formula(nvars: u32) -> BoxedStrategy<Formula> {
        let leaf = prop_oneof![
            2 => (0..nvars).prop_map(|i| Formula::var(Var(i))),
            1 => Just(Formula::Zero),
            1 => Just(Formula::One),
        ];
        leaf.prop_recursive(3, 64, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Formula::not),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Formula::or(a, b)),
            ]
        })
        .boxed()
    }

    fn permutations(vars: &[Var]) -> Vec<Vec<Var>> {
        if vars.len() <= 1 {
            return vec![vars.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            let mut rest = vars.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, v);
                out.push(tail);
            }
        }
        out
    }

    fn sorted_solutions(r: &QueryResult) -> Vec<Vec<(Var, usize)>> {
        let mut v: Vec<Vec<(Var, usize)>> = r
            .solutions
            .iter()
            .map(|s| s.iter().map(|(&v, o)| (v, o.index)).collect())
            .collect();
        v.sort();
        v
    }

    /// Constraint atoms over unknowns `X`, `Y` and the known window `K`.
    const ATOMS: [&str; 10] = [
        "X <= K",
        "X & Y != 0",
        "X !<= Y",
        "X & Y = 0",
        "X & K != 0",
        "Y <= X | K",
        "Y != 0",
        "X < K",
        "Y & K != 0",
        "X & Y != K",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For every order, the memo answers exactly what a fresh
        /// Algorithm 1 + Algorithm 2 run compiles — also for systems
        /// that differ from each other only in `eq` or only in `neqs`,
        /// so a key that left either out would be caught.
        #[test]
        fn memoized_plans_equal_fresh_compiles(
            eq in formula(3),
            neqs in prop::collection::vec(formula(3), 0..3),
        ) {
            let systems = [
                NormalSystem { eq: eq.clone(), neqs: neqs.clone() },
                NormalSystem { eq, neqs: Vec::new() },
                NormalSystem { eq: Formula::Zero, neqs },
            ];
            for order in permutations(&[Var(0), Var(1), Var(2)]) {
                for sys in &systems {
                    let fresh = BboxPlan::<2>::compile(&triangularize(sys, &order));
                    // The first call may compile, the second must agree.
                    for _ in 0..2 {
                        let memo = compile_plan::<2>(sys, &order);
                        prop_assert_eq!(&memo.order, &fresh.order);
                        prop_assert_eq!(memo.satisfiable, fresh.satisfiable);
                        prop_assert_eq!(memo.rows.len(), fresh.rows.len());
                        for (m, f) in memo.rows.iter().zip(&fresh.rows) {
                            prop_assert_eq!(&m.exact, &f.exact);
                        }
                    }
                }
            }
        }

        /// One system, two different known windows: the second run is
        /// served from the memo and must still answer like the naive
        /// executor (the plan carries no window).
        #[test]
        fn memoized_plans_answer_like_naive_under_new_windows(
            atoms in prop::collection::vec(0..ATOMS.len(), 1..4),
            seed in 0u64..500,
            windows in prop::collection::vec((0.0f64..80.0, 0.0f64..80.0, 5.0f64..60.0), 2),
        ) {
            let universe = AaBox::new([0.0, 0.0], [100.0, 100.0]);
            let mut db = SpatialDatabase::new(universe);
            let mut rng = StdRng::seed_from_u64(seed);
            let xs = db.collection("xs");
            let ys = db.collection("ys");
            for r in uniform_boxes(&mut rng, 10, &universe, 2.0, 25.0) {
                db.insert(xs, r);
            }
            for r in uniform_boxes(&mut rng, 8, &universe, 2.0, 25.0) {
                db.insert(ys, r);
            }
            let src = atoms.iter().map(|&i| ATOMS[i]).collect::<Vec<_>>().join("; ");
            let sys = parse_system(&src).unwrap();
            for &(x0, y0, side) in &windows {
                let mut q = Query::new(sys.clone());
                if q.system.table.get("K").is_some() {
                    q = q.known("K", Region::from_box(AaBox::new([x0, y0], [x0 + side, y0 + side])));
                }
                for (name, coll) in [("X", xs), ("Y", ys)] {
                    if q.system.table.get(name).is_some() {
                        q = q.from_collection(name, coll);
                    }
                }
                let naive = naive_execute(&db, &q).unwrap();
                let bbox = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
                prop_assert_eq!(sorted_solutions(&naive), sorted_solutions(&bbox), "system {}", src);
            }
        }
    }

    #[test]
    fn a_panicking_compile_leaves_the_memo_usable() {
        let sys = parse_system("X <= Y; X != 0").unwrap();
        let x = sys.table.get("X").unwrap();
        let y = sys.table.get("Y").unwrap();
        let normal = sys.normalize();
        let bad = std::panic::catch_unwind(|| compile_plan::<2>(&normal, &[x]));
        assert!(bad.is_err(), "an order missing Y must panic");
        let plan = compile_plan::<2>(&normal, &[x, y]);
        assert_eq!(plan.order, vec![x, y]);
        assert!(plan.satisfiable);
        // A panic while the lock is held poisons it; later compiles
        // must still succeed.
        let _ = std::panic::catch_unwind(|| {
            let _guard = memo().plans.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the memo lock");
        });
        assert!(memo().plans.is_poisoned());
        let again = compile_plan::<2>(&normal, &[y, x]);
        assert_eq!(again.order, vec![y, x]);
    }
}
