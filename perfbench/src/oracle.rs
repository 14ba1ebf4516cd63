//! The answer oracle: every `QUERY` and `SOLVE` response is compared
//! with the same request answered by an unsharded in-process
//! `SpatialDatabase` holding the same objects under the same slots.
//!
//! Only what the server promises is compared: the `n=` count and the
//! listed prefix (at most [`MAX_LISTED`] ids or tuples). `pruned=`
//! describes the server's shard layout and is not compared; the
//! ` trace=<id>` suffix is stripped first.

use scq_core::parse_system;
use scq_engine::{bbox_execute, CollectionId, IndexKind, SpatialDatabase};

use crate::gen::{bind, query_parts, solve_parts, MAX_LISTED};

/// The part of a response the oracle checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The `n=` count.
    pub n: usize,
    /// The listed prefix (`ids=` or `tuples=` value).
    pub listed: String,
}

/// Removes the ` trace=<id>` suffix a `QUERY`/`SOLVE` response carries.
pub fn strip_trace(response: &str) -> &str {
    response.split(" trace=").next().unwrap_or(response)
}

/// Whether a response is an `OK` reply. `PARTIAL` (a degraded read)
/// and `ERR` both count as failures.
pub fn answered(response: &str) -> bool {
    response.starts_with("OK")
}

/// Extracts the checked fields of an `OK n=… ids=…|tuples=…` response.
pub fn parse_answer(response: &str) -> Option<Answer> {
    let body = strip_trace(response).strip_prefix("OK ")?;
    let mut n = None;
    let mut listed = None;
    for field in body.split(' ') {
        if let Some(v) = field.strip_prefix("n=") {
            n = v.parse().ok();
        } else if let Some(v) = field
            .strip_prefix("ids=")
            .or_else(|| field.strip_prefix("tuples="))
        {
            listed = Some(v.to_string());
        }
    }
    Some(Answer {
        n: n?,
        listed: listed?,
    })
}

/// An unsharded store answering the benchmark's requests.
pub struct Oracle {
    db: SpatialDatabase<2>,
}

impl Oracle {
    /// An oracle over `db`, whose collection names and slots must equal
    /// the server's.
    pub fn new(db: SpatialDatabase<2>) -> Oracle {
        Oracle { db }
    }

    /// The store, for callers that mutate it to follow acknowledged
    /// writes.
    pub fn db_mut(&mut self) -> &mut SpatialDatabase<2> {
        &mut self.db
    }

    /// The store.
    pub fn db(&self) -> &SpatialDatabase<2> {
        &self.db
    }

    fn coll(&self, name: &str) -> Result<CollectionId, String> {
        self.db
            .collection_id(name)
            .ok_or_else(|| format!("oracle has no collection {name:?}"))
    }

    /// The oracle's answer to a `QUERY` or `SOLVE` line.
    pub fn answer(&self, line: &str) -> Result<Answer, String> {
        if line.starts_with("QUERY") {
            self.query(line)
        } else {
            self.solve(line)
        }
    }

    fn query(&self, line: &str) -> Result<Answer, String> {
        let (name, _, q) = query_parts(line)?;
        let mut ids = Vec::new();
        // The R-tree of the unsharded store answers for every index kind
        // the request names: the answer is the same set by definition.
        self.db
            .query_collection(self.coll(name)?, IndexKind::RTree, &q, &mut ids);
        ids.sort_unstable();
        let shown = ids.len().min(MAX_LISTED);
        let mut listed = ids[..shown]
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        if ids.len() > shown {
            listed.push_str(",+more");
        }
        Ok(Answer {
            n: ids.len(),
            listed,
        })
    }

    fn solve(&self, line: &str) -> Result<Answer, String> {
        let (_, bindings, system) = solve_parts(line)?;
        let sys = parse_system(&system).map_err(|e| e.to_string())?;
        let mut query = bind(sys, bindings, |name| self.db.collection_id(name))?;
        // The paper's retrieval order for the smuggler (towns, roads,
        // states) is far cheaper than the size order; any order gives the
        // same solution set.
        if bindings.contains("B=coll:") {
            query = query.with_order(&["T", "R", "B"]);
        }
        let result = bbox_execute(&self.db, &query, IndexKind::RTree).map_err(|e| e.to_string())?;
        let mut tuples: Vec<String> = result
            .solutions
            .iter()
            .map(|s| {
                s.iter()
                    .map(|(v, o)| format!("{}={}", query.system.table.display(*v), o.index))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        tuples.sort();
        let shown = tuples.len().min(MAX_LISTED);
        let mut listed = tuples[..shown].join("|");
        if tuples.len() > shown {
            listed.push_str("|+more");
        }
        Ok(Answer {
            n: tuples.len(),
            listed,
        })
    }

    /// Whether `response` is a complete answer to `line` equal to the
    /// oracle's.
    pub fn check(&self, line: &str, response: &str) -> bool {
        match (parse_answer(response), self.answer(line)) {
            (Some(got), Ok(want)) => got == want,
            _ => false,
        }
    }
}
