//! The traced run's spans.
//!
//! The program has no tracing of its own at these layers yet, so the
//! benchmark records spans from its own code around calls into each
//! layer's public functions. After a traced request's wire round trip
//! (`serve.request`, its client-observed RTT), the client replays the
//! same command in-process against a *mirror* of the deployment — the
//! same shards, data and plan mode, built the same way — and times:
//!
//! ```text
//! serve.request                      RTT over the line protocol
//! └─ serve.handle                    scq_serve::handle_command on the mirror
//!    ├─ core.parse                   scq_core::parse_system          (SOLVE)
//!    ├─ engine.plan                  with_selectivity_order          (SOLVE, plan-cache miss)
//!    ├─ engine.execute               bbox_execute_opts = scq_shard::execute (SOLVE)
//!    │  ├─ core.compile              compile_triangular + BboxPlan::compile
//!    │  ├─ engine.probe              StoreView::query_collection, timed in ns per call
//!    │  └─ engine.check              ExecStats::check_us
//!    ├─ index.probe                  StoreView::query_collection     (QUERY, cache miss)
//!    │  ├─ shard.route               ShardRouter::candidate_shards
//!    │  └─ remote.probe              RemoteShard::try_corner_query, per shard (cluster)
//!    │     ├─ wire.encode            encode_request + encode_response
//!    │     └─ wire.decode            decode_request + decode_response
//!    └─ wal.append_durable           Wal::append + wait_durable on a scratch log (writes)
//! ```
//!
//! A span's self time is its duration minus its children's. The self
//! times of `serve.request` (`serve.frontend`: event loop, queueing,
//! socket and wire), of `serve.handle` (`serve.unattributed`) and of
//! `engine.execute` (`engine.unattributed`) are the time no child
//! accounts for, so every request's self times sum to its RTT exactly.
//! Children are timed in replays next to their parent call rather than
//! inside it, so a remainder is an estimate and can be negative on a
//! single request; the mean over many requests is what is reported.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use scq_bbox::{Bbox, CornerQuery};
use scq_core::{parse_system, BboxPlan};
use scq_engine::{
    bbox_execute_opts, compile_triangular, with_selectivity_order, CollectionId, ExecOptions,
    ExecStats, IndexKind, ObjectRef, ProbeReport, StoreView,
};
use scq_region::{AaBox, Region};
use scq_serve::{handle_command, ServeContext};
use scq_shard::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use scq_shard::{ProbeTrace, ShardBackend, ShardedDatabase, Wal};

use crate::gen::{bind, parse_rect, query_parts, solve_parts, Kind};

const ROOT: usize = usize::MAX;

struct Span {
    name: &'static str,
    parent: usize,
    ns: u64,
}

/// The span tree of one traced request.
struct ReqTrace {
    spans: Vec<Span>,
}

impl ReqTrace {
    fn new(rtt_ns: u64) -> ReqTrace {
        ReqTrace {
            spans: vec![Span {
                name: "serve.request",
                parent: ROOT,
                ns: rtt_ns,
            }],
        }
    }

    fn add(&mut self, name: &'static str, parent: usize, ns: u64) -> usize {
        self.spans.push(Span { name, parent, ns });
        self.spans.len() - 1
    }

    /// Each span's duration minus its children's.
    fn self_times(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.ns as i128).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent] -= s.ns as i128;
            }
        }
        own
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer totals over every traced request of a run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Traced requests.
    pub requests: u64,
    /// Per span name: total duration and total self time, in ns.
    spans: BTreeMap<&'static str, (i128, i128)>,
    /// Requests whose self times did not sum to their RTT.
    pub identity_errors: u64,
    /// SOLVEs executed in the replay.
    pub solves: u64,
    /// Their merged executor counters.
    pub exec: ExecStats,
    /// QUERY probes replayed (cache misses).
    pub probes: u64,
    /// Ids those probes returned.
    pub probe_ids: u64,
    /// Shards the router pruned on them.
    pub pruned: u64,
    /// Shards the deployment has, summed per probe.
    pub probe_shards: u64,
    /// Remote shard probes replayed.
    pub remote_probes: u64,
    /// Wire payload bytes of those probes (request + response).
    pub wire_bytes: u64,
}

impl Layers {
    fn record(&mut self, t: &ReqTrace) {
        self.requests += 1;
        let own = t.self_times();
        for (s, o) in t.spans.iter().zip(&own) {
            let e = self.spans.entry(s.name).or_default();
            e.0 += s.ns as i128;
            e.1 += *o;
        }
        if own.iter().sum::<i128>() != t.spans[0].ns as i128 {
            self.identity_errors += 1;
        }
    }

    /// Folds another client's totals in.
    pub fn merge(&mut self, o: &Layers) {
        self.requests += o.requests;
        for (k, v) in &o.spans {
            let e = self.spans.entry(k).or_default();
            e.0 += v.0;
            e.1 += v.1;
        }
        self.identity_errors += o.identity_errors;
        self.solves += o.solves;
        self.exec.merge(&o.exec);
        self.probes += o.probes;
        self.probe_ids += o.probe_ids;
        self.pruned += o.pruned;
        self.probe_shards += o.probe_shards;
        self.remote_probes += o.remote_probes;
        self.wire_bytes += o.wire_bytes;
    }

    /// Mean duration of `span` per traced request, in µs (0 where the
    /// layer never ran).
    pub fn mean_us(&self, span: &str) -> f64 {
        self.per_request(self.spans.get(span).map_or(0, |v| v.0))
    }

    /// Mean self time of `span` per traced request, in µs.
    pub fn mean_self_us(&self, span: &str) -> f64 {
        self.per_request(self.spans.get(span).map_or(0, |v| v.1))
    }

    fn per_request(&self, ns: i128) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            ns as f64 / self.requests as f64 / 1000.0
        }
    }

    /// Every span name with its mean self time per request, in µs; the
    /// values sum to the mean RTT.
    pub fn self_table(&self) -> Vec<(&'static str, f64)> {
        self.spans
            .iter()
            .map(|(k, v)| (*k, self.per_request(v.1)))
            .collect()
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The in-process mirror one client replays its traced requests on.
pub struct Mirror<'a, B: ShardBackend> {
    /// The mirror database, shared by the clients.
    pub db: &'a Arc<RwLock<ShardedDatabase<B>>>,
    /// This client's serve context (its own caches, so a cache hit is
    /// visible in its counters).
    pub ctx: ServeContext,
    /// Whether the shards are remote processes.
    pub remote: bool,
    /// The scratch log writes are replayed into (cluster only).
    pub wal: Option<&'a Wal>,
}

impl<B: ShardBackend> Mirror<'_, B> {
    fn counter(&self, name: &str) -> u64 {
        self.ctx.metrics.snapshot().counter(name).unwrap_or(0)
    }

    /// Replays one request (already answered over the wire in `rtt_ns`)
    /// and records its spans. Returns the mirror's response line, which
    /// writes need to follow the mirror's slots.
    pub fn replay(
        &self,
        line: &str,
        kind: Kind,
        rtt_ns: u64,
        layers: &mut Layers,
    ) -> Result<String, String> {
        let mut t = ReqTrace::new(rtt_ns);
        let hits = self.counter("serve.candidate_cache_hits");
        let plan_misses = self.counter("serve.plan_cache_misses");
        let started = Instant::now();
        let (response, _) = handle_command(self.db, &self.ctx, line);
        let handle = t.add("serve.handle", 0, ns_since(started));
        match kind {
            Kind::Query => {
                if self.counter("serve.candidate_cache_hits") == hits {
                    self.query(line, &mut t, handle, layers)?;
                }
            }
            Kind::Solve => {
                let planned = self.counter("serve.plan_cache_misses") > plan_misses;
                self.solve(line, planned, &mut t, handle, layers)?;
            }
            Kind::Write => {
                if let Some(wal) = self.wal {
                    let req = write_request(line)?;
                    let started = Instant::now();
                    let ticket = wal.append(&req).map_err(|e| e.to_string())?;
                    wal.wait_durable(ticket).map_err(|e| e.to_string())?;
                    t.add("wal.append_durable", handle, ns_since(started));
                }
            }
        }
        layers.record(&t);
        Ok(response)
    }

    fn query(
        &self,
        line: &str,
        t: &mut ReqTrace,
        handle: usize,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let (name, kind, q) = query_parts(line)?;
        let d = self.db.read().map_err(|_| "mirror lock poisoned")?;
        let coll = d.collection_id(name).ok_or("unknown collection")?;
        let mut ids = Vec::new();
        let started = Instant::now();
        let report: ProbeReport = StoreView::query_collection(&*d, coll, kind, &q, &mut ids);
        let probe = t.add("index.probe", handle, ns_since(started));
        let mut shards = Vec::new();
        let started = Instant::now();
        d.router().candidate_shards(&q, &mut shards);
        t.add("shard.route", probe, ns_since(started));
        layers.probes += 1;
        layers.probe_ids += ids.len() as u64;
        layers.pruned += report.shards_pruned as u64;
        layers.probe_shards += d.n_shards() as u64;
        if self.remote {
            for s in shards {
                let mut out = Vec::new();
                let mut pt = ProbeTrace::default();
                let started = Instant::now();
                d.backend(s)
                    .try_corner_query(coll, kind, &q, &mut out, &mut pt)
                    .map_err(|e| e.to_string())?;
                let remote = t.add("remote.probe", probe, ns_since(started));
                let (enc, dec, bytes) = codec_round(coll, kind, q, out)?;
                t.add("wire.encode", remote, enc);
                t.add("wire.decode", remote, dec);
                layers.remote_probes += 1;
                layers.wire_bytes += bytes;
            }
        }
        Ok(())
    }

    fn solve(
        &self,
        line: &str,
        planned: bool,
        t: &mut ReqTrace,
        handle: usize,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let (kind, bindings, system) = solve_parts(line)?;
        let started = Instant::now();
        let sys = parse_system(&system).map_err(|e| e.to_string())?;
        t.add("core.parse", handle, ns_since(started));
        let d = self.db.read().map_err(|_| "mirror lock poisoned")?;
        let query = bind(sys, bindings, |name| d.collection_id(name))?;
        // A plan-cache hit reused an order; the replay still needs it,
        // but the time is not the request's.
        let started = Instant::now();
        let query = with_selectivity_order(&*d, &query, kind).map_err(|e| e.to_string())?;
        if planned {
            t.add("engine.plan", handle, ns_since(started));
        }
        let started = Instant::now();
        let tri = compile_triangular(&*d, &query).map_err(|e| e.to_string())?;
        let _plan: BboxPlan<2> = BboxPlan::compile(&tri);
        let compile_ns = ns_since(started);
        let timed = ProbeTimer {
            inner: &*d,
            ns: Cell::new(0),
        };
        let started = Instant::now();
        let result = bbox_execute_opts(&timed, &query, kind, ExecOptions::all())
            .map_err(|e| e.to_string())?;
        let exec = t.add("engine.execute", handle, ns_since(started));
        t.add("core.compile", exec, compile_ns);
        t.add("engine.probe", exec, timed.ns.get());
        t.add(
            "engine.check",
            exec,
            result.stats.check_us.saturating_mul(1000),
        );
        layers.solves += 1;
        layers.exec.merge(&result.stats);
        Ok(())
    }
}

/// One remote probe's codec work, replayed: the request the router
/// encodes and the shard decodes, and the id list the shard encodes and
/// the router decodes. Returns (encode ns, decode ns, payload bytes).
fn codec_round(
    coll: CollectionId,
    kind: IndexKind,
    query: CornerQuery<2>,
    ids: Vec<u64>,
) -> Result<(u64, u64, u64), String> {
    let req = Request::Query { coll, kind, query };
    let resp = Response::Ids(ids);
    let started = Instant::now();
    let req_bytes = encode_request(&req);
    let resp_bytes = encode_response(&resp);
    let enc = ns_since(started);
    let started = Instant::now();
    let back_req = decode_request(&req_bytes).map_err(|e| e.to_string())?;
    let back_resp = decode_response(&resp_bytes).map_err(|e| e.to_string())?;
    let dec = ns_since(started);
    if back_req != req || back_resp != resp {
        return Err("wire codec round trip changed a message".into());
    }
    Ok((enc, dec, (req_bytes.len() + resp_bytes.len()) as u64))
}

/// The WAL record a shard appends for a write line (the collection id
/// does not matter to the log's cost).
fn write_request(line: &str) -> Result<Request, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let coll = CollectionId(0);
    let region = |cs: &[&str]| {
        parse_rect(cs)
            .map(|r| Region::from_box(AaBox::new([r[0], r[1]], [r[2], r[3]])))
            .ok_or_else(|| format!("bad box in {line:?}"))
    };
    let slot = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("bad slot in {line:?}"))
    };
    match parts[..] {
        ["INSERT", _, ref cs @ ..] => Ok(Request::Insert {
            coll,
            region: region(cs)?,
        }),
        ["UPDATE", _, s, ref cs @ ..] => Ok(Request::Update {
            coll,
            local: slot(s)?,
            region: region(cs)?,
        }),
        ["REMOVE", _, s] => Ok(Request::Remove {
            coll,
            local: slot(s)?,
        }),
        _ => Err(format!("not a write: {line:?}")),
    }
}

/// The sharded view with every `query_collection` call timed in ns
/// (the executor's own probe timer counts whole µs, which reads 0 for
/// sub-µs local probes).
struct ProbeTimer<'a, B: ShardBackend> {
    inner: &'a ShardedDatabase<B>,
    ns: Cell<u64>,
}

impl<B: ShardBackend> StoreView<2> for ProbeTimer<'_, B> {
    fn universe(&self) -> &AaBox<2> {
        StoreView::universe(self.inner)
    }
    fn collection_len(&self, coll: CollectionId) -> usize {
        StoreView::collection_len(self.inner, coll)
    }
    fn live_len(&self, coll: CollectionId) -> usize {
        StoreView::live_len(self.inner, coll)
    }
    fn epoch(&self, coll: CollectionId) -> u64 {
        StoreView::epoch(self.inner, coll)
    }
    fn is_live(&self, obj: ObjectRef) -> bool {
        StoreView::is_live(self.inner, obj)
    }
    fn region(&self, obj: ObjectRef) -> &Region<2> {
        StoreView::region(self.inner, obj)
    }
    fn bbox(&self, obj: ObjectRef) -> Bbox<2> {
        StoreView::bbox(self.inner, obj)
    }
    fn query_collection(
        &self,
        coll: CollectionId,
        kind: IndexKind,
        q: &CornerQuery<2>,
        out: &mut Vec<u64>,
    ) -> ProbeReport {
        let started = Instant::now();
        let r = StoreView::query_collection(self.inner, coll, kind, q, out);
        self.ns.set(self.ns.get() + ns_since(started));
        r
    }
    fn empty_objects(&self, coll: CollectionId) -> &[usize] {
        StoreView::empty_objects(self.inner, coll)
    }
    fn live_indices_into(&self, coll: CollectionId, out: &mut Vec<usize>) {
        StoreView::live_indices_into(self.inner, coll, out)
    }
}
