//! One benchmark run: set the deployment up, drive the closed loop,
//! check every answer, report.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use scq_region::{AaBox, Region};
use scq_serve::{handle_command, PlanMode, ServeContext};
use scq_shard::{
    ClusterSpec, LocalShard, RemoteShard, ShardBackend, ShardedDatabase, Wal, WalConfig,
};

use crate::deploy::{fresh_dir, Conn, Deployment};
use crate::gen::{build_map, Kind, Op, Rect, Scene, Stream, Workload, CLIENTS, UNIVERSE};
use crate::oracle::{answered, strip_trace, Oracle};
use crate::stats::{metric, Metric, Samples, FAILED};
use crate::trace::{ratio, Layers, Mirror};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Run a fixed number of requests per client in each phase instead
    /// of timed phases, so work counters repeat exactly (tests).
    pub requests: Option<u64>,
    /// Closed-loop clients.
    pub clients: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Directory for WALs and scratch logs.
    pub scratch: PathBuf,
    /// This benchmark's executable, re-run in server roles.
    pub exe: PathBuf,
}

impl RunConfig {
    /// The configuration the command line gets.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        scratch: PathBuf,
        exe: PathBuf,
    ) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            requests: None,
            clients: CLIENTS,
            setups: if trace { 1 } else { 5 },
            scratch,
            exe,
        }
    }
}

/// What a run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (`ERR`, `PARTIAL`, wrong answer), plus
    /// failed end-of-run checks.
    pub failed: u64,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Per-kind latencies and the error share, which not every workload
    /// has (printed, not part of the result line).
    pub detail: Vec<Metric>,
    /// Human-readable detail (sample counts, per-kind latencies).
    pub report: Vec<String>,
    /// Work counters that repeat exactly for a fixed request count on
    /// one seed.
    pub counters: BTreeMap<&'static str, u64>,
    /// FNV-1a hash of each client's canonical request stream.
    pub stream_hashes: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PhaseKind {
    Warmup,
    Measure,
    Traced,
}

#[derive(Clone, Copy, Debug)]
enum Budget {
    Until(Instant),
    Count(u64),
}

/// One client's record of one phase.
#[derive(Default)]
struct PhaseRec {
    by_kind: [Samples; 3],
    all: Samples,
    done: u64,
    failed: u64,
    first: Option<Instant>,
    last: Option<Instant>,
    /// (completion instant, latency sample) of every request.
    timeline: Vec<(Instant, u64)>,
    layers: Layers,
}

/// One client's record of a run.
#[derive(Default)]
struct ClientRec {
    phases: Vec<PhaseRec>,
    /// (line, response) pairs of reads to check after the run.
    to_check: Vec<(String, String)>,
    /// Objects this client inserted: slot → (box, live).
    objects: BTreeMap<usize, (Rect, bool)>,
    stream_hash: u64,
    error: Option<String>,
}

fn kind_index(k: Kind) -> usize {
    match k {
        Kind::Query => 0,
        Kind::Solve => 1,
        Kind::Write => 2,
    }
}

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A client's own objects in one database: server slots, oldest first.
#[derive(Default)]
struct Ring(VecDeque<usize>);

impl Ring {
    /// Follows an acknowledged write. Returns false on an unexpected
    /// reply.
    fn apply(&mut self, op: &Op, response: &str) -> bool {
        match op {
            Op::Insert(_) => match response
                .strip_prefix("OK ref=")
                .and_then(|s| s.parse().ok())
            {
                Some(slot) => {
                    self.0.push_back(slot);
                    true
                }
                None => false,
            },
            Op::Remove => {
                self.0.pop_front();
                response == "OK removed"
            }
            Op::Update { .. } => response == "OK updated",
            _ => true,
        }
    }

    fn slot(&self, k: usize) -> usize {
        self.0[k]
    }
}

/// Sends the own-object preload of every client through one connection
/// (so slots are assigned in a fixed order) and returns each client's
/// ring.
fn preload_own(
    call: &mut dyn FnMut(&str) -> Result<String, String>,
    boxes: &[Vec<Rect>],
) -> Result<Vec<Ring>, String> {
    let mut rings = Vec::new();
    for own in boxes {
        let mut ring = Ring::default();
        for r in own {
            let op = Op::Insert(*r);
            let resp = call(&op.canonical())?;
            if !ring.apply(&op, &resp) {
                return Err(format!("preload insert failed: {resp}"));
            }
        }
        rings.push(ring);
    }
    Ok(rings)
}

/// Loads the map (and the own objects) through `call`.
fn load(
    call: &mut dyn FnMut(&str) -> Result<String, String>,
    cfg: &RunConfig,
    own: &[Vec<Rect>],
) -> Result<Vec<Ring>, String> {
    let resp = call(&format!("LOAD map {} {}", cfg.seed, cfg.workload.roads()))?;
    if !resp.starts_with("OK towns=") {
        return Err(format!("LOAD map failed: {resp}"));
    }
    preload_own(call, own)
}

/// Parses the `key=value` fields of a `STAT` line.
fn stat_fields(line: &str) -> BTreeMap<String, u64> {
    line.split_whitespace()
        .filter_map(|f| f.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// Runs one benchmark run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let (map_db, map) = build_map(cfg.seed, w.roads());
    let scene = Scene::new(w, cfg.seed, &map);
    let mut streams: Vec<Stream> = (0..cfg.clients).map(|c| scene.stream(c)).collect();
    let own: Vec<Vec<Rect>> = if w.is_cluster() {
        streams.iter_mut().map(Stream::preload).collect()
    } else {
        vec![Vec::new(); cfg.clients]
    };
    let mut oracle = Oracle::new(map_db);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up: boot and load, several times; the last deployment stays.
    let mut setup_s = Vec::new();
    let mut deployment = None;
    let mut rings = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        drop(deployment.take());
        let started = Instant::now();
        let dep = Deployment::boot(&cfg.exe, w, &cfg.scratch)?;
        let mut conn = Conn::open(dep.addr)?;
        rings = load(&mut |l| conn.call(l).map(str::to_string), cfg, &own)?;
        setup_s.push(started.elapsed().as_secs_f64());
        deployment = Some(dep);
    }
    let dep = deployment.expect("at least one set-up");
    let mut admin = Conn::open(dep.addr)?;

    let records = if cfg.trace {
        if w.is_cluster() {
            let (mirror_shards, addrs) = Deployment::shards(&cfg.exe, w.shards(), &cfg.scratch)?;
            let spec = ClusterSpec::balanced(
                AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]),
                scq_shard::DEFAULT_ROUTER_BITS,
                &addrs,
            );
            let db = spec
                .connect(Duration::from_secs(30))
                .map_err(|e| format!("mirror connect: {e}"))?;
            let r =
                drive_traced::<RemoteShard>(cfg, streams, rings, &own, dep.addr, &mut admin, db);
            mirror_shards.shutdown();
            r?
        } else {
            let universe = AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]);
            let db = ShardedDatabase::<LocalShard>::new(universe, w.shards());
            drive_traced::<LocalShard>(cfg, streams, rings, &own, dep.addr, &mut admin, db)?
        }
    } else {
        let (records, phases) =
            drive::<LocalShard>(cfg, streams, rings, &own, dep.addr, None, &mut |_| Ok(()))?;
        (records, phases, BTreeMap::new())
    };
    let (records, phases, stat_delta) = records;

    // Answers: every read of the in-process workloads against the
    // oracle; cluster-mixed's interleaved writes leave only the final
    // state decidable, checked below.
    let mut mismatches = 0u64;
    let verify_started = Instant::now();
    let oracle_ref = &oracle;
    let bad: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = records
            .iter()
            .map(|rec| {
                s.spawn(move || {
                    rec.to_check
                        .iter()
                        .filter(|(line, resp)| !oracle_ref.check(line, resp))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(u64::MAX))
            .collect()
    });
    mismatches += bad.iter().sum::<u64>();
    out.report.push(format!(
        "checked {} answers against the oracle in {:.2} s",
        records.iter().map(|r| r.to_check.len()).sum::<usize>(),
        verify_started.elapsed().as_secs_f64()
    ));
    for rec in &records {
        if let Some(e) = &rec.error {
            out.report.push(format!("client error: {e}"));
            out.correct = false;
        }
        out.stream_hashes.push(rec.stream_hash);
    }
    if w.is_cluster() {
        mismatches += check_final_state(&mut oracle, &scene, &records, &own, &mut admin, &mut out)?;
    }

    let mut attempted = 0;
    let mut failed = 0;
    for rec in &records {
        for p in &rec.phases {
            attempted += p.done;
            failed += p.failed;
        }
    }
    out.attempted = attempted.max(1);
    out.failed = failed + mismatches;
    if out.failed > 0 {
        out.correct = false;
    }
    let rss = dep.peak_rss();
    drop(admin);
    dep.shutdown();

    let measure = merge_phase(
        &records,
        phases.iter().position(|p| *p == PhaseKind::Measure),
    );
    if cfg.trace {
        let traced = merge_phase(
            &records,
            phases.iter().position(|p| *p == PhaseKind::Traced),
        );
        report_layers(cfg, &measure, &traced, &stat_delta, &mut out);
    } else {
        report_e2e(&measure, &setup_s, rss, &mut out)?;
    }
    let error_share = out.failed as f64 / out.attempted as f64;
    out.detail.push(metric("error_share", error_share, "share"));
    out.report.push(format!(
        "requests attempted={} failed={} (error_share={error_share:.6})",
        out.attempted, out.failed
    ));
    Ok(out)
}

type Driven = (Vec<ClientRec>, Vec<PhaseKind>);
/// A traced run's records plus the `STAT` counter deltas of its
/// untraced phase.
type Traced = (Vec<ClientRec>, Vec<PhaseKind>, BTreeMap<String, u64>);

/// The traced run: an untraced phase for the baseline throughput and the
/// STAT counters, then a phase replaying every request on the mirror.
#[allow(clippy::too_many_arguments)]
fn drive_traced<B: ShardBackend + Send + Sync + 'static>(
    cfg: &RunConfig,
    streams: Vec<Stream>,
    rings: Vec<Ring>,
    own: &[Vec<Rect>],
    addr: std::net::SocketAddr,
    admin: &mut Conn,
    db: ShardedDatabase<B>,
) -> Result<Traced, String> {
    let db = Arc::new(RwLock::new(db));
    let setup_ctx = ServeContext::new(None).with_plan(PlanMode::Selectivity);
    let mirror_rings = load(&mut |l| Ok(handle_command(&db, &setup_ctx, l).0), cfg, own)?;
    let wal_dir = fresh_dir(&cfg.scratch, "scratch-wal")?;
    let wal = if cfg.workload.is_cluster() {
        let universe = AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]);
        Some(
            Wal::open(&WalConfig::new(&wal_dir), universe)
                .map_err(|e| format!("scratch wal: {e}"))?
                .0,
        )
    } else {
        None
    };
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    let mirror = MirrorSetup {
        db: &db,
        rings: mirror_rings,
        wal: wal.as_ref(),
        remote: cfg.workload.is_cluster(),
    };
    let result = drive(cfg, streams, rings, own, addr, Some(mirror), &mut |phase| {
        // STAT around the untraced phase: the program's own counters,
        // undisturbed by the replay.
        match phase {
            PhaseKind::Measure => before = admin.call("STAT").map(stat_fields)?,
            PhaseKind::Traced => after = admin.call("STAT").map(stat_fields)?,
            PhaseKind::Warmup => {}
        }
        Ok(())
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (records, phases) = result?;
    let delta = after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect();
    Ok((records, phases, delta))
}

/// What the clients of a traced run share.
struct MirrorSetup<'a, B: ShardBackend> {
    db: &'a Arc<RwLock<ShardedDatabase<B>>>,
    rings: Vec<Ring>,
    wal: Option<&'a Wal>,
    remote: bool,
}

/// Drives the closed loop: every client sends its next request only
/// after the previous response arrived. `on_phase` runs before each
/// phase, while no client is sending.
fn drive<B: ShardBackend + Send + Sync + 'static>(
    cfg: &RunConfig,
    streams: Vec<Stream>,
    rings: Vec<Ring>,
    own: &[Vec<Rect>],
    addr: std::net::SocketAddr,
    mirror: Option<MirrorSetup<'_, B>>,
    on_phase: &mut dyn FnMut(PhaseKind) -> Result<(), String>,
) -> Result<Driven, String> {
    let mut phases = vec![(PhaseKind::Warmup, 0.5f64.min(cfg.seconds * 0.1))];
    if mirror.is_some() {
        phases.push((PhaseKind::Measure, cfg.seconds * 0.4));
        phases.push((PhaseKind::Traced, cfg.seconds * 0.6));
    } else {
        phases.push((PhaseKind::Measure, cfg.seconds));
    }
    let kinds: Vec<PhaseKind> = phases.iter().map(|p| p.0).collect();
    let (mirror_db, wal, remote, mut mirror_rings) = match mirror {
        Some(m) => (Some(m.db), m.wal, m.remote, m.rings),
        None => (None, None, false, Vec::new()),
    };
    let mut states = Vec::new();
    for (c, (stream, ring)) in streams.into_iter().zip(rings).enumerate() {
        // The preloaded own objects start the client's object log.
        let objects = ring
            .0
            .iter()
            .zip(&own[c])
            .map(|(&slot, r)| (slot, (*r, true)))
            .collect();
        states.push(ClientState {
            stream,
            ring,
            conn: Conn::open(addr)?,
            mirror: mirror_db.map(|db| Mirror {
                db,
                ctx: ServeContext::new(None).with_plan(PlanMode::Selectivity),
                remote,
                wal,
            }),
            mirror_ring: mirror_rings
                .get_mut(c)
                .map(std::mem::take)
                .unwrap_or_default(),
            rec: ClientRec {
                stream_hash: FNV_OFFSET,
                objects,
                ..ClientRec::default()
            },
            verify: !cfg.workload.is_cluster(),
        });
    }
    // Phases run one after another with every client in each; between
    // phases the clients are idle, so STAT sees a quiescent server.
    for (kind, secs) in &phases {
        on_phase(*kind)?;
        let budget = match (cfg.requests, kind) {
            (Some(_), PhaseKind::Warmup) => Budget::Count(0),
            (Some(n), _) => Budget::Count(n),
            (None, _) => Budget::Until(Instant::now() + Duration::from_secs_f64(*secs)),
        };
        std::thread::scope(|s| {
            for st in states.iter_mut() {
                s.spawn(move || st.run_phase(*kind, budget));
            }
        });
    }
    let records = states.into_iter().map(|s| s.rec).collect();
    Ok((records, kinds))
}

struct ClientState<'s, 'm, B: ShardBackend> {
    stream: Stream<'s>,
    ring: Ring,
    conn: Conn,
    mirror: Option<Mirror<'m, B>>,
    mirror_ring: Ring,
    rec: ClientRec,
    verify: bool,
}

impl<B: ShardBackend> ClientState<'_, '_, B> {
    fn run_phase(&mut self, kind: PhaseKind, budget: Budget) {
        let mut p = PhaseRec::default();
        let mut sent = 0u64;
        loop {
            let over = match budget {
                Budget::Count(n) => sent >= n,
                Budget::Until(t) => Instant::now() >= t,
            };
            if over && !self.stream.mid_pair() {
                break;
            }
            if self.rec.error.is_some() {
                break;
            }
            sent += 1;
            let op = self.stream.next_op();
            self.rec.stream_hash = fnv(self.rec.stream_hash, op.canonical().as_bytes());
            self.rec.stream_hash = fnv(self.rec.stream_hash, b"\n");
            if let Err(e) = self.one(&op, kind, &mut p) {
                self.rec.error = Some(e);
            }
        }
        self.rec.phases.push(p);
    }

    fn one(&mut self, op: &Op, kind: PhaseKind, p: &mut PhaseRec) -> Result<(), String> {
        let ring = &self.ring;
        let line = op.line(|k| ring.slot(k));
        let started = Instant::now();
        let response = self.conn.call(&line).map(str::to_string);
        let ns = started.elapsed().as_nanos() as u64;
        let done = Instant::now();
        p.first.get_or_insert(started);
        p.last = Some(done);
        p.done += 1;
        let response = response?;
        let mut ok = answered(&response);
        if op.kind() == Kind::Write && ok {
            self.note_object(op, &response);
            ok = self.ring.apply(op, &response);
        }
        if !ok {
            p.failed += 1;
        }
        let sample = if ok { ns } else { FAILED };
        p.by_kind[kind_index(op.kind())].push(sample);
        p.all.push(sample);
        p.timeline.push((done, sample));
        if self.verify && ok {
            self.rec
                .to_check
                .push((line.clone(), strip_trace(&response).to_string()));
        }
        let Some(m) = &self.mirror else {
            return Ok(());
        };
        let mring = &self.mirror_ring;
        let mline = op.line(|k| mring.slot(k));
        let mresp = if kind == PhaseKind::Traced {
            m.replay(&mline, op.kind(), ns, &mut p.layers)?
        } else if op.kind() == Kind::Write {
            // Outside the traced phase the mirror only follows the
            // writes, so it holds the same data when tracing starts.
            handle_command(m.db, &m.ctx, &mline).0
        } else {
            return Ok(());
        };
        if op.kind() == Kind::Write && !self.mirror_ring.apply(op, &mresp) {
            return Err(format!("mirror write failed: {mresp}"));
        }
        Ok(())
    }

    /// Keeps the client's log of its own objects for the final-state
    /// oracle (the ring only knows the live ones). Runs before the ring
    /// follows the write.
    fn note_object(&mut self, op: &Op, response: &str) {
        let log = &mut self.rec.objects;
        match op {
            Op::Insert(r) => {
                if let Some(slot) = response
                    .strip_prefix("OK ref=")
                    .and_then(|s| s.parse().ok())
                {
                    log.insert(slot, (*r, true));
                }
            }
            Op::Update { own, to } if response == "OK updated" => {
                log.entry(self.ring.slot(*own)).or_insert((*to, true)).0 = *to;
            }
            Op::Remove if response == "OK removed" => {
                log.entry(self.ring.slot(0)).or_insert(([0.0; 4], false)).1 = false;
            }
            _ => {}
        }
    }
}

/// Merges one phase of every client.
fn merge_phase(records: &[ClientRec], idx: Option<usize>) -> PhaseRec {
    let mut m = PhaseRec::default();
    let Some(i) = idx else { return m };
    for rec in records {
        let Some(p) = rec.phases.get(i) else { continue };
        for k in 0..3 {
            m.by_kind[k].extend(&p.by_kind[k]);
        }
        m.all.extend(&p.all);
        m.timeline.extend_from_slice(&p.timeline);
        m.done += p.done;
        m.failed += p.failed;
        m.first = match (m.first, p.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        m.last = match (m.last, p.last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        m.layers.merge(&p.layers);
    }
    m
}

/// Windows the measured phase is cut into: `throughput_rps` and
/// `p99_us` are the medians of the per-window values, so a CPU or disk
/// stall shorter than two windows moves them little.
const WINDOWS: usize = 5;

/// The median over up to [`WINDOWS`] consecutive windows of the measured
/// phase, each holding an equal share of its requests (at least 1000, so
/// each window's exact p99 has ten samples beyond it), of each window's
/// throughput and p99.
fn windowed(m: &PhaseRec) -> Result<(f64, f64), String> {
    let mut timeline = m.timeline.clone();
    timeline.sort_unstable_by_key(|&(t, _)| t);
    let (Some(mut start), n) = (m.first, timeline.len()) else {
        return Err("no request was measured".into());
    };
    if n < 1000 {
        return Err(format!(
            "only {n} samples: too few for a p99 with ten beyond it"
        ));
    }
    let windows = (n / 1000).min(WINDOWS);
    let (mut rps, mut p99) = (Vec::new(), Vec::new());
    for w in 0..windows {
        let chunk = &timeline[w * n / windows..(w + 1) * n / windows];
        let end = chunk[chunk.len() - 1].0;
        rps.push(chunk.len() as f64 / (end - start).as_secs_f64());
        let mut samples = Samples::default();
        for &(_, ns) in chunk {
            samples.push(ns);
        }
        p99.push(
            samples
                .quantile_us(0.99)
                .expect("1000 samples support a p99"),
        );
        start = end;
    }
    Ok((median(&rps), median(&p99)))
}

fn throughput(p: &PhaseRec) -> f64 {
    match (p.first, p.last) {
        (Some(a), Some(b)) if b > a => p.done as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The end-to-end metrics. The median latency is printed with the
/// per-kind quantiles but is not a result metric: with two CPU-bound
/// requests on two vCPUs it falls between two modes of the latency
/// distribution, and on a 2-vCPU VM it moved by 20-26% between runs on
/// join-solve and cluster-mixed, more than any bound allows.
fn report_e2e(m: &PhaseRec, setup_s: &[f64], rss: u64, out: &mut Outcome) -> Result<(), String> {
    let (rps, p99) = windowed(m)?;
    let p50 = m.all.quantile_us(0.5).unwrap_or(f64::NAN);
    out.metrics = vec![
        metric("throughput_rps", rps, "1/s"),
        metric("p99_us", p99, "us"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", rss as f64 / 1e6, "MB"),
    ];
    out.detail.push(metric("p50_us", p50, "us"));
    out.report
        .push(format!("p50_us {p50:.1} us (n={})", m.all.len()));
    for (k, name) in ["query", "solve", "write"].iter().enumerate() {
        let s = &m.by_kind[k];
        if s.is_empty() {
            continue;
        }
        for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let name = format!("{name}_{tag}_us");
            match s.quantile_us(p) {
                Some(v) => {
                    out.report.push(format!("{name} {v:.1} us (n={})", s.len()));
                    out.detail.push(metric(&name, v, "us"));
                }
                None => out.report.push(format!(
                    "{name} n/a: fewer than 10 of {} samples beyond it",
                    s.len()
                )),
            }
        }
    }
    out.report.push(format!(
        "{} measured requests; throughput_rps and p99_us are medians over {WINDOWS} windows; \
         setup_s is the median of {:?}",
        m.all.len(),
        setup_s
    ));
    Ok(())
}

fn report_layers(
    cfg: &RunConfig,
    base: &PhaseRec,
    traced: &PhaseRec,
    stat: &BTreeMap<String, u64>,
    out: &mut Outcome,
) {
    let l = &traced.layers;
    let st = |k: &str| stat.get(k).copied().unwrap_or(0) as f64;
    let e = &l.exec;
    let per_solve = |v: usize| ratio(v as f64, l.solves as f64);
    let us = |name: &str, v: f64| metric(name, v, "us");
    out.metrics = vec![
        us("serve.rtt_us", l.mean_us("serve.request")),
        us("serve.handle_us", l.mean_us("serve.handle")),
        us("serve.frontend_us", l.mean_self_us("serve.request")),
        us("serve.unattributed_us", l.mean_self_us("serve.handle")),
        metric(
            "serve.candidate_cache_hit_ratio",
            ratio(
                st("candidate_cache_hits"),
                st("candidate_cache_hits") + st("candidate_cache_misses"),
            ),
            "ratio",
        ),
        metric(
            "serve.plan_cache_hit_ratio",
            ratio(
                st("plan_cache_hits"),
                st("plan_cache_hits") + st("plan_cache_misses"),
            ),
            "ratio",
        ),
        us("core.parse_us", l.mean_us("core.parse")),
        us("core.compile_us", l.mean_us("core.compile")),
        us("engine.plan_us", l.mean_us("engine.plan")),
        us("engine.execute_us", l.mean_us("engine.execute")),
        us("engine.probe_us", l.mean_us("engine.probe")),
        us("engine.check_us", l.mean_us("engine.check")),
        us("engine.unattributed_us", l.mean_self_us("engine.execute")),
        metric("engine.row_checks", per_solve(e.exact_row_checks), "count"),
        metric("engine.candidates", per_solve(e.index_candidates), "count"),
        metric(
            "engine.partial_tuples",
            per_solve(e.partial_tuples),
            "count",
        ),
        metric(
            "engine.prefilter_reject_ratio",
            ratio(e.bbox_prefilter_rejections as f64, e.partial_tuples as f64),
            "ratio",
        ),
        metric(
            "engine.row_reject_ratio",
            ratio(e.row_rejections as f64, e.exact_row_checks as f64),
            "ratio",
        ),
        metric(
            "engine.corner_cache_hit_ratio",
            ratio(
                e.corner_cache_hits as f64,
                (e.corner_cache_hits + e.corner_cache_misses) as f64,
            ),
            "ratio",
        ),
        us("shard.route_us", l.mean_us("shard.route")),
        metric(
            "shard.pruned_ratio",
            ratio(l.pruned as f64, l.probe_shards as f64),
            "ratio",
        ),
        us("index.probe_us", l.mean_us("index.probe")),
        metric(
            "index.candidates_per_probe",
            ratio(l.probe_ids as f64, l.probes as f64),
            "count",
        ),
        us("wire.encode_us", l.mean_us("wire.encode")),
        us("wire.decode_us", l.mean_us("wire.decode")),
        metric(
            "wire.bytes_per_probe",
            ratio(l.wire_bytes as f64, l.remote_probes as f64),
            "B",
        ),
        us("remote.probe_rtt_us", l.mean_us("remote.probe")),
        metric("remote.retries", st("retries"), "count"),
        metric("remote.failovers", st("failovers"), "count"),
        metric(
            "wal.records_per_fsync",
            ratio(st("wal_appended"), st("wal_fsync_batches")),
            "ratio",
        ),
        us("wal.append_durable_us", l.mean_us("wal.append_durable")),
        metric(
            "trace.overhead_ratio",
            ratio(throughput(traced), throughput(base)),
            "ratio",
        ),
        metric("trace.requests", l.requests as f64, "count"),
    ];
    if l.identity_errors > 0 {
        out.correct = false;
        out.report.push(format!(
            "attribution identity broken on {} requests",
            l.identity_errors
        ));
    }
    out.counters = BTreeMap::from([
        ("engine.row_checks", e.exact_row_checks as u64),
        ("engine.candidates", e.index_candidates as u64),
        ("shard.pruned", l.pruned),
        ("wire.bytes", l.wire_bytes),
        ("wal.records", st("wal_appended") as u64),
    ]);
    out.report.push(format!(
        "{}: traced {} requests; self time per request (us), summing to serve.rtt_us:",
        cfg.workload.name(),
        l.requests
    ));
    for (name, v) in l.self_table() {
        out.report.push(format!("  {name:<20} {v:>10.2}"));
    }
    out.report.push(format!(
        "untraced phase {:.0} rps, traced phase {:.0} rps",
        throughput(base),
        throughput(traced)
    ));
}

/// cluster-mixed's end-of-run checks: the live size is level, and a
/// fixed query set answers as an oracle that applied every client's
/// acknowledged writes. Returns the number of failed checks.
fn check_final_state(
    oracle: &mut Oracle,
    scene: &Scene,
    records: &[ClientRec],
    own: &[Vec<Rect>],
    admin: &mut Conn,
    out: &mut Outcome,
) -> Result<u64, String> {
    let mut failed = 0;
    let towns = oracle
        .db()
        .collection_id("towns")
        .ok_or("oracle has no towns")?;
    let map_len = oracle.db().collection_len(towns);
    let preload_live = map_len + own.iter().map(Vec::len).sum::<usize>();
    let stat = stat_fields(admin.call("STAT towns")?);
    let (len, live) = (
        stat.get("len").copied().unwrap_or(0) as usize,
        stat.get("live").copied().unwrap_or(0) as usize,
    );
    if live != preload_live {
        out.report.push(format!(
            "level check: live={live}, preload live={preload_live}"
        ));
        failed += 1;
    }
    // Every slot past the map was inserted by exactly one client, which
    // knows its final box and whether it is still live.
    let mut objects: BTreeMap<usize, (Rect, bool)> = BTreeMap::new();
    for rec in records {
        objects.extend(rec.objects.iter().map(|(k, v)| (*k, *v)));
    }
    let db = oracle.db_mut();
    for slot in map_len..len {
        let Some((r, live)) = objects.get(&slot).copied() else {
            out.report.push(format!("slot {slot} has no known owner"));
            return Ok(failed + 1);
        };
        let obj = db.insert(
            towns,
            Region::from_box(AaBox::new([r[0], r[1]], [r[2], r[3]])),
        );
        if obj.index != slot {
            return Err("oracle slots diverged from the server's".into());
        }
        if !live {
            db.remove(obj);
        }
    }
    let mut finals: Vec<String> = scene.hot_queries.clone();
    finals.extend(scene.hot_windows.iter().map(Scene::district));
    for line in &finals {
        let resp = admin.call(line)?.to_string();
        if !oracle.check(line, &resp) {
            out.report
                .push(format!("final check failed: {line} -> {resp}"));
            failed += 1;
        }
    }
    out.attempted += finals.len() as u64;
    Ok(failed)
}
