//! Seeded request generation: the three workloads, the data each loads
//! and the per-client request streams.
//!
//! Everything here is a pure function of the seed. The server receives
//! only the rendered command lines; writes name the client's own
//! objects by position (`#<k>`) in their canonical form, and the client
//! substitutes the slot the server assigned when it sends them.

use std::collections::HashSet;

use scq_bbox::{Bbox, CornerQuery};
use scq_core::ConstraintSystem;
use scq_engine::workload::{map_workload, MapParams, MapWorkload};
use scq_engine::{CollectionId, IndexKind, Query, SpatialDatabase, VarBinding};
use scq_region::{AaBox, Region};

/// Side of the square universe every deployment spans.
pub const UNIVERSE: f64 = 1000.0;
/// Closed-loop client connections per run.
pub const CLIENTS: usize = 2;
/// Objects each cluster-mixed client owns (inserted at set-up, kept
/// level during the run).
pub const OWN_OBJECTS: usize = 16;
/// Ids or tuples a response lists inline (the server's cap).
pub const MAX_LISTED: usize = 16;
/// The paper's smuggler system.
pub const SMUGGLER: &str = "A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C";
/// The district join of cluster-mixed.
pub const DISTRICT: &str = "T <= W; R & T != 0";

/// Entries in cluster-mixed's shared hot set of QUERYs (drawn skewed).
const HOT_QUERIES: usize = 24;
/// Entries in cluster-mixed's shared set of district windows (drawn
/// uniformly).
const HOT_WINDOWS: usize = 12;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SOLVEs of the smuggler system over a small map, in-process shards.
    JoinSolve,
    /// Never-repeating QUERY boxes over a large map, in-process shards.
    RangeQuery,
    /// Reads and writes against a 2-shard WAL cluster on loopback.
    ClusterMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::JoinSolve,
        Workload::RangeQuery,
        Workload::ClusterMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinSolve => "join-solve",
            Workload::RangeQuery => "range-query",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Roads in the `LOAD map` this workload serves.
    pub fn roads(self) -> usize {
        match self {
            Workload::JoinSolve => 120,
            Workload::RangeQuery => 4000,
            Workload::ClusterMixed => 240,
        }
    }

    /// Whether the shards are separate processes behind a router.
    pub fn is_cluster(self) -> bool {
        self == Workload::ClusterMixed
    }

    /// Shards of the deployment.
    pub fn shards(self) -> usize {
        if self.is_cluster() {
            2
        } else {
            4
        }
    }

    /// A per-workload salt, so one `--seed` gives unrelated streams on
    /// different workloads.
    fn salt(self) -> u64 {
        match self {
            Workload::JoinSolve => 0x6a6f_696e,
            Workload::RangeQuery => 0x7261_6e67,
            Workload::ClusterMixed => 0x636c_7573,
        }
    }
}

/// The map parameters `LOAD map <seed> <roads>` uses on the server; the
/// oracle and the generators rebuild the same map with them.
pub fn map_params(roads: usize) -> MapParams {
    MapParams {
        n_states: 8,
        n_towns: roads / 4,
        n_roads: roads,
        useful_road_fraction: 0.08,
    }
}

/// The unsharded map `LOAD map <seed> <roads>` streams into the server.
pub fn build_map(seed: u64, roads: usize) -> (SpatialDatabase<2>, MapWorkload) {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [UNIVERSE, UNIVERSE]));
    let w = map_workload(&mut db, seed, &map_params(roads));
    (db, w)
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// In `0..n`, skewed towards 0: index 0 is drawn about `3·n^(2/3)`
    /// times as often as the last one.
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u * u * n as f64) as usize).min(n - 1)
    }
}

/// A coordinate rounded to three decimals. The rounded value prints
/// exactly (shortest round-trip form) and parses back to the same bits,
/// so the server, the oracle and the client all see one number.
fn coord(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// An axis-aligned box `[x0, y0, x1, y1]`.
pub type Rect = [f64; 4];

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    [coord(x0), coord(y0), coord(x1), coord(y1)]
}

fn spaced(r: &Rect) -> String {
    format!("{} {} {} {}", r[0], r[1], r[2], r[3])
}

fn coloned(r: &Rect) -> String {
    format!("{}:{}:{}:{}", r[0], r[1], r[2], r[3])
}

/// The request kinds whose latencies the benchmark reports apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `QUERY`.
    Query,
    /// `SOLVE`.
    Solve,
    /// `INSERT` / `UPDATE` / `REMOVE`.
    Write,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A `QUERY` line.
    Query(String),
    /// A `SOLVE` line.
    Solve(String),
    /// Move the client's own object at position `own` to `to`.
    Update {
        /// Position in the client's ring of own objects.
        own: usize,
        /// The new box.
        to: Rect,
    },
    /// Insert a new own object (its `REMOVE` partner follows).
    Insert(Rect),
    /// Remove the client's oldest own object.
    Remove,
}

impl Op {
    /// The request kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query(_) => Kind::Query,
            Op::Solve(_) => Kind::Solve,
            _ => Kind::Write,
        }
    }

    /// The generator's byte form of the request: the command line, with
    /// own objects named by ring position until the client knows their
    /// slots.
    pub fn canonical(&self) -> String {
        match self {
            Op::Query(l) | Op::Solve(l) => l.clone(),
            Op::Update { own, to } => format!("UPDATE towns #{own} {}", spaced(to)),
            Op::Insert(r) => format!("INSERT towns {}", spaced(r)),
            Op::Remove => "REMOVE towns #oldest".into(),
        }
    }

    /// The command line, resolving own objects through `slot_of` (ring
    /// position → server slot; position `0` is the oldest).
    pub fn line(&self, slot_of: impl Fn(usize) -> usize) -> String {
        match self {
            Op::Update { own, to } => format!("UPDATE towns {} {}", slot_of(*own), spaced(to)),
            Op::Remove => format!("REMOVE towns {}", slot_of(0)),
            _ => self.canonical(),
        }
    }
}

/// What the generators need to know about the loaded map.
#[derive(Clone, Debug)]
pub struct Scene {
    workload: Workload,
    seed: u64,
    /// The destination area's centre height: every useful road's
    /// vertical leg reaches it.
    target_y: f64,
    /// The state band holding the destination area.
    band: (f64, f64),
    /// cluster-mixed's shared hot QUERYs.
    pub hot_queries: Vec<String>,
    /// cluster-mixed's shared hot district windows.
    pub hot_windows: Vec<Rect>,
}

impl Scene {
    /// The scene of `workload` over the map built with `seed`.
    pub fn new(workload: Workload, seed: u64, map: &MapWorkload) -> Scene {
        let area = map.area.bbox();
        let (lo, hi) = (area.lo().expect("area"), area.hi().expect("area"));
        let target_y = 0.5 * (lo[1] + hi[1]);
        // 8 states split [100, 900] into bands 100 high (map_params).
        let band_lo = 100.0 + ((lo[1] - 100.0) / 100.0).floor() * 100.0;
        let mut rng = Rng::new(seed ^ workload.salt() ^ 0x0068_6f74);
        let (mut hot_queries, mut hot_windows) = (Vec::new(), Vec::new());
        if workload == Workload::ClusterMixed {
            // Equal-sized boxes and windows spread evenly along the towns
            // strip, so the hot sets cost about the same on every seed;
            // only their order (which one is hottest) is seeded.
            for i in 0..HOT_QUERIES {
                let kind = ["rtree", "grid"][i % 2];
                let mode = ["overlaps", "within", "contains"][i % 3];
                let y0 = 100.0 + 700.0 * (i as f64 + rng.unit()) / HOT_QUERIES as f64;
                let r = if mode == "contains" {
                    // A probe small enough to fit inside a town.
                    rect(104.0, y0, 110.0, y0 + 4.0)
                } else {
                    rect(95.0, y0, 130.0, y0 + 100.0)
                };
                hot_queries.push(format!("QUERY towns {kind} {mode} {}", spaced(&r)));
            }
            for i in 0..HOT_WINDOWS {
                let y0 = 100.0 + 680.0 * (i as f64 + rng.unit()) / HOT_WINDOWS as f64;
                hot_windows.push(rect(95.0, y0, 130.0, y0 + 120.0));
            }
            shuffle(&mut hot_queries, &mut rng);
            shuffle(&mut hot_windows, &mut rng);
        }
        Scene {
            workload,
            seed,
            target_y,
            band: (band_lo, band_lo + 100.0),
            hot_queries,
            hot_windows,
        }
    }

    /// Client `client`'s request stream.
    pub fn stream(&self, client: usize) -> Stream<'_> {
        Stream {
            scene: self,
            client,
            rng: Rng::new(self.seed ^ self.workload.salt() ^ ((client as u64 + 1) << 40)),
            seen: HashSet::new(),
            remove_next: false,
        }
    }

    /// The district SOLVE over window `w`.
    pub fn district(w: &Rect) -> String {
        format!(
            "SOLVE rtree all T=coll:towns,R=coll:roads,W=box:{} {DISTRICT}",
            coloned(w)
        )
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A town-sized box on the western border strip, where the towns,
/// cluster-mixed's hot queries and its district windows all sit.
fn town_box(rng: &mut Rng) -> Rect {
    let x0 = rng.range(100.0, 104.0);
    let y0 = rng.range(110.0, 880.0);
    rect(
        x0,
        y0,
        x0 + rng.range(14.0, 18.0),
        y0 + rng.range(10.0, 14.0),
    )
}

/// One client's endless, seeded request stream.
pub struct Stream<'a> {
    scene: &'a Scene,
    client: usize,
    rng: Rng,
    /// range-query boxes already sent (the stream never repeats one).
    seen: HashSet<String>,
    /// The previous op was an `INSERT`; its `REMOVE` partner is next.
    remove_next: bool,
}

impl Stream<'_> {
    /// The boxes of the client's own objects, inserted at set-up
    /// (cluster-mixed only).
    pub fn preload(&mut self) -> Vec<Rect> {
        (0..OWN_OBJECTS).map(|_| town_box(&mut self.rng)).collect()
    }

    /// Whether the last op was an `INSERT` whose `REMOVE` partner is
    /// still to come (a run never stops between the two, so the live
    /// size ends level).
    pub fn mid_pair(&self) -> bool {
        self.remove_next
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        match self.scene.workload {
            Workload::JoinSolve => Op::Solve(self.smuggler()),
            Workload::RangeQuery => Op::Query(self.fresh_query()),
            Workload::ClusterMixed => self.mixed(),
        }
    }

    /// A smuggler SOLVE: the country window `C` jittered outwards, the
    /// area window `A` jittered around the destination area but always
    /// holding the point every useful road reaches, so every answer has
    /// solutions. `A`'s size barely varies, so neither does the work.
    fn smuggler(&mut self) -> String {
        let r = &mut self.rng;
        let c = rect(
            r.range(60.0, 100.0),
            r.range(60.0, 100.0),
            r.range(900.0, 940.0),
            r.range(900.0, 940.0),
        );
        let (lo, hi) = self.scene.band;
        let ty = self.scene.target_y;
        let x0 = r.range(615.0, 625.0);
        let a = rect(
            x0,
            (ty - r.range(8.0, 12.0)).max(lo),
            x0 + r.range(50.0, 56.0),
            (ty + r.range(8.0, 12.0)).min(hi),
        );
        format!(
            "SOLVE rtree all T=coll:towns,R=coll:roads,B=coll:states,C=box:{},A=box:{} {SMUGGLER}",
            coloned(&c),
            coloned(&a)
        )
    }

    /// A QUERY box this stream has never sent: three sizes, both indexes,
    /// all three corner-query modes. The thousandths digit of `x0` is the
    /// client's number, so two clients never send the same box either.
    fn fresh_query(&mut self) -> String {
        loop {
            let r = &mut self.rng;
            let coll = ["roads", "roads", "towns"][r.below(3)];
            let kind = ["rtree", "grid"][r.below(2)];
            let mode = ["overlaps", "within", "contains"][r.below(3)];
            let side = match r.below(3) {
                0 => r.range(2.0, 10.0),
                1 => r.range(20.0, 60.0),
                _ => r.range(100.0, 250.0),
            };
            let aspect = r.range(0.5, 2.0);
            let (w, h) = (side * aspect.sqrt(), side / aspect.sqrt());
            let x0 =
                ((r.range(0.0, UNIVERSE - w) * 100.0).floor() * 10.0 + self.client as f64) / 1000.0;
            let y0 = r.range(0.0, UNIVERSE - h);
            let b = rect(x0, y0, x0 + w, y0 + h);
            let line = format!("QUERY {coll} {kind} {mode} {}", spaced(&b));
            if self.seen.insert(line.clone()) {
                return line;
            }
        }
    }

    /// cluster-mixed: ~81% reads (34% hot QUERYs, 47% district SOLVEs)
    /// and ~19% writes (UPDATEs, INSERT+REMOVE pairs) on the client's
    /// own towns. SOLVEs outnumber QUERYs so the median request is a
    /// SOLVE in the body of its distribution, not a QUERY in its tail.
    fn mixed(&mut self) -> Op {
        if std::mem::take(&mut self.remove_next) {
            return Op::Remove;
        }
        let s = self.scene;
        let u = self.rng.unit();
        if u < 0.36 {
            Op::Query(s.hot_queries[self.rng.skewed(s.hot_queries.len())].clone())
        } else if u < 0.86 {
            Op::Solve(Scene::district(
                &s.hot_windows[self.rng.below(s.hot_windows.len())],
            ))
        } else if u < 0.94 {
            Op::Update {
                own: self.rng.below(OWN_OBJECTS),
                to: town_box(&mut self.rng),
            }
        } else {
            self.remove_next = true;
            Op::Insert(town_box(&mut self.rng))
        }
    }
}

// ── the generated lines, parsed back (oracle and traced replay) ────────

/// Parses the four coordinates of a box.
pub fn parse_rect(parts: &[&str]) -> Option<Rect> {
    let [a, b, c, d] = parts else { return None };
    Some([
        a.parse().ok()?,
        b.parse().ok()?,
        c.parse().ok()?,
        d.parse().ok()?,
    ])
}

fn index_kind(s: &str) -> Result<IndexKind, String> {
    match s {
        "rtree" => Ok(IndexKind::RTree),
        "grid" => Ok(IndexKind::GridFile),
        "scan" => Ok(IndexKind::Scan),
        other => Err(format!("bad index {other:?}")),
    }
}

/// A `QUERY <coll> <index> <mode> <x0> <y0> <x1> <y1>` line's
/// collection name, index and corner query.
pub fn query_parts(line: &str) -> Result<(&str, IndexKind, CornerQuery<2>), String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let ["QUERY", name, kind, mode, ref coords @ ..] = parts[..] else {
        return Err(format!("bad QUERY {line:?}"));
    };
    let r = parse_rect(coords).ok_or("bad QUERY box")?;
    let probe = Bbox::new([r[0], r[1]], [r[2], r[3]]);
    let q = match mode {
        "overlaps" => CornerQuery::unconstrained().and_overlaps(&probe),
        "within" => CornerQuery::unconstrained().and_contained_in(&probe),
        "contains" => CornerQuery::unconstrained().and_contains(&probe),
        other => return Err(format!("bad mode {other:?}")),
    };
    Ok((name, index_kind(kind)?, q))
}

/// A `SOLVE <index> all <bindings> <system…>` line's index, bindings
/// text and system text.
pub fn solve_parts(line: &str) -> Result<(IndexKind, &str, String), String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let ["SOLVE", kind, "all", bindings, ref system @ ..] = parts[..] else {
        return Err(format!("bad SOLVE {line:?}"));
    };
    Ok((index_kind(kind)?, bindings, system.join(" ")))
}

/// Binds `VAR=coll:<name>` and `VAR=box:<x0>:<y0>:<x1>:<y1>` entries the
/// way the server's SOLVE handler does; `coll` resolves names.
pub fn bind(
    sys: ConstraintSystem,
    bindings: &str,
    coll: impl Fn(&str) -> Option<CollectionId>,
) -> Result<Query<2>, String> {
    let mut query = Query::new(sys);
    for b in bindings.split(',') {
        let (var, spec) = b.split_once('=').ok_or("bad binding")?;
        let var = query.system.table.get(var).ok_or("unknown variable")?;
        let binding = if let Some(name) = spec.strip_prefix("coll:") {
            VarBinding::Collection(coll(name).ok_or_else(|| format!("no collection {name:?}"))?)
        } else {
            let cs: Vec<&str> = spec
                .strip_prefix("box:")
                .ok_or("bad binding spec")?
                .split(':')
                .collect();
            let r = parse_rect(&cs).ok_or("bad box")?;
            VarBinding::Known(Region::from_box(AaBox::new([r[0], r[1]], [r[2], r[3]])))
        };
        query.bindings.insert(var, binding);
    }
    Ok(query)
}
