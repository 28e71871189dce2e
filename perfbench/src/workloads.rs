//! The three workloads: their inputs (all derived from the seed), the
//! request each client sends next, and the calls each request makes.
//!
//! * `tpch` — PDBench-style uncertain TPC-H: [`TPCH_INSTANCES`]
//!   independent scale-1.0 instances (6k lineitems each, 2% of cells
//!   uncertain with at most 8 alternatives), AU-encoded, in one `Engine`;
//!   one client cycles Q1/Q3/Q5/Q7/Q10 over every instance through
//!   `Engine::execute` on warm prepared plans.
//! * `spine` — the library path: one caller runs `eval_au` directly on
//!   [`SPINE_INSTANCES`] pairs of 10k-row, 3-int-column micro tables (3%
//!   uncertain rows, ranges 2% of the domain), cycling the fused
//!   select→join→select→project spine, the same spine plus GROUP BY sum,
//!   and a set difference.
//! * `serve_mix` — two clients send SQL to one `Engine` over 2k-row micro
//!   tables: 44% repeated selects (prepared hits), 12% point selects with
//!   a fresh literal (misses), 8% each GROUP BY, EXCEPT and join, and 20%
//!   arithmetic predicates of 40–80 terms; client 0 publishes a changed
//!   epoch every [`PUBLISH_EVERY`] of its requests.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use audb_core::verify::check_structure;
use audb_core::{col, lit, AuAnnot, Expr, Program, RangeValue, Value};
use audb_incomplete::{XDb, XRelation, XTuple};
use audb_query::au::AuConfig;
use audb_query::{
    eval_au, eval_au_traced, eval_det, parse_sql, table, with_program_cache, AggFunc, AggSpec,
    ProgramCache, Query,
};
use audb_serve::{Class, Engine, EngineConfig, Response, Snapshot};
use audb_storage::{AuDatabase, AuRelation, Database, RangeTuple, Schema, Tuple};
use audb_workloads::{gen_tpch, tpch_queries, TpchConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{digest, reference, Quality};
use crate::spans::Tracer;

/// Client threads and engine worker threads never exceed this.
pub const WORKERS: usize = 2;
/// `serve_mix`: client 0 publishes a new epoch every this many of its
/// own requests.
pub const PUBLISH_EVERY: usize = 250;
/// `serve_mix`: rows of each table rewritten by one publish.
const UPDATE_ROWS: usize = 20;
/// `serve_mix` table size and value domain.
const MIX_ROWS: usize = 2_000;
/// `spine` table size and value domain.
const SPINE_ROWS: usize = 10_000;
/// `tpch`: independent scale-1.0 instances per run. Query cost at this
/// scale hinges on a handful of uncertain keys in the small tables, so
/// one instance makes the figures swing with the seed; the client cycles
/// every query over every instance.
const TPCH_INSTANCES: usize = 6;
/// `spine`: independent table pairs per run, for the same reason.
const SPINE_INSTANCES: usize = 3;
/// `serve_mix`: term counts of the long arithmetic predicates in rotation.
const ARITH_TERMS: [usize; 5] = [40, 50, 60, 70, 80];
/// `serve_mix`: point selects in the fixed bound-quality pass.
const FIXED_POINTS: usize = 4;
/// `serve_mix`: table pairs, drawn from the seed and never served, on
/// which the fixed pass also runs for the bound-quality metrics. The
/// served pair has 60 uncertain rows a table, too few for a steady
/// figure: on it alone, `range_width` spread 0.18 (ten-seed
/// interquartile range over median) from seed to seed.
const QUALITY_PAIRS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tpch,
    Spine,
    ServeMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Tpch, Kind::Spine, Kind::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpch => "tpch",
            Kind::Spine => "spine",
            Kind::ServeMix => "serve_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn clients(self) -> usize {
        match self {
            Kind::ServeMix => WORKERS,
            Kind::Tpch | Kind::Spine => 1,
        }
    }
}

/// What the serving layer said about one request.
#[derive(Debug, Clone, Copy)]
pub struct ServeMeta {
    pub queued: Duration,
    pub prepared_hit: bool,
    pub attempts: usize,
}

/// One answered request.
#[derive(Debug)]
pub struct Outcome {
    pub relation: AuRelation,
    pub epoch: u64,
    pub serve: Option<ServeMeta>,
}

impl From<Response> for Outcome {
    fn from(r: Response) -> Self {
        Outcome {
            serve: Some(ServeMeta {
                queued: r.queued,
                prepared_hit: r.prepared_hit,
                attempts: r.attempts,
            }),
            relation: r.relation,
            epoch: r.epoch,
        }
    }
}

/// A database the benchmark reads: its own (`spine`), an engine
/// snapshot, or a replayed epoch.
pub enum DbRef<'a> {
    Local(&'a AuDatabase),
    Snap(Arc<Snapshot>),
    Replayed(Arc<AuDatabase>),
}

impl Deref for DbRef<'_> {
    type Target = AuDatabase;
    fn deref(&self) -> &AuDatabase {
        match self {
            DbRef::Local(db) => db,
            DbRef::Snap(s) => s.db(),
            DbRef::Replayed(db) => db,
        }
    }
}

/// The `serve_mix` query texts other than point selects.
#[derive(Debug)]
struct MixTexts {
    hits: Vec<String>,
    group: String,
    except: String,
    join: String,
    arith: Vec<String>,
}

fn point_sql(x: i64) -> String {
    format!("SELECT a0, a1, a2 FROM t1 WHERE a0 = {x}")
}

/// A predicate `c1 * a_i ± c2 * a_j ± … < threshold` of `terms` terms;
/// the threshold is the expected left-hand side, so about half the rows
/// qualify.
fn arith_sql(terms: usize, rng: &mut StdRng) -> String {
    let mut text = String::new();
    let mut expected = 0i64;
    for i in 0..terms {
        let c = rng.gen_range(1..=9i64);
        let a = rng.gen_range(0..3usize);
        let negative = i > 0 && rng.gen_bool(0.5);
        if i > 0 {
            text.push_str(if negative { " - " } else { " + " });
        }
        text.push_str(&format!("{c} * a{a}"));
        expected += if negative { -c } else { c } * (MIX_ROWS as i64 / 2);
    }
    format!("SELECT a0, a1 FROM t1 WHERE {text} < {expected}")
}

impl MixTexts {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa417);
        MixTexts {
            hits: vec![
                "SELECT a0, a1 FROM t1 WHERE a1 < 600".into(),
                "SELECT a0, a2 FROM t2 WHERE a2 >= 1500".into(),
                "SELECT a0, a1, a2 FROM t1 WHERE a0 >= 100 AND a2 < 900".into(),
                "SELECT a1 FROM t2 WHERE a0 < 400".into(),
            ],
            group: "SELECT a2, sum(a1) AS s, count(*) AS n FROM t1 WHERE a0 < 1000 GROUP BY a2"
                .into(),
            except: "SELECT a0 FROM t1 EXCEPT SELECT a0 FROM t2".into(),
            join: "SELECT t1.a0, t1.a1, t2.a2 FROM t1 JOIN t2 ON t1.a0 = t2.a0 WHERE t1.a1 < 1000"
                .into(),
            arith: ARITH_TERMS.iter().map(|&n| arith_sql(n, &mut rng)).collect(),
        }
    }

    /// Every text once, in a fixed order.
    fn all(&self) -> Vec<String> {
        let mut out = self.hits.clone();
        out.extend([self.group.clone(), self.except.clone(), self.join.clone()]);
        out.extend(self.arith.iter().cloned());
        out
    }
}

/// The traced run's mirror of one engine prepared plan, kept per
/// (query, epoch) as the engine keys its own: the plan, a program cache
/// that the traced re-evaluation shares, and the programs of the
/// compile replay, which the Tier A replay checks on prepared hits.
struct Prepared {
    plan: Query,
    cache: Arc<ProgramCache>,
    programs: Vec<Program>,
}

/// Where a client's next request comes from.
pub enum KeyGen {
    /// Cycle the named queries in order.
    Cycle(usize),
    /// Draw from the `serve_mix` distribution.
    Mix { rng: StdRng, points: Vec<i64>, next_point: usize },
}

/// One workload's inputs and the handles that serve them.
pub struct Bench {
    pub kind: Kind,
    seed: u64,
    cfg: AuConfig,
    engine: Option<Engine>,
    /// The `spine` database (the engine holds the others).
    local: Option<AuDatabase>,
    /// The engine's epoch 0.
    epoch0: Option<Arc<Snapshot>>,
    /// `serve_mix` epochs 1, 2, … rebuilt from epoch 0 by replaying the
    /// seeded updates, so the benchmark holds no snapshot the engine has
    /// dropped.
    replayed: Mutex<Vec<Arc<AuDatabase>>>,
    sgw: Mutex<HashMap<u64, Arc<Database>>>,
    /// Traced run: the mirrored prepared plans of the current epoch.
    prepared: Mutex<HashMap<(String, u64), Arc<Prepared>>>,
    named: Vec<(String, Query)>,
    mix: Option<MixTexts>,
    /// Keys of the fixed pass: every distinct query once, on epoch 0.
    pub fixed: Vec<String>,
    /// Workload sizes, for the stamp.
    pub sizes: String,
}

/// Tables `t1`, `t2` shaped like `audb_workloads::micro_join_db`: 3 int
/// columns uniform in `[0, rows)`, uncertain rows ranged ±1% of the domain
/// around their selected guess. Unlike it, exactly 3% of the rows of
/// each table are uncertain rather than a Bernoulli draw per row, so the
/// share of uncertain rows, and with it the bound-quality figures, does
/// not move with the seed.
fn micro_tables(rows: usize, seed: u64) -> AuDatabase {
    let mut db = AuDatabase::new();
    let domain = rows as i64;
    let half = ((domain as f64 * 0.02) / 2.0).ceil() as i64;
    for (i, name) in ["t1", "t2"].into_iter().enumerate() {
        // high bits, so that the tables of instances `seed` and
        // `seed + 1` do not share a stream
        let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 48));
        let mut uncertain = vec![false; rows];
        uncertain[..(rows as f64 * 0.03).round() as usize].fill(true);
        for j in (1..rows).rev() {
            uncertain.swap(j, rng.gen_range(0..=j));
        }
        let data = uncertain
            .into_iter()
            .map(|u| {
                let values = (0..3)
                    .map(|_| {
                        let v = rng.gen_range(0..domain);
                        if u {
                            RangeValue::range((v - half).max(0), v, (v + half).min(domain - 1))
                        } else {
                            RangeValue::certain(v)
                        }
                    })
                    .collect();
                (RangeTuple::new(values), AuAnnot::certain_one())
            })
            .collect();
        db.insert(name, AuRelation::from_rows(Schema::named(&["a0", "a1", "a2"]), data));
    }
    db
}

/// The `spine` queries over `t1(a0,a1,a2) ⋈ t2(a0,a1,a2)`.
fn spine_queries() -> Vec<(&'static str, Query)> {
    let spine = table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(3)))
        .select(col(1).add(col(4)).lt(lit(5000i64)))
        .project(vec![(col(0), "k"), (col(1).add(col(4)), "v"), (col(2), "w")]);
    let grouped =
        spine.clone().aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "total")]);
    let difference = table("t1")
        .project(vec![(col(0), "k")])
        .difference(table("t2").project(vec![(col(0), "k")]));
    vec![("spine", spine), ("spine_group", grouped), ("difference", difference)]
}

/// The evaluation configuration of every workload: the defaults, with
/// [`WORKERS`] worker threads.
pub fn eval_config() -> AuConfig {
    AuConfig { workers: Some(WORKERS), ..AuConfig::default() }
}

fn instance_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(k as u64)
}

/// Add instance `k`: its tables renamed `<table>_<k>` and its queries,
/// rewritten to read them, named `<query>#<k>`.
fn add_instance(
    db: &mut AuDatabase,
    named: &mut Vec<(String, Query)>,
    k: usize,
    inst: AuDatabase,
    queries: Vec<(&'static str, Query)>,
) {
    for (name, rel) in inst.iter() {
        db.insert(format!("{name}_{k}"), rel.clone());
    }
    named.extend(queries.into_iter().map(|(n, q)| (format!("{n}#{k}"), rename_tables(&q, k))));
}

fn rename_tables(q: &Query, k: usize) -> Query {
    let r = |q: &Query| Box::new(rename_tables(q, k));
    match q {
        Query::Table(name) => Query::Table(format!("{name}_{k}")),
        Query::Select { input, predicate } => {
            Query::Select { input: r(input), predicate: predicate.clone() }
        }
        Query::Project { input, exprs } => Query::Project { input: r(input), exprs: exprs.clone() },
        Query::Join { left, right, predicate } => {
            Query::Join { left: r(left), right: r(right), predicate: predicate.clone() }
        }
        Query::Union { left, right } => Query::Union { left: r(left), right: r(right) },
        Query::Difference { left, right } => Query::Difference { left: r(left), right: r(right) },
        Query::Distinct { input } => Query::Distinct { input: r(input) },
        Query::Aggregate { input, group_by, aggs } => {
            Query::Aggregate { input: r(input), group_by: group_by.clone(), aggs: aggs.clone() }
        }
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig { eval: eval_config(), worker_threads: WORKERS, ..EngineConfig::default() }
}

impl Bench {
    /// Generate the inputs from `seed` and build what serves them.
    pub fn build(kind: Kind, seed: u64) -> Bench {
        let cfg = eval_config();
        let (db, named, mix, sizes) = match kind {
            Kind::Tpch => {
                let tc = TpchConfig::new(1.0, seed);
                let mut db = AuDatabase::new();
                let mut named = Vec::new();
                for k in 0..TPCH_INSTANCES {
                    let base = gen_tpch(TpchConfig::new(1.0, instance_seed(seed, k)));
                    let xdb = inject_exact(&base, 0.02, 8, instance_seed(seed, k) ^ 0x7c9);
                    add_instance(&mut db, &mut named, k, xdb.to_au(), tpch_queries());
                }
                let sizes = format!(
                    "instances={TPCH_INSTANCES} scale=1.0 lineitem={} orders={} customer={} \
                     supplier={} cell_uncertainty=0.02 max_alternatives=8",
                    tc.lineitems(),
                    tc.orders(),
                    tc.customers(),
                    tc.suppliers()
                );
                (db, named, None, sizes)
            }
            Kind::Spine => {
                let mut db = AuDatabase::new();
                let mut named = Vec::new();
                for k in 0..SPINE_INSTANCES {
                    let inst = micro_tables(SPINE_ROWS, instance_seed(seed, k));
                    add_instance(&mut db, &mut named, k, inst, spine_queries());
                }
                let sizes = format!(
                    "instances={SPINE_INSTANCES} tables=t1,t2 rows={SPINE_ROWS} int_columns=3 \
                     uncertain_rows=0.03 range_frac=0.02"
                );
                (db, named, None, sizes)
            }
            Kind::ServeMix => {
                let sizes = format!(
                    "tables=t1,t2 rows={MIX_ROWS} int_columns=3 uncertain_rows=0.03 range_frac=0.02 \
                     clients={WORKERS} publish_every={PUBLISH_EVERY} update_rows={UPDATE_ROWS} \
                     quality_pairs={QUALITY_PAIRS}"
                );
                let texts = MixTexts::new(seed);
                (micro_tables(MIX_ROWS, seed), Vec::new(), Some(texts), sizes)
            }
        };
        let mut fixed: Vec<String> = named.iter().map(|(n, _)| n.clone()).collect();
        if let Some(texts) = &mix {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf1);
            fixed = texts.all();
            fixed.extend((0..FIXED_POINTS).map(|_| point_sql(rng.gen_range(0..MIX_ROWS as i64))));
        }
        let (engine, local, epoch0) = if kind == Kind::Spine {
            db.warm_columns();
            (None, Some(db), None)
        } else {
            let engine = Engine::new(db, engine_config());
            let snap = engine.snapshot();
            (Some(engine), None, Some(snap))
        };
        Bench {
            kind,
            seed,
            cfg,
            engine,
            local,
            epoch0,
            replayed: Mutex::new(Vec::new()),
            sgw: Mutex::new(HashMap::new()),
            prepared: Mutex::new(HashMap::new()),
            named,
            mix,
            fixed,
            sizes,
        }
    }

    fn named(&self, key: &str) -> Result<&Query, String> {
        self.named
            .iter()
            .find(|(n, _)| n == key)
            .map(|(_, q)| q)
            .ok_or_else(|| format!("unknown query {key}"))
    }

    /// `serve_mix`: the fixed pass on [`QUALITY_PAIRS`] more table pairs,
    /// each text evaluated by `eval_au` in the engine's configuration,
    /// checked against the oracle reference and added to `quality`.
    /// Other workloads: nothing.
    pub fn quality_pass(&self, quality: &mut Quality) -> Result<(), String> {
        if self.kind != Kind::ServeMix {
            return Ok(());
        }
        for k in 1..=QUALITY_PAIRS {
            let db = micro_tables(MIX_ROWS, instance_seed(self.seed, k));
            let sgw = db.sg_world();
            for key in &self.fixed {
                let q = self.plan(key, &db)?;
                let got = eval_au(&db, &q, &self.cfg).map_err(|e| e.to_string())?;
                if digest(&got) != digest(&reference(&db, &sgw, &q)?) {
                    return Err(format!("{key:.60} on quality pair {k} differs from oracle"));
                }
                quality.add(&got, self.domain_halfwidth());
            }
        }
        Ok(())
    }

    /// Half the width of the workload's value domain, for the
    /// `range_width` metric: the micro tables' `[0, rows)`, and for
    /// `tpch` half the lineitem price range (about 1e5).
    pub fn domain_halfwidth(&self) -> f64 {
        match self.kind {
            Kind::Tpch => 50_000.0,
            Kind::Spine => SPINE_ROWS as f64 / 2.0,
            Kind::ServeMix => MIX_ROWS as f64 / 2.0,
        }
    }

    /// The plan behind `key` on `db`.
    pub fn plan(&self, key: &str, db: &AuDatabase) -> Result<Query, String> {
        match self.kind {
            Kind::ServeMix => parse_sql(key, db).map_err(|e| format!("parse: {e}")),
            Kind::Tpch | Kind::Spine => self.named(key).cloned(),
        }
    }

    /// The database a new request would see now, and its epoch.
    pub fn current(&self) -> (u64, DbRef<'_>) {
        match (&self.engine, &self.local) {
            (Some(e), _) => {
                let snap = e.snapshot();
                (snap.epoch(), DbRef::Snap(snap))
            }
            (None, Some(db)) => (0, DbRef::Local(db)),
            (None, None) => unreachable!("a bench holds an engine or a database"),
        }
    }

    /// The database of `epoch` (call once no client publishes).
    pub fn at(&self, epoch: u64) -> DbRef<'_> {
        match (&self.local, &self.epoch0) {
            (Some(db), _) => DbRef::Local(db),
            (None, Some(snap)) if epoch == 0 => DbRef::Snap(Arc::clone(snap)),
            (None, Some(snap)) => {
                let mut replayed = self.replayed.lock().unwrap_or_else(PoisonError::into_inner);
                while (replayed.len() as u64) < epoch {
                    let prev = replayed.last().map_or(snap.db(), |db| db);
                    let next = self.next_epoch(prev, replayed.len() as u64 + 1);
                    replayed.push(Arc::new(next));
                }
                DbRef::Replayed(Arc::clone(&replayed[epoch as usize - 1]))
            }
            (None, None) => unreachable!("a bench holds an engine or a database"),
        }
    }

    /// The selected-guess world of `db` (of epoch `epoch`), built once.
    pub fn sgw(&self, epoch: u64, db: &AuDatabase) -> Arc<Database> {
        let mut cache = self.sgw.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cache.entry(epoch).or_insert_with(|| Arc::new(db.sg_world())))
    }

    /// The request as a user makes it.
    pub fn run(&self, key: &str) -> Result<Outcome, String> {
        let serve = |r: Result<Response, _>| r.map(Outcome::from).map_err(|e| format!("{e}"));
        match (self.kind, &self.engine, &self.local) {
            (Kind::Spine, _, Some(db)) => {
                let relation =
                    eval_au(db, self.named(key)?, &self.cfg).map_err(|e| e.to_string())?;
                Ok(Outcome { relation, epoch: 0, serve: None })
            }
            (Kind::Tpch, Some(e), _) => serve(e.execute(self.named(key)?, Class::Interactive)),
            (Kind::ServeMix, Some(e), _) => serve(e.execute_sql(key, Class::Interactive)),
            _ => unreachable!("kind and handles are built together"),
        }
    }

    /// The request with a span around every layer call. `spine`'s real
    /// call is itself `eval_au_traced`, which prepares nothing, so every
    /// call compiles and vets afresh. For the engine workloads the real
    /// call is timed whole (`serve.execute`) and then mirrored: the query
    /// is re-evaluated with `eval_au_traced` on the same snapshot under a
    /// program cache kept per (query, epoch) as the engine keys its own,
    /// so the attached `verify` spans are those of the engine's compile
    /// sites in the state the engine reported (fresh compile with Tier
    /// A+B after a prepared miss, cached programs after a hit). The
    /// engine's trace does not time parse, compile or the Tier A re-check
    /// of a cached program; the benchmark replays those calls around it,
    /// each only when the engine made it. Last comes the deterministic
    /// engine on the selected-guess world.
    pub fn run_traced(&self, tr: &mut Tracer, req: u64, key: &str) -> Result<Outcome, String> {
        let root = tr.open("bench.request", None, req);
        tr.attr(root, "query", key.chars().take(80).collect::<String>());
        let (epoch, pinned) = self.current();
        let (out, plan) = match self.kind {
            Kind::Spine => {
                let plan = self.named(key)?.clone();
                replay_compile(tr, root, req, &plan);
                let s = tr.open("au.eval", Some(root), req);
                let traced = eval_au_traced(&pinned, &plan, &self.cfg);
                tr.close(s);
                let (relation, trace) = traced.map_err(|e| e.to_string())?;
                tr.attach(s, req, &trace);
                (Outcome { relation, epoch: 0, serve: None }, plan)
            }
            Kind::Tpch | Kind::ServeMix => {
                let out = tr.time("serve.execute", root, req, || self.run(key))?;
                // after a publish between the two pins the engine's
                // verdict is about another epoch: mirror a fresh prepare
                let hit = out.epoch == epoch && out.serve.is_some_and(|m| m.prepared_hit);
                let prepared = self.mirror(tr, (root, req), key, epoch, &pinned, hit)?;
                if hit {
                    tr.time("verify.tier_a", root, req, || {
                        prepared.programs.iter().try_for_each(check_structure)
                    })
                    .map_err(|e| format!("tier A: {e}"))?;
                }
                let s = tr.open("au.eval", Some(root), req);
                let traced = with_program_cache(Arc::clone(&prepared.cache), || {
                    eval_au_traced(&pinned, &prepared.plan, &self.cfg)
                });
                tr.close(s);
                let (_, trace) = traced.map_err(|e| e.to_string())?;
                tr.attach(s, req, &trace);
                (out, prepared.plan.clone())
            }
        };
        let sgw = self.sgw(epoch, &pinned);
        tr.time("det.eval", root, req, || eval_det(&sgw, &plan)).map_err(|e| e.to_string())?;
        tr.close(root);
        Ok(out)
    }

    /// The mirrored prepared plan of (`key`, `epoch`). When the engine
    /// prepared afresh (`hit` false) so does the mirror, with parse (SQL
    /// only) and the compile replay timed under span `root` of request
    /// `req`. A hit on a plan the mirror has not seen yet (the engine
    /// prepared it on an untraced request) is mirrored outside any span,
    /// its cache warmed by one untraced evaluation.
    fn mirror(
        &self,
        tr: &mut Tracer,
        (root, req): (u64, u64),
        key: &str,
        epoch: u64,
        db: &AuDatabase,
        hit: bool,
    ) -> Result<Arc<Prepared>, String> {
        let id = (key.to_string(), epoch);
        let table = || self.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = table().get(&id).filter(|_| hit) {
            return Ok(Arc::clone(p));
        }
        let cache = Arc::new(ProgramCache::new());
        let (plan, programs) = if hit {
            let plan = self.plan(key, db)?;
            let programs = compile_sites(&plan).iter().map(Site::compile).collect();
            with_program_cache(Arc::clone(&cache), || eval_au(db, &plan, &self.cfg))
                .map_err(|e| e.to_string())?;
            (plan, programs)
        } else {
            let plan = match self.kind {
                Kind::ServeMix => tr.time("sql.parse", root, req, || self.plan(key, db))?,
                Kind::Tpch | Kind::Spine => self.plan(key, db)?,
            };
            let programs = replay_compile(tr, root, req, &plan);
            (plan, programs)
        };
        let prepared = Arc::new(Prepared { plan, cache, programs });
        let mut table = table();
        table.retain(|(_, e), _| *e >= epoch);
        table.insert(id, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Storage-layer probe of the set-up database: rebuild every
    /// relation from its rows in reverse order (normalization) and
    /// build the fresh relations' column lanes.
    pub fn probe_storage(&self, tr: &mut Tracer, req: u64) {
        let (_, db) = self.current();
        let root = tr.open("bench.setup", None, req);
        let inputs = db.iter().map(|(n, r)| (n.clone(), r.schema.clone(), rev_rows(r))).collect();
        let rels = tr.time("storage.normalize", root, req, || normalize(inputs));
        let fresh = with_relations(&AuDatabase::new(), rels);
        tr.time("storage.lane_build", root, req, || fresh.warm_columns());
        tr.close(root);
    }

    /// Σ estimated bytes of the current database.
    pub fn db_bytes(&self) -> u64 {
        self.current().1.iter().map(|(_, r)| r.estimated_bytes()).sum()
    }

    pub fn key_gen(&self, client: usize) -> KeyGen {
        match self.kind {
            Kind::Tpch | Kind::Spine => KeyGen::Cycle(0),
            Kind::ServeMix => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ (0xc11e47 + client as u64));
                // each client owns every WORKERS-th literal, so no two
                // point selects share a text until a client wraps around
                let mut points: Vec<i64> =
                    (client as i64..MIX_ROWS as i64).step_by(WORKERS).collect();
                for i in (1..points.len()).rev() {
                    points.swap(i, rng.gen_range(0..=i));
                }
                KeyGen::Mix { rng, points, next_point: 0 }
            }
        }
    }

    pub fn next_key(&self, g: &mut KeyGen) -> String {
        match g {
            KeyGen::Cycle(i) => {
                let key = self.named[*i % self.named.len()].0.clone();
                *i += 1;
                key
            }
            KeyGen::Mix { rng, points, next_point } => {
                let Some(texts) = &self.mix else { unreachable!("mix keys need mix texts") };
                match rng.gen_range(0..100u32) {
                    0..=43 => texts.hits[rng.gen_range(0..texts.hits.len())].clone(),
                    44..=55 => {
                        let x = points[*next_point % points.len()];
                        *next_point += 1;
                        point_sql(x)
                    }
                    56..=63 => texts.group.clone(),
                    64..=71 => texts.except.clone(),
                    72..=79 => texts.join.clone(),
                    _ => texts.arith[rng.gen_range(0..texts.arith.len())].clone(),
                }
            }
        }
    }

    /// The query kind of `key`, for per-kind latency lines.
    pub fn label(&self, key: &str) -> String {
        let Some(texts) = &self.mix else {
            return key.split('#').next().unwrap_or(key).to_string();
        };
        let label = if texts.hits.iter().any(|h| h == key) {
            "hit"
        } else if texts.arith.iter().any(|a| a == key) {
            "arith"
        } else if key == texts.group {
            "group"
        } else if key == texts.except {
            "except"
        } else if key == texts.join {
            "join"
        } else {
            "point"
        };
        label.to_string()
    }

    /// Which requests of a traced run carry spans: alternate whole
    /// cycles of the named queries, or alternate requests of the mix,
    /// so traced and untraced requests see the same queries.
    pub fn traced_slot(&self, i: usize) -> bool {
        match self.kind {
            Kind::ServeMix => i % 2 == 1,
            Kind::Tpch | Kind::Spine => (i / self.named.len()) % 2 == 1,
        }
    }

    /// `serve_mix`, client 0: publish a changed epoch every
    /// [`PUBLISH_EVERY`] requests.
    pub fn maybe_publish(&self, client: usize, i: usize, tr: Option<&mut Tracer>) {
        if self.kind != Kind::ServeMix || client != 0 || i == 0 || !i.is_multiple_of(PUBLISH_EVERY)
        {
            return;
        }
        let Some(engine) = &self.engine else { return };
        let prev = engine.snapshot();
        let epoch = prev.epoch() + 1;
        let updates = self.epoch_updates(prev.db(), epoch);
        let published = match tr {
            None => engine.publish(with_relations(prev.db(), normalize(updates))),
            Some(tr) => {
                let req = u64::MAX - epoch;
                let root = tr.open("bench.publish", None, req);
                let rels = tr.time("storage.normalize", root, req, || normalize(updates));
                let db = with_relations(prev.db(), rels);
                tr.time("storage.lane_build", root, req, || db.warm_columns());
                let e = tr.time("serve.publish", root, req, || engine.publish(db));
                tr.close(root);
                e
            }
        };
        debug_assert_eq!(published, epoch, "client 0 is the only publisher");
    }

    /// Epoch `epoch` from its predecessor `prev`.
    fn next_epoch(&self, prev: &AuDatabase, epoch: u64) -> AuDatabase {
        with_relations(prev, normalize(self.epoch_updates(prev, epoch)))
    }

    /// The tables epoch `epoch` changes: `t1` and `t2` with
    /// [`UPDATE_ROWS`] rows each rewritten, seeded by the epoch, as
    /// unnormalized rows.
    fn epoch_updates(&self, prev: &AuDatabase, epoch: u64) -> Vec<(String, Schema, Rows)> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (epoch << 20));
        ["t1", "t2"]
            .into_iter()
            .filter_map(|name| prev.get(name).ok().map(|rel| (name, rel)))
            .map(|(name, rel)| (name.to_string(), rel.schema.clone(), updated_rows(rel, &mut rng)))
            .collect()
    }
}

type Rows = Vec<(RangeTuple, AuAnnot)>;

/// Build (and so normalize) each relation from its rows.
fn normalize(tables: Vec<(String, Schema, Rows)>) -> Vec<(String, AuRelation)> {
    tables
        .into_iter()
        .map(|(name, schema, rows)| (name, AuRelation::from_rows(schema, rows)))
        .collect()
}

/// A copy of `prev` with `rels` put in.
fn with_relations(prev: &AuDatabase, rels: Vec<(String, AuRelation)>) -> AuDatabase {
    let mut db = prev.clone();
    for (name, rel) in rels {
        db.insert(name, rel);
    }
    db
}

/// PDBench uncertainty injection with exact counts. As in
/// `audb_workloads::inject_uncertainty`, dimension tables stay certain,
/// key columns stay certain, and an uncertain row becomes an x-tuple of
/// 2 to `max_alts` alternatives whose uncertain cells are redrawn from
/// the column's first 512 values, the original being the selected guess.
/// Unlike it, every other column of a fact table gets exactly
/// `round(cell_pct · rows)` uncertain cells rather than a Bernoulli
/// draw per cell: with 50 suppliers and 150 customers at scale 1.0 the
/// Bernoulli count of uncertain nation keys alone moves query cost
/// severalfold from seed to seed.
fn inject_exact(db: &Database, cell_pct: f64, max_alts: usize, seed: u64) -> XDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = XDb::default();
    for (name, rel) in db.iter() {
        let tuples: Vec<&Tuple> =
            rel.rows().iter().flat_map(|(t, k)| std::iter::repeat_n(t, *k as usize)).collect();
        let arity = rel.schema.arity();
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); tuples.len()];
        if !matches!(name.as_str(), "nation" | "region") {
            let n = (cell_pct * tuples.len() as f64).round() as usize;
            for c in 1..arity {
                let mut order: Vec<usize> = (0..tuples.len()).collect();
                for i in 0..n.min(order.len()) {
                    let j = rng.gen_range(i..order.len());
                    order.swap(i, j);
                    cells[order[i]].push(c);
                }
            }
        }
        let pools: Vec<Vec<Value>> =
            (0..arity).map(|c| tuples.iter().take(512).map(|t| t.0[c].clone()).collect()).collect();
        let xtuples = tuples
            .into_iter()
            .zip(cells)
            .map(|(t, cs)| {
                if cs.is_empty() {
                    return XTuple::certain(t.clone());
                }
                let alts = rng.gen_range(2..=max_alts.max(2));
                let mut alternatives = vec![(t.clone(), 1.0 + 1e-9)];
                for _ in 1..alts {
                    let mut alt = t.clone();
                    for &c in &cs {
                        alt.0[c] = pools[c][rng.gen_range(0..pools[c].len())].clone();
                    }
                    alternatives.push((alt, 1.0));
                }
                let norm: f64 = alternatives.iter().map(|(_, p)| p).sum();
                XTuple::new(alternatives.into_iter().map(|(a, p)| (a, p / norm)).collect())
            })
            .collect();
        out.insert(name.clone(), XRelation::new(rel.schema.clone(), xtuples));
    }
    out
}

fn rev_rows(rel: &AuRelation) -> Rows {
    rel.rows().iter().rev().cloned().collect()
}

/// A copy of `rel`'s rows with [`UPDATE_ROWS`] rows given fresh values;
/// an uncertain row stays uncertain with ranges of the generator's width.
fn updated_rows(rel: &AuRelation, rng: &mut StdRng) -> Rows {
    let mut rows = rel.rows().to_vec();
    let domain = MIX_ROWS as i64;
    let half = ((domain as f64 * 0.02) / 2.0).ceil() as i64;
    for _ in 0..UPDATE_ROWS.min(rows.len()) {
        let i = rng.gen_range(0..rows.len());
        let uncertain = !rows[i].0.is_certain();
        let values = (0..rows[i].0.arity())
            .map(|_| {
                let v = rng.gen_range(0..domain);
                if uncertain {
                    RangeValue::range((v - half).max(0), v, (v + half).min(domain - 1))
                } else {
                    RangeValue::certain(v)
                }
            })
            .collect();
        rows[i].0 = RangeTuple::new(values);
    }
    rows
}

/// One AU compile site of a plan: a predicate or a projection list.
enum Site {
    Predicate(Expr),
    List(Vec<Expr>),
}

impl Site {
    fn compile(&self) -> Program {
        match self {
            Site::Predicate(e) => Program::compile_range(e),
            Site::List(es) => Program::compile_range_many(es),
        }
    }
}

/// Compile, inside a `program.compile` span, each of `plan`'s compile
/// sites as the AU engine's chain compile sites lower them.
fn replay_compile(tr: &mut Tracer, root: u64, req: u64, plan: &Query) -> Vec<Program> {
    let sites = compile_sites(plan);
    let s = tr.open("program.compile", Some(root), req);
    let programs: Vec<Program> = sites.iter().map(Site::compile).collect();
    tr.close(s);
    tr.attr(s, "ops", programs.iter().map(Program::op_count).sum::<usize>());
    programs
}

/// The sites the AU engine can compile for `q`: every selection and join
/// predicate and every projection list (aggregates run interpreted). The
/// engine compiles those of its fused chains, which may be fewer.
fn compile_sites(q: &Query) -> Vec<Site> {
    let mut out = Vec::new();
    collect_sites(q, &mut out);
    out
}

fn collect_sites(q: &Query, out: &mut Vec<Site>) {
    match q {
        Query::Table(_) => {}
        Query::Select { input, predicate } => {
            out.push(Site::Predicate(predicate.clone()));
            collect_sites(input, out);
        }
        Query::Project { input, exprs } => {
            out.push(Site::List(exprs.iter().map(|(e, _)| e.clone()).collect()));
            collect_sites(input, out);
        }
        Query::Join { left, right, predicate } => {
            out.extend(predicate.iter().cloned().map(Site::Predicate));
            collect_sites(left, out);
            collect_sites(right, out);
        }
        Query::Union { left, right } | Query::Difference { left, right } => {
            collect_sites(left, out);
            collect_sites(right, out);
        }
        Query::Distinct { input } | Query::Aggregate { input, .. } => collect_sites(input, out),
    }
}
