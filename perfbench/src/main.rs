//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch|spine|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up [`SETUP_REPS`] times from the seed
//! (generation, encoding, engine build, lane warm-up and a first pass
//! over every distinct query), runs a closed loop for `--seconds`, and
//! then checks every distinct query against the interpreted oracle and
//! every timed result against its reference; the oracle runs last so
//! that `peak_rss_mb`, read before it, is the engine's peak. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates traced and untraced requests and reports per-layer metrics
//! from the spans (see `spans.rs`), which it also writes to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod spans;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use audb_query::au::AuConfig;

use check::{digest, reference, Quality};
use spans::{json_str, layer_self_ns, Span, Tracer};
use workloads::{Bench, Kind, Outcome, ServeMeta};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Request id of the set-up storage probe in the traced run.
const SETUP_REQUEST: u64 = u64::MAX / 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |v: String, flag: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number"));
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?.max(1);
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { kind, seed, seconds, trace })
}

/// One timed request.
struct Sample {
    key: String,
    latency: Duration,
    /// Completion time since the loop started.
    done: Duration,
    traced: bool,
    result: Result<(u64, u64), String>,
    serve: Option<ServeMeta>,
}

fn sample(
    key: String,
    latency: Duration,
    done: Duration,
    traced: bool,
    r: Result<Outcome, String>,
) -> Sample {
    let serve = r.as_ref().ok().and_then(|o| o.serve);
    let result = r.map(|o| (o.epoch, digest(&o.relation)));
    Sample { key, latency, done, traced, result, serve }
}

/// Everything one run measured.
struct Run {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    counters: std::collections::BTreeMap<&'static str, u64>,
    elapsed: Duration,
}

/// The closed loop: each client sends its next request when the last
/// one returns, until `seconds` have passed.
fn timed_loop(bench: &Bench, seconds: u64, trace: bool) -> Run {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(seconds);
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..bench.kind.clients())
            .map(|c| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin, (c as u64) << 40);
                    let mut keys = bench.key_gen(c);
                    let mut out = Vec::new();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        bench.maybe_publish(c, i, trace.then_some(&mut tracer));
                        let key = bench.next_key(&mut keys);
                        let traced = trace && bench.traced_slot(i);
                        let req = ((c as u64) << 40) | i as u64;
                        let t0 = Instant::now();
                        let r = if traced {
                            bench.run_traced(&mut tracer, req, &key)
                        } else {
                            bench.run(&key)
                        };
                        let latency = t0.elapsed();
                        out.push(sample(key, latency, origin.elapsed(), traced, r));
                        i += 1;
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = origin.elapsed();
    let mut run =
        Run { samples: Vec::new(), spans: Vec::new(), counters: Default::default(), elapsed };
    for (samples, tracer) in per_client {
        run.samples.extend(samples);
        run.spans.extend(tracer.spans);
        for (k, v) in tracer.counters {
            *run.counters.entry(k).or_insert(0) += v;
        }
    }
    run
}

/// Reference digests per distinct (query, epoch), computed on demand.
struct References<'a> {
    bench: &'a Bench,
    memo: HashMap<(String, u64), Result<u64, String>>,
    errors: Vec<String>,
}

impl<'a> References<'a> {
    fn new(bench: &'a Bench) -> Self {
        References { bench, memo: HashMap::new(), errors: Vec::new() }
    }

    fn get(&mut self, key: &str, epoch: u64) -> Result<u64, String> {
        if let Some(r) = self.memo.get(&(key.to_string(), epoch)) {
            return r.clone();
        }
        let db = self.bench.at(epoch);
        let sgw = self.bench.sgw(epoch, &db);
        let r = self
            .bench
            .plan(key, &db)
            .and_then(|q| reference(&db, &sgw, &q))
            .map(|rel| digest(&rel))
            .map_err(|e| format!("reference for {key:.60} at epoch {epoch}: {e}"));
        if let Err(e) = &r {
            self.errors.push(e.clone());
        }
        self.memo.insert((key.to_string(), epoch), r.clone());
        r
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// VmHWM from `/proc/self/status`, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The engine fingerprint, with git kept inside the checkout: the
/// revision lookup never climbs above the current directory's parent.
fn fingerprint(cfg: &AuConfig) -> String {
    if let Some(parent) = std::env::current_dir().ok().and_then(|d| d.parent().map(PathBuf::from)) {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    std::env::set_var("GIT_CONFIG_NOSYSTEM", "1");
    audb_bench::config_fingerprint(cfg)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(
    run: &Run,
    failed: &[bool],
    setups: &[f64],
    peak_rss_mb: f64,
    quality: &Quality,
) -> Vec<Metric> {
    let mut lat: Vec<f64> = run
        .samples
        .iter()
        .zip(failed)
        .map(|(s, &f)| if f { f64::INFINITY } else { s.latency.as_secs_f64() * 1e3 })
        .collect();
    lat.sort_by(f64::total_cmp);
    let ok = failed.iter().filter(|f| !**f).count();
    vec![
        ("throughput_qps", ok as f64 / run.elapsed.as_secs_f64(), "1/s"),
        ("latency_p50_ms", percentile(&lat, 0.5), "ms"),
        ("latency_p90_ms", percentile(&lat, 0.9), "ms"),
        ("setup_s", median(setups.to_vec()), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("possible_over_sg", quality.possible_over_sg(), "ratio"),
        ("certain_over_sg", quality.certain_over_sg(), "ratio"),
        ("range_width", quality.range_width(), "ratio"),
    ]
}

fn per_layer(bench: &Bench, run: &Run) -> Vec<Metric> {
    let spans = &run.spans;
    let requests = run.samples.iter().filter(|s| s.traced).count().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let total =
        |name: &str| spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>();
    let per_req = |name: &str| ms(total(name)) / requests;
    let per_span =
        |name: &str| mean(spans.iter().filter(|s| s.name == name).map(|s| ms(s.duration_ns())));
    let own = spans::self_times(spans);
    let self_per_req = |name: &str| {
        ms(spans.iter().filter(|s| s.name == name).map(|s| own[&s.id]).sum()) / requests
    };
    let attr_sum = |name: &str, key: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.attr(key).and_then(|v| v.parse::<f64>().ok()))
            .fold(0.0, |a, b| a + b)
    };
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // join expansion: rows out / rows in over join operators and fused
    // chains that probe a join
    let (mut join_in, mut join_out) = (0.0, 0.0);
    for s in spans.iter().filter(|s| {
        s.name == "au.join"
            || (s.name == "au.fused-chain" && s.attr("ops").is_some_and(|o| o.contains('⋈')))
    }) {
        join_in += s.attr("rows_in").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        join_out += s.attr("rows_out").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    }

    let served: Vec<ServeMeta> = run.samples.iter().filter_map(|s| s.serve).collect();
    let lat_of = |traced: bool| {
        mean(run.samples.iter().filter(|s| s.traced == traced).map(|s| s.latency.as_secs_f64()))
    };
    let mut out: Vec<Metric> = vec![
        ("serve.queue_wait_ms", mean(served.iter().map(|m| m.queued.as_secs_f64() * 1e3)), "ms"),
        (
            "serve.prepared_hit_ratio",
            ratio(served.iter().filter(|m| m.prepared_hit).count() as f64, served.len() as f64),
            "ratio",
        ),
        ("serve.attempts_per_query", mean(served.iter().map(|m| m.attempts as f64)), "count"),
        ("serve.publish_ms", per_span("serve.publish"), "ms"),
        ("sql.parse_ms", per_req("sql.parse"), "ms"),
        ("program.compile_ms", per_req("program.compile"), "ms"),
        ("program.ops", attr_sum("verify.tier_b", "ops") / requests, "count"),
        ("verify.tier_a_ms", per_req("verify.tier_a"), "ms"),
        ("verify.tier_b_ms", per_req("verify.tier_b"), "ms"),
        ("verify.rejects", counter("verify_rejects") / requests, "count"),
        ("storage.lane_build_ms", per_span("storage.lane_build"), "ms"),
        ("storage.normalize_ms", per_span("storage.normalize"), "ms"),
        ("storage.db_bytes", bench.db_bytes() as f64, "bytes"),
        ("au.chain_ms", self_per_req("au.fused-chain"), "ms"),
        ("au.join_ms", self_per_req("au.join"), "ms"),
        ("au.aggregate_ms", self_per_req("au.aggregate"), "ms"),
        ("au.difference_ms", self_per_req("au.difference"), "ms"),
        ("au.join_expansion", ratio(join_out, join_in), "ratio"),
        ("au.degradations", counter("degradations") / requests, "count"),
        (
            "exec.normalize_merge_ratio",
            ratio(counter("normalize_rows_out"), counter("normalize_rows_in")),
            "ratio",
        ),
        ("exec.shards", counter("shards_dispatched") / requests, "count"),
        ("exec.morsels", counter("morsels_dispatched") / requests, "count"),
        ("det.eval_ms", per_req("det.eval"), "ms"),
        ("au_over_det", ratio(total("au.eval") as f64, total("det.eval") as f64), "ratio"),
        ("trace.overhead_pct", (ratio(lat_of(true), lat_of(false)) - 1.0) * 100.0, "%"),
    ];
    let layers = layer_self_ns(spans);
    for layer in LAYERS {
        let v = layers.get(layer.0).copied().unwrap_or(0);
        out.push((layer.1, ms(v) / requests, "ms"));
    }
    out
}

/// Requests completed per second in each fifth of the timed loop, to
/// show drift within a run.
fn print_windows(run: &Run) {
    const WINDOWS: usize = 5;
    let width = run.elapsed.as_secs_f64() / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    for s in &run.samples {
        counts[((s.done.as_secs_f64() / width) as usize).min(WINDOWS - 1)] += 1;
    }
    let qps: Vec<String> = counts.iter().map(|&n| format!("{:.1}", n as f64 / width)).collect();
    println!("throughput by fifth of the run: {} 1/s", qps.join(" "));
}

/// Median latency per query kind.
fn print_per_kind(bench: &Bench, samples: &[Sample]) {
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in samples {
        by_kind.entry(bench.label(&s.key)).or_default().push(s.latency.as_secs_f64() * 1e3);
    }
    for (kind, lat) in by_kind {
        println!("query {kind}: {} requests, median {:.3} ms", lat.len(), median(lat));
    }
}

/// Layers whose self time the traced run reports, per traced request
/// (`sql` and `program` spans have no children: their self time is
/// `sql.parse_ms` and `program.compile_ms`).
const LAYERS: [(&str, &str); 6] = [
    ("bench", "self.bench_ms"),
    ("verify", "self.verify_ms"),
    ("serve", "self.serve_ms"),
    ("au", "self.au_ms"),
    ("det", "self.det_ms"),
    ("storage", "self.storage_ms"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload tpch|spine|serve_mix --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // before any thread starts: the lookup sets environment variables
    let fingerprint = fingerprint(&workloads::eval_config());
    let mut problems: Vec<String> = Vec::new();

    // ---- set-up, several times; each from the same seed ----------------
    let mut setups = Vec::new();
    let mut quality: Option<Quality> = None;
    let mut first_digests: Vec<Result<u64, String>> = Vec::new();
    let mut bench: Option<Bench> = None;
    for rep in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::build(args.kind, args.seed);
        let first: Vec<Result<Outcome, String>> = b.fixed.iter().map(|k| b.run(k)).collect();
        setups.push(t0.elapsed().as_secs_f64());
        let mut q = Quality::default();
        let digests: Vec<Result<u64, String>> = first
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|o| {
                        q.add(&o.relation, b.domain_halfwidth());
                        digest(&o.relation)
                    })
                    .map_err(Clone::clone)
            })
            .collect();
        if rep > 0 && (quality != Some(q) || first_digests != digests) {
            problems.push("the fixed pass differs between two set-ups from one seed".into());
        }
        quality = Some(q);
        first_digests = digests;
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let rss_after_setup = peak_rss_mb();
    let mut quality = quality.expect("at least one set-up");
    let stamp = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\"fingerprint\":{},\
         \"sizes\":{}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        json_str(&fingerprint),
        json_str(&bench.sizes),
    );
    println!("stamp {stamp}");

    // ---- the timed loop ---------------------------------------------------
    let mut run = timed_loop(&bench, args.seconds, args.trace);
    if args.trace {
        let mut tr = Tracer::new(Instant::now(), 1 << 60);
        bench.probe_storage(&mut tr, SETUP_REQUEST);
        run.spans.extend(tr.spans);
    }
    // read before any oracle work, so the peak is the engine's
    let rss_after_loop = peak_rss_mb();

    // ---- the fixed pass against the oracle ------------------------------
    let phase = Instant::now();
    let mut refs = References::new(&bench);
    for (key, first) in bench.fixed.iter().zip(&first_digests) {
        match (refs.get(key, 0), first) {
            (Ok(want), Ok(got)) if want == *got => {}
            (Ok(_), Ok(_)) => problems.push(format!("fixed pass of {key:.60} differs from oracle")),
            (_, Err(e)) => problems.push(format!("fixed pass of {key:.60} failed: {e}")),
            (Err(_), _) => {}
        }
    }
    if let Err(e) = bench.quality_pass(&mut quality) {
        problems.push(format!("quality pass: {e}"));
    }
    let fixed_check_s = phase.elapsed().as_secs_f64();

    // ---- every timed result against its reference ------------------------
    let phase = Instant::now();
    let failed: Vec<bool> = run
        .samples
        .iter()
        .map(|s| match &s.result {
            Ok((epoch, got)) => refs.get(&s.key, *epoch) != Ok(*got),
            Err(_) => true,
        })
        .collect();
    problems.append(&mut refs.errors);
    let rss_after_checks = peak_rss_mb();
    let n_failed = failed.iter().filter(|f| **f).count();
    println!(
        "phases: set-up {:.2} s x {SETUP_REPS}, timed {:.2} s, fixed-pass check \
         {fixed_check_s:.2} s, result check {:.2} s ({} references); peak RSS \
         {rss_after_setup:.1} MB after set-up, {rss_after_loop:.1} MB after the loop, \
         {rss_after_checks:.1} MB after the checks",
        median(setups.clone()),
        run.elapsed.as_secs_f64(),
        phase.elapsed().as_secs_f64(),
        refs.memo.len()
    );
    if let Some((s, _)) = run.samples.iter().zip(&failed).find(|(_, f)| **f) {
        eprintln!("first failed request: {:.80}: {:?}", s.key, s.result.as_ref().err());
    }

    let metrics = if args.trace {
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        match spans::write_jsonl(&path, &stamp, &run.spans) {
            Ok(()) => println!("spans: {} written to {}", run.spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        per_layer(&bench, &run)
    } else {
        end_to_end(&run, &failed, &setups, rss_after_loop, &quality)
    };

    // ---- report -------------------------------------------------------------
    let attempted = run.samples.len();
    let lat_ok = run.samples.iter().zip(&failed).filter(|(_, f)| !**f).count();
    println!(
        "requests: {attempted} in {:.2} s ({} beyond p90), failed_share = {} ",
        run.elapsed.as_secs_f64(),
        lat_ok - (lat_ok as f64 * 0.9).ceil() as usize,
        n_failed as f64 / attempted.max(1) as f64
    );
    print_per_kind(&bench, &run.samples);
    print_windows(&run);
    for p in &problems {
        println!("problem: {p}");
    }
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        let value = if value.is_finite() { *value } else { 0.0 };
        println!("{name} = {value} {unit}");
        body.push(format!("{}:{{\"value\":{value},\"unit\":{}}}", json_str(name), json_str(unit)));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{n_failed},\"metrics\":{{{}}}}}",
        problems.is_empty() && n_failed == 0 && attempted > 0,
        body.join(",")
    );
}
