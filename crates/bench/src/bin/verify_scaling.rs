//! Verifier scaling check: compile and fully verify ever longer
//! predicates and fail when the cost grows faster than linearly.
//!
//! Two chain shapes, each at the lengths in [`TERMS`]:
//!
//! * `range_add_chain` — the left-deep `b + 1 + … + 1 < 3`, lowered
//!   with `Program::compile_range` (straight-line ops);
//! * `det_and_chain` — `b < 0 AND b < 1 AND …`, lowered with
//!   `Program::compile_det` (one conditional jump per `AND`, so it
//!   exercises the jump checks and the det abstract interpreter's
//!   state joins).
//!
//! Each run times the compile (lowering plus the Tier A gate) followed
//! by `Program::verify_full` (Tier A again, then Tier B), keeping the
//! fastest of a few repetitions. Both tiers are O(ops + nodes), so 4x
//! the terms should cost about 4x the time; the run exits non-zero when
//! any shape's 4k/1k ratio exceeds [`MAX_RATIO`].
//!
//! Output: a JSON report on stdout. Run in release:
//!
//! ```text
//! cargo run --release -p audb_bench --bin verify_scaling
//! ```

use std::time::Instant;

use audb_core::program::Program;
use audb_core::{col, lit, Expr};

/// Chain lengths timed, in terms.
const TERMS: [usize; 3] = [1_000, 4_000, 10_000];
/// Gate on time(4k) / time(1k); linear scaling is about 4x.
const MAX_RATIO: f64 = 6.0;
/// Repetitions per length; the minimum is reported.
const REPS: usize = 15;

/// `b + 1 + … + 1 < 3` with `terms` terms (`b` is column 0).
fn add_chain(terms: usize) -> Expr {
    (1..terms).fold(col(0), |e, _| e.add(lit(1i64))).lt(lit(3i64))
}

/// `b < 0 AND b < 1 AND …` with `terms` comparisons.
fn and_chain(terms: usize) -> Expr {
    Expr::conj((0..terms).map(|k| col(0).lt(lit(k as i64))).collect())
}

/// One timed chain shape: its report name, the expression of a given
/// length, and the lowering it goes through.
struct Shape {
    name: &'static str,
    build: fn(usize) -> Expr,
    compile: fn(&Expr) -> Program,
}

const SHAPES: [Shape; 2] = [
    Shape { name: "range_add_chain", build: add_chain, compile: Program::compile_range },
    Shape { name: "det_and_chain", build: and_chain, compile: Program::compile_det },
];

/// Fastest compile + `verify_full` wall time in milliseconds.
fn time_chain(e: &Expr, compile: fn(&Expr) -> Program) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let verdict = compile(e).verify_full();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        if let Err(err) = verdict {
            eprintln!("verify_full rejected a fresh lowering: {err}");
            std::process::exit(2);
        }
    }
    best
}

fn main() {
    let terms = TERMS.map(|n| n.to_string()).join(", ");
    let mut passed = true;
    println!("{{");
    println!("  \"terms\": [{terms}],");
    println!("  \"max_ratio\": {MAX_RATIO},");
    for Shape { name, build, compile } in SHAPES {
        let ms = TERMS.map(|n| time_chain(&build(n), compile));
        let ratio = ms[1] / ms[0];
        passed &= ratio <= MAX_RATIO;
        let list = ms.map(|t| format!("{t:.3}")).join(", ");
        println!("  \"{name}\": {{\"total_ms\": [{list}], \"ratio_4k_over_1k\": {ratio:.3}}},");
    }
    println!("  \"passed\": {passed}");
    println!("}}");
    if !passed {
        std::process::exit(1);
    }
}
