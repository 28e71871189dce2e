//! The correctness gate and the bound-quality metrics.
//!
//! Every distinct (query, epoch) is evaluated once, outside the timed
//! loop, on the interpreted oracle (`compiled: false`). That reference
//! is checked two ways: its selected-guess world equals the
//! deterministic engine's answer on the database's selected-guess world
//! (floats up to summation ULPs), and every annotation satisfies
//! `lb ≤ sg ≤ ub`, as does every attribute range. Timed results are
//! compared to the reference by digest.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use audb_core::Value;
use audb_query::au::AuConfig;
use audb_query::{eval_au, eval_det, Query};
use audb_storage::{AuDatabase, AuRelation, Database, Relation};

/// Order-sensitive digest of a relation's rows; two relations in
/// normal form have equal digests exactly when their rows are equal
/// (up to hash collisions).
pub fn digest(rel: &AuRelation) -> u64 {
    let mut h = DefaultHasher::new();
    rel.schema.arity().hash(&mut h);
    rel.rows().hash(&mut h);
    h.finish()
}

/// Bound tightness summed over a set of query results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    lb: u128,
    sg: u128,
    ub: u128,
    width: f64,
    cells: u64,
}

impl Quality {
    /// Add one result. `domain_halfwidth` is half the width of the
    /// workload's value domain: unbounded range ends count at ±it
    /// (`AuRelation::mean_range_width`), and widths are taken relative
    /// to the whole domain.
    pub fn add(&mut self, rel: &AuRelation, domain_halfwidth: f64) {
        for (_, k) in rel.rows() {
            self.lb += u128::from(k.lb);
            self.sg += u128::from(k.sg);
            self.ub += u128::from(k.ub);
        }
        let cells = (rel.rows().len() * rel.schema.arity()) as f64;
        self.width += rel.mean_range_width(domain_halfwidth) * cells / (2.0 * domain_halfwidth);
        self.cells += cells as u64;
    }

    /// Σub / Σsg: how far the possible answer overshoots.
    pub fn possible_over_sg(&self) -> f64 {
        self.ub as f64 / self.sg.max(1) as f64
    }

    /// Σlb / Σsg: how much of the selected-guess answer is certain.
    pub fn certain_over_sg(&self) -> f64 {
        self.lb as f64 / self.sg.max(1) as f64
    }

    /// Mean attribute range width over every result cell, as a share of
    /// the value domain.
    pub fn range_width(&self) -> f64 {
        self.width / self.cells.max(1) as f64
    }
}

/// Evaluate `q` on the oracle (the timed configuration, interpreted)
/// and check the reference. Returns the reference relation.
pub fn reference(db: &AuDatabase, sgw: &Database, q: &Query) -> Result<AuRelation, String> {
    let oracle = AuConfig { compiled: false, ..crate::workloads::eval_config() };
    let au = eval_au(db, q, &oracle).map_err(|e| format!("oracle: {e}"))?;
    let det = eval_det(sgw, q).map_err(|e| format!("det: {e}"))?;
    approx_eq(&au.sg_world().normalized(), &det.normalized())?;
    check_bounds(&au)?;
    Ok(au)
}

fn close(x: &Value, y: &Value) -> bool {
    match (x.as_f64(), y.as_f64()) {
        (Some(p), Some(q)) => (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0),
        _ => x == y,
    }
}

/// Relation equality up to float-summation ULPs: the AU and
/// deterministic engines sum in different canonical orders.
fn approx_eq(au_sg: &Relation, det: &Relation) -> Result<(), String> {
    if au_sg.len() != det.len() {
        return Err(format!("SG world has {} rows, det has {}", au_sg.len(), det.len()));
    }
    for ((ta, ka), (tb, kb)) in au_sg.rows().iter().zip(det.rows()) {
        let same = ka == kb
            && ta.0.len() == tb.0.len()
            && ta.0.iter().zip(&tb.0).all(|(x, y)| close(x, y));
        if !same {
            return Err(format!("SG world row {ta} x{ka} differs from det row {tb} x{kb}"));
        }
    }
    Ok(())
}

fn check_bounds(rel: &AuRelation) -> Result<(), String> {
    for (t, k) in rel.rows() {
        if !(k.lb <= k.sg && k.sg <= k.ub) {
            return Err(format!("annotation {k} of {t} is not ordered"));
        }
        if !t.0.iter().all(|r| r.lb <= r.sg && r.sg <= r.ub) {
            return Err(format!("attribute range of {t} is not ordered"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{AuAnnot, RangeValue};
    use audb_storage::{RangeTuple, Schema};

    fn rel(rows: Vec<(Vec<RangeValue>, AuAnnot)>) -> AuRelation {
        AuRelation::from_rows(
            Schema::named(&["a"]),
            rows.into_iter().map(|(v, k)| (RangeTuple::new(v), k)).collect(),
        )
    }

    #[test]
    fn quality_sums_annotations_and_widths() {
        let r = rel(vec![
            (vec![RangeValue::range(0i64, 5i64, 10i64)], AuAnnot::triple(0, 1, 2)),
            (vec![RangeValue::certain(10i64)], AuAnnot::triple(1, 1, 1)),
        ]);
        let mut q = Quality::default();
        q.add(&r, 10.0);
        assert_eq!(q.possible_over_sg(), 1.5);
        assert_eq!(q.certain_over_sg(), 0.5);
        // widths 10 and 0 over two cells, in a domain 20 wide
        assert_eq!(q.range_width(), 0.25);
    }

    #[test]
    fn digest_tells_relations_apart() {
        let a = rel(vec![(vec![RangeValue::certain(1i64)], AuAnnot::triple(1, 1, 1))]);
        let b = rel(vec![(vec![RangeValue::certain(2i64)], AuAnnot::triple(1, 1, 1))]);
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn unordered_annotation_is_rejected() {
        let r = rel(vec![(vec![RangeValue::certain(1i64)], AuAnnot { lb: 2, sg: 1, ub: 1 })]);
        assert!(check_bounds(&r).is_err());
    }
}
