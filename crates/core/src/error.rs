//! Error types shared across the workspace.

use std::fmt;

use crate::govern::ExecError;

/// Errors raised while evaluating scalar expressions or queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Operand has the wrong type for the operator.
    TypeError {
        expected: &'static str,
        found: String,
    },
    /// Binary operator applied to incompatible operands.
    BinOpTypeError {
        op: &'static str,
        left: String,
        right: String,
    },
    DivisionByZero,
    /// Range division where the denominator interval contains 0 (Def. 9).
    RangeDivisionSpansZero,
    NotANumber,
    /// `MaxVal + MinVal` and friends.
    IndeterminateSentinel,
    /// Column reference out of bounds.
    UnknownColumn(usize),
    /// Named entity (table, column, variable) not found.
    NotFound(String),
    /// A range triple violating `lb <= sg <= ub`.
    InvalidRange(String),
    /// An annotation triple violating the natural order `lb ⪯ sg ⪯ ub`.
    InvalidAnnotation(String),
    /// Schema arity/name mismatch between operator inputs.
    SchemaMismatch(String),
    /// Operation unsupported by the evaluator (e.g. difference on UA-DBs).
    Unsupported(String),
    /// An input past a fixed structural limit (e.g. SQL expression
    /// nesting deeper than the parser accepts), refused before it can
    /// exhaust the stack.
    LimitExceeded {
        limit: &'static str,
        max: usize,
    },
    /// A structured execution-runtime fault: contained worker panic,
    /// cancellation/deadline, or an exhausted resource budget.
    Exec(ExecError),
}

impl EvalError {
    pub fn type_error(expected: &'static str, found: &impl fmt::Debug) -> Self {
        EvalError::TypeError { expected, found: format!("{found:?}") }
    }

    pub fn binop_type_error(
        op: &'static str,
        left: &impl fmt::Debug,
        right: &impl fmt::Debug,
    ) -> Self {
        EvalError::BinOpTypeError { op, left: format!("{left:?}"), right: format!("{right:?}") }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeError { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            EvalError::BinOpTypeError { op, left, right } => {
                write!(f, "type error: cannot apply `{op}` to {left} and {right}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::RangeDivisionSpansZero => {
                write!(f, "range division undefined: denominator interval contains zero")
            }
            EvalError::NotANumber => write!(f, "NaN is not a domain value"),
            EvalError::IndeterminateSentinel => {
                write!(f, "indeterminate sentinel arithmetic (e.g. +inf + -inf)")
            }
            EvalError::UnknownColumn(i) => write!(f, "unknown column index {i}"),
            EvalError::NotFound(n) => write!(f, "not found: {n}"),
            EvalError::InvalidRange(m) => write!(f, "invalid range triple: {m}"),
            EvalError::InvalidAnnotation(m) => write!(f, "invalid annotation triple: {m}"),
            EvalError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            EvalError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            EvalError::LimitExceeded { limit, max } => {
                write!(f, "limit exceeded: {limit} is capped at {max}")
            }
            EvalError::Exec(e) => write!(f, "execution fault: {e}"),
        }
    }
}

impl From<ExecError> for EvalError {
    fn from(e: ExecError) -> EvalError {
        EvalError::Exec(e)
    }
}

impl std::error::Error for EvalError {}
