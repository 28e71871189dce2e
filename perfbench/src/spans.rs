//! The traced run's span recorder.
//!
//! Every call the benchmark makes into a layer is wrapped in a span
//! (name, start, end, parent, request id). Spans stay in memory, one
//! recorder per client thread, and are written out once at exit. The
//! engine's own `QueryTrace` operator spans are attached under the span
//! of the call that produced them. A span's layer is its name up to the
//! first `.`; a layer's self time is the time its spans cover minus the
//! time their child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

use audb_core::obs::{QueryTrace, TraceSpan};

/// One recorded interval. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, String)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Per-thread span recorder. Span ids are `base + index`, so recorders
/// with distinct bases never collide.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    base: u64,
    pub spans: Vec<Span>,
    /// Engine counters summed over every attached `QueryTrace`.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(origin: Instant, base: u64) -> Self {
        Tracer { origin, base, spans: Vec::new(), counters: BTreeMap::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, parent: Option<u64>, request: u64) -> u64 {
        let id = self.base + self.spans.len() as u64;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            attrs: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        self.span_mut(id).end_ns = now;
    }

    pub fn attr(&mut self, id: u64, key: &str, value: impl ToString) {
        self.span_mut(id).attrs.push((key.to_string(), value.to_string()));
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: u64, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    fn span_mut(&mut self, id: u64) -> &mut Span {
        let i = (id - self.base) as usize;
        &mut self.spans[i]
    }

    /// Attach a `QueryTrace` under span `parent`: its operator spans
    /// become children named `au.<op>`, and its `verify` spans
    /// `verify.tier_b` (a fresh program's Tier A+B gate) or
    /// `verify.cached` (a cached program accepted). They are laid out
    /// back to back from the parent's start since the engine records
    /// durations only. The trace's counters are summed into
    /// [`Tracer::counters`] and copied onto the parent span.
    pub fn attach(&mut self, parent: u64, request: u64, trace: &QueryTrace) {
        let start = self.span_mut(parent).start_ns;
        self.attach_span(parent, request, start, &trace.root);
        for (name, v) in &trace.metrics.counters {
            *self.counters.entry(name).or_insert(0) += v;
            if *v > 0 {
                self.attr(parent, name, v);
            }
        }
    }

    fn attach_span(&mut self, parent: u64, request: u64, start_ns: u64, s: &TraceSpan) {
        let name = match (s.op.as_str(), s.attrs.iter().find(|(k, _)| *k == "tier")) {
            ("verify", Some((_, tier))) if tier == "A+B" => "verify.tier_b".to_string(),
            ("verify", _) => "verify.cached".to_string(),
            (op, _) => format!("au.{op}"),
        };
        let id = self.base + self.spans.len() as u64;
        let mut attrs: Vec<(String, String)> =
            s.attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        if let Some(r) = s.rows_in {
            attrs.push(("rows_in".into(), r.to_string()));
        }
        if let Some(r) = s.rows_out {
            attrs.push(("rows_out".into(), r.to_string()));
        }
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request,
            name,
            start_ns,
            end_ns: start_ns + s.elapsed_ns,
            attrs,
        });
        let mut child_start = start_ns;
        for c in &s.children {
            self.attach_span(id, request, child_start, c);
            child_start += c.elapsed_ns;
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| (s.id, s.duration_ns().saturating_sub(covered.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer().to_string()).or_insert(0) += own[&s.id];
    }
    out
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the stamp and then one JSON object per span, one per line.
pub fn write_jsonl(path: &std::path::Path, stamp: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{stamp}")?;
    for s in spans {
        let attrs: Vec<String> =
            s.attrs.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
             \"attrs\":{{{}}}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            json_str(&s.name),
            s.start_ns,
            s.end_ns,
            attrs.join(",")
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start, end| Span {
            id,
            parent,
            request: 0,
            name: if id == 0 { "serve.execute".into() } else { "au.join".into() },
            start_ns: start,
            end_ns: end,
            attrs: vec![],
        };
        let spans = vec![mk(0, None, 0, 100), mk(1, Some(0), 10, 40), mk(2, Some(0), 50, 70)];
        let own = self_times(&spans);
        assert_eq!(own[&0], 50);
        assert_eq!(own[&1], 30);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["serve"], 50);
        assert_eq!(layers["au"], 50);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
