//! Per-layer metrics of a traced run, read from the spans and counters
//! the library already exports through `ObsSink::snapshot()`.
//!
//! Times, allocations and call counts are per operation of the workload
//! (per fit, per AL session, per resolve request), so runs that fit a
//! different number of operations into their time stay comparable. A
//! layer the workload does not run reads 0.

use std::collections::{BTreeMap, HashMap};
use vaer::obs::{ObsSink, SpanRecord};

/// Every per-layer metric, in print order, with its unit. Mirrors the
/// `per_layer` list of `BENCHMARK.json`.
pub const METRICS: &[(&str, &str)] = &[
    ("embed.ir_s", "s"),
    ("repr.train_s", "s"),
    ("repr.train.allocs", "count"),
    ("repr.encode_s", "s"),
    ("matcher.fit_s", "s"),
    ("matcher.fit.calls", "count"),
    ("matcher.fit.allocs", "count"),
    ("linalg.matmul.tiny.gflops", "GFLOP/s"),
    ("linalg.matmul.tiny.calls", "count"),
    ("linalg.matmul.small.gflops", "GFLOP/s"),
    ("linalg.matmul.small.calls", "count"),
    ("linalg.matmul.medium.gflops", "GFLOP/s"),
    ("linalg.matmul.medium.calls", "count"),
    ("linalg.matmul_t.tiny.gflops", "GFLOP/s"),
    ("linalg.matmul_t.tiny.calls", "count"),
    ("linalg.matmul_t.small.gflops", "GFLOP/s"),
    ("linalg.matmul_t.small.calls", "count"),
    ("linalg.matmul_t.medium.gflops", "GFLOP/s"),
    ("linalg.matmul_t.medium.calls", "count"),
    ("linalg.t_matmul.tiny.gflops", "GFLOP/s"),
    ("linalg.t_matmul.tiny.calls", "count"),
    ("linalg.t_matmul.small.gflops", "GFLOP/s"),
    ("linalg.t_matmul.small.calls", "count"),
    ("linalg.t_matmul.medium.gflops", "GFLOP/s"),
    ("linalg.t_matmul.medium.calls", "count"),
    ("linalg.matmul.dispatch.parallel", "count"),
    ("linalg.matmul.dispatch.serial", "count"),
    ("runtime.shards_spawned", "count"),
    ("runtime.tasks", "count"),
    ("runtime.join_wait_s", "s"),
    ("runtime.fit_1t_s", "s"),
    ("runtime.scaling", "ratio"),
    ("al.select_s", "s"),
    ("al.rounds", "count"),
    ("al.labels_used", "count"),
    ("al.pos_per_label", "ratio"),
    ("exec.block_s", "s"),
    ("exec.block.allocs", "count"),
    ("index.candidates", "count"),
    ("index.pair_completeness", "ratio"),
    ("exec.encode_s", "s"),
    ("exec.score_s", "s"),
    ("exec.score.allocs", "count"),
    ("exec.score.bytes", "B"),
    ("exec.score_s.f32", "s"),
    ("exec.score_s.int8", "s"),
    ("exec.link_s", "s"),
    ("exec.cluster_s", "s"),
    ("exec.plan.cache_hit_rate", "ratio"),
    ("degrade.fired", "count"),
    ("exec.stage.retries", "count"),
    ("obs.overhead", "ratio"),
];

/// The span tree of a snapshot, for self times and per-lane attribution.
pub struct SpanTree<'a> {
    by_id: HashMap<u64, &'a SpanRecord>,
    spans: &'a [SpanRecord],
}

impl<'a> SpanTree<'a> {
    pub fn new(sink: &'a ObsSink) -> Self {
        Self {
            by_id: sink.spans.iter().map(|s| (s.id, s)).collect(),
            spans: &sink.spans,
        }
    }

    fn has_ancestor(&self, span: &SpanRecord, name: &str) -> bool {
        let mut parent = span.parent;
        while let Some(p) = self.by_id.get(&parent) {
            if p.name == name {
                return true;
            }
            parent = p.parent;
        }
        false
    }

    /// Spans named `name` under an ancestor named `under`, excluding
    /// those nested in another `name` span.
    fn outermost_under<'s>(
        &'s self,
        name: &'s str,
        under: &'s str,
    ) -> impl Iterator<Item = &'a SpanRecord> + 's {
        self.spans.iter().filter(move |s| {
            s.name == name && self.has_ancestor(s, under) && !self.has_ancestor(s, name)
        })
    }

    /// Total seconds of the spans named `name` under `under`.
    pub fn secs_under(&self, name: &str, under: &str) -> f64 {
        self.outermost_under(name, under)
            .map(|s| s.dur_us)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// The metrics every workload reads the same way from a traced pass of
/// `ops` operations.
pub fn from_sink(sink: &ObsSink, ops: usize) -> BTreeMap<&'static str, f64> {
    let per_op = 1.0 / ops.max(1) as f64;
    let hist = |name: &str| sink.histograms.iter().find(|h| h.name == name);
    let secs = |name: &str| hist(name).map_or(0.0, |h| h.sum_nanos as f64 / 1e9) * per_op;
    let allocs = |name: &str| hist(name).map_or(0.0, |h| h.allocs as f64) * per_op;
    let calls = |name: &str| hist(name).map_or(0.0, |h| h.count as f64) * per_op;
    let counter = |name: &str| sink.counter(name) as f64 * per_op;
    let gflops: HashMap<String, f64> = sink.derived_gflops().into_iter().collect();

    let mut m = BTreeMap::new();
    m.insert("embed.ir_s", secs("pipeline.stage.ir"));
    m.insert("repr.train_s", secs("repr.train"));
    m.insert("repr.train.allocs", allocs("repr.train"));
    m.insert("repr.encode_s", secs("repr.encode"));
    m.insert("matcher.fit_s", secs("matcher.fit"));
    m.insert("matcher.fit.calls", calls("matcher.fit"));
    m.insert("matcher.fit.allocs", allocs("matcher.fit"));
    for &(name, _) in METRICS.iter().filter(|(n, _)| n.starts_with("linalg.")) {
        let value = match name.strip_suffix(".gflops") {
            Some(prefix) => gflops.get(prefix).copied().unwrap_or(0.0),
            None => counter(name),
        };
        m.insert(name, value);
    }
    m.insert("runtime.shards_spawned", counter("runtime.shards_spawned"));
    m.insert("runtime.tasks", counter("runtime.tasks"));
    m.insert(
        "runtime.join_wait_s",
        counter("runtime.join_wait_nanos") / 1e9,
    );
    m.insert("exec.block_s", secs("exec.block"));
    m.insert("exec.block.allocs", allocs("exec.block"));
    m.insert("exec.encode_s", secs("exec.encode"));
    m.insert("exec.score_s", secs("exec.score"));
    m.insert("exec.score.allocs", allocs("exec.score"));
    m.insert(
        "exec.score.bytes",
        hist("exec.score").map_or(0.0, |h| h.bytes as f64) * per_op,
    );
    m.insert("exec.link_s", secs("exec.link"));
    m.insert("exec.cluster_s", secs("exec.cluster"));
    let runs = sink.counter("exec.plan.runs");
    if runs > 0 {
        m.insert(
            "exec.plan.cache_hit_rate",
            sink.counter("exec.plan.cache.hits") as f64 / runs as f64,
        );
    }
    m.insert("degrade.fired", sink.counter("degrade.fired") as f64);
    m.insert(
        "exec.stage.retries",
        sink.counter("exec.stage.retries") as f64,
    );
    m
}
