//! End-to-end benchmark of VAER: fit, the active-learning loop, and
//! resolution (Block → Score → Link → Cluster).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit|active|resolve|resolve-frozen> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process and one caller in a closed loop: each operation starts
//! when the previous one returns. The pool width is left to the library
//! (`VAER_THREADS` unset means one worker per core). The seed only
//! shapes the generated datasets and the request mix.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics. With `--trace 1` the workload runs once untraced
//! and then again at the `trace` telemetry level, and the JSON carries
//! the per-layer metrics read from the library's spans and counters. See
//! `perfbench/README.md`.

mod checks;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::time::Instant;
use vaer::obs::{Level, ObsSink};

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fit,
    Active,
    Resolve,
    ResolveFrozen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fit" => Some(Self::Fit),
            "active" => Some(Self::Active),
            "resolve" => Some(Self::Resolve),
            "resolve-frozen" => Some(Self::ResolveFrozen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Fit => "fit",
            Self::Active => "active",
            Self::Resolve => "resolve",
            Self::ResolveFrozen => "resolve-frozen",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(12.0),
        trace: trace.unwrap_or(false),
    })
}

/// Operation and correctness accounting shared by every workload.
///
/// Every fit, AL session and resolve request is one operation. It fails
/// when it returns an error (including a `Resolution` whose health is not
/// clean, which the workload turns into an error) or panics; the panic is
/// caught here, at the operation boundary.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Recorder {
    /// Runs and times one operation. Returns its value and wall seconds,
    /// or `None` when it failed.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<(T, f64)> {
        self.attempted += 1;
        let t0 = Instant::now();
        let out = std::panic::catch_unwind(AssertUnwindSafe(f));
        let secs = t0.elapsed().as_secs_f64();
        match out {
            Ok(Ok(value)) => Some((value, secs)),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("{what} panicked");
                None
            }
        }
    }

    /// Records a violation a check function reported, if any, under
    /// `context`.
    pub fn violation(&mut self, found: Option<String>, context: impl FnOnce() -> String) {
        if let Some(v) = found {
            self.check(false, || format!("{}: {v}", context()));
        }
    }

    /// Records a correctness check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }
}

/// How long a measured pass runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Until `secs` have passed and at least `min_ops` operations ran,
    /// stopping only after a whole multiple of `step` operations.
    Seconds {
        secs: f64,
        min_ops: usize,
        step: usize,
    },
    /// Exactly this many operations.
    Ops(usize),
}

/// Runs `op(i)` for i = 0, 1, … until the budget is spent. `op` returns
/// the wall milliseconds of a successful operation, `None` on failure.
fn pass(budget: Budget, op: &mut dyn FnMut(usize) -> Option<f64>) -> (usize, Vec<f64>) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut i = 0;
    loop {
        let done = match budget {
            Budget::Seconds {
                secs,
                min_ops,
                step,
            } => i >= min_ops && i % step == 0 && t0.elapsed().as_secs_f64() >= secs,
            Budget::Ops(n) => i >= n,
        };
        if done {
            return (i, times);
        }
        times.extend(op(i));
        i += 1;
    }
}

/// The measured part of a run.
pub struct Measured {
    /// Operations executed (untraced pass).
    pub ops: usize,
    /// Wall milliseconds of each successful untraced operation.
    pub times_ms: Vec<f64>,
    /// The traced pass, when `--trace 1`.
    pub traced: Option<Traced>,
}

/// A pass at the `trace` level.
pub struct Traced {
    pub ops: usize,
    pub times_ms: Vec<f64>,
    pub sink: ObsSink,
}

/// Runs the workload's operation for the budget with telemetry off; with
/// `--trace 1` then clears the telemetry and runs the same operations
/// again at the `trace` level, at most `max_traced` of them.
pub fn measure(
    args: &Args,
    budget: Budget,
    max_traced: usize,
    op: &mut dyn FnMut(usize) -> Option<f64>,
) -> Measured {
    vaer::obs::set_level(Level::Off);
    let (ops, times_ms) = pass(budget, op);
    let traced = args.trace.then(|| {
        vaer::obs::reset();
        vaer::obs::set_level(Level::Trace);
        let (ops, times_ms) = pass(Budget::Ops(ops.min(max_traced)), op);
        let sink = ObsSink::snapshot();
        vaer::obs::set_level(Level::Off);
        Traced {
            ops,
            times_ms,
            sink,
        }
    });
    Measured {
        ops,
        times_ms,
        traced,
    }
}

/// Everything a workload reports.
pub struct Report {
    pub rec: Recorder,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Name of the timed operation, for the human-readable lines.
    pub op_name: &'static str,
    pub measured: Measured,
    /// The workload's answer quality (fit F1, AL F1 or link F1).
    pub quality_f1: f64,
    /// Workload-specific named metrics, printed as human-readable lines.
    pub lines: Vec<String>,
    /// Per-layer metrics the workload measures itself (trace mode).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Nearest-rank median of a sample: the lower middle value for an even
/// count (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest quantile of a sample that has at least ten samples above
/// it, capped at p90 and never below the median: p90 from 100 samples up.
pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, (1.0 - 10.0 / xs.len().max(1) as f64).clamp(0.5, 0.9))
}

/// Nearest-rank quantile of a sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <fit|active|resolve|resolve-frozen> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace && std::env::var_os("VAER_TRACE_OUT").is_none() {
        // Set before any worker thread exists; the library's exporter
        // reads this path when the traced run ends.
        let path = format!("perfbench/out/{}.trace.json", args.workload.name());
        if std::fs::create_dir_all("perfbench/out").is_ok() {
            std::env::set_var("VAER_TRACE_OUT", path);
        }
    }
    // Telemetry stays off for untraced runs. A traced run counts during
    // set-up too, so that index builds per fitted pipeline can be checked.
    vaer::obs::set_level(if args.trace {
        Level::Summary
    } else {
        Level::Off
    });
    let report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let Report {
        rec,
        setup_s,
        op_name,
        measured,
        quality_f1,
        lines,
        layers,
    } = report;
    let w = args.workload.name();
    let times = &measured.times_ms;
    println!(
        "workload {w}, seed {}, threads {}",
        args.seed,
        vaer::linalg::runtime::threads()
    );
    println!(
        "setup_s = {:.4} s (median of {} set-ups)",
        median(&setup_s),
        setup_s.len()
    );
    println!(
        "{op_name}: p50 {:.3} ms, tail {:.3} ms over {} successful of {} operations",
        median(times),
        tail(times),
        times.len(),
        measured.ops
    );
    for line in &lines {
        println!("{line}");
    }
    let peak_rss_mib = vaer::obs::alloc::rss_peak_bytes() as f64 / (1024.0 * 1024.0);
    println!("peak_rss_mib = {peak_rss_mib:.1} MiB");
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        if rec.attempted == 0 {
            0.0
        } else {
            rec.failed as f64 / rec.attempted as f64
        },
        rec.failed,
        rec.attempted
    );
    let metrics = match &measured.traced {
        None => vec![
            ("setup_s", median(&setup_s), "s"),
            ("op_p50_ms", median(times), "ms"),
            ("op_tail_ms", tail(times), "ms"),
            ("quality_f1", quality_f1, "ratio"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
        ],
        Some(Traced {
            ops,
            times_ms: traced_times,
            sink,
        }) => {
            let mut values = layers::from_sink(sink, *ops);
            values.extend(layers);
            let overhead = median(traced_times) / median(times);
            println!("obs.overhead_{w} = {overhead:.4} (traced / untraced median {op_name} time)");
            values.insert("obs.overhead", overhead);
            let (a, b, per) = match args.workload {
                Workload::Fit => ("repr.train_s", "matcher.fit_s", "fit"),
                Workload::Active => ("al.select_s", "matcher.fit_s", "session"),
                Workload::Resolve | Workload::ResolveFrozen => {
                    ("exec.block_s", "exec.score_s", "request")
                }
            };
            println!(
                "{a} = {:.4} s next to {b} = {:.4} s per {per}",
                values.get(a).copied().unwrap_or(0.0),
                values.get(b).copied().unwrap_or(0.0)
            );
            match sink.write_chrome_trace_if_requested() {
                Ok(Some(path)) => println!("chrome trace: {}", path.display()),
                Ok(None) => {}
                Err(e) => eprintln!("chrome trace not written: {e}"),
            }
            layers::METRICS
                .iter()
                .map(|&(name, unit)| {
                    let value = values.get(name).copied().unwrap_or(0.0);
                    println!("{name} = {value} {unit}");
                    (name, value, unit)
                })
                .collect()
        }
    };
    let correct = rec.check_failures.is_empty() && !times.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.attempted,
        rec.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
