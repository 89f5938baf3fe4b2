//! The four workloads. Each builds its inputs from the seed, sets up
//! (timed as `setup_s`), then runs its operation in a closed loop.
//!
//! Why these four (see README.md for the layer map):
//! - `fit` is the training path: forward, backward and optimizer writes
//!   through `linalg`, `nn` and the worker pool.
//! - `active` is the only workload where the KDE of Eq. 6 and the
//!   Algorithm 2 sampler dominate; the pool and the index hardly run.
//! - `resolve` serves over a fine-tuned encoder: Encode and Score run on
//!   the `nn` tape, read-only.
//! - `resolve-frozen` serves over a frozen encoder: the only workload
//!   that runs the fused Score stage and the int8 GEMM, and the one where
//!   Block dominates.

use crate::checks::{cluster_violation, link_digest, link_violation, pair_f1};
use crate::layers::SpanTree;
use crate::{measure, median, Args, Budget, Recorder, Report, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use vaer::core::active::{evaluate_matcher, ActiveConfig, ActiveLearner};
use vaer::core::exec::{Resolution, ResolvePlan};
use vaer::core::pipeline::{Pipeline, PipelineConfig, ScorePrecision};
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::data::Dataset;
use vaer::obs::span;

/// Set-up repetitions, by what set-up does: a frozen-encoder fit takes
/// seconds; the fine-tuned fit of `resolve` takes as long as the `fit`
/// workload's operation, is as steady, and a second one in every run
/// would not fit the benchmark's time budget. (`active` sets up once per
/// dataset.)
const FROZEN_FIT_SETUPS: usize = 2;
const FINE_TUNED_FIT_SETUPS: usize = 1;
/// Fits per `fit` run, at least. A fit takes about as long as a run; the
/// nearest-rank median of two is the faster one, which a burst of host
/// load has to hit twice to move.
const MIN_FITS: usize = 2;
/// Oracle labels one AL session may spend. The session's cost is sized
/// with this budget, never by turning down the sampler settings.
const AL_LABEL_BUDGET: usize = 10;
/// Restaurants datasets per `active` run.
const AL_DATASETS: usize = 3;
/// AL sessions per run, at least: two cycles over the datasets, so that
/// the median spans about half a minute of the host's shifting speed and
/// every dataset's F1 is checked to repeat.
const MIN_SESSIONS: usize = 2 * AL_DATASETS;
/// Resolve requests per run, at least, so that p90 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 100;
/// The canonical request whose links are scored against the truth.
const CANONICAL_K: usize = 10;
const CANONICAL_T: f32 = 0.5;
/// The `tests/quantization.rs` gate on link F1 between the lanes.
const LANE_F1_GATE: f64 = 0.01;

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::Fit => fit(args),
        Workload::Active => active(args),
        Workload::Resolve | Workload::ResolveFrozen => resolve(args),
    }
}

/// Times `setup` `n` times and keeps the last result.
fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let value = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), secs))
}

fn budget(args: &Args, min_ops: usize, step: usize) -> Budget {
    Budget::Seconds {
        secs: args.seconds,
        min_ops,
        step,
    }
}

fn citations2(seed: u64) -> Dataset {
    DomainSpec::new(Domain::Citations2, Scale::Paper).generate(seed)
}

/// `fit`: one `Pipeline::fit` with the paper's configuration (fine-tuned
/// encoder) on Citations2 at paper scale, then its test F1.
fn fit(args: &Args) -> Result<Report, String> {
    let config = PipelineConfig::paper();
    // Set-up also fits the dataset with the encoder frozen: IR, the VAE
    // and the matcher run on the timed fits' data, so first-use costs are
    // paid before timing, and `setup_s` measures seconds of work rather
    // than milliseconds of generation, whose time swings by up to 1.9x
    // between stretches of host load.
    let mut warm_up = config.clone();
    warm_up.matcher.fine_tune_encoder = false;
    let (dataset, setup_s) = repeat_setup(FROZEN_FIT_SETUPS, || {
        let dataset = citations2(args.seed);
        Pipeline::fit(&dataset, &warm_up).map_err(|e| e.to_string())?;
        Ok(dataset)
    })?;
    let mut rec = Recorder::default();
    let mut f1s = Vec::new();
    let mut stage_secs = None;
    let measured = measure(args, budget(args, MIN_FITS, 1), 1, &mut |_| {
        let (pipeline, secs) = rec.op("fit", || {
            let _s = span("bench.fit");
            Pipeline::fit(&dataset, &config).map_err(|e| e.to_string())
        })?;
        f1s.push(f64::from(pipeline.evaluate(&dataset.test_pairs).f1));
        stage_secs = Some(pipeline.timings());
        Some(secs * 1e3)
    });
    check_repeats(&mut rec, "fit F1", &f1s);
    let fit_s = median(&measured.times_ms) / 1e3;
    let mut lines = vec![
        format!(
            "fit_s = {fit_s:.4} s (median of {} fits)",
            measured.times_ms.len()
        ),
        format!("fit_f1 = {:.4}", f1s.first().copied().unwrap_or(0.0)),
    ];
    if let Some(t) = stage_secs {
        lines.push(format!(
            "fit stages: ir {:.3} s, repr {:.3} s, match {:.3} s",
            t.ir_secs, t.repr_secs, t.match_secs
        ));
    }
    let mut layers = BTreeMap::new();
    if args.trace {
        // The 1-thread baseline for `runtime.scaling`, untraced.
        vaer::linalg::runtime::set_threads(1);
        let one = rec.op("1-thread fit", || {
            Pipeline::fit(&dataset, &config).map_err(|e| e.to_string())
        });
        vaer::linalg::runtime::set_threads(0);
        if let Some((_, secs)) = one {
            layers.insert("runtime.fit_1t_s", secs);
            layers.insert("runtime.scaling", secs / fit_s);
        }
    }
    Ok(Report {
        rec,
        setup_s,
        op_name: "fit",
        measured,
        quality_f1: f1s.first().copied().unwrap_or(0.0),
        lines,
        layers,
    })
}

/// A deterministic result must repeat exactly within a run.
fn check_repeats(rec: &mut Recorder, what: &str, values: &[f64]) {
    rec.check(values.windows(2).all(|w| w[0] == w[1]), || {
        format!("{what} differs between identical operations: {values:?}")
    });
    rec.check(values.iter().all(|v| (0.0..=1.0).contains(v)), || {
        format!("{what} out of [0, 1]: {values:?}")
    });
}

/// What one AL session produced.
struct Session {
    /// Which of the run's datasets it ran on.
    dataset: usize,
    f1: f64,
    rounds: usize,
    labels: usize,
    /// Whether every round started below the label budget.
    rounds_within_budget: bool,
    /// Duplicates found by queries after the bootstrap.
    found: usize,
    /// Labels queried after the bootstrap.
    queried: usize,
}

/// `active`: Algorithm 1 plus Algorithm 2 with `ActiveConfig::default()`
/// up to a fixed label budget, over pipelines fitted during set-up on
/// Restaurants at tiny scale. A session's cost depends on its data (pool
/// size, duplicates found), so each run cycles over several datasets, and
/// only whole cycles, so that every dataset weighs the same in the median.
fn active(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for j in 0..AL_DATASETS {
        let t0 = Instant::now();
        let seed = args
            .seed
            .wrapping_mul(AL_DATASETS as u64)
            .wrapping_add(j as u64);
        let dataset = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(seed);
        let pipeline =
            Pipeline::fit(&dataset, &PipelineConfig::paper()).map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs.push((dataset, pipeline));
    }
    let config = ActiveConfig::default();
    let mut rec = Recorder::default();
    let mut sessions: Vec<Session> = Vec::new();
    let mut session_secs = Vec::new();
    let measured = measure(
        args,
        budget(args, MIN_SESSIONS, AL_DATASETS),
        AL_DATASETS,
        &mut |i| {
            let (dataset, pipeline) = &inputs[i % AL_DATASETS];
            let (irs_a, irs_b) = pipeline.ir_tables();
            let (lat_a, lat_b) = pipeline.latents();
            let (lat_a, lat_b) = (lat_a.clone(), lat_b.clone());
            let oracle = dataset.oracle();
            let ((matcher, history), secs) = rec.op("AL session", || {
                let _s = span("bench.al.session");
                let mut learner = ActiveLearner::with_latents(
                    pipeline.repr(),
                    irs_a,
                    irs_b,
                    lat_a,
                    lat_b,
                    config.clone(),
                );
                let matcher = learner
                    .run(&oracle, AL_LABEL_BUDGET, None)
                    .map_err(|e| e.to_string())?;
                Ok((matcher, learner.history().to_vec()))
            })?;
            let (first, last) = (history.first()?, history.last()?);
            sessions.push(Session {
                dataset: i % AL_DATASETS,
                f1: f64::from(evaluate_matcher(&matcher, irs_a, irs_b, &dataset.test_pairs).f1),
                rounds: history.len() - 1,
                labels: oracle.queries_used(),
                rounds_within_budget: history[..history.len() - 1]
                    .iter()
                    .all(|c| c.labels_used < AL_LABEL_BUDGET),
                found: last.pool_sizes.0.saturating_sub(first.pool_sizes.0),
                queried: last.labels_used - first.labels_used,
            });
            session_secs.push(secs);
            Some(secs * 1e3 / (history.len() - 1).max(1) as f64)
        },
    );
    let mut f1s = Vec::new();
    // The untraced pass's sessions come first.
    let session_secs = &session_secs[..measured.times_ms.len()];
    let mut lines = vec![format!(
        "al_s = {:.4} s (median of {} sessions)",
        median(session_secs),
        session_secs.len()
    )];
    for j in 0..AL_DATASETS {
        let on_j: Vec<&Session> = sessions.iter().filter(|s| s.dataset == j).collect();
        let f1_j: Vec<f64> = on_j.iter().map(|s| s.f1).collect();
        check_repeats(&mut rec, &format!("AL F1 on dataset {j}"), &f1_j);
        if let Some(s) = on_j.first() {
            f1s.push(s.f1);
            lines.push(format!(
                "dataset {j}: al_f1 = {:.4}, {} rounds, {} labels used of budget {AL_LABEL_BUDGET}",
                s.f1, s.rounds, s.labels
            ));
        }
    }
    for s in &sessions {
        // `run` checks the budget at the top of each round, so the last
        // round's batch may take the labels used past it.
        rec.check(s.rounds_within_budget, || {
            format!("an AL round started at or past the {AL_LABEL_BUDGET}-label budget")
        });
        rec.check(s.rounds <= config.iterations, || {
            format!(
                "AL ran {} rounds, more than {}",
                s.rounds, config.iterations
            )
        });
    }
    let al_f1 = median(&f1s);
    lines.push(format!(
        "al_round_ms = {:.3} ms (median over sessions of session time / rounds)",
        median(&measured.times_ms)
    ));
    lines.push(format!("al_f1 = {al_f1:.4} (median over datasets)"));
    let mut layers = BTreeMap::new();
    if let Some(crate::Traced { sink, .. }) = &measured.traced {
        let tree = SpanTree::new(sink);
        let n = tree.count("bench.al.session").max(1) as f64;
        let fit = tree.secs_under("matcher.fit", "al.run");
        let select = tree.secs_under("al.run", "bench.al.session") - fit;
        let per_session = |f: fn(&Session) -> usize| {
            sessions.iter().map(f).sum::<usize>() as f64 / sessions.len().max(1) as f64
        };
        layers.insert("al.select_s", select / n);
        layers.insert("al.rounds", per_session(|s| s.rounds));
        layers.insert("al.labels_used", per_session(|s| s.labels));
        layers.insert(
            "al.pos_per_label",
            per_session(|s| s.found) / per_session(|s| s.queried),
        );
    }
    Ok(Report {
        rec,
        setup_s,
        op_name: "AL round",
        measured,
        quality_f1: al_f1,
        lines,
        layers,
    })
}

/// SplitMix64: the request mix's own generator, so the library only ever
/// sees the generated dataset.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn threshold(&mut self) -> f32 {
        0.3 + 0.5 * (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// One resolve request's parameters.
struct Request {
    k: usize,
    t1: f32,
    t2: f32,
    lane: ScorePrecision,
}

/// The seeded request mix, drawn as a stream so that request `i` is the
/// same however many requests a run makes: each block of three requests
/// covers k ∈ {5, 10, 20} in a seeded order, thresholds are uniform in
/// [0.3, 0.8), and the frozen workload alternates the f32 and int8 lanes.
struct Requests {
    mix: Mix,
    lanes: &'static [ScorePrecision],
    made: Vec<Request>,
}

impl Requests {
    fn new(seed: u64, lanes: &'static [ScorePrecision]) -> Self {
        Self {
            mix: Mix(seed ^ 0x5EED_4E57),
            lanes,
            made: Vec::new(),
        }
    }

    fn get(&mut self, i: usize) -> &Request {
        while self.made.len() <= i {
            let mut block = [5, 10, 20];
            for j in (1..block.len()).rev() {
                block.swap(j, (self.mix.next() % (j as u64 + 1)) as usize);
            }
            for k in block {
                let (t1, t2) = (self.mix.threshold(), self.mix.threshold());
                let lane = self.lanes[self.made.len() % self.lanes.len()];
                self.made.push(Request { k, t1, t2, lane });
            }
        }
        &self.made[i]
    }
}

fn resolution_error(what: &str, r: &Resolution) -> Result<(), String> {
    if r.health.is_clean() {
        Ok(())
    } else {
        Err(format!("{what} resolution not clean: {:?}", r.health))
    }
}

/// The canonical request (k = 10, t = 0.5) on a fresh plan, at a lane.
fn canonical(pipeline: &Pipeline, lane: ScorePrecision) -> Result<Resolution, String> {
    let r = ResolvePlan::new(pipeline)
        .run_with_precision(CANONICAL_K, CANONICAL_T, lane)
        .map_err(|e| e.to_string())?;
    resolution_error("canonical", &r)?;
    Ok(r)
}

/// `resolve` and `resolve-frozen`: requests over a Citations2 pipeline
/// fitted during set-up. Each request opens a fresh `ResolvePlan`, runs
/// cold at (k, t1), re-thresholds warm at (k, t2), then clusters at
/// (k, t2).
fn resolve(args: &Args) -> Result<Report, String> {
    let frozen = args.workload == Workload::ResolveFrozen;
    let mut config = PipelineConfig::paper();
    config.matcher.fine_tune_encoder = !frozen;
    let lanes: &'static [ScorePrecision] = if frozen {
        &[ScorePrecision::F32, ScorePrecision::Int8]
    } else {
        &[ScorePrecision::F32]
    };
    let setups = if frozen {
        FROZEN_FIT_SETUPS
    } else {
        FINE_TUNED_FIT_SETUPS
    };
    let builds = vaer::obs::counter("exec.index.builds");
    let ((dataset, pipeline), setup_s) = repeat_setup(setups, || {
        let dataset = citations2(args.seed);
        let pipeline = Pipeline::fit(&dataset, &config).map_err(|e| e.to_string())?;
        // The blocking index is a set-up artifact: build it here.
        pipeline.blocking_index();
        Ok((dataset, pipeline))
    })?;
    let setup_builds = builds.get();
    let mut rec = Recorder::default();
    if frozen {
        rec.check(pipeline.quantized_matcher().is_some(), || {
            "frozen pipeline has no int8 matcher".into()
        });
    }
    let (len_a, len_b) = (dataset.table_a.len(), dataset.table_b.len());
    let truth: BTreeSet<(usize, usize)> = dataset.duplicates.iter().copied().collect();

    // The canonical request: quality, the candidate set, lane parity.
    let canon = canonical(&pipeline, ScorePrecision::F32)?;
    rec.violation(
        link_violation(&canon.links, len_a, len_b, CANONICAL_T),
        || "canonical links".to_string(),
    );
    let link_f1 = pair_f1(canon.links.iter().map(|&(a, b, _)| (a, b)), &truth);
    let blocked = pipeline.blocking_candidates(CANONICAL_K);
    rec.check(blocked.len() == canon.candidates, || {
        format!(
            "blocking gave {} candidates, the plan {}",
            blocked.len(),
            canon.candidates
        )
    });
    let blocked: BTreeSet<(usize, usize)> = blocked.iter().map(|c| (c.left, c.right)).collect();
    let completeness = truth.intersection(&blocked).count() as f64 / truth.len().max(1) as f64;
    let mut lines = vec![
        format!(
            "link_f1 = {link_f1:.4} (k={CANONICAL_K}, t={CANONICAL_T}, {} links)",
            canon.links.len()
        ),
        format!(
            "canonical candidates = {} (pair completeness {completeness:.4})",
            canon.candidates
        ),
    ];
    if frozen {
        let int8 = canonical(&pipeline, ScorePrecision::Int8)?;
        rec.check(int8.precision == ScorePrecision::Int8, || {
            format!("int8 canonical scored at {:?}", int8.precision)
        });
        let int8_f1 = pair_f1(int8.links.iter().map(|&(a, b, _)| (a, b)), &truth);
        rec.check((int8_f1 - link_f1).abs() <= LANE_F1_GATE, || {
            format!("int8 link F1 {int8_f1} vs f32 {link_f1} differs by more than {LANE_F1_GATE}")
        });
        lines.push(format!("link_f1.int8 = {int8_f1:.4}"));
    }

    let mut mix = Requests::new(args.seed, lanes);
    let mut lane_ms: Vec<(ScorePrecision, f64)> = Vec::new();
    let measured = measure(args, budget(args, MIN_REQUESTS, 1), usize::MAX, &mut |i| {
        let q = mix.get(i);
        let ((cold, warm, clusters), secs) = rec.op("request", || {
            let _request = span("bench.request");
            let mut plan = ResolvePlan::new(&pipeline);
            let cold = {
                let _s = span(match q.lane {
                    ScorePrecision::F32 => "bench.cold.f32",
                    ScorePrecision::Int8 => "bench.cold.int8",
                });
                plan.run_with_precision(q.k, q.t1, q.lane)
            }
            .map_err(|e| e.to_string())?;
            resolution_error("cold", &cold)?;
            let warm = {
                let _s = span("bench.warm");
                plan.run_with_precision(q.k, q.t2, q.lane)
            }
            .map_err(|e| e.to_string())?;
            resolution_error("warm", &warm)?;
            let clusters = {
                let _s = span("bench.entities");
                plan.entities(q.k, q.t2, false)
            }
            .map_err(|e| e.to_string())?;
            Ok((cold, warm, clusters))
        })?;
        let tag = format!("request {i} (k={}, {:?})", q.k, q.lane);
        for (r, t, what) in [(&cold, q.t1, "cold"), (&warm, q.t2, "warm")] {
            rec.violation(link_violation(&r.links, len_a, len_b, t), || {
                format!("{tag} {what} links")
            });
            rec.check(r.candidates <= len_a * q.k, || {
                format!(
                    "{tag} {what}: {} candidates > |A|*k = {}",
                    r.candidates,
                    len_a * q.k
                )
            });
            rec.check(r.precision == q.lane, || {
                format!("{tag} {what} scored at {:?}", r.precision)
            });
        }
        rec.check(!cold.reused && warm.reused, || {
            format!(
                "{tag}: cold reused={}, warm reused={}",
                cold.reused, warm.reused
            )
        });
        rec.check(warm.candidates == cold.candidates, || {
            format!("{tag}: candidates changed on re-run")
        });
        rec.violation(cluster_violation(&clusters), || format!("{tag} clusters"));
        if q.lane == ScorePrecision::F32 {
            // Clusters come from the same memoized f32 scores as `warm`.
            rec.check(clusters.len() == warm.links.len(), || {
                format!(
                    "{tag}: {} clusters for {} links",
                    clusters.len(),
                    warm.links.len()
                )
            });
        }
        lane_ms.push((q.lane, secs * 1e3));
        Some(secs * 1e3)
    });
    let again = canonical(&pipeline, ScorePrecision::F32)?;
    rec.check(
        link_digest(&again.links) == link_digest(&canon.links),
        || "canonical request's links changed within the run".into(),
    );

    let times = &measured.times_ms;
    lines.push(format!(
        "resolve_p50_ms = {:.3} ms, resolve_p90_ms = {:.3} ms ({} requests)",
        median(times),
        crate::tail(times),
        times.len()
    ));
    if frozen {
        // The untraced pass's successes come first.
        for lane in lanes {
            let ms: Vec<f64> = lane_ms[..times.len()]
                .iter()
                .filter(|(l, _)| l == lane)
                .map(|&(_, ms)| ms)
                .collect();
            lines.push(format!(
                "{lane:?} requests: p50 {:.3} ms over {}",
                median(&ms),
                ms.len()
            ));
        }
    }
    let mut layers = BTreeMap::new();
    layers.insert("index.candidates", canon.candidates as f64);
    layers.insert("index.pair_completeness", completeness);
    if let Some(crate::Traced { sink, .. }) = &measured.traced {
        // Every fitted pipeline builds its index exactly once, in set-up.
        let total = setup_builds + sink.counter("exec.index.builds");
        rec.check(total == setups as u64, || {
            format!("{total} index builds for {setups} pipelines")
        });
        let tree = SpanTree::new(sink);
        // Score time of each lane's cold run; an int8 request's Cluster
        // step scores again at the pipeline's own (f32) lane, outside it.
        for (lane, name, metric) in [
            (ScorePrecision::F32, "bench.cold.f32", "exec.score_s.f32"),
            (ScorePrecision::Int8, "bench.cold.int8", "exec.score_s.int8"),
        ] {
            if lanes.contains(&lane) {
                let n = tree.count(name).max(1) as f64;
                layers.insert(metric, tree.secs_under("exec.score", name) / n);
            }
        }
    }
    Ok(Report {
        rec,
        setup_s,
        op_name: "request",
        measured,
        quality_f1: link_f1,
        lines,
        layers,
    })
}
