//! The workloads and the round each of them repeats.
//!
//! Every workload runs the same pipeline on its own inputs, so every
//! end-to-end metric has a value on every workload:
//!
//! 1. set-up — the program's work before the main operation (per workload:
//!    `read_csv`; TF-IDF → vocabulary → `vectorize`);
//! 2. the LSH fit and the exact fit (`Lsh::None`) of the same spec;
//! 3. a batch `FittedModel::predict` of the held-out rows;
//! 4. closed-loop serving of held-out string rows through one
//!    `ModelServer` worker.
//!
//! A run discards one warm-up set-up and fit, repeats whole rounds while
//! time remains, and reports medians over the rounds. The traced run adds
//! the standalone layer calls of [`layer_metrics`].

use crate::check::{Brute, Centres, Items};
use crate::inputs::{self, TextInputs};
use crate::trace::Tracer;
use crate::{median, quantile, Args, Metric, Report};
use lshclust::{
    ClusterId, ClusterRun, ClusterSpec, Clusterer, Dataset, Fit, FittedModel, Lsh, ModelServer,
    PredictTicket, ServerConfig,
};
use lshclust_categorical::io::read_csv;
use lshclust_text::{vectorize, TfIdf, Vocabulary};
use std::collections::VecDeque;
use std::time::Instant;

/// Closed-loop window: requests in flight from the one client.
const WINDOW: usize = 16;
/// Serving passes per round, each on a fresh server.
const PASSES: usize = 3;
/// Hot rows the repeated requests draw from.
const HOT_ROWS: usize = 256;

/// The fixed make-up of one workload.
struct Shape {
    k: usize,
    lsh: Lsh,
    /// Items per mini-batch step.
    batch: usize,
    /// Iteration budget of the LSH fit and of the exact fit: at most the
    /// convergence count of every seed tried, so that every seed does the
    /// same work (see README).
    iterations: (usize, usize),
    /// Timed batch predicts per round.
    predict_reps: usize,
    /// Held-out rows: the predict batch, and the pool requests draw from.
    /// Batches are large because queries that fall back to full search
    /// dominate predict time, and their share varies with the seed.
    held: usize,
    /// Requests per serving pass, and the share of them that repeat a hot
    /// row.
    requests: usize,
    repeat_share: f64,
}

/// The workload's raw inputs, as generated from the seed.
enum Source {
    /// Set-up parses the CSV text.
    Csv(String),
    /// Set-up runs TF-IDF, vocabulary selection and vectorisation.
    Text(TextInputs),
}

struct Workload {
    shape: Shape,
    /// The LSH fit and its exact baseline, each with its iteration budget.
    spec: ClusterSpec,
    exact_spec: ClusterSpec,
    source: Source,
    /// Generator ground truth of the training rows.
    labels: Vec<u32>,
    /// Held-out string rows, as the daemon receives them.
    held: Vec<Vec<String>>,
    /// Order in which held-out rows are requested.
    order: Vec<usize>,
}

fn shape_of(name: &str) -> Shape {
    match name {
        // Fig. 2 at 1/10 scale: 9 000 rows × 100 attributes, k = 2 000.
        "fig2-k2000" => Shape {
            k: 2000,
            lsh: Lsh::MinHash { bands: 20, rows: 5 },
            batch: 1000,
            iterations: (3, 3),
            predict_reps: 2,
            held: 6000,
            requests: 2000,
            repeat_share: 0.25,
        },
        // Fig. 9 at 1/10 scale: 29 200 questions over 292 topics.
        "fig9-text" => Shape {
            k: 292,
            lsh: Lsh::MinHash { bands: 1, rows: 1 },
            batch: 2000,
            iterations: (2, 2),
            predict_reps: 3,
            held: 292 * 16,
            requests: 1168,
            repeat_share: 0.0,
        },
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn build(args: &Args, tr: &mut Tracer) -> Workload {
    let shape = shape_of(&args.workload);
    let spec = ClusterSpec::new(shape.k)
        .lsh(shape.lsh)
        .seed(args.seed)
        .threads(1)
        .max_iterations(shape.iterations.0);
    let exact_spec = spec
        .clone()
        .lsh(Lsh::None)
        .max_iterations(shape.iterations.1);
    let (source, labels, held) = match args.workload.as_str() {
        "fig2-k2000" => {
            let inp = inputs::datgen_csv(9000, shape.held, shape.k, 100, args.seed);
            (Source::Csv(inp.csv), inp.labels, inp.held)
        }
        "fig9-text" => {
            let inp = inputs::corpus(shape.k, 100, shape.held / shape.k, args.seed);
            // Held-out rows are vectorised under the training vocabulary,
            // then sent as the strings the daemon would receive.
            let vocab = text_vocab(&inp, tr);
            let held_ds = vectorize(&vocab, inp.held_texts.iter().map(|t| (t.as_str(), 0)));
            let held = (0..held_ds.n_items())
                .map(|i| held_ds.decode_row(i))
                .collect();
            let labels = inp.truth.clone();
            (Source::Text(inp), labels, held)
        }
        _ => unreachable!(),
    };
    let order = inputs::request_order(
        held.len(),
        shape.requests,
        shape.repeat_share,
        HOT_ROWS,
        args.seed,
    );
    Workload {
        shape,
        spec,
        exact_spec,
        source,
        labels,
        held,
        order,
    }
}

fn text_vocab(inp: &TextInputs, tr: &mut Tracer) -> Vocabulary {
    let tfidf = tr.span("text.tfidf", || {
        let mut tfidf = TfIdf::new(inp.n_topics);
        for (text, topic) in &inp.train {
            tfidf.add_document(*topic, text);
        }
        tfidf
    });
    // The paper's threshold 0.7 assumes 2 916 topics; rescale it to keep
    // the same selectivity at this topic count.
    let threshold = 0.7 * (inp.n_topics as f64).log10() / 2916f64.log10();
    tr.span("text.vocab", || {
        Vocabulary::select(&tfidf, threshold, 10_000)
    })
}

/// The set-up: the training data as the program sees it.
fn setup(w: &Workload, tr: &mut Tracer) -> Result<Dataset, String> {
    match &w.source {
        Source::Csv(csv) => tr.span("categorical.encode", || {
            read_csv(csv.as_bytes()).map_err(|e| e.to_string())
        }),
        Source::Text(inp) => {
            let vocab = text_vocab(inp, tr);
            Ok(tr.span("categorical.encode", || {
                vectorize(&vocab, inp.train.iter().map(|(t, l)| (t.as_str(), *l)))
            }))
        }
    }
}

fn fit(data: &Dataset, spec: &ClusterSpec) -> Result<ClusterRun, String> {
    Clusterer::new(spec.clone())
        .fit(data)
        .map_err(|e| e.to_string())
}

/// Resumes a fit that stopped at its iteration budget from its centroids
/// (a warm start) until it converges.
fn resume(data: &Dataset, spec: &ClusterSpec, run: &ClusterRun) -> Result<ClusterRun, String> {
    spec.clone()
        .max_iterations(1000)
        .warm_start(&run.model)
        .fit(data)
        .map_err(|e| e.to_string())
}

/// Held-out rows encoded under the model's schema, as a predict batch.
fn encode_held(model: &FittedModel, held: &[Vec<String>]) -> Result<Dataset, String> {
    let schema = model
        .schema()
        .ok_or("model has no categorical schema")?
        .clone();
    let mut values = Vec::new();
    for row in held {
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        values.extend(model.encode_row(&refs).map_err(|e| e.to_string())?);
    }
    Ok(Dataset::from_parts(schema, values, None))
}

fn predict(model: &FittedModel, batch: &Dataset) -> Result<Vec<ClusterId>, String> {
    model.predict(batch).map_err(|e| e.to_string())
}

/// One closed-loop serving pass: the one client keeps `WINDOW` requests in
/// flight and waits on the oldest before submitting the next.
struct Served {
    seconds: f64,
    latencies_ms: Vec<f64>,
    answers: Vec<Option<ClusterId>>,
    failed: u64,
    hits: u64,
    misses: u64,
    balanced: bool,
}

fn serve(server: &ModelServer, held: &[Vec<String>], order: &[usize]) -> Served {
    let mut inflight: VecDeque<(Instant, PredictTicket, usize)> = VecDeque::with_capacity(WINDOW);
    let mut out = Served {
        seconds: 0.0,
        latencies_ms: Vec::with_capacity(order.len()),
        answers: vec![None; order.len()],
        failed: 0,
        hits: 0,
        misses: 0,
        balanced: false,
    };
    let before = server.hot_key_stats();
    let finish = |out: &mut Served, (sent, ticket, i): (Instant, PredictTicket, usize)| match ticket
        .wait()
    {
        Ok(p) => {
            out.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            out.answers[i] = Some(p.cluster);
        }
        Err(_) => out.failed += 1,
    };
    let start = Instant::now();
    for (i, &h) in order.iter().enumerate() {
        if inflight.len() == WINDOW {
            let oldest = inflight.pop_front().expect("window is full");
            finish(&mut out, oldest);
        }
        let refs: Vec<&str> = held[h].iter().map(String::as_str).collect();
        let sent = Instant::now();
        match server.submit_str_row(&refs) {
            Ok(t) => inflight.push_back((sent, t, i)),
            Err(_) => out.failed += 1,
        }
    }
    while let Some(oldest) = inflight.pop_front() {
        finish(&mut out, oldest);
    }
    out.seconds = start.elapsed().as_secs_f64();
    let after = server.hot_key_stats();
    out.hits = after.hits - before.hits;
    out.misses = after.misses - before.misses;
    let tickets = server.ticket_stats();
    out.balanced = tickets.submitted == tickets.resolved;
    out
}

/// Timings gathered over the measured rounds.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    fit: Vec<f64>,
    exact: Vec<f64>,
    predict: Vec<f64>,
    serve: Vec<f64>,
    latencies_ms: Vec<f64>,
    round: Vec<f64>,
    hit_ratio: Vec<f64>,
}

/// Outputs of the first measured round, checked after the time is spent.
struct Outputs {
    data: Dataset,
    fit: ClusterRun,
    exact: ClusterRun,
    predictions: Vec<ClusterId>,
    served: Vec<Option<ClusterId>>,
}

struct Counters {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Counters {
    /// Counts one operation; a failed one is reported, not checked.
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("e2ebench: operation failed: {e}");
                None
            }
        }
    }

    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64());
    out
}

/// Runs one round; returns its outputs when every operation succeeded.
fn round(w: &Workload, tr: &mut Tracer, s: &mut Samples, c: &mut Counters) -> Option<Outputs> {
    let start = Instant::now();
    let data = c.op(timed(&mut s.setup, || setup(w, tr)))?;
    let lsh = c.op(timed(&mut s.fit, || {
        tr.span("core.fit", || fit(&data, &w.spec))
    }));
    let exact = c.op(timed(&mut s.exact, || {
        tr.span("core.exact_fit", || fit(&data, &w.exact_spec))
    }));
    let (lsh, exact) = (lsh?, exact?);

    let model = &lsh.model;
    let batch = c.op(tr.span("lshclust.encode_rows", || encode_held(model, &w.held)))?;
    let mut predictions = None;
    for _ in 0..w.shape.predict_reps {
        predictions = c.op(timed(&mut s.predict, || {
            tr.span("lshclust.predict", || predict(model, &batch))
        }));
    }
    let predictions = predictions?;
    // Every serving pass starts from an empty hot-key cache.
    let mut answers = Vec::new();
    for _ in 0..PASSES {
        let server = tr.span("serve.start", || {
            ModelServer::start(model.clone(), ServerConfig::default().workers(1))
        });
        let served = tr.span("serve.loop", || serve(&server, &w.held, &w.order));
        server.shutdown();
        c.attempted += w.order.len() as u64;
        c.failed += served.failed;
        c.require(served.balanced, "server tickets: submitted != resolved");
        s.serve.push(served.seconds);
        s.latencies_ms.extend_from_slice(&served.latencies_ms);
        s.hit_ratio
            .push(served.hits as f64 / (served.hits + served.misses).max(1) as f64);
        answers = served.answers;
    }
    s.round.push(start.elapsed().as_secs_f64());
    Some(Outputs {
        data,
        fit: lsh,
        exact,
        predictions,
        served: answers,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let w = build(args, &mut tr);
    let mut c = Counters {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // Warm-up, discarded: the first fit in a process runs 15–55 % slower
    // than later ones, so one set-up and one LSH fit run untimed first.
    tr.set_enabled(false);
    drop(fit(&setup(&w, &mut tr)?, &w.spec)?);

    let mut s = Samples::default();
    let mut traced = Samples::default();
    let mut first: Option<Outputs> = None;
    let start = Instant::now();
    let mut rep = 0;
    // Whole rounds while the next one fits in the time (at least one); a
    // traced run alternates untraced and traced rounds and needs at least
    // one of each.
    let mut last = 0.0;
    while rep == 0
        || start.elapsed().as_secs_f64() + last <= args.seconds
        || (args.trace && rep < 2)
    {
        let round_start = Instant::now();
        let tracing = args.trace && rep % 2 == 1;
        tr.set_enabled(tracing);
        tr.set_rep(rep);
        // The round's span is the parent of the layer spans inside it.
        let open = tr.begin("round");
        let out = round(
            &w,
            &mut tr,
            if tracing { &mut traced } else { &mut s },
            &mut c,
        );
        tr.end(open);
        if let (Some(out), Some(f)) = (&out, &first) {
            c.require(
                out.fit.assignments == f.fit.assignments,
                "LSH fit differs between rounds",
            );
            c.require(
                out.exact.assignments == f.exact.assignments,
                "exact fit differs between rounds",
            );
            c.require(
                out.predictions == f.predictions,
                "predictions differ between rounds",
            );
        }
        if first.is_none() {
            first = out;
        }
        last = round_start.elapsed().as_secs_f64();
        rep += 1;
    }
    tr.set_enabled(args.trace);
    let first = first.ok_or("no round completed")?;
    let resumed = resume(&first.data, &w.exact_spec, &first.exact)?;
    let train = items_of(&first.data);
    let layer = if args.trace {
        Some(layer_metrics(
            &w, &first, &train, &resumed, &mut c, &mut tr, &s, &traced, args.seed,
        )?)
    } else {
        None
    };
    verify(&w, &first, &train, &resumed, &mut c);
    for p in &c.problems {
        eprintln!("e2ebench: check failed: {p}");
    }
    let correct = c.problems.is_empty();
    let metrics = match layer {
        Some(m) => {
            let path = std::path::PathBuf::from(".e2ebench_out")
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            tr.write_json(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("e2ebench: trace written to {}", path.display());
            m
        }
        None => end_to_end(&w, &first, &s),
    };
    Ok(Report {
        correct,
        attempted: c.attempted,
        failed: c.failed,
        metrics,
    })
}

fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec()).unwrap_or(f64::NAN)
}

fn end_to_end(w: &Workload, first: &Outputs, s: &Samples) -> Vec<Metric> {
    let (purity, nmi) = crate::check::purity_nmi(&first.fit.labels(), &w.labels);
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: med(&s.setup),
        },
        Metric {
            name: "fit_s",
            unit: "s",
            value: med(&s.fit),
        },
        Metric {
            name: "exact_fit_s",
            unit: "s",
            value: med(&s.exact),
        },
        Metric {
            name: "purity",
            unit: "fraction",
            value: purity,
        },
        Metric {
            name: "nmi",
            unit: "fraction",
            value: nmi,
        },
        Metric {
            name: "predict_rps",
            unit: "1/s",
            value: w.held.len() as f64 / med(&s.predict),
        },
        Metric {
            name: "serve_rps",
            unit: "1/s",
            value: w.order.len() as f64 / med(&s.serve),
        },
        Metric {
            name: "serve_p50_ms",
            unit: "ms",
            value: med(&s.latencies_ms),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb(),
        },
    ]
}

/// The training items as plain buffers.
fn items_of(data: &Dataset) -> Items {
    Items::new(data.n_attrs(), data.rows().flatten().copied().collect())
}

/// Runs `f` with a brute-force distance oracle over `run`'s centroids.
fn with_brute<T>(run: &ClusterRun, items: &Items, f: impl FnOnce(&Brute, &Items) -> T) -> T {
    let modes = run.centroids.modes().expect("categorical run");
    let centres = Centres {
        k: modes.k(),
        m: modes.n_attrs(),
        modes: modes.values(),
    };
    let brute = Brute::new(&centres, items);
    f(&brute, items)
}

/// Whether the cost recomputed from `run`'s assignments and centroids
/// equals `summary.best_cost()`.
fn cost_matches(run: &ClusterRun, train: &Items) -> bool {
    let recomputed = with_brute(run, train, |b, items| b.cost(items, &run.assignments));
    run.summary.best_cost() == Some(recomputed)
}

/// Items whose assigned centroid is farther than their nearest one.
fn misplaced(run: &ClusterRun, items: &Items, assigned: &[ClusterId]) -> usize {
    with_brute(run, items, |b, items| {
        b.assigned_vs_nearest(items, assigned)
            .iter()
            .filter(|(own, best)| own > best)
            .count()
    })
}

fn verify(w: &Workload, o: &Outputs, train: &Items, resumed: &ClusterRun, c: &mut Counters) {
    for (what, run) in [
        ("LSH fit", &o.fit),
        ("exact fit", &o.exact),
        ("resumed exact fit", resumed),
    ] {
        c.require(
            cost_matches(run, train),
            format!(
                "{what}: recomputed cost != summary.best_cost() {:?}",
                run.summary.best_cost()
            ),
        );
    }
    // A converged exact fit is a fixed point: every item sits at its
    // nearest centroid.
    c.require(
        resumed.summary.converged,
        "resumed exact fit did not converge",
    );
    let away = misplaced(resumed, train, &resumed.assignments);
    c.require(
        away == 0,
        format!("converged exact fit: {away} items not at their nearest centroid"),
    );
    // Persistence: the reloaded model answers every held-out row as the
    // in-memory model does. The v2 schema parse is quadratic (README), so
    // reloading the 9 000-row fig2-k2000 model alone would take minutes;
    // only the text model is reloaded.
    if let Source::Text(_) = w.source {
        match FittedModel::from_bytes(&o.fit.model.to_bytes()) {
            Ok(loaded) => {
                let same = encode_held(&loaded, &w.held)
                    .and_then(|b| predict(&loaded, &b))
                    .is_ok_and(|p| p == o.predictions);
                c.require(same, "reloaded model predicts differently");
            }
            Err(e) => c.require(false, format!("reload failed: {e}")),
        }
    }
    let wrong = w
        .order
        .iter()
        .zip(&o.served)
        .filter(|&(&h, answer)| {
            let refs: Vec<&str> = w.held[h].iter().map(String::as_str).collect();
            o.fit.model.predict_str_row(&refs).ok() != *answer
        })
        .count();
    c.require(
        wrong == 0,
        format!("{wrong} served answers differ from predict_str_row"),
    );
}

/// Per-layer metrics: spans of the traced rounds plus standalone calls into
/// each layer on the workload's own data.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    o: &Outputs,
    train: &Items,
    resumed: &ClusterRun,
    c: &mut Counters,
    tr: &mut Tracer,
    untraced: &Samples,
    traced: &Samples,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    use lshclust_kmodes::assign::assign_all_full;
    use lshclust_kmodes::init::{initial_modes, InitMethod};
    use lshclust_minhash::{Banding, LshIndexBuilder, MixHashFamily, SignatureGenerator};

    tr.set_rep(usize::MAX);
    let cat = &o.data;
    let Lsh::MinHash { bands, rows } = w.shape.lsh else {
        unreachable!("every workload uses MinHash")
    };
    let banding = Banding::new(bands, rows);
    let n = cat.n_items();
    let k = w.shape.k;
    let m = cat.n_attrs();

    // minhash: signing, then bucket fill from the resulting band keys.
    let generator = SignatureGenerator::new(MixHashFamily::new(
        banding.signature_len(),
        seed ^ 0x4d48_4b4d,
    ));
    let sigs = tr.span("minhash.sign", || generator.dataset_signatures(cat));
    let present: usize = (0..n).map(|i| cat.present_count(i)).sum();
    tr.count(
        "minhash.hash_evals",
        (present * banding.signature_len()) as f64,
    );
    let mut keys = Vec::with_capacity(n * bands as usize);
    let mut buf = Vec::new();
    for i in 0..n {
        banding.band_keys_into(sigs.row(i), &mut buf);
        keys.extend_from_slice(&buf);
    }
    // kmodes: one full pass from the fit's initial modes, then one update.
    let mut modes = initial_modes(cat, k, InitMethod::RandomItems, seed);
    let mut assignments = vec![ClusterId(0); n];
    tr.span("kmodes.full_pass", || {
        assign_all_full(cat, &modes, &mut assignments)
    });
    tr.count("kmodes.cells_compared", (n * k * m) as f64);
    tr.span("kmodes.mode_update", || modes.recompute(cat, &assignments));
    let builder = LshIndexBuilder::new(banding).seed(seed ^ 0x4d48_4b4d);
    let index = tr.span("minhash.bucket_fill", || {
        builder.build_from_band_keys(keys, &assignments)
    });
    let stats = index.stats();
    tr.count("minhash.buckets", stats.n_buckets as f64);
    tr.count("minhash.largest_bucket", stats.largest_bucket as f64);

    // core: the fit's own phase record, and what brute force says about it.
    let summary = &o.fit.summary;
    let iterate_s: f64 = summary
        .iterations
        .iter()
        .map(|i| i.duration.as_secs_f64())
        .sum();
    let iters = o.fit.n_iterations().max(1);
    let avg_candidates = summary
        .iterations
        .iter()
        .map(|i| i.avg_candidates)
        .sum::<f64>()
        / summary.iterations.len().max(1) as f64;
    let skip_ratio = summary.total_skipped() as f64 / (n * iters) as f64;
    let miss = misplaced(&o.fit, train, &o.fit.assignments) as f64 / n as f64;
    // The timed LSH fit stops at its budget; its iterations to convergence
    // are the budget plus those of a warm-started resumption.
    let lsh_resumed = resume(cat, &w.spec, &o.fit)?;
    c.require(
        lsh_resumed.summary.converged,
        "resumed LSH fit did not converge",
    );
    c.require(
        cost_matches(&lsh_resumed, train),
        "resumed LSH fit: recomputed cost != summary.best_cost()",
    );
    let mb_spec = w
        .spec
        .clone()
        .fit(Fit::mini_batch(w.shape.k, w.shape.batch));
    let minibatch = tr.span("core.minibatch_fit", || fit(cat, &mb_spec))?;
    c.require(
        minibatch.assignments.len() == n
            && minibatch.assignments.iter().all(|a| (a.0 as usize) < k),
        "mini-batch fit: one valid assignment per item",
    );
    let mb = minibatch_profile(w, cat, seed);
    // The fit_s spec with shards(2). Sharded fits are byte-identical to
    // unsharded fits at two or more threads.
    let sharded = tr.span("core.shard_fit", || fit(cat, &w.spec.clone().shards(2)))?;
    let unsharded = fit(cat, &w.spec.clone().threads(2))?;
    c.require(
        sharded.assignments == unsharded.assignments,
        "shards(2) assignments differ from the unsharded fit",
    );
    c.require(
        cost_matches(&sharded, train),
        "shards(2) fit: recomputed cost != summary.best_cost()",
    );

    // lshclust: persistence and prediction.
    let model = &o.fit.model;
    let bytes = tr.span("lshclust.to_bytes", || model.to_bytes());
    let schema_json = serde_json::to_string(model.schema().expect("categorical schema"))
        .map_err(|e| e.to_string())?;
    if let Source::Text(_) = w.source {
        tr.span("lshclust.from_bytes", || FittedModel::from_bytes(&bytes))
            .map_err(|e| e.to_string())?;
    }
    let held_rows: Vec<Vec<&str>> = w
        .held
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    tr.span("lshclust.encode_row", || {
        for r in &held_rows {
            std::hint::black_box(model.encode_row(r).ok());
        }
    });
    let batch = encode_held(model, &w.held)?;
    let held = Items::new(batch.n_attrs(), batch.rows().flatten().copied().collect());
    let agreement = 1.0 - misplaced(&o.fit, &held, &o.predictions) as f64 / held.n as f64;

    let mut lat = untraced.latencies_ms.clone();
    let p99 = quantile(&mut lat, 0.99).unwrap_or(f64::NAN);
    let overhead = med(&traced.round) / med(&untraced.round) - 1.0;
    let span = |name: &str| tr.median_s(name).unwrap_or(f64::NAN);
    let count = |name: &str| tr.median_count(name).unwrap_or(f64::NAN);
    let distinct: usize = (0..m)
        .map(|a| {
            cat.schema()
                .dictionary(lshclust_categorical::AttrId(a as u32))
                .len()
        })
        .sum();

    let out = vec![
        Metric {
            name: "categorical.encode_s",
            unit: "s",
            value: span("categorical.encode"),
        },
        Metric {
            name: "categorical.distinct_values",
            unit: "count",
            value: distinct as f64,
        },
        Metric {
            name: "minhash.sign_s",
            unit: "s",
            value: span("minhash.sign"),
        },
        Metric {
            name: "minhash.hash_evals",
            unit: "count",
            value: count("minhash.hash_evals"),
        },
        Metric {
            name: "minhash.bucket_fill_s",
            unit: "s",
            value: span("minhash.bucket_fill"),
        },
        Metric {
            name: "minhash.buckets",
            unit: "count",
            value: count("minhash.buckets"),
        },
        Metric {
            name: "minhash.largest_bucket",
            unit: "count",
            value: count("minhash.largest_bucket"),
        },
        Metric {
            name: "kmodes.full_pass_s",
            unit: "s",
            value: span("kmodes.full_pass"),
        },
        Metric {
            name: "kmodes.cells_compared",
            unit: "count",
            value: count("kmodes.cells_compared"),
        },
        Metric {
            name: "kmodes.mode_update_s",
            unit: "s",
            value: span("kmodes.mode_update"),
        },
        Metric {
            name: "core.fit_setup_s",
            unit: "s",
            value: summary.setup.as_secs_f64(),
        },
        Metric {
            name: "core.iterate_s",
            unit: "s",
            value: iterate_s,
        },
        Metric {
            name: "core.iterations",
            unit: "count",
            value: (o.fit.n_iterations() + lsh_resumed.n_iterations()) as f64,
        },
        Metric {
            name: "core.exact_iterations",
            unit: "count",
            value: (o.exact.n_iterations() + resumed.n_iterations()) as f64,
        },
        Metric {
            name: "core.avg_candidates",
            unit: "count",
            value: avg_candidates,
        },
        Metric {
            name: "core.skip_ratio",
            unit: "fraction",
            value: skip_ratio,
        },
        Metric {
            name: "core.shortlist_miss_ratio",
            unit: "fraction",
            value: miss,
        },
        Metric {
            name: "core.minibatch_refresh_s",
            unit: "s",
            value: mb.0,
        },
        Metric {
            name: "core.minibatch_assign_s",
            unit: "s",
            value: mb.1,
        },
        Metric {
            name: "core.minibatch_fallback_ratio",
            unit: "fraction",
            value: mb.2,
        },
        Metric {
            name: "core.minibatch_fit_s",
            unit: "s",
            value: span("core.minibatch_fit"),
        },
        Metric {
            name: "core.shard_fit_s",
            unit: "s",
            value: span("core.shard_fit"),
        },
        Metric {
            name: "core.shard_overhead_s",
            unit: "s",
            value: span("core.shard_fit") - med(&untraced.fit),
        },
        Metric {
            name: "lshclust.to_bytes_s",
            unit: "s",
            value: span("lshclust.to_bytes"),
        },
        Metric {
            name: "lshclust.model_bytes",
            unit: "count",
            value: bytes.len() as f64,
        },
        Metric {
            name: "lshclust.schema_json_bytes",
            unit: "count",
            value: schema_json.len() as f64,
        },
        Metric {
            name: "lshclust.predict_s",
            unit: "s",
            value: span("lshclust.predict"),
        },
        Metric {
            name: "lshclust.encode_row_s",
            unit: "s",
            value: span("lshclust.encode_row"),
        },
        Metric {
            name: "lshclust.predict_exact_agreement",
            unit: "fraction",
            value: agreement,
        },
        Metric {
            name: "serve.start_s",
            unit: "s",
            value: span("serve.start"),
        },
        Metric {
            name: "serve.p99_ms",
            unit: "ms",
            value: p99,
        },
        Metric {
            name: "serve.hot_key_hit_ratio",
            unit: "fraction",
            value: med(&untraced.hit_ratio),
        },
        Metric {
            name: "trace.overhead_ratio",
            unit: "fraction",
            value: overhead,
        },
    ];
    // Layers only the text workload calls: reported beside the metrics and
    // kept in the trace file.
    if let Source::Text(_) = w.source {
        eprintln!(
            "e2ebench: text.vectorize_s = {:.6}",
            span("categorical.encode")
        );
        for extra in ["text.tfidf", "text.vocab", "lshclust.from_bytes"] {
            eprintln!("e2ebench: {extra}_s = {:.6}", span(extra));
        }
    }
    Ok(out)
}

/// Phase profile of the mini-batch engine on the workload's data:
/// (refresh seconds, assign seconds, fallback share of batch items).
fn minibatch_profile(w: &Workload, data: &Dataset, seed: u64) -> (f64, f64, f64) {
    use lshclust_core::minibatch::{minibatch_mh_kmodes, MiniBatchParams};
    use lshclust_kmodes::init::InitMethod;
    use lshclust_minhash::Banding;
    let Fit::MiniBatch {
        batch_size,
        n_steps,
        refresh_every,
    } = Fit::mini_batch(w.shape.k, w.shape.batch)
    else {
        unreachable!()
    };
    let Lsh::MinHash { bands, rows } = w.shape.lsh else {
        unreachable!("every workload uses MinHash")
    };
    let mut params = MiniBatchParams::new(batch_size, n_steps);
    params.refresh_every = refresh_every;
    let profile = minibatch_mh_kmodes(
        data,
        w.shape.k,
        InitMethod::RandomItems,
        seed,
        Some(Banding::new(bands, rows)),
        &params,
        1,
    )
    .profile;
    let sampled = (batch_size.min(data.n_items()) * n_steps).max(1);
    (
        profile.refresh.as_secs_f64(),
        profile.assign.as_secs_f64(),
        profile.fallbacks as f64 / sampled as f64,
    )
}
