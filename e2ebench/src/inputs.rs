//! Workload inputs, generated from the benchmark seed.
//!
//! The program under test receives only what is built here: CSV text,
//! question texts, or string rows. Ground-truth labels stay on the
//! benchmark's side. CSV text comes from this module's own writer:
//! `categorical::io::write_csv` renders every value of the generator's
//! unnamed schema as `∅`, so its output does not read back as the same
//! clustering problem.

use lshclust_categorical::Dataset;
use lshclust_datagen::corpus::{CorpusConfig, SyntheticCorpus};
use lshclust_datagen::datgen::{generate, DatgenConfig};
use std::fmt::Write as _;

/// SplitMix64: the benchmark's own stream for the request order,
/// independent of the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6532_6562_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Categorical training rows as CSV text plus held-out string rows.
pub struct CsvInputs {
    pub csv: String,
    pub labels: Vec<u32>,
    /// Held-out string rows the model never trained on.
    pub held: Vec<Vec<String>>,
}

/// Renders one generated row: value id `v` becomes the string `v`
/// (dictionaries are per attribute, so equal strings in different columns
/// stay distinct values).
fn render_row(ds: &Dataset, i: usize) -> Vec<String> {
    ds.row(i).iter().map(|v| v.0.to_string()).collect()
}

fn datgen_rows(n: usize, k: usize, attrs: usize, seed: u64) -> (Dataset, Vec<u32>) {
    // The paper's value domain (40 000 values per attribute) and rule
    // fractions are DatgenConfig's defaults.
    let ds = generate(&DatgenConfig::new(n, k, attrs).seed(seed));
    let labels = ds.labels().expect("datgen labels every row").to_vec();
    (ds, labels)
}

/// Datgen rows: the first `n_train` become CSV text, the next `n_held`
/// (the generator stream beyond the training rows) the held-out set.
pub fn datgen_csv(n_train: usize, n_held: usize, k: usize, attrs: usize, seed: u64) -> CsvInputs {
    let (ds, mut labels) = datgen_rows(n_train + n_held, k, attrs, seed);
    labels.truncate(n_train);
    let mut csv = String::with_capacity(n_train * attrs * 6);
    for a in 0..attrs {
        if a > 0 {
            csv.push(',');
        }
        let _ = write!(csv, "a{a}");
    }
    csv.push('\n');
    for i in 0..n_train {
        csv.push_str(&render_row(&ds, i).join(","));
        csv.push('\n');
    }
    let held = (n_train..n_train + n_held)
        .map(|i| render_row(&ds, i))
        .collect();
    CsvInputs { csv, labels, held }
}

/// A question corpus split per topic: the first `train_per_topic`
/// questions of each topic train, the rest are held out.
pub struct TextInputs {
    pub n_topics: usize,
    /// Training questions with the topic their asker recorded.
    pub train: Vec<(String, u32)>,
    /// The generator's true topic of each training question.
    pub truth: Vec<u32>,
    pub held_texts: Vec<String>,
}

pub fn corpus(
    n_topics: usize,
    train_per_topic: usize,
    held_per_topic: usize,
    seed: u64,
) -> TextInputs {
    let per_topic = train_per_topic + held_per_topic;
    let corpus = SyntheticCorpus::generate(&CorpusConfig::new(n_topics, per_topic).seed(seed));
    let mut out = TextInputs {
        n_topics,
        train: Vec::new(),
        truth: Vec::new(),
        held_texts: Vec::new(),
    };
    for (i, q) in corpus.questions.into_iter().enumerate() {
        if i % per_topic < train_per_topic {
            out.truth.push(q.true_topic);
            out.train.push((q.text, q.topic));
        } else {
            out.held_texts.push(q.text);
        }
    }
    out
}

/// Order in which held-out rows are requested: with probability
/// `repeat_share` a request repeats one of `hot` earlier rows, otherwise it
/// takes the next fresh row. `n_requests` must not outrun the fresh rows.
pub fn request_order(
    n_held: usize,
    n_requests: usize,
    repeat_share: f64,
    hot: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473);
    let mut next = 0usize;
    (0..n_requests)
        .map(|_| {
            if next >= hot && rng.unit() < repeat_share {
                rng.below(hot)
            } else {
                next += 1;
                assert!(next <= n_held, "request order ran out of held-out rows");
                next - 1
            }
        })
        .collect()
}
