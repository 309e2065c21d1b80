//! The benchmark's inputs: three generated documents written as XML
//! files, their query sets, and the seeded orderings of those sets.
//!
//! The documents and the query *sets* are fixed (the generators take
//! [`QUERY_SEED`]); `--seed` only orders them. The hot-set q-error
//! therefore repeats exactly from run to run, while the order in which
//! requests hit the daemon changes with the seed.

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use nokstore::{Evaluator, NokStorage};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use xmlkit::tree::Document;
use xpathkit::ast::PathExpr;
use xseed_core::XseedConfig;

/// Seed of the query generators.
pub const QUERY_SEED: u64 = 42;

/// The served documents: catalog name, generator, and whether it is
/// loaded with the `recursive` flag.
const DOCS: [(&str, Dataset, bool); 3] = [
    ("xmark", Dataset::XMark10, false),
    ("dblp", Dataset::Dblp, false),
    ("treebank", Dataset::TreebankSmall, true),
];

/// Index of `xmark` in [`Inputs::docs`], the document that takes writes.
pub const XMARK: usize = 0;

/// The query class, as the paper's workloads split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Simple path (SP).
    Simple,
    /// Branching path (BP).
    Branching,
    /// Complex path (CP).
    Complex,
}

/// One generated document and the file the daemon loads it from.
pub struct Doc {
    /// Catalog name.
    pub name: &'static str,
    /// Loaded with the `recursive` flag.
    pub recursive: bool,
    /// The document itself.
    pub doc: Document,
    /// Its XML text, exactly as written to `path`.
    pub xml: String,
    /// The XML file.
    pub path: PathBuf,
}

impl Doc {
    /// The estimator configuration a file `LOAD` picks for this document.
    pub fn config(&self) -> XseedConfig {
        if self.recursive {
            XseedConfig::recursive_document()
        } else {
            XseedConfig::default()
        }
    }

    /// The `LOAD` request line for this document.
    pub fn load_line(&self, retain: bool) -> String {
        format!(
            "LOAD {} {}{}{}",
            self.name,
            self.path.display(),
            if self.recursive { " recursive" } else { "" },
            if retain { " retain" } else { "" },
        )
    }
}

/// One query of a query set.
#[derive(Debug, Clone)]
pub struct Query {
    /// Index into [`Inputs::docs`].
    pub doc: usize,
    /// XPath text, as sent on the wire.
    pub text: String,
    /// Its class.
    pub class: Class,
}

/// Everything the workloads draw from.
pub struct Inputs {
    /// The three documents, in [`DOCS`] order.
    pub docs: Vec<Doc>,
    /// The hot set: `WorkloadSpec::small()` of every document, in
    /// generation order (per document: SP, then BP, then CP).
    pub hot: Vec<Query>,
}

impl Inputs {
    /// Generates the documents, writes them under `dir`, and generates
    /// the hot set.
    pub fn generate(dir: &Path) -> std::io::Result<Inputs> {
        std::fs::create_dir_all(dir)?;
        let mut docs = Vec::new();
        for (name, dataset, recursive) in DOCS {
            let doc = dataset.generate_scaled(1.0);
            let xml = xmlkit::writer::to_string(&doc);
            let path = dir.join(format!("{name}.xml"));
            std::fs::write(&path, &xml)?;
            docs.push(Doc {
                name,
                recursive,
                doc,
                xml,
                path,
            });
        }
        let mut hot = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            hot.extend(queries(i, &doc.doc, &WorkloadSpec::small()));
        }
        Ok(Inputs { docs, hot })
    }

    /// The cold set: every distinct query of a large workload (all simple
    /// paths, 3,000 branching and 3,000 complex queries) of every
    /// document — several times the daemon's 4,096-plan cache.
    pub fn cold_set(&self) -> Vec<Query> {
        let spec = WorkloadSpec {
            branching: 3000,
            complex: 3000,
            max_simple: usize::MAX,
            predicates_per_step: 1,
        };
        let mut out = Vec::new();
        for (i, doc) in self.docs.iter().enumerate() {
            let mut seen = HashSet::new();
            out.extend(
                queries(i, &doc.doc, &spec)
                    .into_iter()
                    .filter(|q| seen.insert(q.text.clone())),
            );
        }
        out
    }

    /// Exact result cardinalities of `queries`, counted by the NoK
    /// evaluator over the source documents.
    pub fn exact_counts(&self, queries: &[Query]) -> Vec<u64> {
        let storages: Vec<NokStorage> = self
            .docs
            .iter()
            .map(|d| NokStorage::from_document(&d.doc))
            .collect();
        queries
            .iter()
            .map(|q| {
                let expr = xpathkit::parse(&q.text).expect("generated queries parse");
                Evaluator::new(&storages[q.doc]).count(&expr)
            })
            .collect()
    }
}

fn queries(doc_index: usize, doc: &Document, spec: &WorkloadSpec) -> Vec<Query> {
    let workload = WorkloadGenerator::new(doc, QUERY_SEED).generate(spec);
    let tag = |class: Class| {
        move |expr: &PathExpr| Query {
            doc: doc_index,
            text: expr.to_string(),
            class,
        }
    };
    let mut out: Vec<Query> = workload.simple.iter().map(tag(Class::Simple)).collect();
    out.extend(workload.branching.iter().map(tag(Class::Branching)));
    out.extend(workload.complex.iter().map(tag(Class::Complex)));
    out
}

/// SplitMix64: a tiny, fully specified generator, so a seed orders the
/// query sets identically on every platform and toolchain.
struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Shuffles each class of `items` with `seed`, then merges the classes
/// in proportion to their sizes, so every window of the result holds the
/// same SP/BP/CP mix to within one query per class. Batches cut from it
/// are therefore alike, and no latency percentile falls on a boundary
/// between batch compositions.
pub fn stratified_shuffle(items: &[Query], seed: u64) -> Vec<Query> {
    let mut classes: Vec<Vec<Query>> = [Class::Simple, Class::Branching, Class::Complex]
        .iter()
        .map(|&c| items.iter().filter(|q| q.class == c).cloned().collect())
        .collect();
    for (i, class) in classes.iter_mut().enumerate() {
        shuffle(class, seed.wrapping_add(i as u64));
    }
    let total = items.len();
    let mut taken = [0usize; 3];
    let mut out = Vec::with_capacity(total);
    for pos in 1..=total {
        // The class furthest behind its proportional share goes next.
        let next = (0..3)
            .filter(|&c| taken[c] < classes[c].len())
            .max_by_key(|&c| (classes[c].len() * pos).saturating_sub(taken[c] * total))
            .expect("positions never outnumber items");
        out.push(classes[next][taken[next]].clone());
        taken[next] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(class: Class, n: usize) -> Query {
        Query {
            doc: 0,
            text: format!("/q{n}"),
            class,
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed_and_a_permutation() {
        let base: Vec<u32> = (0..500).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        a.sort_unstable();
        assert_eq!(a, base);
    }

    #[test]
    fn stratified_shuffle_keeps_every_window_at_the_same_mix() {
        let mut items: Vec<Query> = (0..218).map(|n| query(Class::Simple, n)).collect();
        items.extend((0..100).map(|n| query(Class::Branching, 1000 + n)));
        items.extend((0..100).map(|n| query(Class::Complex, 2000 + n)));
        let mixed = stratified_shuffle(&items, 3);
        assert_eq!(mixed.len(), items.len());
        assert_eq!(
            stratified_shuffle(&items, 3)
                .iter()
                .map(|q| &q.text)
                .collect::<Vec<_>>(),
            mixed.iter().map(|q| &q.text).collect::<Vec<_>>()
        );
        for window in mixed.chunks_exact(64) {
            let simple = window.iter().filter(|q| q.class == Class::Simple).count();
            let branching = window
                .iter()
                .filter(|q| q.class == Class::Branching)
                .count();
            assert!((32..=35).contains(&simple), "simple {simple}");
            assert!((14..=17).contains(&branching), "branching {branching}");
        }
    }
}
