//! Offline q-error workload matrix: point estimates vs guaranteed upper
//! bounds on the six accuracy workloads.
//!
//! For every scenario of the accuracy regression suite (same datasets,
//! scales, seed, and `WorkloadSpec::small()` as `tests/accuracy.rs`, so
//! the graded queries are exactly the golden-fixture queries) this bench
//! runs both estimation modes — the point estimate and
//! [`xseed_core::StreamingMatcher::estimate_bound`] — against the NoK
//! ground truth, grades each with
//! [`xseed_service::q_error_milli`] into a
//! [`xseed_service::HistogramSnapshot`], and reports the p50/p90/p99
//! milli-q percentiles per workload and mode. The histograms use the
//! same deterministic power-of-two bucket edges as the service's online
//! `METRICS qerr` tracking (PR 7), so offline matrix cells and online
//! gauge readings are directly comparable.
//!
//! Soundness is enforced, not just measured: any query whose bound falls
//! below the true cardinality (or below its own point estimate) panics
//! the bench. Results are written to `BENCH_qerr_matrix.json` at the
//! workspace root.
//!
//! Set `QERR_SMOKE=1` to grade only the first scenario and skip the JSON
//! write (the CI smoke mode keeping both estimation paths exercised).

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use nokstore::{Evaluator, NokStorage};
use xseed_core::{XseedConfig, XseedSynopsis};
use xseed_service::{format_milli_q, q_error_milli, HistogramSnapshot};

/// Workload seed — must match `tests/accuracy.rs` so the matrix grades
/// the same queries the committed goldens pin.
const SEED: u64 = 0xACC0;

struct Scenario {
    name: &'static str,
    dataset: Dataset,
    scale: f64,
    recursive: bool,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "xmark",
        dataset: Dataset::XMark10,
        scale: 0.02,
        recursive: false,
    },
    Scenario {
        name: "dblp",
        dataset: Dataset::Dblp,
        scale: 0.01,
        recursive: false,
    },
    Scenario {
        name: "treebank",
        dataset: Dataset::TreebankSmall,
        scale: 0.02,
        recursive: true,
    },
    Scenario {
        name: "swissprot",
        dataset: Dataset::SwissProt,
        scale: 0.02,
        recursive: false,
    },
    Scenario {
        name: "tpch",
        dataset: Dataset::Tpch,
        scale: 0.02,
        recursive: false,
    },
    Scenario {
        name: "xbench",
        dataset: Dataset::XBench,
        scale: 0.02,
        recursive: true,
    },
];

/// One graded mode: the milli-q histogram plus the worst observed ratio.
#[derive(Default)]
struct ModeGrades {
    hist: HistogramSnapshot,
}

impl ModeGrades {
    fn grade(&mut self, estimated: f64, actual: u64) {
        self.hist.record(q_error_milli(estimated, actual));
    }

    fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.hist.percentile(0.5),
            self.hist.percentile(0.9),
            self.hist.percentile(0.99),
        )
    }
}

struct Row {
    name: &'static str,
    queries: usize,
    point: ModeGrades,
    bound: ModeGrades,
}

fn grade_scenario(scenario: &Scenario) -> Row {
    let doc = scenario.dataset.generate_scaled(scenario.scale);
    let config = if scenario.recursive {
        XseedConfig::recursive_for_size(doc.element_count())
    } else {
        XseedConfig::default()
    };
    let workload = WorkloadGenerator::new(&doc, SEED).generate(&WorkloadSpec::small());
    assert!(!workload.is_empty(), "{}: empty workload", scenario.name);
    let (synopsis, _) = XseedSynopsis::build_with_het(&doc, config);
    let storage = NokStorage::from_document(&doc);
    let eval = Evaluator::new(&storage);

    let snapshot = synopsis.snapshot();
    let mut matcher = snapshot.matcher();
    let mut point = ModeGrades::default();
    let mut bound = ModeGrades::default();
    let mut queries = 0usize;
    for query in workload.all() {
        let actual = eval.count(query);
        let be = matcher.estimate_bound(query);
        // Soundness is the contract: a violated bound fails the bench
        // loudly rather than producing a quietly wrong matrix.
        assert!(
            be.bound + 1e-9 >= actual as f64,
            "{}: {query}: bound {} < true cardinality {actual}",
            scenario.name,
            be.bound,
        );
        assert!(
            be.bound + 1e-9 >= be.estimate,
            "{}: {query}: bound {} < point estimate {}",
            scenario.name,
            be.bound,
            be.estimate,
        );
        point.grade(be.estimate, actual);
        bound.grade(be.bound, actual);
        queries += 1;
    }
    Row {
        name: scenario.name,
        queries,
        point,
        bound,
    }
}

fn mode_json(grades: &ModeGrades) -> String {
    let (p50, p90, p99) = grades.percentiles();
    format!(
        "{{ \"qerr_p50\": {}, \"qerr_p90\": {}, \"qerr_p99\": {}, \"qerr_max\": {} }}",
        format_milli_q(p50),
        format_milli_q(p90),
        format_milli_q(p99),
        format_milli_q(grades.hist.max()),
    )
}

fn write_report(rows: &[Row]) {
    let mut body = String::from("{\n  \"bench\": \"qerr_matrix\",\n  \"workloads\": {\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    \"{}\": {{\n      \"queries\": {},\n      \
             \"point\": {},\n      \
             \"bound\": {},\n      \
             \"bound_violations\": 0\n    }}{}\n",
            row.name,
            row.queries,
            mode_json(&row.point),
            mode_json(&row.bound),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qerr_matrix.json");
    std::fs::write(path, body).expect("write BENCH_qerr_matrix.json");
    println!("wrote {path}");
}

fn main() {
    let smoke = std::env::var_os("QERR_SMOKE").is_some();
    let scenarios: &[Scenario] = if smoke { &SCENARIOS[..1] } else { &SCENARIOS };
    let mut rows = Vec::new();

    for scenario in scenarios {
        let row = grade_scenario(scenario);
        let (pp50, pp90, pp99) = row.point.percentiles();
        let (bp50, bp90, bp99) = row.bound.percentiles();
        println!(
            "qerr_matrix/{name}: queries={n} \
             point p50={pp50} p90={pp90} p99={pp99} \
             bound p50={bp50} p90={bp90} p99={bp99} (milli-q)",
            name = row.name,
            n = row.queries,
        );
        rows.push(row);
    }

    if smoke {
        println!("QERR_SMOKE set: skipping BENCH_qerr_matrix.json write");
    } else {
        write_report(&rows);
    }
}
