//! Accuracy regression suite: committed golden fixtures pin the
//! estimator's per-query output and aggregate error on the six
//! canonical workloads, so a future change cannot silently degrade
//! estimation quality (cf. the regression discipline argued for by the
//! cardinality-estimation benchmark literature).
//!
//! Each scenario builds the synopsis **with** its HET (the full
//! estimation stack), runs the deterministic SP/BP/CP workload, and
//! checks against `tests/fixtures/<name>.golden`:
//!
//! * every per-query estimate and upper bound must match the committed
//!   value bit for bit (the fixtures store each in Rust's shortest
//!   round-trip form, so any estimator drift shows, better or worse,
//!   down to the last bit);
//! * every upper bound must dominate both the true cardinality and the
//!   point estimate — zero violations, on every workload (the
//!   differential soundness contract of `EST … mode=bound`);
//! * the per-workload milli-q percentiles (p50/p90/p99, same bucket
//!   edges as the service's online `METRICS qerr` tracking) for both
//!   modes must match the committed `qerr_point` / `qerr_bound` lines
//!   exactly (they are deterministic integers);
//! * the aggregate NRMSE must not exceed the committed value by more
//!   than 5% (the headroom exists only so a justified estimator change
//!   can land together with regenerated fixtures).
//!
//! Regenerate the fixtures with
//! `UPDATE_GOLDEN=1 cargo test --test accuracy` after an *intentional*
//! accuracy change, and commit the diff — reviewers then see exactly
//! which estimates moved.

use xseed::prelude::*;

/// Workload seed; changing it invalidates every fixture.
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
    // Wide, shallow records with many repeated feature children — the
    // shape the other three scenarios don't cover.
    Scenario {
        name: "swissprot",
        dataset: Dataset::SwissProt,
        scale: 0.02,
        recursive: false,
    },
    // Relational-style order/lineitem nesting: deep fan-out but zero
    // recursion, the classic data-centric shape.
    Scenario {
        name: "tpch",
        dataset: Dataset::Tpch,
        scale: 0.02,
        recursive: false,
    },
    // Text-centric articles with shallow recursion (nested sections) —
    // between Treebank's heavy recursion and the flat record datasets.
    Scenario {
        name: "xbench",
        dataset: Dataset::XBench,
        scale: 0.02,
        recursive: true,
    },
];

struct Measured {
    /// `(query text, estimate, bound, actual)` in workload order.
    rows: Vec<(String, f64, f64, u64)>,
    nrmse: f64,
    /// Milli-q `(p50, p90, p99)` of the point estimates.
    qerr_point: (u64, u64, u64),
    /// Milli-q `(p50, p90, p99)` of the upper bounds.
    qerr_bound: (u64, u64, u64),
}

/// Milli-q p50/p90/p99 of `(estimate, actual)` pairs, on the same
/// deterministic power-of-two bucket edges as the service's online
/// q-error tracking.
fn qerr_percentiles(pairs: impl Iterator<Item = (f64, u64)>) -> (u64, u64, u64) {
    use xseed::xseed_service::{q_error_milli, HistogramSnapshot};
    let mut hist = HistogramSnapshot::default();
    for (est, actual) in pairs {
        hist.record(q_error_milli(est, actual));
    }
    (
        hist.percentile(0.5),
        hist.percentile(0.9),
        hist.percentile(0.99),
    )
}

fn measure(scenario: &Scenario) -> Measured {
    let doc = scenario.dataset.generate_scaled(scenario.scale);
    let config = if scenario.recursive {
        XseedConfig::recursive_for_size(doc.element_count())
    } else {
        XseedConfig::default()
    };
    let workload = WorkloadGenerator::new(&doc, SEED).generate(&WorkloadSpec::small());
    assert!(!workload.is_empty());
    let (synopsis, stats) = XseedSynopsis::build_with_het(&doc, config);
    assert!(stats.simple_entries > 0);

    let storage = NokStorage::from_document(&doc);
    let eval = Evaluator::new(&storage);
    let snapshot = synopsis.snapshot();
    let mut matcher = snapshot.matcher();
    let rows: Vec<(String, f64, f64, u64)> = workload
        .all()
        .map(|q| {
            let be = matcher.estimate_bound(q);
            (q.to_string(), be.estimate, be.bound, eval.count(q))
        })
        .collect();

    // NRMSE: root-mean-squared error normalized by the mean actual
    // cardinality of the workload.
    let n = rows.len() as f64;
    let mse = rows
        .iter()
        .map(|(_, est, _, act)| (est - *act as f64).powi(2))
        .sum::<f64>()
        / n;
    let mean_actual = rows.iter().map(|(_, _, _, act)| *act as f64).sum::<f64>() / n;
    assert!(mean_actual > 0.0, "degenerate workload: all actuals zero");
    Measured {
        nrmse: mse.sqrt() / mean_actual,
        qerr_point: qerr_percentiles(rows.iter().map(|(_, est, _, act)| (*est, *act))),
        qerr_bound: qerr_percentiles(rows.iter().map(|(_, _, bound, act)| (*bound, *act))),
        rows,
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.golden"))
}

fn render(scenario: &Scenario, measured: &Measured) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# accuracy golden for {name}: dataset={dataset:?} scale={scale} seed={SEED:#x} \
         queries={n}\n\
         # regenerate with: UPDATE_GOLDEN=1 cargo test --test accuracy\n",
        name = scenario.name,
        dataset = scenario.dataset,
        scale = scenario.scale,
        n = measured.rows.len(),
    ));
    out.push_str(&format!("nrmse\t{:.9}\n", measured.nrmse));
    let (p50, p90, p99) = measured.qerr_point;
    out.push_str(&format!("qerr_point\t{p50}\t{p90}\t{p99}\n"));
    let (p50, p90, p99) = measured.qerr_bound;
    out.push_str(&format!("qerr_bound\t{p50}\t{p90}\t{p99}\n"));
    for (query, est, bound, actual) in &measured.rows {
        out.push_str(&format!("q\t{query}\t{est}\t{bound}\t{actual}\n"));
    }
    out
}

struct Golden {
    rows: Vec<(String, f64, f64, u64)>,
    nrmse: f64,
    qerr_point: (u64, u64, u64),
    qerr_bound: (u64, u64, u64),
}

fn parse_golden(name: &str, text: &str) -> Golden {
    let mut rows = Vec::new();
    let mut nrmse = None;
    let mut qerr_point = None;
    let mut qerr_bound = None;
    let parse_qerr = |p50: &str, p90: &str, p99: &str| {
        (
            p50.parse::<u64>().unwrap(),
            p90.parse::<u64>().unwrap(),
            p99.parse::<u64>().unwrap(),
        )
    };
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["nrmse", value] => nrmse = Some(value.parse::<f64>().unwrap()),
            ["qerr_point", p50, p90, p99] => qerr_point = Some(parse_qerr(p50, p90, p99)),
            ["qerr_bound", p50, p90, p99] => qerr_bound = Some(parse_qerr(p50, p90, p99)),
            ["q", query, est, bound, actual] => rows.push((
                query.to_string(),
                est.parse::<f64>().unwrap(),
                bound.parse::<f64>().unwrap(),
                actual.parse::<u64>().unwrap(),
            )),
            other => panic!("{name}.golden: malformed line {other:?}"),
        }
    }
    Golden {
        rows,
        nrmse: nrmse.unwrap_or_else(|| panic!("{name}.golden: missing nrmse line")),
        qerr_point: qerr_point.unwrap_or_else(|| panic!("{name}.golden: missing qerr_point line")),
        qerr_bound: qerr_bound.unwrap_or_else(|| panic!("{name}.golden: missing qerr_bound line")),
    }
}

fn check(scenario: &Scenario) {
    let measured = measure(scenario);
    let path = fixture_path(scenario.name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(scenario, &measured)).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test accuracy",
            path.display()
        )
    });
    let golden = parse_golden(scenario.name, &text);

    assert_eq!(
        measured.rows.len(),
        golden.rows.len(),
        "{}: workload size changed (did the generator or seed change?)",
        scenario.name
    );
    for (i, ((query, est, bound, actual), (g_query, g_est, g_bound, g_actual))) in
        measured.rows.iter().zip(&golden.rows).enumerate()
    {
        assert_eq!(
            query, g_query,
            "{}: query {i} changed — workload generation drifted",
            scenario.name
        );
        assert_eq!(
            actual, g_actual,
            "{}: {query}: actual cardinality changed — dataset generation drifted",
            scenario.name
        );
        // Golden values are written in shortest round-trip form, so they
        // parse back to the exact bits the estimator produced.
        assert_eq!(
            est.to_bits(),
            g_est.to_bits(),
            "{}: {query}: estimate {est} drifted from golden {g_est}",
            scenario.name
        );
        assert_eq!(
            bound.to_bits(),
            g_bound.to_bits(),
            "{}: {query}: bound {bound} drifted from golden {g_bound}",
            scenario.name
        );
        // The soundness contract of `EST … mode=bound`: zero violations
        // allowed, on every workload query.
        assert!(
            *bound + 1e-9 >= *actual as f64,
            "{}: {query}: bound {bound} < true cardinality {actual}",
            scenario.name
        );
        assert!(
            *bound + 1e-9 >= *est,
            "{}: {query}: bound {bound} < point estimate {est}",
            scenario.name
        );
    }
    assert_eq!(
        measured.qerr_point, golden.qerr_point,
        "{}: point-mode q-error percentiles drifted",
        scenario.name
    );
    assert_eq!(
        measured.qerr_bound, golden.qerr_bound,
        "{}: bound-mode q-error percentiles drifted",
        scenario.name
    );
    assert!(
        measured.nrmse.is_finite(),
        "{}: NRMSE must be finite",
        scenario.name
    );
    assert!(
        measured.nrmse <= golden.nrmse * 1.05 + 1e-9,
        "{}: aggregate NRMSE regressed: {} vs golden {} — estimation quality degraded",
        scenario.name,
        measured.nrmse,
        golden.nrmse
    );
}

#[test]
fn xmark_accuracy_matches_golden() {
    check(&SCENARIOS[0]);
}

#[test]
fn dblp_accuracy_matches_golden() {
    check(&SCENARIOS[1]);
}

#[test]
fn treebank_accuracy_matches_golden() {
    check(&SCENARIOS[2]);
}

#[test]
fn swissprot_accuracy_matches_golden() {
    check(&SCENARIOS[3]);
}

#[test]
fn tpch_accuracy_matches_golden() {
    check(&SCENARIOS[4]);
}

#[test]
fn xbench_accuracy_matches_golden() {
    check(&SCENARIOS[5]);
}
