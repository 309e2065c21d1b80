//! Property-based tests over randomly generated documents and queries,
//! checking the invariants the synopsis design relies on.

use proptest::prelude::*;
use xseed::prelude::*;
use xseed::xseed_core::estimate::{ExpandedPathTree, Matcher};

/// Strategy: a small random XML document described as a nested tree over a
/// tiny alphabet (so recursion and repeated labels actually happen).
fn arb_document() -> impl Strategy<Value = Document> {
    // A tree of label indices with bounded depth/size.
    let leaf = (0u8..5).prop_map(|l| Tree {
        label: l,
        children: vec![],
    });
    let tree = leaf.prop_recursive(4, 60, 5, |inner| {
        ((0u8..5), prop::collection::vec(inner, 0..5))
            .prop_map(|(label, children)| Tree { label, children })
    });
    tree.prop_map(|t| {
        let mut builder = xseed::xmlkit::tree::DocumentBuilder::new();
        build(&t, &mut builder);
        builder.finish().expect("generated tree is balanced")
    })
}

#[derive(Debug, Clone)]
struct Tree {
    label: u8,
    children: Vec<Tree>,
}

fn build(tree: &Tree, builder: &mut xseed::xmlkit::tree::DocumentBuilder) {
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    builder.start_element(NAMES[tree.label as usize]);
    for child in &tree.children {
        build(child, builder);
    }
    builder.end_element();
}

/// Strategy: a random simple or descendant path over the same alphabet.
fn arb_query() -> impl Strategy<Value = PathExpr> {
    let step = (0u8..5, prop::bool::ANY, prop::bool::ANY);
    prop::collection::vec(step, 1..5).prop_map(|steps| {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let steps = steps
            .into_iter()
            .map(|(label, descendant, wildcard)| xseed::xpathkit::Step {
                axis: if descendant {
                    xseed::xpathkit::Axis::Descendant
                } else {
                    xseed::xpathkit::Axis::Child
                },
                test: if wildcard {
                    xseed::xpathkit::NodeTest::Wildcard
                } else {
                    xseed::xpathkit::NodeTest::Name(NAMES[label as usize].to_string())
                },
                predicates: vec![],
            })
            .collect();
        PathExpr::new(steps)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The XML writer and SAX parser round-trip every generated document.
    #[test]
    fn writer_parser_roundtrip(doc in arb_document()) {
        let text = xseed::xmlkit::writer::to_string(&doc);
        let reparsed = Document::parse_str(&text).unwrap();
        prop_assert!(doc.structurally_equal(&reparsed));
    }

    /// Kernel construction is insensitive to the construction path
    /// (in-memory document vs. SAX text).
    #[test]
    fn kernel_construction_paths_agree(doc in arb_document()) {
        let text = xseed::xmlkit::writer::to_string(&doc);
        let from_doc = xseed::xseed_core::KernelBuilder::from_document(&doc);
        let from_text = xseed::xseed_core::KernelBuilder::from_xml_str(&text).unwrap();
        prop_assert_eq!(from_doc.to_string(), from_text.to_string());
    }

    /// The kernel's total element count and per-vertex cardinalities match
    /// the document exactly (they are exact counters, not estimates).
    #[test]
    fn kernel_counts_are_exact(doc in arb_document()) {
        let kernel = xseed::xseed_core::KernelBuilder::from_document(&doc);
        prop_assert_eq!(kernel.element_count(), doc.element_count() as u64);
        let hist = doc.label_histogram();
        for (label, count) in hist.iter().enumerate() {
            let label = xseed::xmlkit::names::LabelId(label as u32);
            if let Some(vertex) = kernel.vertex_by_label(label) {
                if Some(vertex) != kernel.root() {
                    prop_assert_eq!(kernel.vertex_cardinality(vertex), *count as u64);
                }
            }
        }
    }

    /// Kernel serialization round-trips.
    #[test]
    fn kernel_serialization_roundtrip(doc in arb_document()) {
        let kernel = xseed::xseed_core::KernelBuilder::from_document(&doc);
        let back = xseed::xseed_core::Kernel::deserialize(&kernel.serialize()).unwrap();
        prop_assert_eq!(kernel.to_string(), back.to_string());
        prop_assert_eq!(kernel.element_count(), back.element_count());
    }

    /// Estimates are always finite and non-negative, and simple rooted
    /// label paths taken from the document itself are estimated exactly
    /// when the synopsis carries a full HET.
    #[test]
    fn estimates_are_finite_and_simple_paths_exact(doc in arb_document(), query in arb_query()) {
        let (synopsis, _) = XseedSynopsis::build_with_het(&doc, XseedConfig::default());
        let estimate = synopsis.estimate(&query);
        prop_assert!(estimate.is_finite());
        prop_assert!(estimate >= 0.0);

        let path_tree = PathTree::from_document(&doc);
        for (expr, actual) in path_tree.all_simple_paths(doc.names()) {
            let est = synopsis.estimate(&expr);
            prop_assert!((est - actual as f64).abs() < 1e-6,
                "{} estimated {} actual {}", expr, est, actual);
        }
    }

    /// The exact evaluator agrees with the path tree on every rooted
    /// simple path of the document.
    #[test]
    fn evaluator_agrees_with_path_tree(doc in arb_document()) {
        let storage = NokStorage::from_document(&doc);
        let evaluator = Evaluator::new(&storage);
        let path_tree = PathTree::from_document(&doc);
        for (expr, actual) in path_tree.all_simple_paths(doc.names()) {
            prop_assert_eq!(evaluator.count(&expr), actual);
        }
    }

    /// Estimation over a wildcard descendant query is always finite and
    /// at least 1 (the root always matches). When the document is flat
    /// (depth ≤ 2) the kernel admits no false-positive paths and the
    /// estimate equals the element count exactly; deeper documents may
    /// deviate because the label-split graph can contain cycles that do
    /// not correspond to document paths (Observation 1).
    #[test]
    fn wildcard_descendant_counts_every_element(doc in arb_document()) {
        let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
        let q = parse_query("//*").unwrap();
        let est = synopsis.estimate(&q);
        prop_assert!(est.is_finite());
        prop_assert!(est >= 1.0);
        if doc.max_depth() <= 2 {
            prop_assert!((est - doc.element_count() as f64).abs() < 1e-6,
                "flat-document //* estimate {} vs {}", est, doc.element_count());
        }
    }

    /// Adding then removing a random subtree restores every edge statistic
    /// and the element count (vertices introduced for brand-new labels may
    /// remain as empty tombstones, so the comparison is on edges).
    #[test]
    fn add_remove_subtree_roundtrip(doc in arb_document(), subtree in arb_document()) {
        let original = xseed::xseed_core::KernelBuilder::from_document(&doc);
        let mut kernel = original.clone();
        let root_name = doc.name(doc.root()).to_string();
        kernel.add_subtree(&[root_name.as_str()], &subtree).unwrap();
        kernel.remove_subtree(&[root_name.as_str()], &subtree).unwrap();
        let edges_of = |k: &xseed::xseed_core::Kernel| {
            k.to_string().lines().skip(1).map(String::from).collect::<Vec<_>>()
        };
        prop_assert_eq!(edges_of(&kernel), edges_of(&original));
        prop_assert_eq!(kernel.element_count(), original.element_count());
    }

    /// Query parsing round-trips through Display for generated queries.
    #[test]
    fn query_display_parse_roundtrip(query in arb_query()) {
        let text = query.to_string();
        let reparsed = parse_query(&text).unwrap();
        prop_assert_eq!(query, reparsed);
    }

    /// The exact evaluator never returns more matches for a query with an
    /// extra predicate than for the same query without it.
    #[test]
    fn predicates_are_monotone(doc in arb_document()) {
        let storage = NokStorage::from_document(&doc);
        let evaluator = Evaluator::new(&storage);
        let base = parse_query("//a/b").unwrap();
        let constrained = parse_query("//a[c]/b").unwrap();
        prop_assert!(evaluator.count(&constrained) <= evaluator.count(&base));
    }
}

/// Strategy: a random query that may carry branching predicates (single or
/// nested one level), exercising the streaming matcher's deferred
/// predicate-evaluation machinery.
fn arb_pred_query() -> impl Strategy<Value = PathExpr> {
    let pred_step = (0u8..5, prop::bool::ANY);
    let pred = prop::collection::vec(pred_step, 1..3);
    let step = (
        0u8..5,
        prop::bool::ANY,
        prop::bool::ANY,
        prop::collection::vec(pred, 0..3),
    );
    prop::collection::vec(step, 1..5).prop_map(|steps| {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let steps = steps
            .into_iter()
            .map(
                |(label, descendant, wildcard, preds)| xseed::xpathkit::Step {
                    axis: if descendant {
                        xseed::xpathkit::Axis::Descendant
                    } else {
                        xseed::xpathkit::Axis::Child
                    },
                    test: if wildcard {
                        xseed::xpathkit::NodeTest::Wildcard
                    } else {
                        xseed::xpathkit::NodeTest::Name(NAMES[label as usize].to_string())
                    },
                    predicates: preds
                        .into_iter()
                        .map(|pred_steps| {
                            PathExpr::new(
                                pred_steps
                                    .into_iter()
                                    .map(|(l, desc)| xseed::xpathkit::Step {
                                        axis: if desc {
                                            xseed::xpathkit::Axis::Descendant
                                        } else {
                                            xseed::xpathkit::Axis::Child
                                        },
                                        test: xseed::xpathkit::NodeTest::Name(
                                            NAMES[l as usize].to_string(),
                                        ),
                                        predicates: vec![],
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                },
            )
            .collect();
        PathExpr::new(steps)
    })
}

/// Tolerance for streaming-vs-materialized agreement: 1e-9 absolute, with
/// an ulp-scale relative term for large cardinalities (the two paths
/// multiply identical factors in slightly different associations).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 + 1e-12 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming matcher over the frozen kernel produces exactly the
    /// estimates of the materialized-EPT matcher, with and without a HET
    /// attached, over random documents and random (predicate-bearing)
    /// queries — including under a tiny `max_ept_nodes`, where the old
    /// hard cap used to let the two paths truncate at different frontiers
    /// (those cases were skipped here before threshold escalation made
    /// the frontier a pure function of the snapshot). The snapshot's
    /// frontier memo records exactly the oracle's EPT, which pins the
    /// memo walk's threshold escalation to the traveler's.
    #[test]
    fn streaming_equals_materialized_oracle(
        doc in arb_document(),
        queries in prop::collection::vec(arb_pred_query(), 1..8),
    ) {
        let configs = [
            XseedConfig::default().with_card_threshold(0.5),
            XseedConfig { max_ept_nodes: 5, ..XseedConfig::default() },
        ];
        for config in configs {
            let bare = XseedSynopsis::build(&doc, config.clone());
            let (with_het, _) = XseedSynopsis::build_with_het(&doc, config.clone());
            for synopsis in [&bare, &with_het] {
                let ept =
                    ExpandedPathTree::generate(synopsis.kernel(), synopsis.config(), synopsis.het());
                let oracle = Matcher::new(synopsis.kernel(), &ept, synopsis.het());
                prop_assert!(ept.len() <= synopsis.config().max_ept_nodes.max(1));
                let snapshot = synopsis.snapshot();
                prop_assert_eq!(snapshot.frontier_memo().len(), ept.len());
                let mut streaming = snapshot.matcher();
                for query in &queries {
                    let expected = oracle.estimate(query);
                    let got = streaming.estimate(query);
                    prop_assert!(
                        close(expected, got),
                        "{} (het: {}): streaming {} != materialized {}",
                        query, synopsis.het().is_some(), got, expected
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bound-mode soundness: over random documents and random
    /// (predicate-bearing) queries, the upper bound dominates both the
    /// exact NoK cardinality and the point estimate — with a full HET,
    /// without one, and under `card_threshold` pruning (including the
    /// escalation a tiny `max_ept_nodes` forces; a heavily pruned
    /// synopsis may estimate worse, but its bound must stay sound).
    #[test]
    fn bound_dominates_truth_and_estimate(
        doc in arb_document(),
        queries in prop::collection::vec(arb_pred_query(), 1..8),
    ) {
        let storage = NokStorage::from_document(&doc);
        let evaluator = Evaluator::new(&storage);
        let truncated = XseedConfig {
            max_ept_nodes: 3,
            ..XseedConfig::default()
        };
        let configs = [
            XseedConfig::default(),
            XseedConfig::default().with_card_threshold(0.5),
            truncated,
        ];
        for (i, config) in configs.iter().enumerate() {
            let bare = XseedSynopsis::build(&doc, config.clone());
            let (with_het, _) = XseedSynopsis::build_with_het(&doc, config.clone());
            for synopsis in [&bare, &with_het] {
                let snapshot = synopsis.snapshot();
                let mut matcher = snapshot.matcher();
                for query in &queries {
                    let actual = evaluator.count(query) as f64;
                    let be = matcher.estimate_bound(query);
                    prop_assert!(
                        be.bound + 1e-9 >= actual,
                        "{} (config {}, het: {}): bound {} < true cardinality {}",
                        query, i, synopsis.het().is_some(), be.bound, actual
                    );
                    prop_assert!(
                        be.bound + 1e-9 >= be.estimate,
                        "{} (config {}, het: {}): bound {} < point estimate {}",
                        query, i, synopsis.het().is_some(), be.bound, be.estimate
                    );
                }
            }
        }
    }
}

/// Builds the HET for `doc` twice — with the production streaming builder
/// and with the retained EPT+NoK reference oracle — and asserts the two
/// tables are entry-for-entry identical: same keys and kinds, exact
/// cardinalities and backward selectivities bit-for-bit (both derive them
/// from the same integer statistics), and errors equal up to the
/// float-association noise between the streaming and materialized
/// estimate paths.
fn assert_streaming_het_matches_reference(
    doc: &Document,
    config: &xseed::xseed_core::XseedConfig,
) -> Result<(), TestCaseError> {
    use xseed::xseed_core::het::builder::reference::ReferenceHetBuilder;
    use xseed::xseed_core::HetBuilder;

    let kernel = xseed::xseed_core::KernelBuilder::from_document(doc);
    let path_tree = PathTree::from_document(doc);
    let storage = NokStorage::from_document(doc);
    let (streamed, new_stats) = HetBuilder::new(&kernel, &path_tree, &storage, config).build();
    let (oracle, old_stats) =
        ReferenceHetBuilder::new(&kernel, &path_tree, &storage, config).build();

    prop_assert_eq!(new_stats.simple_entries, old_stats.simple_entries);
    prop_assert_eq!(new_stats.correlated_entries, old_stats.correlated_entries);
    prop_assert_eq!(new_stats.exact_evaluations, old_stats.exact_evaluations);
    prop_assert_eq!(new_stats.candidate_nodes, old_stats.candidate_nodes);
    prop_assert_eq!(streamed.len(), oracle.len());
    prop_assert_eq!(streamed.budget(), oracle.budget());

    let index = |t: &xseed::xseed_core::HyperEdgeTable| {
        t.entries_by_error()
            .into_iter()
            .map(|e| ((e.key, e.kind), (e.cardinality, e.bsel, e.error)))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let a = index(&streamed);
    let b = index(&oracle);
    prop_assert_eq!(a.len(), b.len());
    for (k, (card_a, bsel_a, err_a)) in &a {
        let Some((card_b, bsel_b, err_b)) = b.get(k) else {
            return Err(TestCaseError::fail(format!("oracle misses entry {k:?}")));
        };
        prop_assert_eq!(card_a, card_b, "cardinality for {:?}", k);
        prop_assert_eq!(bsel_a.to_bits(), bsel_b.to_bits(), "bsel for {:?}", k);
        prop_assert!(
            close(*err_a, *err_b),
            "error for {:?}: streamed {} vs oracle {}",
            k,
            err_a,
            err_b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming-driven HET builder produces a table entry-for-entry
    /// identical to the old EPT+NoK reference construction on random
    /// documents, across MBP settings and with/without `card_threshold`
    /// truncation of the expansion.
    #[test]
    fn streaming_het_build_equals_reference_on_random_docs(doc in arb_document()) {
        for config in [
            XseedConfig::default(),
            XseedConfig::default().with_bsel_threshold(0.9),
            XseedConfig::default()
                .with_bsel_threshold(0.9)
                .with_max_branching_predicates(2),
            // card_threshold truncation: the frontier stops early on both
            // paths (the memo truncates at the materialized frontier).
            XseedConfig::default()
                .with_bsel_threshold(0.9)
                .with_card_threshold(2.0),
            // A tiny node bound: both builders escalate the threshold
            // identically, so the tables still match entry-for-entry.
            XseedConfig { max_ept_nodes: 5, ..XseedConfig::default() },
        ] {
            assert_streaming_het_matches_reference(&doc, &config)?;
        }
    }

    /// Partitioned construction is bit-identical to the monolithic build
    /// on random documents: same serialized kernel bytes, same HET entry
    /// count, and bit-equal estimates for random queries, for every
    /// partition count from degenerate to more-than-root-children.
    #[test]
    fn partitioned_build_is_bit_identical_on_random_docs(
        doc in arb_document(),
        queries in prop::collection::vec(arb_query(), 1..6),
    ) {
        let config = XseedConfig::default().with_bsel_threshold(0.9);
        let (mono, mono_stats) = XseedSynopsis::build_with_het(&doc, config.clone());
        let mono_bytes = mono.kernel().serialize();
        for partitions in [1usize, 2, 3, 5, 9] {
            let (part, part_stats) =
                XseedSynopsis::build_with_het_partitioned(&doc, config.clone(), partitions);
            prop_assert_eq!(&part.kernel().serialize(), &mono_bytes);
            prop_assert_eq!(part_stats.simple_entries, mono_stats.simple_entries);
            prop_assert_eq!(part_stats.correlated_entries, mono_stats.correlated_entries);
            prop_assert_eq!(
                part.het().map(|h| h.len()),
                mono.het().map(|h| h.len())
            );
            for query in &queries {
                prop_assert_eq!(
                    part.estimate(query).to_bits(),
                    mono.estimate(query).to_bits(),
                    "estimate for {} diverges at partitions={}",
                    query,
                    partitions
                );
            }
        }
    }

    /// `CountStablePartition::compute` lands on a true fixpoint: one more
    /// refinement pass returns the identical class vector (not merely the
    /// same class count) on random documents.
    #[test]
    fn count_stable_partition_is_a_true_fixpoint(doc in arb_document()) {
        use xseed::treesketch::CountStablePartition;
        let fixed = CountStablePartition::compute(&doc);
        let refined = fixed.refine_step(&doc);
        prop_assert_eq!(fixed.classes(), refined.classes());
        prop_assert_eq!(fixed.class_count(), refined.class_count());
    }
}

/// The streaming-driven HET builder matches the reference construction on
/// the paper's canonical XMark/DBLP/Treebank documents, with and without
/// `card_threshold` truncation.
#[test]
fn streaming_het_build_equals_reference_on_datagen_workloads() {
    use xseed::datagen::Dataset;

    // `None` = the recursive preset scaled to the generated document (the
    // preset needs the element count, so it is computed after generation).
    let scenarios: [(Dataset, f64, Option<XseedConfig>); 4] = [
        (Dataset::XMark10, 0.02, Some(XseedConfig::default())),
        (
            Dataset::XMark10,
            0.02,
            Some(XseedConfig::default().with_card_threshold(2.0)),
        ),
        (Dataset::Dblp, 0.01, Some(XseedConfig::default())),
        (Dataset::TreebankSmall, 0.02, None),
    ];
    for (dataset, scale, config) in scenarios {
        let doc = dataset.generate_scaled(scale);
        let config = config.unwrap_or_else(|| XseedConfig::recursive_for_size(doc.element_count()));
        assert_streaming_het_matches_reference(&doc, &config)
            .unwrap_or_else(|e| panic!("{dataset:?}: {e}"));
    }
}

/// The streaming matcher agrees with the materialized oracle on realistic
/// SP/BP/CP workloads over the paper's synthetic datasets — a
/// non-recursive one with the default configuration and the
/// Treebank-style recursive one with the paper's recursive preset — with
/// and without a HET.
#[test]
fn streaming_matches_materialized_on_datagen_workloads() {
    use xseed::datagen::{Dataset, WorkloadSpec};

    let scenarios = [
        (Dataset::XMark10, 0.02, None),
        (Dataset::Dblp, 0.01, None),
        (Dataset::TreebankSmall, 0.02, Some(())),
    ];
    for (dataset, scale, recursive) in scenarios {
        let doc = dataset.generate_scaled(scale);
        let config = match recursive {
            Some(()) => XseedConfig::recursive_for_size(doc.element_count()),
            None => XseedConfig::default(),
        };
        let workload = WorkloadGenerator::new(&doc, 0xBEEF).generate(&WorkloadSpec::small());
        assert!(!workload.is_empty());

        let bare = XseedSynopsis::build(&doc, config.clone());
        let (with_het, _) = XseedSynopsis::build_with_het(&doc, config);
        for synopsis in [&bare, &with_het] {
            let ept =
                ExpandedPathTree::generate(synopsis.kernel(), synopsis.config(), synopsis.het());
            let oracle = Matcher::new(synopsis.kernel(), &ept, synopsis.het());
            assert!(
                ept.len() <= synopsis.config().max_ept_nodes,
                "{dataset:?}: threshold escalation must keep the expansion within the node bound"
            );
            let snapshot = synopsis.snapshot();
            let mut streaming = snapshot.matcher();
            for query in workload.all() {
                let expected = oracle.estimate(query);
                let got = streaming.estimate(query);
                assert!(
                    close(expected, got),
                    "{dataset:?} {query} (het: {}): streaming {got} != materialized {expected}",
                    synopsis.het().is_some()
                );
            }
        }
    }
}
