//! Differential tests pinning partitioned synopsis construction to the
//! monolithic build: same serialized kernel bytes, entry-for-entry equal
//! hyper-edge tables, and bit-identical estimates for every partition
//! count — the "truncation divergence" bug family is structurally
//! excluded because the partitioned path merges exact per-partition
//! statistics *before* any truncation or estimation decision is made.

use xseed::datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use xseed::prelude::*;
use xseed::xseed_core::het::{HetEntryKind, HyperEdgeTable};

/// The partition counts every differential test pins: the degenerate
/// single-partition plan, even splits, and a count coprime to typical
/// root fan-outs so ranges land mid-sibling-run.
const PARTITIONS: [usize; 4] = [1, 2, 4, 7];

/// Flattens a HET into a sortable, bit-exact value vector.
fn het_entries(het: &HyperEdgeTable) -> Vec<(u64, u8, u64, u64, u64)> {
    let mut entries: Vec<_> = het
        .entries_by_error()
        .into_iter()
        .map(|e| {
            let kind = matches!(e.kind, HetEntryKind::Correlated) as u8;
            (
                e.key,
                kind,
                e.cardinality,
                e.bsel.to_bits(),
                e.error.to_bits(),
            )
        })
        .collect();
    entries.sort_unstable();
    entries
}

/// Builds monolithically and with every partition count in `PARTITIONS`,
/// asserting kernels, HETs, and a workload of estimates are bit-identical.
fn assert_partitioned_build_matches(doc: &Document, config: &XseedConfig, label: &str) {
    let (mono, mono_stats) = XseedSynopsis::build_with_het(doc, config.clone());
    let mono_kernel = mono.kernel().serialize();
    let mono_het = het_entries(mono.het().expect("monolithic build carries a HET"));
    let workload = WorkloadGenerator::new(doc, 0xD1FF).generate(&WorkloadSpec::small());

    for partitions in PARTITIONS {
        // Kernel-only partitioned build: byte-identical serialized kernel.
        let kernel_only = XseedSynopsis::build_partitioned(doc, config.clone(), partitions);
        assert_eq!(
            kernel_only.kernel().serialize(),
            mono_kernel,
            "{label}: kernel bytes diverge at partitions={partitions}"
        );

        // Full partitioned build: HET entry-for-entry, stats, estimates.
        let (part, part_stats) =
            XseedSynopsis::build_with_het_partitioned(doc, config.clone(), partitions);
        assert_eq!(part.kernel().serialize(), mono_kernel, "{label}");
        assert_eq!(
            part_stats.simple_entries, mono_stats.simple_entries,
            "{label}: simple entries at partitions={partitions}"
        );
        assert_eq!(
            part_stats.correlated_entries, mono_stats.correlated_entries,
            "{label}: correlated entries at partitions={partitions}"
        );
        assert_eq!(
            part_stats.exact_evaluations, mono_stats.exact_evaluations,
            "{label}: exact evaluations at partitions={partitions}"
        );
        assert_eq!(
            het_entries(part.het().expect("partitioned build carries a HET")),
            mono_het,
            "{label}: HET entries diverge at partitions={partitions}"
        );

        let (mono_snapshot, part_snapshot) = (mono.snapshot(), part.snapshot());
        let mut mono_matcher = mono_snapshot.matcher();
        let mut part_matcher = part_snapshot.matcher();
        for query in workload.all() {
            assert_eq!(
                part_matcher.estimate(query).to_bits(),
                mono_matcher.estimate(query).to_bits(),
                "{label}: estimate for {query} diverges at partitions={partitions}"
            );
        }
    }
}

#[test]
fn partitioned_build_matches_monolithic_on_paper_samples() {
    for (doc, label) in [
        (xseed::xmlkit::samples::figure2_document(), "figure2"),
        (xseed::xmlkit::samples::figure4_document(), "figure4"),
    ] {
        let config = XseedConfig::default().with_bsel_threshold(0.99);
        assert_partitioned_build_matches(&doc, &config, label);
    }
}

#[test]
fn partitioned_build_matches_monolithic_on_xmark() {
    let doc = Dataset::XMark10.generate_scaled(0.02);
    assert_partitioned_build_matches(&doc, &XseedConfig::default(), "xmark");
    // The card_threshold truncation path — historically the divergence-prone
    // configuration — must stay bit-identical too.
    assert_partitioned_build_matches(
        &doc,
        &XseedConfig::default().with_card_threshold(2.0),
        "xmark/card-threshold",
    );
}

#[test]
fn partitioned_build_matches_monolithic_on_dblp() {
    let doc = Dataset::Dblp.generate_scaled(0.01);
    assert_partitioned_build_matches(&doc, &XseedConfig::default(), "dblp");
}

#[test]
fn partitioned_build_matches_monolithic_on_recursive_treebank() {
    let doc = Dataset::TreebankSmall.generate_scaled(0.02);
    let config = XseedConfig::recursive_for_size(doc.element_count());
    assert_partitioned_build_matches(&doc, &config, "treebank");
}

#[test]
fn partition_plans_cover_the_document_for_any_worker_count() {
    use xseed::xseed_core::PartitionPlan;
    let doc = Dataset::Dblp.generate_scaled(0.01);
    let root_children = doc.children(doc.root()).count();
    for partitions in [1, 2, 3, 5, 8, 64, root_children + 10] {
        let plan = PartitionPlan::for_document(&doc, partitions);
        assert_eq!(plan.partition_count(), partitions.max(1));
        let mut next = 0;
        for range in plan.ranges() {
            assert_eq!(range.start, next, "ranges must be contiguous");
            assert!(range.end >= range.start);
            next = range.end;
        }
        assert_eq!(next, root_children, "ranges must cover every root child");
    }
}
