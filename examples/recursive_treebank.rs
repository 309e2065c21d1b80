//! Recursive documents: where XSEED's recursion-level labels pay off.
//!
//! Builds synopses for a Treebank-like (deeply recursive) document and
//! compares XSEED and TreeSketch on recursive descendant queries such as
//! `//NP//NP` — the class of queries the paper identifies as the hardest
//! to estimate.
//!
//! Run with: `cargo run --release --example recursive_treebank`

use xseed::prelude::*;

fn main() {
    let doc = Dataset::TreebankSmall.generate_scaled(0.6);
    let stats = DocumentStats::compute(&doc);
    println!(
        "Treebank-like document: {} elements, avg/max recursion level {:.2}/{}",
        stats.element_count, stats.avg_recursion_level, stats.max_recursion_level
    );

    // The paper raises CARD_THRESHOLD (to 20 for the 121k-element
    // Treebank.05) so the expanded path tree stays small; the scaled
    // preset picks the equivalent threshold for this document's size.
    let config = XseedConfig::recursive_for_size(doc.element_count()).with_memory_budget(25 * 1024);
    let (synopsis, _) = XseedSynopsis::build_with_het(&doc, config);
    let sketch = TreeSketch::build(&doc, Some(25 * 1024));
    println!(
        "XSEED synopsis: {} bytes (kernel {} bytes); TreeSketch: {} bytes",
        synopsis.size_bytes(),
        synopsis.kernel_size_bytes(),
        sketch.size_bytes()
    );
    let snapshot = synopsis.snapshot();
    let ept_nodes = snapshot.frontier_memo().len();
    let (_, visited) = snapshot
        .matcher()
        .estimate_with_stats(&parse_query("//S").unwrap());
    println!(
        "Expanded path tree: {} nodes for a {}-element document ({:.2}%); \
         //S visits {} of them\n",
        ept_nodes,
        doc.element_count(),
        100.0 * ept_nodes as f64 / doc.element_count() as f64,
        visited
    );

    let storage = NokStorage::from_document(&doc);
    let evaluator = Evaluator::new(&storage);
    let queries = [
        "//NP",
        "//NP//NP",
        "//S//VP//NP",
        "//VP//VP",
        "//S//S//S",
        "//VP[PP]//NN",
    ];
    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "query", "actual", "XSEED", "TreeSketch"
    );
    for text in queries {
        let query = parse_query(text).unwrap();
        let actual = evaluator.count(&query);
        let xseed_est = synopsis.estimate(&query);
        let sketch_est = sketch.estimate(&query);
        println!("{text:<16} {actual:>10} {xseed_est:>12.1} {sketch_est:>12.1}");
    }
    println!("\nXSEED tracks recursion levels on its edges, so repeated //-steps");
    println!("stay close to the truth; TreeSketch expands through its summary");
    println!("graph without recursion information and drifts.");
}
