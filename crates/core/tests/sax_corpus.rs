//! Fuzz-style corpus for the SAX parser and the two builders on top of
//! it: every truncation of real documents, and single-character mutations
//! that put markup and multibyte characters next to every delimiter, must
//! come back from [`SaxParser`], [`Document::parse_str`] and
//! [`KernelBuilder::from_xml_str`] as `Ok` or a clean `Err` — never a
//! panic. The parser slices its `&str` input at delimiters, so a cut off
//! a char boundary would panic here.
//!
//! All three share the parser, so they must also agree: the same error,
//! or the same element count.

use datagen::Dataset;
use xmlkit::samples::{figure4_document, FIGURE2_XML};
use xmlkit::sax::{SaxEvent, SaxParser};
use xmlkit::{writer, Document};
use xseed_core::KernelBuilder;

/// Markup the generated documents never contain: attributes in both
/// quote styles, entities, a comment, a PI, CDATA, a DOCTYPE and
/// multibyte text.
const MARKUP: &str = "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>\
    <!-- prolog --><r a=\"x&amp;y\" b='é'><?pi data?>\
    <c k=\"1\">ünï &lt;côdé&gt; €</c><![CDATA[<raw> & 😀]]><e/></r><!-- tail -->";

/// The seed documents: the paper's Figure 2 and 4 samples, the smallest
/// generated Treebank document, each root-child subtree of the smallest
/// generated XMark document (the whole one is 10 KB, and the sweeps are
/// quadratic in a seed's size), and [`MARKUP`].
fn seeds() -> Vec<(String, String)> {
    let mut seeds = vec![
        ("figure2".to_string(), FIGURE2_XML.to_string()),
        (
            "figure4".to_string(),
            writer::to_string(&figure4_document()),
        ),
        (
            "treebank".to_string(),
            writer::to_string(&Dataset::TreebankSmall.generate_scaled(0.0)),
        ),
        ("markup".to_string(), MARKUP.to_string()),
    ];
    let xmark = Dataset::XMark10.generate_scaled(0.0);
    for c in xmark.children(xmark.root()) {
        let name = format!("xmark/{}", xmark.name(c));
        seeds.push((name, writer::to_string(&xmark.subtree(c))));
    }
    seeds
}

/// Runs all three consumers over `xml` and checks they agree.
fn check(what: &str, xml: &str) {
    let mut parser = SaxParser::new(xml);
    let mut elements = 0usize;
    let sax = loop {
        match parser.next_event() {
            Ok(SaxEvent::Eof) => break Ok(elements),
            Ok(SaxEvent::StartElement { .. }) => elements += 1,
            Ok(_) => {}
            Err(e) => break Err(e),
        }
    };
    let doc = Document::parse_str(xml).map(|d| d.element_count());
    let kernel = KernelBuilder::from_xml_str(xml).map(|k| k.element_count() as usize);
    assert_eq!(
        sax, doc,
        "{what}: SaxParser and Document::parse_str disagree"
    );
    assert_eq!(sax, kernel, "{what}: SaxParser and from_xml_str disagree");
}

#[test]
fn seeds_parse_cleanly() {
    for (name, xml) in seeds() {
        let doc = Document::parse_str(&xml).unwrap_or_else(|e| panic!("{name}: {e}"));
        check(&name, &xml);
        assert!(doc.element_count() > 0);
    }
}

#[test]
fn every_truncation_is_ok_or_a_clean_error() {
    for (name, xml) in seeds() {
        for len in (0..xml.len()).filter(|&len| xml.is_char_boundary(len)) {
            let prefix = &xml[..len];
            check(&format!("{name} truncated to {len} bytes"), prefix);
            // A proper prefix of a one-root document never closes the
            // root, except when only trailing misc is cut off.
            if !xml[len..].trim_start().starts_with("<!--") && !xml[len..].trim().is_empty() {
                assert!(
                    Document::parse_str(prefix).is_err(),
                    "{name} truncated to {len} bytes parsed"
                );
            }
        }
    }
}

/// Bytes next to which the mutations are placed.
fn is_delimiter(c: char) -> bool {
    matches!(
        c,
        '<' | '>' | '/' | '=' | '"' | '\'' | '&' | ';' | '?' | '!' | '-' | '[' | ']'
    )
}

#[test]
fn single_character_mutations_next_to_delimiters_are_ok_or_clean_errors() {
    const INSERTS: [char; 8] = ['<', '>', '&', '"', '\'', 'é', '€', '😀'];
    let mut variants = 0usize;
    for (name, xml) in seeds() {
        // The generated documents repeat the same few shapes, so the
        // first KiB of a seed already holds every kind of delimiter it
        // contains.
        let cut = (0..=xml.len().min(1024))
            .rev()
            .find(|&i| xml.is_char_boundary(i))
            .unwrap_or(0);
        for (i, c) in xml[..cut].char_indices().filter(|&(_, c)| is_delimiter(c)) {
            let after = i + c.len_utf8();
            for m in INSERTS {
                let mut buf = [0u8; 4];
                let m = m.encode_utf8(&mut buf);
                // Insert before and after the delimiter, and replace it.
                for (from, to) in [(i, i), (after, after), (i, after)] {
                    let mutated = format!("{}{m}{}", &xml[..from], &xml[to..]);
                    check(&format!("{name}: {m:?} at {from}..{to}"), &mutated);
                    variants += 1;
                }
            }
        }
    }
    assert!(variants > 10_000, "only {variants} variants generated");
}

#[test]
fn entity_bearing_text_and_attributes_keep_their_decoded_sizes() {
    let xml =
        "<r a=\"x&amp;y\" b='&#233;' c=\"plain\">a&lt;b<c>&#x20AC;&amp;&unknown;</c>tail&gt;</r>";
    let events = SaxParser::new(xml).collect_events().unwrap();
    let SaxEvent::StartElement { attributes, .. } = &events[0] else {
        panic!("expected the root start tag, got {:?}", events[0]);
    };
    let values: Vec<&str> = attributes.iter().map(|a| a.value.as_ref()).collect();
    assert_eq!(values, ["x&y", "é", "plain"]);
    let texts: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            SaxEvent::Text(t) => Some(t.as_ref()),
            _ => None,
        })
        .collect();
    assert_eq!(texts, ["a<b", "€&&unknown;", "tail>"]);

    // text_bytes counts decoded bytes: "a<b" + "tail>" on the root,
    // "€" (3 bytes) + "&" + "&unknown;" on c.
    let doc = Document::parse_str(xml).unwrap();
    let root = doc.root();
    assert_eq!(doc.node(root).text_bytes, 8);
    let c = doc.children(root).next().unwrap();
    assert_eq!(doc.node(c).text_bytes, 13);
    assert_eq!(doc.source_bytes(), xml.len());
}
