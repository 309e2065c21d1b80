//! Protocol ⇄ documentation consistency: every verb the dispatcher
//! accepts, every reply status token, and every `key=` counter the
//! implementation can emit must appear in `docs/PROTOCOL.md`. A new verb
//! (like `FEEDBACK`) or a new STATS counter therefore cannot land
//! undocumented — this test extracts both sides from the sources, so the
//! check maintains itself.

use std::collections::BTreeSet;

fn read(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"))
}

/// Every double-quoted string literal in `source` consisting solely of
/// 2+ uppercase ASCII letters — the protocol verbs of the dispatcher's
/// `match` (plus nothing else: multi-word literals and lowercase keys
/// never qualify).
fn extract_verbs(source: &str) -> BTreeSet<String> {
    let mut verbs = BTreeSet::new();
    let mut rest = source;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(len) = tail.find('"') else { break };
        let literal = &tail[..len];
        if literal.len() >= 2 && literal.bytes().all(|b| b.is_ascii_uppercase()) {
            verbs.insert(literal.to_string());
        }
        rest = &tail[len + 1..];
    }
    verbs
}

/// Every `key` the implementation writes on the wire: interpolated as
/// `key={}` **or** `key={named_capture}` — the flat STATS counters, the
/// per-document segment fields, and the structured reply fields
/// (`outcome=`, `estimated=`, `epoch={epoch}`, …) — or written with a
/// literal value, `key=<literal>` (`steals=0`, `rebuild=done`), in the
/// non-test code. Every style must be covered or a key written in the
/// uncovered one would escape the guard. Comment lines are skipped for
/// literal values, since prose such as "`key=value` pairs" names no key.
fn extract_wire_keys(source: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for (idx, _) in source.match_indices("={") {
        // Accept `{}` and `{ident}`; reject formatting specs (`{:.2}`)
        // and anything that is not a plain interpolation.
        let inner = &source[idx + 2..];
        let Some(close) = inner.find('}') else {
            continue;
        };
        let capture = &inner[..close];
        if capture.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
            keys.extend(key_before(source, idx));
        }
    }
    let code = source.split("#[cfg(test)]").next().unwrap_or(source);
    for line in code.lines() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        for (idx, _) in line.match_indices('=') {
            if line[idx + 1..].starts_with(|c: char| c.is_ascii_alphanumeric()) {
                keys.extend(key_before(line, idx));
            }
        }
    }
    keys
}

/// The `[a-z_]+` run ending right before byte `idx` of `text`, if any.
fn key_before(text: &str, idx: usize) -> Option<String> {
    let key: String = text[..idx]
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_lowercase() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!key.is_empty()).then_some(key)
}

#[test]
fn every_protocol_verb_is_documented() {
    let source = read("crates/service/src/protocol.rs");
    let docs = read("docs/PROTOCOL.md");
    let verbs = extract_verbs(&source);
    for expected in [
        "LOAD", "EST", "BATCH", "FEEDBACK", "MAINTAIN", "STATS", "HELP", "QUIT",
    ] {
        assert!(
            verbs.contains(expected),
            "verb extraction lost {expected}: {verbs:?}"
        );
    }
    for verb in &verbs {
        assert!(
            docs.contains(verb.as_str()),
            "protocol verb {verb} is not documented in docs/PROTOCOL.md"
        );
    }
}

#[test]
fn every_reply_status_token_is_documented() {
    let docs = read("docs/PROTOCOL.md");
    for token in ["`OK`", "`ERR`", "`OVERLOADED`"] {
        assert!(
            docs.contains(token),
            "reply status {token} is not documented in docs/PROTOCOL.md"
        );
    }
    // The structured maintenance reply fields.
    for fragment in ["rebuild=done", "rebuild=none", "OVERLOADED queued="] {
        assert!(
            docs.contains(fragment),
            "reply fragment {fragment} is not documented in docs/PROTOCOL.md"
        );
    }
}

#[test]
fn every_wire_key_is_documented() {
    let source = read("crates/service/src/protocol.rs");
    let docs = read("docs/PROTOCOL.md");
    let keys = extract_wire_keys(&source);
    // Guard the extraction itself: the counters a FEEDBACK deployment
    // lives by must be among the extracted keys.
    for expected in [
        "feedback_applied",
        "feedback_ignored",
        "rebuilds_triggered",
        "error_mass",
        "estimated",
        "outcome",
        // Named-capture interpolations must be extracted too.
        "epoch",
        "queued",
        "capacity",
        // So must keys written with a literal value.
        "steals",
    ] {
        assert!(
            keys.contains(expected),
            "wire-key extraction lost {expected}: {keys:?}"
        );
    }
    for key in &keys {
        assert!(
            docs.contains(&format!("{key}=")),
            "wire key `{key}=` is not documented in docs/PROTOCOL.md"
        );
    }
}
