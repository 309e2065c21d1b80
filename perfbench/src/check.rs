//! The correctness gate. Every reply the daemon sends is compared, byte
//! for byte, with what an in-process model of the same requests answers:
//!
//! * reads of documents nothing writes to are compared with a
//!   [`Reference`] — synopses built straight from the same XML files;
//! * writes, and reads of the document they change, are compared with a
//!   [`Replay`] — the same `LOAD`/`MAINTAIN`/`FEEDBACK` sequence run
//!   through `protocol::handle_line` on an in-process service.
//!
//! A mismatch is counted in a [`Tally`]; any failure makes the command
//! exit non-zero without printing a result.

use crate::inputs::{Doc, Query};
use std::collections::HashMap;
use std::sync::Arc;
use xpathkit::QueryPlan;
use xseed_core::{SynopsisSnapshot, XseedSynopsis};
use xseed_service::{handle_line, Catalog, ProtocolOptions, Service, ServiceConfig};

/// Requests checked and requests that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests whose reply was checked.
    pub attempted: u64,
    /// Replies that were not `OK`, missing, or not bit-equal to the model.
    pub failed: u64,
}

impl Tally {
    /// Counts one reply; reports the first few mismatches on stderr.
    pub fn check(&mut self, request: &str, got: &str, want: &str) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: MISMATCH for `{request}`\n  got  {got}\n  want {want}");
            }
        }
    }

    /// Counts requests that never got a reply.
    pub fn missing(&mut self, count: u64, what: &str) {
        if count > 0 {
            eprintln!("perfbench: {count} {what} request(s) unanswered");
        }
        self.attempted += count;
        self.failed += count;
    }
}

/// An estimate as the protocol prints it: integral values without a
/// fraction, everything else with full precision.
pub fn format_est(est: f64) -> String {
    if est.fract() == 0.0 && est.abs() < 1e15 {
        format!("{}", est as i64)
    } else {
        format!("{est}")
    }
}

/// Reference synopses built from the benchmark's XML files, with the
/// wire form of each query's estimate cached by document and text.
pub struct Reference {
    snapshots: Vec<SynopsisSnapshot>,
    /// Per document: query text → (point, `est=… bound=…`).
    cache: Vec<HashMap<String, (String, String)>>,
    /// `BATCH` replies by (document, start position).
    batches: HashMap<(usize, usize), String>,
    /// A query whose reference point estimate is deliberately wrong
    /// (`--inject-wrong-reference`), to prove the gate fails the run.
    wrong: Option<(usize, String)>,
}

impl Reference {
    /// Builds one synopsis per document with the configuration a file
    /// `LOAD` uses.
    pub fn new(docs: &[Doc], wrong: Option<&Query>) -> Result<Reference, String> {
        let snapshots = docs
            .iter()
            .map(|d| {
                XseedSynopsis::build_from_xml(&d.xml, d.config())
                    .map(|s| s.snapshot())
                    .map_err(|e| format!("reference build of {}: {e}", d.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Reference {
            cache: vec![HashMap::new(); docs.len()],
            snapshots,
            batches: HashMap::new(),
            wrong: wrong.map(|q| (q.doc, q.text.clone())),
        })
    }

    /// The formatted point estimate and `est=… bound=…` body of `q`.
    fn forms(&mut self, q: &Query) -> &(String, String) {
        if !self.cache[q.doc].contains_key(&q.text) {
            let forms = self.compute(q);
            self.cache[q.doc].insert(q.text.clone(), forms);
        }
        &self.cache[q.doc][&q.text]
    }

    fn compute(&self, q: &Query) -> (String, String) {
        let wrong = self.wrong.as_ref() == Some(&(q.doc, q.text.clone()));
        let snapshot = &self.snapshots[q.doc];
        {
            let plan = QueryPlan::parse(&q.text).expect("generated queries parse");
            let mut point = snapshot.estimate_plan(&plan);
            if wrong {
                point += 1.0;
            }
            let bounded = snapshot.estimate_plan_bound(&plan);
            (
                format_est(point),
                format!(
                    "est={} bound={}",
                    format_est(bounded.estimate),
                    format_est(bounded.bound)
                ),
            )
        }
    }

    /// What must follow `OK ` in the reply to an `EST` of `q`.
    pub fn est_body(&mut self, q: &Query, bound: bool) -> &str {
        let (point, bounded) = self.forms(q);
        if bound {
            bounded
        } else {
            point
        }
    }

    /// The exact reply an `EST` of `q` must get.
    pub fn est_reply(&mut self, q: &Query, bound: bool) -> String {
        format!("OK {}", self.est_body(q, bound))
    }

    /// What must follow `OK ` in the reply to a `BATCH` of `queries`;
    /// `key` names the batch for the cache.
    pub fn batch_body(&mut self, key: (usize, usize), queries: &[Query]) -> &str {
        if !self.batches.contains_key(&key) {
            let mut reply = format!("n={}", queries.len());
            for q in queries {
                reply.push(' ');
                reply.push_str(&self.forms(q).0);
            }
            self.batches.insert(key, reply);
        }
        &self.batches[&key]
    }
}

/// The daemon's request sequence replayed in process through
/// `protocol::handle_line`, under the daemon's own session options.
pub struct Replay {
    service: Arc<Service>,
    options: ProtocolOptions,
}

impl Replay {
    /// A fresh two-worker service, like the daemon's.
    pub fn new() -> Replay {
        let mut options = ProtocolOptions::remote();
        options.allow_fs_load = true;
        Replay {
            service: Arc::new(Service::new(
                Arc::new(Catalog::new()),
                ServiceConfig::with_workers(2),
            )),
            options,
        }
    }

    /// The in-process service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The session options, the daemon's own.
    pub fn options(&self) -> &ProtocolOptions {
        &self.options
    }

    /// Handles one request line and returns its reply.
    pub fn apply(&self, line: &str) -> String {
        handle_line(&self.service, line, &self.options)
            .text()
            .unwrap_or_default()
            .to_string()
    }

    /// The current snapshot of `doc`.
    pub fn snapshot(&self, doc: &str) -> SynopsisSnapshot {
        self.service
            .catalog()
            .snapshot(doc)
            .expect("replayed documents are loaded")
    }

    /// The exact reply an `EST` of `q` gets in the current state.
    pub fn est_reply(&self, doc: &str, q: &Query) -> String {
        let plan = QueryPlan::parse(&q.text).expect("generated queries parse");
        format!("OK {}", format_est(self.snapshot(doc).estimate_plan(&plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_print_like_the_protocol() {
        assert_eq!(format_est(12.0), "12");
        assert_eq!(format_est(0.0), "0");
        assert_eq!(format_est(2.5), "2.5");
        assert_eq!(format_est(1.0 / 3.0), "0.3333333333333333");
    }

    #[test]
    fn reference_matches_the_protocol_and_a_wrong_one_is_caught() {
        let doc = Doc {
            name: "fig",
            recursive: false,
            doc: xmlkit::samples::figure2_document(),
            xml: xmlkit::samples::FIGURE2_XML.to_string(),
            path: "unused".into(),
        };
        let q = Query {
            doc: 0,
            text: "/a/c/s".to_string(),
            class: crate::inputs::Class::Simple,
        };
        let replay = Replay::new();
        let reply = replay.apply("LOAD fig builtin:figure2");
        assert!(reply.starts_with("OK loaded"), "{reply}");
        let mut reference = Reference::new(std::slice::from_ref(&doc), None).unwrap();
        let mut tally = Tally::default();
        for bound in [false, true] {
            let line = format!(
                "EST fig {}{}",
                if bound { "mode=bound " } else { "" },
                q.text
            );
            tally.check(&line, &replay.apply(&line), &reference.est_reply(&q, bound));
        }
        let batch = replay.apply("BATCH fig /a/c/s ; /a/c/s");
        let want = format!(
            "OK {}",
            reference.batch_body((0, 0), &[q.clone(), q.clone()])
        );
        tally.check("BATCH", &batch, &want);
        assert_eq!((tally.attempted, tally.failed), (3, 0));

        let mut wrong = Reference::new(std::slice::from_ref(&doc), Some(&q)).unwrap();
        let line = format!("EST fig {}", q.text);
        tally.check(&line, &replay.apply(&line), &wrong.est_reply(&q, false));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }
}
