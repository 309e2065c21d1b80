//! A fixed-size event trace ring recording the service's rare state
//! changes — loads, saves, rebuilds, quarantines, shed transitions, and
//! pause fences — so an operator can replay the last N events after an
//! incident with `TRACE [n]`.
//!
//! Writers reserve a slot with one atomic `fetch_add` on the head (the
//! event's global sequence number), then store the event into the slot
//! `seq % capacity`. Slots are tiny mutexes rather than unsafe cells:
//! the crate forbids `unsafe`, the traced events are state *transitions*
//! (a handful per second at the very worst), and two writers only touch
//! the same slot after a full lap of the ring — so the lock is
//! uncontended in practice and the reservation itself is lock-free,
//! which is what keeps tracing off the estimate hot path entirely.
//! Readers walk the ring newest-first and skip any slot a lapped writer
//! is mid-update on, trading a torn read for never blocking a writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The kind of state change a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A document snapshot entered the catalog (LOAD, `file:` restore,
    /// or warm start).
    Load,
    /// A snapshot was persisted to disk.
    Save,
    /// The maintenance thread rebuilt a document's HET.
    Rebuild,
    /// A corrupt snapshot file was quarantined during warm start.
    Quarantine,
    /// The service began shedding load (first rejection of a burst).
    ShedOn,
    /// The service stopped shedding (first admission after rejections).
    ShedOff,
    /// A connection's token bucket emptied: its requests are being shed
    /// with `OVERLOADED rate=…` (recorded once per shed episode, not per
    /// request — a flood costs one ring slot, like [`TraceKind::ShedOn`]).
    RateLimitOn,
    /// The connection's bucket refilled enough to admit again.
    RateLimitOff,
    /// The maintenance thread reached a pause fence.
    Pause,
    /// A paused thread resumed.
    Resume,
}

impl TraceKind {
    /// The stable wire label (the `event=` value in `TRACE` output).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Load => "load",
            TraceKind::Save => "save",
            TraceKind::Rebuild => "rebuild",
            TraceKind::Quarantine => "quarantine",
            TraceKind::ShedOn => "shed_on",
            TraceKind::ShedOff => "shed_off",
            TraceKind::RateLimitOn => "rate_limit_on",
            TraceKind::RateLimitOff => "rate_limit_off",
            TraceKind::Pause => "pause",
            TraceKind::Resume => "resume",
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global sequence number (monotonic from 0 across the ring's life).
    pub seq: u64,
    /// Milliseconds since the service started, from a monotonic clock.
    pub at_ms: u64,
    /// What happened.
    pub kind: TraceKind,
    /// The subject — a document name, `maintenance`,
    /// `connections`, or `conn-N` (a TCP session's token, for rate-limit
    /// transitions).
    pub subject: String,
}

struct Slot {
    event: Mutex<Option<TraceEvent>>,
}

/// The fixed-size ring. See the module docs for the concurrency story.
pub struct TraceRing {
    start: Instant,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// Creates a ring holding the last `capacity` events (clamped ≥ 1),
    /// timestamping relative to `start`.
    pub fn new(capacity: usize, start: Instant) -> Self {
        TraceRing {
            start,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    event: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// Number of slots (the N of "last N events").
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ the number still held).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event. The sequence reservation is a single
    /// `fetch_add`; the slot store takes that slot's (uncontended) lock.
    pub fn record(&self, kind: TraceKind, subject: &str) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            at_ms: self.start.elapsed().as_millis().min(u64::MAX as u128) as u64,
            kind,
            subject: subject.to_string(),
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.event.lock().unwrap() = Some(event);
    }

    /// The most recent `n` events, oldest first. Slots currently locked
    /// by a lapped writer are skipped rather than waited on.
    pub fn last(&self, n: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let held = head.min(self.slots.len() as u64);
        let want = (n as u64).min(held);
        let mut events = Vec::with_capacity(want as usize);
        for seq in (head - want)..head {
            let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
            if let Ok(guard) = slot.event.try_lock() {
                if let Some(event) = guard.as_ref() {
                    // A lapped writer may have already overwritten this
                    // slot with a newer event; keep whatever is there as
                    // long as it is still within the requested window.
                    if event.seq >= head - want {
                        events.push(event.clone());
                    }
                }
            }
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_replays_in_order() {
        let ring = TraceRing::new(8, Instant::now());
        assert_eq!(ring.recorded(), 0);
        assert!(ring.last(5).is_empty());
        ring.record(TraceKind::Load, "fig4");
        ring.record(TraceKind::Rebuild, "fig4");
        ring.record(TraceKind::Save, "fig4");
        assert_eq!(ring.recorded(), 3);
        let events = ring.last(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].kind, TraceKind::Load);
        assert_eq!(events[2].kind, TraceKind::Save);
        assert!(events.iter().all(|e| e.subject == "fig4"));
        let tail = ring.last(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 2);
    }

    #[test]
    fn wraps_keeping_only_the_newest() {
        let ring = TraceRing::new(4, Instant::now());
        for i in 0..10 {
            let kind = if i % 2 == 0 {
                TraceKind::ShedOn
            } else {
                TraceKind::ShedOff
            };
            ring.record(kind, &format!("doc{i}"));
        }
        assert_eq!(ring.recorded(), 10);
        let events = ring.last(100);
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(events[3].subject, "doc9");
    }

    #[test]
    fn concurrent_writers_never_duplicate_sequences() {
        let ring = std::sync::Arc::new(TraceRing::new(64, Instant::now()));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        ring.record(TraceKind::Pause, &format!("thread-{t}"));
                    }
                })
            })
            .collect();
        for handle in threads {
            handle.join().unwrap();
        }
        assert_eq!(ring.recorded(), 800);
        let events = ring.last(64);
        assert_eq!(events.len(), 64);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut deduped = seqs.clone();
        deduped.dedup();
        assert_eq!(seqs, deduped, "sequence numbers must be unique");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn kind_names_are_stable() {
        for (kind, name) in [
            (TraceKind::Load, "load"),
            (TraceKind::Save, "save"),
            (TraceKind::Rebuild, "rebuild"),
            (TraceKind::Quarantine, "quarantine"),
            (TraceKind::ShedOn, "shed_on"),
            (TraceKind::ShedOff, "shed_off"),
            (TraceKind::RateLimitOn, "rate_limit_on"),
            (TraceKind::RateLimitOff, "rate_limit_off"),
            (TraceKind::Pause, "pause"),
            (TraceKind::Resume, "resume"),
        ] {
            assert_eq!(kind.name(), name);
        }
    }
}
