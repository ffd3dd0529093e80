//! Per-query outcome accounting: every admitted query must receive
//! exactly one terminal event, and it must be the one its [`Kind`]
//! expects. Every deviation is counted as an error.

use crate::script::Kind;
use eq_core::Event;
use eq_ir::QueryId;

#[derive(Clone, Copy)]
struct Slot {
    kind: Kind,
    submitted_ns: u64,
    seen: bool,
}

#[derive(Default)]
pub struct Ledger {
    /// Indexed by `QueryId.0` (the service assigns ids densely from 1).
    slots: Vec<Option<Slot>>,
    pub admitted: usize,
    pub refused: usize,
    pub terminal: usize,
    pub errors: usize,
    pub notes: Vec<String>,
    /// Submit→terminal milliseconds of the `Prompt` queries.
    pub latency_ms: Vec<f64>,
    /// Set once the script's `Load` has run: deferred pairs may answer.
    pub loaded: bool,
}

impl Ledger {
    pub fn error(&mut self, note: String) {
        self.errors += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// A submission the service refused: one attempt, one error.
    pub fn refuse(&mut self, reason: impl std::fmt::Display) {
        self.refused += 1;
        self.error(format!("submission refused: {reason}"));
    }

    pub fn admit(&mut self, id: QueryId, kind: Kind, submitted_ns: u64) {
        let i = id.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        if self.slots[i].is_some() {
            self.error(format!("{id:?} admitted twice"));
            return;
        }
        self.slots[i] = Some(Slot {
            kind,
            submitted_ns,
            seen: false,
        });
        self.admitted += 1;
    }

    /// Accounts one event received at `now_ns`; true for a flush report.
    pub fn event(&mut self, event: &Event, now_ns: u64) -> bool {
        let Some(id) = event.id() else {
            return true;
        };
        let Some(slot) = self.slots.get_mut(id.0 as usize).and_then(Option::as_mut) else {
            self.error(format!("terminal event for unknown {id:?}"));
            return false;
        };
        if slot.seen {
            self.error(format!("second terminal event for {id:?}"));
            return false;
        }
        slot.seen = true;
        let slot = *slot;
        self.terminal += 1;
        let expected = match (slot.kind, event) {
            (Kind::Expiring, Event::Expired { .. }) => true,
            (Kind::Prompt, Event::Answered { .. }) => true,
            (Kind::Deferred, Event::Answered { .. }) => self.loaded,
            _ => false,
        };
        if !expected {
            self.error(format!("{id:?} ({:?}) ended {}", slot.kind, variant(event)));
        } else if slot.kind == Kind::Prompt {
            self.latency_ms
                .push(now_ns.saturating_sub(slot.submitted_ns) as f64 / 1e6);
        }
        false
    }

    /// Counts every admitted query that never received a terminal event.
    pub fn finish(&mut self) {
        let missing: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.filter(|s| !s.seen).map(|_| i))
            .collect();
        for i in missing {
            self.error(format!("q{i} never received a terminal event"));
        }
    }
}

fn variant(event: &Event) -> &'static str {
    match event {
        Event::Answered { .. } => "Answered",
        Event::Failed { .. } => "Failed",
        Event::Expired { .. } => "Expired",
        Event::Cancelled { .. } => "Cancelled",
        Event::Flushed(_) => "Flushed",
    }
}
