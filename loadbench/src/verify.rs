//! Self-checking: the reactions a run received, and for `durable-push`
//! node B's delivery ledger, against an in-process reference — a fresh
//! engine fed the same generated stream.

use std::collections::{BTreeMap, HashSet};

use reweb_core::{InMessage, MessageMeta};
use reweb_net::Reply;
use reweb_term::{parse_term, Term, Timestamp};

use crate::node::{a_engine, GEN_FROM};
use crate::workload::{Generator, Workload, BASE_AT, PUSH_PEER};

/// What the reference engine produced for a stream prefix.
pub struct Reference {
    /// Per stream event: its reactions as `(to, payload text)`, in
    /// engine output order.
    pub reactions: Vec<Vec<(String, String)>>,
}

/// Reference batch size: batching does not change outputs (the engine's
/// tagged batch surface is equivalent to per-message `receive`).
const REF_BATCH: usize = 256;

impl Reference {
    /// Feed the first `n` events of `(workload, seed)` to a fresh node-A
    /// engine and record every reaction.
    pub fn compute(w: Workload, seed: u64, program: &str, n: usize) -> std::io::Result<Reference> {
        let mut engine = a_engine(w, program)?;
        let meta = MessageMeta::from_uri(GEN_FROM);
        let mut gen = Generator::new(w, seed);
        let mut reactions = vec![Vec::new(); n];
        let mut first = 0;
        while first < n {
            let len = REF_BATCH.min(n - first);
            let chunk: Vec<InMessage> = (first..first + len)
                .map(|i| {
                    let payload = parse_term(&gen.next_text()).expect("generated event parses");
                    InMessage::new(payload, meta.clone(), Timestamp(BASE_AT + i as u64))
                })
                .collect();
            for (k, o) in engine.receive_batch_tagged(&chunk) {
                reactions[first + k as usize].push((o.to, o.payload.to_string()));
            }
            first += len;
        }
        Ok(Reference { reactions })
    }

    /// Total reactions.
    pub fn total(&self) -> usize {
        self.reactions.iter().map(Vec::len).sum()
    }
}

/// Mismatches between received reaction replies and the reference,
/// counted per reaction position: missing, extra, or not byte-equal.
/// `received` holds `(event id, read time, reply frame payload)` in
/// arrival order; ids are stream index + 1.
pub fn compare_reactions(reference: &Reference, received: &[(u64, u64, Vec<u8>)]) -> usize {
    let n = reference.reactions.len();
    let mut got: Vec<Vec<(String, String)>> = vec![Vec::new(); n];
    let mut failures = 0usize;
    for (id, _, frame) in received {
        match Reply::decode(frame) {
            Ok(Reply::Reaction {
                id: rid,
                to,
                payload,
            }) if rid == *id && rid >= 1 && (rid as usize) <= n => {
                got[rid as usize - 1].push((to, payload.to_string()));
            }
            _ => failures += 1,
        }
    }
    for (want, have) in reference.reactions.iter().zip(&got) {
        let common = want.len().min(have.len());
        failures += (0..common).filter(|&k| want[k] != have[k]).count();
        failures += want.len().max(have.len()) - common;
    }
    failures
}

fn field<'t>(t: &'t Term, name: &str) -> Option<&'t Term> {
    t.children().iter().find(|c| c.label() == Some(name))
}

/// Node B's ledger against the reference (`durable-push`): every key
/// once, and per destination exactly the reference's reactions in the
/// reference's order. Returns the mismatch count.
pub fn compare_ledger(reference: &Reference, ledger: &[(String, Term)]) -> usize {
    let mut failures = 0usize;
    let mut keys = HashSet::new();
    let mut have: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (key, payload) in ledger {
        if !keys.insert(key.as_str()) {
            failures += 1;
        }
        let dest = field(payload, "d")
            .map(Term::text_content)
            .unwrap_or_default();
        have.entry(dest).or_default().push(payload.to_string());
    }
    let mut want: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (to, payload) in reference.reactions.iter().flatten() {
        if !to.starts_with(PUSH_PEER) {
            continue;
        }
        let dest = to.rsplit('d').next().unwrap_or_default().to_string();
        want.entry(dest).or_default().push(payload.clone());
    }
    let dests: HashSet<&String> = have.keys().chain(want.keys()).collect();
    for d in dests {
        let (w, h) = (
            want.get(d).map_or(&[][..], |v| v),
            have.get(d).map_or(&[][..], |v| v),
        );
        let common = w.len().min(h.len());
        failures += (0..common).filter(|&k| w[k] != h[k]).count();
        failures += w.len().max(h.len()) - common;
    }
    failures
}

/// Stream index of a pushed reaction (its `n` field).
pub fn pushed_index(payload: &Term) -> Option<usize> {
    field(payload, "n")?.text_content().parse().ok()
}

/// Engine counters that must survive a restart unchanged.
pub fn metrics_digest(m: &reweb_core::EngineMetrics) -> String {
    format!(
        "received={} denied={} unmatched={} fired={} conds={} failed={} sent={} installed={} by_rule={:?}",
        m.events_received,
        m.events_denied,
        m.events_unmatched,
        m.rules_fired,
        m.condition_evals,
        m.actions_failed,
        m.messages_sent,
        m.rules_installed,
        m.fires_by_rule
    )
}
