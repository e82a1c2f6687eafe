//! The benchmark's own tests: reproducible inputs, a correctness gate
//! that can fail, a lag check that can fire, and a burst that keeps to
//! its window.
//!
//! Run with `cargo test --release --manifest-path loadbench/Cargo.toml`.

use std::path::PathBuf;
use std::time::Duration;

use loadbench::run::{judge, Runner, Verdict};
use loadbench::session;
use loadbench::verify::{compare_ledger, compare_reactions, Reference};
use loadbench::workload::{Stream, Workload};
use reweb_net::Reply;
use reweb_term::parse_term;

fn test_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("loadbench-selftest")
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for w in Workload::ALL {
        let a = Stream::generate(w, 7, 3_000);
        let b = Stream::generate(w, 7, 3_000);
        let c = Stream::generate(w, 8, 3_000);
        assert_eq!(a.bytes, b.bytes, "{}: same seed, same bytes", w.name());
        assert_eq!(a.ends, b.ends);
        assert_ne!(a.bytes, c.bytes, "{}: another seed, other bytes", w.name());
    }
}

#[test]
fn market_stream_has_the_intended_mix() {
    let w = Workload::Market;
    let r = Reference::compute(w, 3, &w.program(), 20_000).expect("reference runs");
    let reacting = r.reactions.iter().filter(|v| !v.is_empty()).count();
    // Pairs react once per pair (on the second half); noise never does.
    assert!(
        reacting > 3_000 && reacting < 7_000,
        "{reacting} reacting events"
    );
    assert!(r
        .reactions
        .iter()
        .flatten()
        .any(|(to, _)| to == "http://shop/confirm"));
    assert!(r
        .reactions
        .iter()
        .flatten()
        .any(|(to, _)| to == "http://shop/alerts"));
}

/// Reply frames exactly as the server would send them for `reference`.
fn replies_for(reference: &Reference) -> Vec<(u64, u64, Vec<u8>)> {
    let mut out = Vec::new();
    for (i, rs) in reference.reactions.iter().enumerate() {
        for (to, payload) in rs {
            let frame = Reply::Reaction {
                id: i as u64 + 1,
                to: to.clone(),
                payload: parse_term(payload).expect("reference payload parses"),
            }
            .encode();
            out.push((i as u64 + 1, 0, frame[8..].to_vec()));
        }
    }
    out
}

#[test]
fn dropping_or_altering_one_reaction_fails_the_check() {
    let w = Workload::Echo;
    let reference = Reference::compute(w, 5, &w.program(), 2_000).expect("reference runs");
    let good = replies_for(&reference);
    assert!(good.len() > 100);
    assert_eq!(compare_reactions(&reference, &good), 0);

    let mut dropped = good.clone();
    dropped.remove(dropped.len() / 2);
    assert!(compare_reactions(&reference, &dropped) > 0);

    let mut altered = good.clone();
    let (id, _, _) = altered[3].clone();
    let frame = Reply::Reaction {
        id,
        to: "http://sink/0".into(),
        payload: parse_term("seen{n[\"not-the-reference\"]}").expect("parses"),
    }
    .encode();
    altered[3].2 = frame[8..].to_vec();
    assert!(compare_reactions(&reference, &altered) > 0);

    let mut extra = good.clone();
    extra.push(good[0].clone());
    assert!(compare_reactions(&reference, &extra) > 0);
}

#[test]
fn a_ledger_out_of_order_or_with_a_repeat_fails_the_check() {
    let w = Workload::DurablePush;
    let reference = Reference::compute(w, 5, &w.program(), 400).expect("reference runs");
    let ledger: Vec<(String, reweb_term::Term)> = reference
        .reactions
        .iter()
        .flatten()
        .enumerate()
        .map(|(k, (_, p))| (format!("http://a/#{k}"), parse_term(p).expect("parses")))
        .collect();
    assert_eq!(compare_ledger(&reference, &ledger), 0);

    let mut repeated = ledger.clone();
    repeated.push(ledger[0].clone());
    assert!(compare_ledger(&reference, &repeated) > 0);

    // Swap two pushes to the same destination.
    let mut swapped = ledger.clone();
    let d = |t: &reweb_term::Term| {
        t.children()
            .iter()
            .find(|c| c.label() == Some("d"))
            .map(|c| c.text_content())
    };
    let a = 0;
    let b = (1..ledger.len())
        .find(|&k| d(&ledger[k].1) == d(&ledger[a].1))
        .expect("two pushes share a destination");
    let (pa, pb) = (swapped[a].1.clone(), swapped[b].1.clone());
    swapped[a].1 = pb;
    swapped[b].1 = pa;
    assert!(compare_ledger(&reference, &swapped) > 0);
}

/// A short live echo run over loopback: every reaction checks out, and
/// losing one received reaction is caught.
#[test]
fn live_run_checks_out_and_a_lost_reaction_is_caught() {
    let w = Workload::Echo;
    let mut p = session::prepare(w, 9, 4_000, &test_dir()).expect("echo nodes set up");
    let mut r = Runner::new(w, &mut p).expect("generator starts");
    let rung = r.rung(4_000.0, 0.5, None);
    assert_eq!(rung.sent, 2_000);
    assert_eq!(judge(&rung, r.spec.latency_limit_ms), Verdict::Pass);
    let (checks, _) = session::close(9, &mut r).expect("checks run");
    assert_eq!(checks.failed(), 0, "{checks:?}");
    assert!(checks.expected_reactions > 100);

    let reference = Reference::compute(w, 9, &r.prep.program, r.next).expect("reference runs");
    let mut lost = r.received.clone();
    lost.pop();
    assert!(compare_reactions(&reference, &lost) > 0);
    drop(r);
    p.nodes.teardown();
}

/// A capacity burst writes every event, never lets the node's queue grow
/// past the window, is sustained at a short stream's modest size, and
/// checks out.
#[test]
fn burst_keeps_to_its_window_and_checks_out() {
    let w = Workload::Echo;
    let mut p = session::prepare(w, 5, 8_000, &test_dir()).expect("echo nodes set up");
    let mut r = Runner::new(w, &mut p).expect("generator starts");
    let burst = r.burst();
    assert_eq!(burst.sent, 8_000);
    assert!(burst.drained);
    assert!(burst.rate() > 0.0);
    assert!(burst.met(r.spec.latency_limit_ms));
    let highwater = r.prep.nodes.a.stats().queue_highwater as usize;
    assert!(
        highwater <= r.spec.burst_window,
        "queue reached {highwater} with a window of {}",
        r.spec.burst_window
    );
    let (checks, _) = session::close(5, &mut r).expect("checks run");
    assert_eq!(checks.failed(), 0, "{checks:?}");
    drop(r);
    p.nodes.teardown();
}

/// A rung whose sender is made to stall is reported invalid, not slow.
#[test]
fn injected_generator_lag_makes_the_rung_invalid() {
    let w = Workload::Echo;
    let mut p = session::prepare(w, 4, 4_000, &test_dir()).expect("echo nodes set up");
    let mut r = Runner::new(w, &mut p).expect("generator starts");
    let limit = r.spec.latency_limit_ms;
    let steady = r.rung(2_000.0, 0.5, None);
    assert_eq!(judge(&steady, limit), Verdict::Pass);
    // Stall for longer than the limit, after 200 of 1 000 events: every
    // later event goes out late.
    let stalled = r.rung(
        2_000.0,
        0.5,
        Some((200, Duration::from_millis(3 * limit as u64))),
    );
    assert_eq!(stalled.sent, 1_000);
    assert_eq!(judge(&stalled, limit), Verdict::Invalid);
    r.stop_generator();
    drop(r);
    p.nodes.teardown();
}
