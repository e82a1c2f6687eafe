//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Two sources. The *live* source runs the workload at its nominal rate
//! twice — untraced, then with node A's observability enabled — and
//! reads the router, delivery and fsync numbers the nodes keep. The
//! *replica* source replays the run's first events through each layer's
//! public functions from this file, in the order the server's engine
//! thread calls them, and records a span around every call: frame scan,
//! envelope decode, engine ingest, reply encode, and for `durable-push`
//! WAL append, fsync, outbox enqueue and ledger record. Spans are kept
//! in memory, written to `.bench_run/spans-<workload>.jsonl` at the end,
//! and folded into per-layer self time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use reweb_core::{parse_action, InMessage, ReactiveEngine};
use reweb_net::wire::event_to_message;
use reweb_net::{DeliveryLedger, Reply, Request};
use reweb_persist::wal::{Record, Wal, WAL_SCHEMA};
use reweb_persist::{DurableEngine, DurableOptions, Outbox, Recoverable, SyncPolicy};
use reweb_query::{parse_condition, Bindings, Condition};
use reweb_term::{parse_term, scan_frames, Term, Timestamp};
use reweb_update::Executor;

use crate::node::{a_engine, GEN_FROM, NODE_A};
use crate::report::Report;
use crate::run::Runner;
use crate::session::{self, Nominal, WARMUP_SECS};
use crate::spans::Tracer;
use crate::stats::us;
use crate::workload::{
    Generator, Stream, Workload, MARKET_ACTION, MARKET_CONDITION, MARKET_CUSTOMERS, MARKET_SKUS,
};

/// Events replayed through the layers (fsync-bound layers use fewer).
const REPLICA_EVENTS: usize = 20_000;
/// Events replayed through the persistence layers.
const PERSIST_EVENTS: usize = 2_000;
/// Calls per condition/update probe.
const PROBE_REPS: usize = 2_000;

/// Layers on the replica's blocking path, in the server's order.
const PATH_LAYERS: [&str; 8] = [
    "term.frame",
    "wire.request_decode",
    "persist.wal_append",
    "persist.fsync",
    "core.ingest",
    "persist.outbox_enqueue",
    "persist.ledger_record",
    "wire.reply_encode",
];

/// What the live phases measured.
struct Live {
    untraced: Nominal,
    traced: Nominal,
    events_per_batch: f64,
    queue_highwater: u64,
    replies_dropped: u64,
    queue_wait_p50_ns: u64,
    batch_p50_ns: u64,
    batch_p99_ns: u64,
    fsyncs: u64,
    rtt_p50_ns: u64,
    rtt_p99_ns: u64,
    backlog_highwater: u64,
    failed_attempts: u64,
    duplicate_acks: u64,
}

/// Run `w` traced for about `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64, run_dir: &Path) -> std::io::Result<Report> {
    let windows = (((seconds - WARMUP_SECS) / 2.0 / w.spec().window_secs).floor() as usize).max(1);
    let n_events = session::events_needed(w, 2 * windows, 0);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut p = session::prepare(w, seed, n_events, run_dir)?;
    let mut r = Runner::new(w, &mut p)?;

    r.rung(r.spec.nominal_eps, WARMUP_SECS, None);
    let untraced = session::nominal(&mut r, windows);
    let obs = r.prep.nodes.a.obs();
    let a0 = r.prep.nodes.a.stats();
    let d0 = r
        .prep
        .nodes
        .agent
        .as_ref()
        .map(|a| a.stats())
        .unwrap_or_default();
    let f0 = obs.fsync.snapshot().count();
    r.push.backlog_highwater = 0;
    obs.enable();
    let traced = session::nominal(&mut r, windows);
    obs.disable();
    let a1 = r.prep.nodes.a.stats();
    let d1 = r
        .prep
        .nodes
        .agent
        .as_ref()
        .map(|a| a.stats())
        .unwrap_or_default();
    let (batch, queue, rtt) = (
        obs.batch.snapshot(),
        obs.queue.snapshot(),
        obs.delivery.snapshot(),
    );
    let live = Live {
        events_per_batch: (a1.msgs_processed - a0.msgs_processed) as f64
            / (a1.batches - a0.batches).max(1) as f64,
        queue_highwater: a1.queue_highwater,
        replies_dropped: a1.replies_dropped - a0.replies_dropped,
        queue_wait_p50_ns: queue.p50(),
        batch_p50_ns: batch.p50(),
        batch_p99_ns: batch.p99(),
        fsyncs: obs.fsync.snapshot().count() - f0,
        rtt_p50_ns: rtt.p50(),
        rtt_p99_ns: rtt.p99(),
        backlog_highwater: r.push.backlog_highwater,
        failed_attempts: d1.failed_attempts - d0.failed_attempts,
        duplicate_acks: d1.duplicate_acks - d0.duplicate_acks,
        untraced,
        traced,
    };
    let (checks, _) = session::close(seed, &mut r)?;
    let attempted = r.next as u64;
    drop(r);
    p.nodes.teardown();

    let mut tracer = Tracer::new();
    let replica = replica(
        w,
        seed,
        &p.program,
        live.events_per_batch,
        run_dir,
        &mut tracer,
    )?;
    std::fs::create_dir_all(run_dir)?;
    tracer.write_jsonl(&run_dir.join(format!("spans-{}.jsonl", w.name())))?;

    let mut rep = Report::default();
    rep.note(format!(
        "loadbench {} traced seed={seed} seconds={seconds} host_cores={}: live {}+{} windows at {} ev/s, replica {} events ({} through persistence), {} spans",
        w.name(),
        host_cores,
        windows,
        windows,
        w.spec().nominal_eps,
        replica.events,
        replica.persist_events,
        tracer.spans().len()
    ));
    per_layer(&mut rep, w, &live, &replica, &tracer);
    let failed = checks.failed() as u64;
    rep.note(format!(
        "  checked {attempted} events: {failed} failures (reactions, ledger, recovery, refusals)"
    ));
    rep.attempted = attempted;
    rep.failed = failed;
    rep.correct = failed == 0;
    Ok(rep)
}

/// What the replica measured besides its spans.
struct Replica {
    events: usize,
    persist_events: usize,
    reactions: usize,
    metrics: reweb_core::EngineMetrics,
    state_size: usize,
    parse_ns: u64,
    print_ns: u64,
    request_encode_ns: u64,
    condition_ns: u64,
    execute_ns: u64,
    fsync_calls: u64,
    outbox_calls: u64,
    wal_bytes: u64,
    replay_ns: u64,
}

/// The persistence layers of a durable node, opened in a throwaway
/// directory the way `DurableEngine` and the delivery agent open them.
struct Persist {
    dir: std::path::PathBuf,
    wal: Wal,
    wal_start: u64,
    outbox: Outbox,
    ledger: DeliveryLedger,
    next_key: u64,
}

impl Persist {
    fn open(run_dir: &Path, program: &str) -> std::io::Result<Persist> {
        let io = |e: reweb_persist::PersistError| std::io::Error::other(e.to_string());
        let dir = run_dir.join(format!("replica-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let mut wal = Wal::open(&dir.join("wal.log")).map_err(io)?.wal;
        let engine = Recoverable::descriptor(&ReactiveEngine::new(NODE_A));
        wal.append(&Record::Head {
            schema: WAL_SCHEMA.to_string(),
            engine,
        })
        .map_err(io)?;
        wal.append(&Record::Install(program.to_string()))
            .map_err(io)?;
        wal.sync().map_err(io)?;
        let wal_start = wal.len();
        let outbox = Outbox::open(&dir.join("outbox.log"), SyncPolicy::Always)
            .map_err(io)?
            .outbox;
        let ledger = DeliveryLedger::open(&dir.join("ledger.log"))?;
        Ok(Persist {
            dir,
            wal,
            wal_start,
            outbox,
            ledger,
            next_key: 0,
        })
    }

    /// Log one batch: append, then fsync.
    fn log_batch(&mut self, t: &mut Tracer, root: u32, msgs: &[InMessage]) {
        let rec = Record::Batch(msgs.to_vec());
        t.span("persist.wal_append", root, || self.wal.append(&rec))
            .expect("replica WAL append");
        t.span("persist.fsync", root, || self.wal.sync())
            .expect("replica WAL fsync");
    }

    /// Journal one reaction the way a push does: outbox enqueue on the
    /// sender, ledger record on the receiver.
    fn push(&mut self, t: &mut Tracer, root: u32, to: &str, at: Timestamp, payload: &Term) {
        t.span("persist.outbox_enqueue", root, || {
            self.outbox.enqueue(to, at, payload)
        })
        .expect("replica outbox enqueue");
        self.next_key += 1;
        let key = format!("{NODE_A}#{}", self.next_key);
        t.span("persist.ledger_record", root, || {
            self.ledger.record(&key, payload)
        });
    }

    /// Reopen the log as a durable engine (a replay) and time it.
    fn replay(self) -> std::io::Result<(u64, u64)> {
        let wal_bytes = self.wal.len() - self.wal_start;
        let dir = self.dir.clone();
        drop(self);
        let t = Instant::now();
        let reopened = DurableEngine::open(&dir, DurableOptions::default(), || {
            ReactiveEngine::new(NODE_A)
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        let ns = t.elapsed().as_nanos() as u64;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        Ok((wal_bytes, ns))
    }
}

fn decode_batch(payloads: &[(u64, Vec<u8>)]) -> Vec<InMessage> {
    payloads
        .iter()
        .map(
            |(_, p)| match Request::decode(p).expect("replica frame decodes") {
                Request::Event {
                    at,
                    from,
                    credentials,
                    payload,
                    ..
                } => event_to_message(
                    GEN_FROM,
                    &None,
                    false,
                    &from,
                    &credentials,
                    payload,
                    at.expect("generated events carry at"),
                )
                .expect("plain session event"),
                other => panic!("replica stream holds a non-event request: {other:?}"),
            },
        )
        .collect()
}

/// Replay the first events through every layer, in the server's order, with
/// a span around each call; then the single-layer probes.
fn replica(
    w: Workload,
    seed: u64,
    program: &str,
    events_per_batch: f64,
    run_dir: &Path,
    t: &mut Tracer,
) -> std::io::Result<Replica> {
    let durable = w == Workload::DurablePush;
    let events = if durable {
        PERSIST_EVENTS
    } else {
        REPLICA_EVENTS
    };
    let batch = (events_per_batch.round() as usize).max(1);
    let stream = Stream::generate(w, seed, events);
    let mut engine = t.span("core.install", 0, || a_engine(w, program))?;
    let mut persist = Persist::open(run_dir, program)?;
    let mut reactions = 0usize;

    // The blocking path, batch by batch. A durable node logs the batch
    // before the engine sees it and journals each reaction for push.
    let mut first = 0;
    while first < events {
        let end = (first + batch).min(events);
        let root = t.begin("router.batch", 0);
        let scan = t.span("term.frame", root, || scan_frames(stream.range(first, end)));
        let msgs = t.span("wire.request_decode", root, || decode_batch(&scan.frames));
        if durable {
            persist.log_batch(t, root, &msgs);
        }
        let outs = t.span("core.ingest", root, || engine.receive_batch_tagged(&msgs));
        for (k, o) in outs {
            if durable {
                persist.push(t, root, &o.to, msgs[k as usize].at, &o.payload);
            }
            let id = (first + k as usize + 1) as u64;
            t.span("wire.reply_encode", root, || {
                Reply::Reaction {
                    id,
                    to: o.to,
                    payload: o.payload,
                }
                .encode()
            });
            reactions += 1;
        }
        t.end(root);
        first = end;
    }

    // Persistence off the path (echo, market): what logging and pushing
    // this stream would cost, on its first events.
    let persist_events = if durable {
        events
    } else {
        let n = PERSIST_EVENTS.min(events);
        let mut reference = a_engine(w, program)?;
        let mut first = 0;
        while first < n {
            let end = (first + batch).min(n);
            let root = t.begin("persist.batch", 0);
            let msgs = decode_batch(&scan_frames(stream.range(first, end)).frames);
            persist.log_batch(t, root, &msgs);
            for (k, o) in reference.receive_batch_tagged(&msgs) {
                persist.push(t, root, &o.to, msgs[k as usize].at, &o.payload);
            }
            t.end(root);
            first = end;
        }
        n
    };
    let fsync_calls = t.layer_times().get("persist.fsync").map_or(0, |x| x.2);
    let outbox_calls = t
        .layer_times()
        .get("persist.outbox_enqueue")
        .map_or(0, |x| x.2);
    let (wal_bytes, replay_ns) = persist.replay()?;

    // Single-layer probes on the same stream.
    let mut gen = Generator::new(w, seed);
    let texts: Vec<String> = (0..events).map(|_| gen.next_text()).collect();
    let terms: Vec<Term> = t.span("term.parse", 0, || {
        texts
            .iter()
            .map(|s| parse_term(s).expect("generated event parses"))
            .collect()
    });
    let print_ns = timed(t, "term.print", || {
        terms.iter().map(|p| p.to_string().len()).sum::<usize>()
    });
    let request_encode_ns = timed(t, "wire.request_encode", || {
        terms
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Request::Event {
                    id: i as u64 + 1,
                    at: Some(Timestamp(i as u64)),
                    from: None,
                    credentials: None,
                    payload: p.clone(),
                }
                .encode()
                .len()
            })
            .sum::<usize>()
    });
    let (condition, action, binds) = probe_rule(w)?;
    let condition_ns = timed(t, "query.condition", || {
        (0..PROBE_REPS)
            .map(|i| {
                let seed = binds[i % binds.len()].clone();
                engine
                    .qe
                    .eval_condition(&condition, &seed)
                    .map_or(0, |v| v.len())
            })
            .sum::<usize>()
    });
    let mut qe = engine.qe.clone();
    let procedures = BTreeMap::new();
    let execute_ns = timed(t, "update.execute", || {
        let mut ex = Executor::new(&mut qe, &procedures);
        (0..PROBE_REPS)
            .filter(|&i| ex.execute(&action, &binds[i % binds.len()]).is_ok())
            .count()
    });
    Ok(Replica {
        events,
        persist_events,
        reactions,
        metrics: engine.metrics.clone(),
        state_size: engine.state_size(),
        parse_ns: t.total_ns("term.parse"),
        print_ns,
        request_encode_ns,
        condition_ns,
        execute_ns,
        fsync_calls,
        outbox_calls,
        wal_bytes,
        replay_ns,
    })
}

fn timed<R>(t: &mut Tracer, layer: &'static str, f: impl FnOnce() -> R) -> u64 {
    let id = t.begin(layer, 0);
    std::hint::black_box(f());
    t.end(id);
    let s = &t.spans()[id as usize - 1];
    s.end_ns - s.start_ns
}

/// The condition, action and bindings the probes evaluate: the
/// `market` checkout rule's read and write, or — for workloads whose
/// rules have no condition — the trivial condition and the rule's SEND.
fn probe_rule(w: Workload) -> std::io::Result<(Condition, reweb_update::Action, Vec<Bindings>)> {
    let io = |e: reweb_term::TermError| std::io::Error::other(e.to_string());
    Ok(match w {
        Workload::Market => {
            let binds = (0..MARKET_CUSTOMERS)
                .map(|c| {
                    Bindings::of("C", Term::text(format!("c{c}")))
                        .bind("K", &Term::text(format!("s{}", c % MARKET_SKUS)))
                        .and_then(|b| b.bind("O", &Term::text(format!("o{c}"))))
                        .and_then(|b| b.bind("T", &Term::text("gold")))
                        .and_then(|b| b.bind("A", &Term::text("100")))
                        .expect("fresh variables bind")
                })
                .collect();
            (
                parse_condition(MARKET_CONDITION).map_err(io)?,
                parse_action(MARKET_ACTION).map_err(io)?,
                binds,
            )
        }
        Workload::Echo | Workload::DurablePush => (
            Condition::always_true(),
            parse_action("SEND seen{n[var N]} TO \"http://sink/0\"").map_err(io)?,
            vec![Bindings::of("N", Term::text("42"))],
        ),
    })
}

fn per_layer(rep: &mut Report, w: Workload, live: &Live, x: &Replica, t: &Tracer) {
    let times = t.layer_times();
    let ev = x.events.max(1) as f64;
    let pev = x.persist_events.max(1) as f64;
    let per_event = |layer: &str, n: f64| times.get(layer).map_or(0.0, |l| us(l.0) / n);
    let per_call = |layer: &str| {
        times
            .get(layer)
            .map_or(0.0, |l| us(l.0) / l.2.max(1) as f64)
    };
    let m = &x.metrics;
    let received = m.events_received.max(1) as f64;
    let u = &live.untraced;
    let traced_events = live.traced.events().max(1) as f64;

    rep.metric("gen.lag_p99_ms", u.lag_p99_ms(), "ms");
    rep.metric("gen.cpu_us_per_event", u.gen_cpu_us_per_event(), "us");

    rep.metric("term.parse_us", us(x.parse_ns) / ev, "us");
    rep.metric("term.print_us", us(x.print_ns) / ev, "us");
    rep.metric("term.frame_us", per_event("term.frame", ev), "us");
    rep.metric(
        "term.symbols_added",
        (u.symbols_added + live.traced.symbols_added) as f64,
        "count",
    );

    rep.metric("wire.request_encode_us", us(x.request_encode_ns) / ev, "us");
    rep.metric(
        "wire.request_decode_us",
        per_event("wire.request_decode", ev),
        "us",
    );
    rep.metric("wire.reply_encode_us", per_call("wire.reply_encode"), "us");
    rep.metric("wire.bytes_per_event", u.bytes_per_event(), "bytes");

    rep.metric("router.events_per_batch", live.events_per_batch, "count");
    rep.metric(
        "router.queue_highwater",
        live.queue_highwater as f64,
        "count",
    );
    rep.metric(
        "router.busy_frac",
        live.traced.engine_thread_ns as f64 / live.traced.wall_ns.max(1) as f64,
        "frac",
    );
    rep.metric(
        "router.replies_dropped",
        live.replies_dropped as f64,
        "count",
    );
    rep.metric("router.queue_wait_p50_us", us(live.queue_wait_p50_ns), "us");
    rep.metric("router.batch_p50_us", us(live.batch_p50_ns), "us");
    rep.metric("router.batch_p99_us", us(live.batch_p99_ns), "us");

    rep.metric("core.ingest_us", per_event("core.ingest", ev), "us");
    rep.metric(
        "core.fired_per_event",
        m.rules_fired as f64 / received,
        "count",
    );
    rep.metric(
        "core.unmatched_frac",
        m.events_unmatched as f64 / received,
        "frac",
    );
    rep.metric(
        "core.install_ms",
        per_event("core.install", 1.0) / 1e3,
        "ms",
    );
    rep.metric("core.state_size", x.state_size as f64, "count");

    rep.metric(
        "query.alpha_tests_per_event",
        m.alpha_tests_run as f64 / received,
        "count",
    );
    rep.metric(
        "query.considered_per_event",
        m.rules_considered as f64 / received,
        "count",
    );
    rep.metric(
        "query.fire_yield",
        m.rules_fired as f64 / m.rules_considered.max(1) as f64,
        "frac",
    );
    rep.metric(
        "query.condition_evals_per_event",
        m.condition_evals as f64 / received,
        "count",
    );
    rep.metric(
        "query.condition_us",
        us(x.condition_ns) / PROBE_REPS as f64,
        "us",
    );

    rep.metric(
        "events.join_attempts_per_event",
        m.join_attempts as f64 / received,
        "count",
    );
    rep.metric(
        "events.index_probes_per_event",
        m.index_probes as f64 / received,
        "count",
    );

    rep.metric(
        "update.execute_us",
        us(x.execute_ns) / PROBE_REPS as f64,
        "us",
    );
    rep.metric("update.actions_failed", m.actions_failed as f64, "count");

    rep.metric(
        "persist.wal_append_us",
        per_event("persist.wal_append", pev),
        "us",
    );
    rep.metric("persist.fsync_us", per_call("persist.fsync"), "us");
    rep.metric(
        "persist.fsyncs_per_event",
        live.fsyncs as f64 / traced_events,
        "count",
    );
    rep.metric(
        "persist.outbox_enqueue_us",
        per_call("persist.outbox_enqueue"),
        "us",
    );
    rep.metric(
        "persist.ledger_record_us",
        per_call("persist.ledger_record"),
        "us",
    );
    rep.metric(
        "persist.wal_bytes_per_event",
        x.wal_bytes as f64 / pev,
        "bytes",
    );
    rep.metric(
        "persist.replay_keps",
        pev / (x.replay_ns.max(1) as f64 / 1e9) / 1e3,
        "kevents/s",
    );

    rep.metric("delivery.rtt_p50_us", us(live.rtt_p50_ns), "us");
    rep.metric("delivery.rtt_p99_us", us(live.rtt_p99_ns), "us");
    rep.metric(
        "delivery.backlog_highwater",
        live.backlog_highwater as f64,
        "count",
    );
    rep.metric(
        "delivery.failed_attempts",
        live.failed_attempts as f64,
        "count",
    );
    rep.metric(
        "delivery.duplicate_acks",
        live.duplicate_acks as f64,
        "count",
    );

    rep.metric(
        "obs.traced_cpu_overhead",
        live.traced.cpu_us_per_event() - u.cpu_us_per_event(),
        "us",
    );

    // Self time per replica layer, per replayed event; the path's sum
    // against the live CPU per event is the ladder.
    let durable = w == Workload::DurablePush;
    let mut path_us = 0.0;
    for layer in std::iter::once("router.batch").chain(PATH_LAYERS) {
        let self_us = times.get(layer).map_or(0.0, |l| us(l.1) / ev);
        let persistence = layer.starts_with("persist.");
        if layer != "router.batch" && (durable || !persistence) {
            path_us += self_us;
        }
        // Persistence calls have no child spans: their self time is the
        // per-call figure above.
        if !persistence {
            rep.metric(format!("self.{layer}_us"), self_us, "us");
        }
    }
    rep.metric(
        "ladder.unexplained_frac",
        1.0 - path_us / u.cpu_us_per_event(),
        "frac",
    );
    rep.note(format!(
        "  ladder: blocking-path layers {path_us:.3} us/event of {:.3} us/event live CPU; {} replica reactions, {} fsyncs, {} outbox enqueues",
        u.cpu_us_per_event(),
        x.reactions,
        x.fsync_calls,
        x.outbox_calls
    ));
}
