//! One benchmark run: rungs of open-loop load at a fixed rate, capacity
//! bursts under a bounded window of outstanding events, and the
//! bookkeeping both need.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::load::{Clock, Conn, RungPlan};
use crate::procfs::pin_apart;
use crate::session::{Prepared, ENGINE_THREAD};
use crate::stats::{ms, quantile};
use crate::workload::{Spec, Workload};

/// A rung whose generator ran later than this share of the latency
/// limit for a tenth of its events (lag p90) is invalid. A brief stall
/// of the whole host delays the node as much as the generator and shows
/// in the latency tail instead.
pub const LAG_LIMIT_SHARE: f64 = 0.1;
/// Events sent but not yet processed at which a rung is stopped early:
/// half the server's default ingress queue capacity. Everything queued
/// was sent first, so the queue never fills: overload shows as a failed
/// rung, never as `busy` refusals.
const ABORT_BACKLOG: u64 = 2048;
/// How long a rung may take to drain, or a burst to be processed,
/// before the run gives up on it.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Offered rate of a burst's schedule: every event is due at once, and
/// the window alone paces the sender.
const BURST_RATE: f64 = 1e9;

/// Everything one rung measured.
#[derive(Clone, Debug, Default)]
pub struct RungResult {
    /// Offered rate, events/s.
    pub rate: f64,
    /// Events planned.
    pub planned: usize,
    /// Events written.
    pub sent: usize,
    /// Stopped early because the backlog passed the abort threshold.
    pub aborted: bool,
    /// p90 and p99 of generator lag (write time − scheduled time), ns.
    pub lag_p90_ns: u64,
    /// See `lag_p90_ns`.
    pub lag_p99_ns: u64,
    /// Reaction latencies: read time − scheduled send time, ns.
    pub latencies_ns: Vec<u64>,
    /// Refusal replies (`busy`, `throttled`, `error`).
    pub refusals: usize,
    /// Reaction replies the server dropped.
    pub dropped: u64,
    /// Events sent but not yet processed (for `durable-push`: not yet
    /// ingested by node B) when the rung's last event was written.
    pub backlog_end: u64,
    /// Every sent event's reaction replies arrived and its pushes landed.
    pub drained: bool,
    /// Bytes written and read.
    pub bytes: u64,
}

/// A rung's standing against the workload's limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Sustained: latency under the limit, nothing failed, no growing
    /// backlog.
    Pass,
    /// Not sustained, for the named reason.
    Fail(&'static str),
    /// The generator itself fell behind schedule: the rung says nothing
    /// about the node.
    Invalid,
}

/// The backlog a rung may leave at its end: what the node works off
/// within the latency limit at the offered rate plus one full batch, and
/// never past the abort threshold.
fn backlog_bound(rate: f64, limit_ms: f64) -> u64 {
    ((rate * limit_ms / 1e3) as u64 + 256).min(ABORT_BACKLOG)
}

/// What one capacity burst measured.
#[derive(Clone, Debug, Default)]
pub struct BurstResult {
    /// Events written.
    pub sent: usize,
    /// From the first event's write until the node had processed the
    /// last (for `durable-push`: until B had ingested its push), ns.
    pub busy_ns: u64,
    /// Reaction latencies: read time − write time, ns.
    pub latencies_ns: Vec<u64>,
    /// Refusal replies (`busy`, `throttled`, `error`).
    pub refusals: usize,
    /// Reaction replies the server dropped.
    pub dropped: u64,
    /// Every event was processed and its replies read in time.
    pub drained: bool,
}

impl BurstResult {
    /// Events processed per second.
    pub fn rate(&self) -> f64 {
        self.sent as f64 * 1e9 / self.busy_ns.max(1) as f64
    }

    /// Whether the burst met the workload's conditions: reaction p99
    /// under `limit_ms`, nothing refused or dropped, everything drained.
    /// The window bounds the backlog.
    pub fn met(&self, limit_ms: f64) -> bool {
        let mut l = self.latencies_ns.clone();
        self.drained
            && self.refusals == 0
            && self.dropped == 0
            && ms(quantile(&mut l, 0.99)) < limit_ms
    }
}

/// Judge a rung against the workload's latency limit.
pub fn judge(r: &RungResult, limit_ms: f64) -> Verdict {
    if r.aborted {
        return Verdict::Fail("backlog passed the abort threshold");
    }
    if ms(r.lag_p90_ns) > LAG_LIMIT_SHARE * limit_ms {
        return Verdict::Invalid;
    }
    if r.refusals > 0 || r.dropped > 0 {
        return Verdict::Fail("events refused or replies dropped");
    }
    if !r.drained {
        return Verdict::Fail("did not drain");
    }
    if r.backlog_end > backlog_bound(r.rate, limit_ms) {
        return Verdict::Fail("backlog grew");
    }
    let mut l = r.latencies_ns.clone();
    if ms(quantile(&mut l, 0.99)) >= limit_ms {
        return Verdict::Fail("reaction p99 over the limit");
    }
    Verdict::Pass
}

/// Push-side observations (`durable-push`): when node B's ingested
/// count first reached each value.
#[derive(Default)]
pub struct PushTrack {
    /// `ingest_ns[k]`: time B's `deliveries_ingested` was first seen
    /// above `k`.
    pub ingest_ns: Vec<u64>,
    /// Highest `DeliveryAgent::pending()` seen.
    pub backlog_highwater: u64,
}

/// The live state of a run: nodes, generator connection, schedule.
pub struct Runner<'a> {
    /// The workload.
    pub w: Workload,
    /// Its rates and limits.
    pub spec: Spec,
    /// Inputs and nodes under test.
    pub prep: &'a mut Prepared,
    /// The generator connection to node A (`None` once stopped).
    pub conn: Option<Conn>,
    /// The shared clock.
    pub clock: Clock,
    /// Scheduled send time of every stream event handed out so far.
    pub sched_ns: Vec<u64>,
    /// Next unsent stream index.
    pub next: usize,
    /// Every reaction reply received: `(event id, read ns, payload)`.
    pub received: Vec<(u64, u64, Vec<u8>)>,
    /// Every refusal reply received.
    pub refusals: Vec<(u64, String)>,
    /// Push observations.
    pub push: PushTrack,
    /// The engine thread runs on a CPU of its own.
    pub pinned: bool,
}

impl<'a> Runner<'a> {
    /// A runner over prepared inputs and nodes; starts the generator and,
    /// if the workload asks for it, pins the engine thread.
    pub fn new(w: Workload, prep: &'a mut Prepared) -> std::io::Result<Runner<'a>> {
        let clock = Clock::start();
        let conn = prep.generator(clock)?;
        let n = prep.stream.len();
        let pinned = w.spec().pin_engine && pin_apart(ENGINE_THREAD);
        Ok(Runner {
            w,
            spec: w.spec(),
            prep,
            conn: Some(conn),
            clock,
            sched_ns: vec![0; n],
            next: 0,
            received: Vec::new(),
            refusals: Vec::new(),
            push: PushTrack::default(),
            pinned,
        })
    }

    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("generator connection is open")
    }

    /// Say `bye` and stop the generator threads.
    pub fn stop_generator(&mut self) {
        if let Some(c) = self.conn.take() {
            c.stop();
        }
    }

    /// Events still unsent.
    pub fn remaining(&self) -> usize {
        self.prep.stream.len() - self.next
    }

    /// Events processed so far in the sense the backlog uses.
    fn processed(&self) -> u64 {
        match &self.prep.nodes.b {
            Some(b) => b.stats().deliveries_ingested,
            None => self.prep.nodes.a.stats().msgs_processed,
        }
    }

    /// One poll of the nodes: record push arrivals, spawn delivery
    /// workers for new destinations, and say whether the backlog has
    /// passed [`ABORT_BACKLOG`].
    fn poll(&mut self) -> bool {
        let sent = self.conn().sent_total.load(Ordering::Relaxed) as u64;
        let processed = self.processed();
        self.conn()
            .processed
            .store(processed as usize, Ordering::Relaxed);
        if let Some(b) = &self.prep.nodes.b {
            let ingested = b.stats().deliveries_ingested as usize;
            let now = self.clock.now_ns();
            while self.push.ingest_ns.len() < ingested {
                self.push.ingest_ns.push(now);
            }
        }
        if let Some(agent) = self.prep.nodes.agent.as_mut() {
            agent.pump();
            let pending = agent.pending() as u64;
            self.push.backlog_highwater = self.push.backlog_highwater.max(pending);
        }
        sent.saturating_sub(processed) > ABORT_BACKLOG
    }

    fn poll_interval(&self) -> Duration {
        match self.w {
            Workload::DurablePush => Duration::from_micros(100),
            Workload::Echo | Workload::Market => Duration::from_millis(1),
        }
    }

    /// Offer `rate` events/s for `secs` seconds, then drain: wait until
    /// every sent event's replies were read (and, for `durable-push`,
    /// every push landed on B).
    pub fn rung(&mut self, rate: f64, secs: f64, stall: Option<(usize, Duration)>) -> RungResult {
        let count = ((rate * secs) as usize).min(self.remaining());
        let plan = RungPlan {
            first: self.next,
            count,
            rate,
            t0_ns: self.clock.now_ns() + 1_000_000,
            stall,
        };
        for j in 0..count {
            self.sched_ns[plan.first + j] = plan.sched_ns(j);
        }
        let dropped0 = self.prep.nodes.a.stats().replies_dropped;
        let interval = self.poll_interval();
        self.conn().start_rung(plan);
        let report = loop {
            if let Some(rep) = self.conn().try_report() {
                break rep;
            }
            if self.poll() {
                self.conn().abort.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(interval);
        };
        let sent_total = self.conn().sent_total.load(Ordering::SeqCst) as u64;
        let backlog_end = sent_total.saturating_sub(self.processed());
        self.next += report.sent;

        // Drain: the sync marker answers once every earlier event was
        // processed and its replies written; pushes land on B later.
        // Polling continues throughout, so push arrivals keep their
        // times.
        let sync = self.conn().send_sync();
        let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
        let mut drained = false;
        while std::time::Instant::now() < deadline {
            self.poll();
            let pushed =
                self.prep.nodes.b.is_none() || self.push.ingest_ns.len() as u64 >= sent_total;
            if pushed && self.conn().synced(sync) {
                drained = true;
                break;
            }
            std::thread::sleep(interval);
        }

        let log = self.conn().take_log();
        let latencies_ns = self.latencies(&log.reactions);
        let refusals = log.refusals.len();
        self.received.extend(log.reactions);
        self.refusals.extend(log.refusals);
        let mut lag = report.lag_ns;
        RungResult {
            rate,
            planned: count,
            sent: report.sent,
            aborted: report.sent < count,
            lag_p90_ns: quantile(&mut lag, 0.90),
            lag_p99_ns: quantile(&mut lag, 0.99),
            latencies_ns,
            refusals,
            dropped: self.prep.nodes.a.stats().replies_dropped - dropped0,
            backlog_end,
            drained,
            bytes: report.bytes + log.bytes,
        }
    }

    /// Write `spec.burst_events` events as fast as the node takes them,
    /// keeping at most `spec.burst_window` outstanding, and time how long
    /// the node takes to process them; then drain.
    pub fn burst(&mut self) -> BurstResult {
        let count = self.spec.burst_events.min(self.remaining());
        let plan = RungPlan {
            first: self.next,
            count,
            rate: BURST_RATE,
            t0_ns: self.clock.now_ns() + 1_000_000,
            stall: None,
        };
        let target = self.conn().sent_total.load(Ordering::SeqCst) as u64 + count as u64;
        let dropped0 = self.prep.nodes.a.stats().replies_dropped;
        let interval = self.poll_interval();
        let window = self.spec.burst_window;
        self.conn().window.store(window, Ordering::SeqCst);
        self.conn().start_rung(plan);
        let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
        let mut done_ns = None;
        let mut report = None;
        while std::time::Instant::now() < deadline {
            self.poll();
            if report.is_none() {
                report = self.conn().try_report();
            }
            if self.processed() >= target {
                done_ns = Some(self.clock.now_ns());
                break;
            }
            std::thread::sleep(interval);
        }
        if done_ns.is_none() {
            self.conn().abort.store(true, Ordering::SeqCst);
        }
        let report = report.unwrap_or_else(|| self.conn().wait_report());
        self.conn().window.store(0, Ordering::SeqCst);
        self.next += report.sent;
        // Latency runs from each event's write: the schedule only says
        // "now".
        for (k, lag) in report.lag_ns.iter().enumerate() {
            self.sched_ns[plan.first + k] = plan.sched_ns(k) + lag;
        }

        let sync = self.conn().send_sync();
        let mut drained = false;
        while done_ns.is_some() && std::time::Instant::now() < deadline {
            self.poll();
            if self.conn().synced(sync) {
                drained = true;
                break;
            }
            std::thread::sleep(interval);
        }
        let log = self.conn().take_log();
        let latencies_ns = self.latencies(&log.reactions);
        let refusals = log.refusals.len();
        self.received.extend(log.reactions);
        self.refusals.extend(log.refusals);
        BurstResult {
            sent: report.sent,
            busy_ns: done_ns.unwrap_or_else(|| self.clock.now_ns()) - plan.t0_ns,
            latencies_ns,
            refusals,
            dropped: self.prep.nodes.a.stats().replies_dropped - dropped0,
            drained,
        }
    }

    /// Latency of each reaction reply: read time − scheduled send time.
    fn latencies(&self, reactions: &[(u64, u64, Vec<u8>)]) -> Vec<u64> {
        reactions
            .iter()
            .filter_map(|(id, ns, _)| {
                let s = self.sched_ns.get((*id as usize).checked_sub(1)?)?;
                Some(ns.saturating_sub(*s))
            })
            .collect()
    }
}
