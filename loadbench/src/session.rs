//! The parts of a run both modes share: input generation, repeated
//! set-up, warm-up, the nominal-rate windows, and the closing checks.

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use reweb_term::Sym;

use crate::load::{Clock, Conn};
use crate::node::{self, Nodes};
use crate::procfs::CpuSplit;
use crate::run::{RungResult, Runner};
use crate::stats::{lower_quartile, median, ms, quantile};
use crate::verify::{self, Reference};
use crate::workload::{Stream, Workload};

/// Set-ups per run: at least `MIN_SETUPS`, more while they took less
/// than `SETUP_SECS` in total, at most `MAX_SETUPS`; `setup_s` is their
/// median.
pub const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
pub const SETUP_SECS: f64 = 1.0;
/// Warm-up before anything is measured, seconds.
pub const WARMUP_SECS: f64 = 1.0;

/// Inputs generated and nodes set up, before any timing.
pub struct Prepared {
    /// Node A's rule program.
    pub program: String,
    /// The pre-encoded stream.
    pub stream: Arc<Stream>,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The nodes of the last set-up.
    pub nodes: Nodes,
    /// The generator's open session to node A, until the generator
    /// takes it.
    sock: Option<TcpStream>,
}

impl Prepared {
    /// Start the load generator on the open session.
    pub fn generator(&mut self, clock: Clock) -> std::io::Result<Conn> {
        let sock = self.sock.take().expect("the generator starts once");
        Conn::start(sock, Arc::clone(&self.stream), clock)
    }
}

/// Generate `n_events` of `(w, seed)` and set the nodes up repeatedly
/// (see [`MIN_SETUPS`]), keeping the last.
pub fn prepare(
    w: Workload,
    seed: u64,
    n_events: usize,
    run_dir: &Path,
) -> std::io::Result<Prepared> {
    let program = w.program();
    let stream = Arc::new(Stream::generate(w, seed, n_events));
    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let (nodes, sock) = loop {
        let t = Instant::now();
        let (nodes, sock) = node::setup(w, &program, run_dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let n = setup_s.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SECS) {
            break (nodes, sock);
        }
        drop(sock);
        nodes.teardown();
    };
    Ok(Prepared {
        program,
        stream,
        setup_s,
        nodes,
        sock: Some(sock),
    })
}

/// Events a run needs: warm-up and nominal windows at the nominal rate,
/// plus `bursts` capacity bursts.
pub fn events_needed(w: Workload, windows: usize, bursts: usize) -> usize {
    let spec = w.spec();
    let nominal = spec.nominal_eps * (WARMUP_SECS + windows as f64 * spec.window_secs);
    nominal as usize + bursts * spec.burst_events + 16
}

/// The nominal-rate measurement: windows of the workload's window
/// length, consecutive or with other load in between.
#[derive(Default)]
pub struct Nominal {
    /// Each window's rung result.
    pub windows: Vec<RungResult>,
    /// Stream range of each window.
    pub ranges: Vec<(usize, usize)>,
    /// CPU ns of the system under test over the windows.
    pub cpu_sut_ns: u64,
    /// CPU ns of the benchmark's own threads over the windows.
    pub cpu_bench_ns: u64,
    /// CPU ns of the server's engine thread over the windows.
    pub engine_thread_ns: u64,
    /// Wall ns over the windows.
    pub wall_ns: u64,
    /// Interned symbols added over the windows.
    pub symbols_added: usize,
}

/// Name the ingress server gives the thread that runs the engine, as the
/// kernel keeps it (thread names are cut to 15 bytes).
pub const ENGINE_THREAD: &str = "reweb-net-drive";

/// Offer the nominal rate for `windows` consecutive windows.
pub fn nominal(r: &mut Runner<'_>, windows: usize) -> Nominal {
    let mut n = Nominal::default();
    for _ in 0..windows {
        n.window(r);
    }
    n
}

impl Nominal {
    /// Offer the nominal rate for one more window.
    pub fn window(&mut self, r: &mut Runner<'_>) {
        let first = r.next;
        let sym0 = Sym::table_len();
        let cpu0 = CpuSplit::now();
        let t0 = r.clock.now_ns();
        let result = r.rung(r.spec.nominal_eps, r.spec.window_secs, None);
        self.wall_ns += r.clock.now_ns() - t0;
        let cpu1 = CpuSplit::now();
        let (sut, bench) = cpu1.since(&cpu0);
        self.cpu_sut_ns += sut;
        self.cpu_bench_ns += bench;
        self.engine_thread_ns += cpu1.named_since(&cpu0, ENGINE_THREAD);
        self.symbols_added += Sym::table_len().saturating_sub(sym0);
        self.ranges.push((first, r.next));
        self.windows.push(result);
    }

    /// Events sent in the windows.
    pub fn events(&self) -> usize {
        self.windows.iter().map(|w| w.sent).sum()
    }

    /// Reaction samples over all windows.
    pub fn samples(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_ns.len()).sum()
    }

    /// System-under-test CPU per event, µs.
    pub fn cpu_us_per_event(&self) -> f64 {
        self.cpu_sut_ns as f64 / 1e3 / self.events().max(1) as f64
    }

    /// Benchmark CPU per event, µs.
    pub fn gen_cpu_us_per_event(&self) -> f64 {
        self.cpu_bench_ns as f64 / 1e3 / self.events().max(1) as f64
    }

    /// Median over windows of the generator's lag p99, ms.
    pub fn lag_p99_ms(&self) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(|w| ms(w.lag_p99_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Wire bytes (both directions) per event.
    pub fn bytes_per_event(&self) -> f64 {
        self.windows.iter().map(|w| w.bytes).sum::<u64>() as f64 / self.events().max(1) as f64
    }
}

/// Each sample set's quantile `q`, ms.
pub fn window_quantiles<'v>(windows: impl Iterator<Item = &'v Vec<u64>>, q: f64) -> Vec<f64> {
    windows.map(|w| ms(quantile(&mut w.clone(), q))).collect()
}

/// Latency figures over a run's windows, ms: the lower quartile over
/// windows of each window's p50 and p99. Host interference (a stalled
/// vCPU, a slow fsync on a shared disk) comes in bursts that slow the
/// windows they hit; the lower quartile keeps these figures to what the
/// node does when the host leaves it alone, while a slower node raises
/// every window.
#[derive(Clone, Copy, Debug)]
pub struct WindowLatency {
    /// Lower quartile over windows of each window's p50.
    pub p50: f64,
    /// Lower quartile over windows of each window's p99.
    pub p99: f64,
}

/// [`WindowLatency`] of per-window latency samples (ns).
pub fn window_latency<'v>(windows: impl Iterator<Item = &'v Vec<u64>> + Clone) -> WindowLatency {
    WindowLatency {
        p50: lower_quartile(&window_quantiles(windows.clone(), 0.50)),
        p99: lower_quartile(&window_quantiles(windows, 0.99)),
    }
}

/// Push latencies (`durable-push`) of stream events in `lo..hi`, grouped
/// into windows as `nominal` was, ns: node B's `k`-th ingested delivery
/// is matched to its event through the pushed payload's `n` field.
pub fn push_latencies(
    r: &Runner<'_>,
    ledger: &[(String, reweb_term::Term)],
    windows: &[(usize, usize)],
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); windows.len()];
    for (k, (_, payload)) in ledger.iter().enumerate() {
        let (Some(idx), Some(&at)) = (verify::pushed_index(payload), r.push.ingest_ns.get(k))
        else {
            continue;
        };
        if let Some(w) = windows.iter().position(|&(lo, hi)| idx >= lo && idx < hi) {
            out[w].push(at.saturating_sub(r.sched_ns[idx]));
        }
    }
    out
}

/// Everything the closing checks found.
#[derive(Debug, Default)]
pub struct Checks {
    /// Reactions missing, extra or not byte-equal to the reference.
    pub reaction_failures: usize,
    /// Ledger entries on node B out of place (`durable-push`).
    pub ledger_failures: usize,
    /// Recovered node-A metrics differing from before the restart.
    pub recovery_failures: usize,
    /// Refusal replies received.
    pub refusals: usize,
    /// Reactions the reference produced for the sent prefix.
    pub expected_reactions: usize,
    /// `recovery_s` samples (`durable-push`).
    pub recovery_s: Vec<f64>,
}

impl Checks {
    /// Total failed count for the JSON line.
    pub fn failed(&self) -> usize {
        self.reaction_failures + self.ledger_failures + self.recovery_failures + self.refusals
    }
}

/// Restarts of node A per `durable-push` run; `recovery_s` is their median.
pub const RECOVERIES: usize = 3;

/// Stop the generator, restart node A ([`RECOVERIES`] times for
/// `durable-push`), and compare everything with the reference. Returns
/// the checks and node B's ledger.
pub fn close(
    seed: u64,
    r: &mut Runner<'_>,
) -> std::io::Result<(Checks, Vec<(String, reweb_term::Term)>)> {
    r.stop_generator();
    let mut checks = Checks {
        refusals: r.refusals.len(),
        ..Checks::default()
    };
    let reference = Reference::compute(r.w, seed, &r.prep.program, r.next)?;
    checks.expected_reactions = reference.total();
    checks.reaction_failures = verify::compare_reactions(&reference, &r.received);
    let mut ledger = Vec::new();
    if let Some(b) = &r.prep.nodes.b {
        ledger = b.delivered();
        checks.ledger_failures = verify::compare_ledger(&reference, &ledger);
        let before = verify::metrics_digest(&node::a_metrics(&r.prep.nodes));
        for _ in 0..RECOVERIES {
            r.prep.nodes.stop_a();
            let t = Instant::now();
            node::reopen_a(&mut r.prep.nodes)?;
            checks.recovery_s.push(t.elapsed().as_secs_f64());
            if verify::metrics_digest(&node::a_metrics(&r.prep.nodes)) != before {
                checks.recovery_failures += 1;
            }
        }
    }
    Ok((checks, ledger))
}
