//! The open-loop load generator: one connection per node, driven by a
//! sender thread that writes each event at its scheduled time whether or
//! not earlier events were answered, and a receiver thread that stamps
//! every reply the moment it is read.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reweb_net::{Reply, Request};
use reweb_term::frame::{crc32, FRAME_HEADER_LEN};

use crate::procfs::GEN_THREAD_PREFIX;
use crate::workload::Stream;

/// Monotone nanosecond clock shared by the generator and the
/// coordinator.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One rung of offered load: events `first..first + count` at `rate`
/// events/s, event `first + j` due at `t0_ns + j / rate`.
#[derive(Clone, Copy, Debug)]
pub struct RungPlan {
    /// First stream index of the rung.
    pub first: usize,
    /// Events in the rung.
    pub count: usize,
    /// Offered rate, events/s.
    pub rate: f64,
    /// Scheduled send time of the first event.
    pub t0_ns: u64,
    /// Self-test hook: after writing this many events, stall the sender
    /// for the given time (injected generator lag).
    pub stall: Option<(usize, Duration)>,
}

impl RungPlan {
    /// Scheduled send time of the rung's `j`-th event.
    pub fn sched_ns(&self, j: usize) -> u64 {
        self.t0_ns + (j as f64 * 1e9 / self.rate) as u64
    }
}

/// What the sender did with a rung.
#[derive(Clone, Debug, Default)]
pub struct SendReport {
    /// Events written (fewer than planned when the rung was aborted).
    pub sent: usize,
    /// Per written event: write time minus scheduled time, ns.
    pub lag_ns: Vec<u64>,
    /// Bytes written.
    pub bytes: u64,
}

enum Cmd {
    Rung(RungPlan),
    Sync(u64),
    Stop,
}

/// Replies read off the connection since the last [`Conn::take_log`].
#[derive(Default)]
pub struct RecvLog {
    /// `(event id, read time ns, reply frame payload)` of every reaction.
    pub reactions: Vec<(u64, u64, Vec<u8>)>,
    /// `(id, reply text)` of every refusal (`busy`, `throttled`, `error`).
    pub refusals: Vec<(u64, String)>,
    /// Bytes of reply frames read.
    pub bytes: u64,
}

/// Most events one sender `write` carries.
const MAX_WRITE_EVENTS: usize = 256;

/// How long a windowed sender waits for the node to catch up: the
/// coordinator's poll interval, which is how often the processed count
/// it reads changes.
const WINDOW_WAIT: Duration = Duration::from_millis(1);

/// Correlation ids of `sync` markers live above every event id.
const SYNC_ID_BASE: u64 = 1 << 48;

/// A generator connection to one node.
pub struct Conn {
    cmd: Sender<Cmd>,
    reports: Receiver<SendReport>,
    done: Receiver<u64>,
    log: Arc<Mutex<RecvLog>>,
    /// Set by the coordinator to stop the running rung early.
    pub abort: Arc<AtomicBool>,
    /// Events the sender has written so far, all rungs together.
    pub sent_total: Arc<AtomicUsize>,
    /// Events the node has processed, as the coordinator last saw it.
    pub processed: Arc<AtomicUsize>,
    /// Most events outstanding (written, not yet processed) the sender
    /// allows; 0 leaves the schedule open-loop.
    pub window: Arc<AtomicUsize>,
    sender: Option<JoinHandle<()>>,
    receiver: Option<JoinHandle<()>>,
    next_sync: u64,
    last_done: u64,
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Open a session: `hello`, await `welcome`.
pub fn handshake(addr: SocketAddr, from: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(
        &Request::Hello {
            from: from.to_string(),
            credentials: None,
            gateway: false,
        }
        .encode(),
    )?;
    match Reply::decode(&read_frame(&mut stream)?) {
        Ok(Reply::Welcome { .. }) => Ok(stream),
        other => Err(bad(format!("handshake refused: {other:?}"))),
    }
}

impl Conn {
    /// Start the sender and receiver threads on an open session.
    pub fn start(stream: TcpStream, events: Arc<Stream>, clock: Clock) -> std::io::Result<Conn> {
        let (cmd_tx, cmd_rx) = channel();
        let (rep_tx, rep_rx) = channel();
        let (done_tx, done_rx) = channel();
        let log = Arc::new(Mutex::new(RecvLog::default()));
        let abort = Arc::new(AtomicBool::new(false));
        let sent_total = Arc::new(AtomicUsize::new(0));
        let processed = Arc::new(AtomicUsize::new(0));
        let window = Arc::new(AtomicUsize::new(0));
        let read_half = stream.try_clone()?;
        let sender = {
            let flow = Flow {
                abort: Arc::clone(&abort),
                sent_total: Arc::clone(&sent_total),
                processed: Arc::clone(&processed),
                window: Arc::clone(&window),
            };
            std::thread::Builder::new()
                .name(format!("{GEN_THREAD_PREFIX}send"))
                .spawn(move || sender_loop(stream, events, clock, cmd_rx, rep_tx, flow))?
        };
        let receiver = {
            let log = Arc::clone(&log);
            std::thread::Builder::new()
                .name(format!("{GEN_THREAD_PREFIX}recv"))
                .spawn(move || receiver_loop(read_half, clock, log, done_tx))?
        };
        Ok(Conn {
            cmd: cmd_tx,
            reports: rep_rx,
            done: done_rx,
            log,
            abort,
            sent_total,
            processed,
            window,
            sender: Some(sender),
            receiver: Some(receiver),
            next_sync: SYNC_ID_BASE,
            last_done: 0,
        })
    }

    /// Hand a rung to the sender (returns at once).
    pub fn start_rung(&self, plan: RungPlan) {
        self.abort.store(false, Ordering::SeqCst);
        self.cmd.send(Cmd::Rung(plan)).expect("sender thread alive");
    }

    /// Wait for the running rung's report.
    pub fn wait_report(&self) -> SendReport {
        self.reports.recv().unwrap_or_default()
    }

    /// The rung's report, if the sender has finished it.
    pub fn try_report(&self) -> Option<SendReport> {
        self.reports.try_recv().ok()
    }

    /// Send a `sync` marker; its `done` (see [`Conn::synced`]) means
    /// everything sent before it was processed and its replies read.
    pub fn send_sync(&mut self) -> u64 {
        let id = self.next_sync;
        self.next_sync += 1;
        self.cmd.send(Cmd::Sync(id)).expect("sender thread alive");
        id
    }

    /// Whether the `done` for sync marker `id` has arrived.
    pub fn synced(&mut self, id: u64) -> bool {
        while let Ok(got) = self.done.try_recv() {
            self.last_done = self.last_done.max(got);
        }
        self.last_done >= id
    }

    /// Take every reply logged since the last call.
    pub fn take_log(&self) -> RecvLog {
        std::mem::take(&mut *self.log.lock().expect("receive log poisoned"))
    }

    /// Say `bye`, close, and join both threads.
    pub fn stop(mut self) {
        let _ = self.cmd.send(Cmd::Stop);
        if let Some(h) = self.sender.take() {
            h.join().expect("sender thread panicked");
        }
        if let Some(h) = self.receiver.take() {
            h.join().expect("receiver thread panicked");
        }
    }
}

/// The sender's view of the coordinator's flow control.
struct Flow {
    abort: Arc<AtomicBool>,
    sent_total: Arc<AtomicUsize>,
    processed: Arc<AtomicUsize>,
    window: Arc<AtomicUsize>,
}

fn sender_loop(
    mut stream: TcpStream,
    events: Arc<Stream>,
    clock: Clock,
    cmds: Receiver<Cmd>,
    reports: Sender<SendReport>,
    flow: Flow,
) {
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Rung(plan) => {
                let rep = send_rung(&mut stream, &events, clock, &plan, &flow);
                if reports.send(rep).is_err() {
                    break;
                }
            }
            Cmd::Sync(id) => {
                if stream.write_all(&Request::Sync { id }.encode()).is_err() {
                    break;
                }
            }
            Cmd::Stop => {
                let _ = stream.write_all(&Request::Bye.encode());
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Write the rung's events on schedule. Events already due are written
/// together in one `write`, so a late sender catches up instead of
/// falling further behind; the schedule never waits for replies.
fn send_rung(
    stream: &mut TcpStream,
    events: &Stream,
    clock: Clock,
    plan: &RungPlan,
    flow: &Flow,
) -> SendReport {
    let mut rep = SendReport {
        lag_ns: Vec::with_capacity(plan.count),
        ..SendReport::default()
    };
    let mut j = 0usize;
    let mut stalled = false;
    while j < plan.count && !flow.abort.load(Ordering::Relaxed) {
        let now = clock.now_ns();
        let next_due = plan.sched_ns(j);
        if now < next_due {
            std::thread::sleep(Duration::from_nanos(next_due - now));
            continue;
        }
        let window = flow.window.load(Ordering::Relaxed);
        let room = if window == 0 {
            usize::MAX
        } else {
            let sent = flow.sent_total.load(Ordering::Relaxed);
            window.saturating_sub(sent.saturating_sub(flow.processed.load(Ordering::Relaxed)))
        };
        if room == 0 {
            std::thread::sleep(WINDOW_WAIT);
            continue;
        }
        // Every event due by now, in one write of at most
        // `MAX_WRITE_EVENTS` (and no more than the window has room for),
        // so an abort takes effect promptly.
        let elapsed = (now - plan.t0_ns) as f64 * plan.rate / 1e9;
        let mut due =
            ((elapsed as usize) + 1).clamp(j + 1, plan.count.min(j + MAX_WRITE_EVENTS.min(room)));
        if let Some((after, _)) = plan.stall {
            if !stalled && j < after {
                due = due.min(after);
            }
        }
        let bytes = events.range(plan.first + j, plan.first + due);
        if stream.write_all(bytes).is_err() {
            break;
        }
        rep.bytes += bytes.len() as u64;
        for k in j..due {
            rep.lag_ns.push(now.saturating_sub(plan.sched_ns(k)));
        }
        flow.sent_total.fetch_add(due - j, Ordering::Relaxed);
        j = due;
        if let Some((after, pause)) = plan.stall {
            if !stalled && j >= after {
                stalled = true;
                std::thread::sleep(pause);
            }
        }
    }
    rep.sent = j;
    rep
}

/// Event id of a reaction reply, read straight off the frame text
/// (`reaction{id["N"], …}`) so the receiver stays cheap; the full
/// decode happens at verification time.
fn reaction_id(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(b"reaction{id[\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

fn receiver_loop(mut stream: TcpStream, clock: Clock, log: Arc<Mutex<RecvLog>>, done: Sender<u64>) {
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = clock.now_ns();
        buf.extend_from_slice(&chunk[..n]);
        let mut pos = 0usize;
        let mut local = RecvLog::default();
        let mut syncs = Vec::new();
        while buf.len() - pos >= FRAME_HEADER_LEN {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if buf.len() - pos - FRAME_HEADER_LEN < len {
                break;
            }
            let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let payload = &buf[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
            local.bytes += (FRAME_HEADER_LEN + len) as u64;
            if crc32(payload) != crc {
                local.refusals.push((0, "reply frame CRC mismatch".into()));
            } else if let Some(id) = reaction_id(payload) {
                local.reactions.push((id, now, payload.to_vec()));
            } else {
                match Reply::decode(payload) {
                    Ok(Reply::Done { id }) => syncs.push(id),
                    Ok(Reply::Reaction { id, .. }) => {
                        local.reactions.push((id, now, payload.to_vec()))
                    }
                    Ok(other) => {
                        let id = match &other {
                            Reply::Busy { id, .. } | Reply::Throttled { id, .. } => *id,
                            Reply::Error { id, .. } => id.unwrap_or(0),
                            _ => 0,
                        };
                        local.refusals.push((id, other.to_term().to_string()));
                    }
                    Err(e) => local.refusals.push((0, format!("undecodable reply: {e}"))),
                }
            }
            pos += FRAME_HEADER_LEN + len;
        }
        buf.drain(..pos);
        {
            let mut l = log.lock().expect("receive log poisoned");
            l.reactions.append(&mut local.reactions);
            l.refusals.append(&mut local.refusals);
            l.bytes += local.bytes;
        }
        for id in syncs {
            let _ = done.send(id);
        }
    }
}
