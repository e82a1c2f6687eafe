//! The three workloads: their rule programs, resource documents, seeded
//! event streams, and the rates the load generator offers them.
//!
//! A stream is a pure function of `(workload, seed)`: event `i` always
//! carries correlation id `i + 1` and event time `BASE_AT + i` ms, so
//! the engine clock, every `within` window, and therefore every
//! reaction depend only on the seed, never on how fast the run went.

use reweb_term::frame::encode_frame;
use reweb_term::Term;

/// Event time of stream event 0, in engine milliseconds.
pub const BASE_AT: u64 = 1_000;

/// Number of E17-style composite join rules the `market` node installs.
pub const MARKET_JOIN_RULES: usize = 10_000;
/// Customers in the `market` customers document (the condition's read).
pub const MARKET_CUSTOMERS: usize = 100;
/// Items in the `market` stock document (the update's write).
pub const MARKET_SKUS: usize = 64;
/// Destination URIs the `durable-push` reactions are spread over.
pub const PUSH_DESTINATIONS: usize = 4;

/// Customers document URI queried by the `market` ECAA rule.
pub const CUSTOMERS_URI: &str = "http://shop/customers";
/// Stock document URI rewritten by the `market` ECAA rule.
pub const STOCK_URI: &str = "http://shop/stock";
/// Route prefix of node B in `durable-push`.
pub const PUSH_PEER: &str = "http://b/";

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One echo rule over a 16-label cycle: the ingress path dominates.
    Echo,
    /// ~10k join rules plus an ECAA order/payment rule with a condition
    /// read and an update write: the engine dominates.
    Market,
    /// A durable node pushing every reaction to a second node: disk,
    /// outbox and delivery dominate.
    DurablePush,
}

/// Rates and limits of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The fixed rate reaction latency and CPU are measured at (events/s).
    pub nominal_eps: f64,
    /// Reaction p99 limit the sustained rate must stay under.
    pub latency_limit_ms: f64,
    /// Length of one nominal-rate window: long enough for ten reaction
    /// samples beyond the window's p99.
    pub window_secs: f64,
    /// Events in one capacity burst.
    pub burst_events: usize,
    /// About how long a burst takes on the baseline host; it only sizes
    /// the number of rounds a run makes of its `--seconds`.
    pub burst_secs: f64,
    /// Most events outstanding during a burst. Small enough that the
    /// queueing delay (outstanding ÷ rate) is a fraction of the latency
    /// limit, large enough that the node never waits for the generator.
    pub burst_window: usize,
    /// Give the engine thread a CPU of its own for the run, and every
    /// other thread the rest: for a workload whose engine thread is the
    /// bottleneck, so that the scheduler cannot place other threads on
    /// it.
    pub pin_engine: bool,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Echo, Workload::Market, Workload::DurablePush];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::Market => "market",
            Workload::DurablePush => "durable-push",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Rates and limits.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Echo => Spec {
                nominal_eps: 20_000.0,
                latency_limit_ms: 50.0,
                window_secs: 1.0,
                burst_events: 60_000,
                burst_secs: 0.6,
                burst_window: 512,
                pin_engine: false,
            },
            Workload::Market => Spec {
                nominal_eps: 5_000.0,
                latency_limit_ms: 50.0,
                window_secs: 1.0,
                burst_events: 8_000,
                burst_secs: 0.22,
                burst_window: 256,
                pin_engine: true,
            },
            Workload::DurablePush => Spec {
                nominal_eps: 500.0,
                latency_limit_ms: 100.0,
                window_secs: 2.0,
                burst_events: 4_000,
                burst_secs: 1.9,
                burst_window: 128,
                pin_engine: false,
            },
        }
    }

    /// The rule program node A serves.
    pub fn program(self) -> String {
        match self {
            Workload::Echo => {
                r#"RULE echo ON e0{{n[[var N]]}} DO SEND seen{n[var N]} TO "http://sink/0" END"#
                    .to_string()
            }
            Workload::Market => market_program(),
            Workload::DurablePush => (0..PUSH_DESTINATIONS)
                .map(|d| {
                    format!(
                        "RULE push{d} ON ev{d}{{{{n[[var N]], v[[var V]]}}}} \
                         DO SEND pushed{{n[var N], d[\"{d}\"], v[var V]}} TO \"{PUSH_PEER}d{d}\" END\n"
                    )
                })
                .collect(),
        }
    }

    /// Resource documents node A starts with: `(uri, document)`.
    pub fn resources(self) -> Vec<(&'static str, Term)> {
        match self {
            Workload::Market => vec![(CUSTOMERS_URI, customers_doc()), (STOCK_URI, stock_doc())],
            Workload::Echo | Workload::DurablePush => Vec::new(),
        }
    }
}

fn market_program() -> String {
    let mut src = String::with_capacity(MARKET_JOIN_RULES * 160 + 1024);
    for i in 0..MARKET_JOIN_RULES {
        let op = if i % 2 == 0 { "and" } else { "seq" };
        src.push_str(&format!(
            "RULE c{i} ON {op}(pa{{{{@route=\"r{i}\", id[[var K]]}}}}, \
             pb{{{{@route=\"r{i}\", id[[var K]]}}}}) within 5s \
             DO SEND matched{{r[\"{i}\"], k[var K]}} TO \"http://sink/m\" END\n"
        ));
    }
    src.push_str(&format!(
        "RULE checkout\n\
         ON and(order{{{{id[[var O]], cust[[var C]], sku[[var K]]}}}}, \
                payment{{{{order[[var O]], amount[[var A]]}}}}) within 5s\n\
         IF in \"{CUSTOMERS_URI}\" customer{{{{id[[var C]], tier[[var T]]}}}}\n\
         THEN SEQ\n\
           UPDATE REPLACE item{{{{sku[[var K]], last[[var L]]}}}} BY item{{sku[var K], last[var O]}} IN \"{STOCK_URI}\";\n\
           SEND confirmed{{order[var O], tier[var T], amount[var A]}} TO \"http://shop/confirm\";\n\
         END\n\
         ELSE SEND rejected{{order[var O]}} TO \"http://shop/alerts\"\n\
         END\n"
    ));
    src
}

/// The condition of the `market` checkout rule, for the traced run's
/// condition probe.
pub const MARKET_CONDITION: &str =
    "in \"http://shop/customers\" customer{{id[[var C]], tier[[var T]]}}";

/// The action of the `market` checkout rule's THEN branch, for the
/// traced run's update probe.
pub const MARKET_ACTION: &str = "SEQ \
    UPDATE REPLACE item{{sku[[var K]], last[[var L]]}} BY item{sku[var K], last[var O]} IN \"http://shop/stock\"; \
    SEND confirmed{order[var O], tier[var T], amount[var A]} TO \"http://shop/confirm\"; END";

fn customers_doc() -> Term {
    const TIERS: [&str; 3] = ["gold", "silver", "bronze"];
    let kids = (0..MARKET_CUSTOMERS)
        .map(|c| {
            Term::build("customer")
                .unordered()
                .field("id", format!("c{c}"))
                .field("name", format!("customer {c}"))
                .field("tier", TIERS[c % TIERS.len()])
                .finish()
        })
        .collect();
    Term::ordered("customers", kids)
}

fn stock_doc() -> Term {
    let kids = (0..MARKET_SKUS)
        .map(|k| {
            Term::build("item")
                .unordered()
                .field("sku", format!("s{k}"))
                .field("last", "none")
                .finish()
        })
        .collect();
    Term::ordered("stock", kids)
}

/// SplitMix64: a tiny, well-mixed, seedable generator — the benchmark
/// needs reproducible streams, not cryptographic quality.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Sequential event-payload generator: `next()` yields stream event 0,
/// 1, 2, … for one `(workload, seed)`.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    i: u64,
    label_offset: u64,
    /// Second halves of pairs, due at a later stream index.
    pending: std::collections::VecDeque<(u64, String)>,
    next_pair: u64,
    next_order: u64,
}

impl Generator {
    /// A generator positioned at stream event 0.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut rng = Rng::new(seed, workload as u64 + 1);
        let label_offset = rng.below(16);
        Generator {
            workload,
            rng,
            i: 0,
            label_offset,
            pending: std::collections::VecDeque::new(),
            next_pair: 0,
            next_order: 0,
        }
    }

    /// The next event payload, as term text.
    pub fn next_text(&mut self) -> String {
        let i = self.i;
        self.i += 1;
        match self.workload {
            Workload::Echo => format!(
                "e{}{{n[\"{}\"]}}",
                (i + self.label_offset) % 16,
                self.rng.below(1 << 32)
            ),
            Workload::DurablePush => format!(
                "ev{}{{n[\"{i}\"], v[\"{}\"]}}",
                self.rng.below(PUSH_DESTINATIONS as u64),
                self.rng.below(1 << 32)
            ),
            Workload::Market => self.next_market(i),
        }
    }

    /// `market`: about half the events are noise no rule subscribes to;
    /// the rest are join pairs for one of the composite rules and
    /// order/payment pairs for the checkout rule, second halves arriving
    /// 1–32 events after the first.
    fn next_market(&mut self, i: u64) -> String {
        if self.pending.front().is_some_and(|(due, _)| *due <= i) {
            return self.pending.pop_front().expect("front exists").1;
        }
        let r = self.rng.below(300);
        let (first, second) = if r < 200 {
            const NOISE: [&str; 4] = ["view", "click", "ping", "tick"];
            let label = NOISE[self.rng.below(4) as usize];
            return format!(
                "{label}{{user[\"u{}\"], page[\"p{}\"]}}",
                self.rng.below(1000),
                self.rng.below(1000)
            );
        } else if r < 267 {
            let rule = self.rng.below(MARKET_JOIN_RULES as u64);
            let k = self.next_pair;
            self.next_pair += 1;
            (
                format!("pa{{@route=\"r{rule}\", id[\"k{k}\"]}}"),
                format!("pb{{@route=\"r{rule}\", id[\"k{k}\"]}}"),
            )
        } else {
            let o = self.next_order;
            self.next_order += 1;
            // Customers past the document's end take the ELSE branch.
            let cust = self.rng.below(MARKET_CUSTOMERS as u64 * 11 / 10);
            let sku = self.rng.below(MARKET_SKUS as u64);
            let amount = 1 + self.rng.below(500);
            (
                format!("order{{id[\"o{o}\"], cust[\"c{cust}\"], sku[\"s{sku}\"]}}"),
                format!("payment{{order[\"o{o}\"], amount[\"{amount}\"]}}"),
            )
        };
        let due = i + 1 + self.rng.below(32);
        let pos = self.pending.partition_point(|(d, _)| *d <= due);
        self.pending.insert(pos, (due, second));
        first
    }
}

/// The request frame of stream event `i` carrying `payload` (term text).
pub fn event_frame(i: usize, payload: &str) -> Vec<u8> {
    let envelope = format!(
        "event{{id[\"{}\"], at[\"{}\"], payload[{payload}]}}",
        i + 1,
        BASE_AT + i as u64
    );
    encode_frame(envelope.as_bytes())
}

/// A pre-encoded event stream: every `event` request frame back to
/// back, so the sender writes due events as one contiguous slice.
pub struct Stream {
    /// Concatenated request frames.
    pub bytes: Vec<u8>,
    /// `ends[i]` is the end offset of event `i`'s frame in `bytes`.
    pub ends: Vec<usize>,
}

impl Stream {
    /// Encode the first `n` events of `(workload, seed)`.
    pub fn generate(workload: Workload, seed: u64, n: usize) -> Stream {
        let mut g = Generator::new(workload, seed);
        let mut bytes = Vec::with_capacity(n * 80);
        let mut ends = Vec::with_capacity(n);
        for i in 0..n {
            bytes.extend_from_slice(&event_frame(i, &g.next_text()));
            ends.push(bytes.len());
        }
        Stream { bytes, ends }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Byte range of events `a..b`.
    pub fn range(&self, a: usize, b: usize) -> &[u8] {
        let start = if a == 0 { 0 } else { self.ends[a - 1] };
        let end = if b == 0 { 0 } else { self.ends[b - 1] };
        &self.bytes[start..end]
    }
}
