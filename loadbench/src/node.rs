//! Standing up the nodes under test: node A (the workload's engine
//! behind a `NetServer`) and, for `durable-push`, node B plus A's
//! delivery agent — and reopening A from its directory for recovery.

use std::net::TcpStream;
use std::path::{Path, PathBuf};

use reweb_core::ReactiveEngine;
use reweb_net::{DeliveryAgent, DeliveryConfig, IngressEngine, NetConfig, NetServer};
use reweb_persist::{DurableEngine, DurableOptions};

use crate::load::handshake;
use crate::workload::{Workload, PUSH_PEER};

/// URI of node A.
pub const NODE_A: &str = "http://a/";
/// URI of node B.
pub const NODE_B: &str = "http://b/";
/// The `hello` identity of the generator's session.
pub const GEN_FROM: &str = "http://load/0";

/// The running nodes of one workload.
pub struct Nodes {
    /// Node A, which the generator drives.
    pub a: NetServer,
    /// Node B, which A pushes to (`durable-push` only).
    pub b: Option<NetServer>,
    /// A's delivery agent (`durable-push` only).
    pub agent: Option<DeliveryAgent>,
    /// Directory holding A's WAL/outbox and B's ledger journal.
    pub dir: Option<PathBuf>,
}

impl Nodes {
    /// Stop A's server and delivery agent (B keeps running).
    pub fn stop_a(&mut self) {
        self.a.shutdown();
        if let Some(agent) = self.agent.as_mut() {
            agent.shutdown();
        }
    }

    /// Stop everything and delete the node directory.
    pub fn teardown(mut self) {
        self.stop_a();
        if let Some(b) = self.b.as_mut() {
            b.shutdown();
        }
        drop(self.agent.take());
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn io(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Node A's blank engine, with the workload's program and documents.
pub fn a_engine(w: Workload, program: &str) -> std::io::Result<ReactiveEngine> {
    let mut e = ReactiveEngine::new(NODE_A);
    e.install_program(program).map_err(io)?;
    for (uri, doc) in w.resources() {
        e.qe.store.put(uri, doc);
    }
    Ok(e)
}

fn durable_a(dir: &Path) -> std::io::Result<DurableEngine<ReactiveEngine>> {
    DurableEngine::open(&dir.join("a"), DurableOptions::default(), || {
        ReactiveEngine::new(NODE_A)
    })
    .map_err(io)
}

fn agent(dir: &Path, b: &NetServer) -> std::io::Result<DeliveryAgent> {
    let agent = DeliveryAgent::new(DeliveryConfig {
        from: NODE_A.into(),
        outbox: Some(dir.join("outbox.log")),
        dead_letter: Some(dir.join("dead.log")),
        ..DeliveryConfig::default()
    })?;
    agent.add_route(PUSH_PEER, b.local_addr());
    Ok(agent)
}

/// Bind the workload's nodes (a fresh directory under `run_dir` for
/// `durable-push`), install the program, load the documents, and open
/// the generator's session with `hello`. This is what `setup_s` times.
pub fn setup(w: Workload, program: &str, run_dir: &Path) -> std::io::Result<(Nodes, TcpStream)> {
    let nodes = match w {
        Workload::Echo | Workload::Market => Nodes {
            a: NetServer::bind("127.0.0.1:0", a_engine(w, program)?, NetConfig::default())?,
            b: None,
            agent: None,
            dir: None,
        },
        Workload::DurablePush => {
            let dir = fresh_dir(run_dir)?;
            let b = NetServer::bind(
                "127.0.0.1:0",
                ReactiveEngine::new(NODE_B),
                NetConfig {
                    delivery_journal: Some(dir.join("ledger.log")),
                    ..NetConfig::default()
                },
            )?;
            let mut engine = durable_a(&dir)?;
            engine.install_program(program).map_err(io)?;
            let agent = agent(&dir, &b)?;
            let a = NetServer::bind("127.0.0.1:0", engine, NetConfig::default())?;
            a.attach_delivery(agent.handle());
            Nodes {
                a,
                b: Some(b),
                agent: Some(agent),
                dir: Some(dir),
            }
        }
    };
    let stream = handshake(nodes.a.local_addr(), GEN_FROM)?;
    Ok((nodes, stream))
}

/// Reopen node A from its directory after [`Nodes::stop_a`]: replay the
/// WAL, reopen the outbox, rebind, and wait for a `hello` to be
/// answered. This is what `recovery_s` times.
pub fn reopen_a(nodes: &mut Nodes) -> std::io::Result<()> {
    let dir = nodes.dir.clone().expect("durable nodes have a directory");
    let b = nodes.b.as_ref().expect("durable nodes have a peer");
    let engine = durable_a(&dir)?;
    let agent = agent(&dir, b)?;
    let a = NetServer::bind("127.0.0.1:0", engine, NetConfig::default())?;
    a.attach_delivery(agent.handle());
    let stream = handshake(a.local_addr(), GEN_FROM)?;
    drop(stream);
    nodes.a = a;
    nodes.agent = Some(agent);
    Ok(())
}

/// Node A's engine metrics (through the ingress surface).
pub fn a_metrics(nodes: &Nodes) -> reweb_core::EngineMetrics {
    nodes.a.with_engine(|e: &mut dyn IngressEngine| e.metrics())
}

fn fresh_dir(run_dir: &Path) -> std::io::Result<PathBuf> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = run_dir.join(format!("nodes-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
