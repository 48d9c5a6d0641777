//! The served stacks and how each is launched and stopped, plus the
//! in-process fleet the traced run drives directly.

use crate::trace::{Recorder, TracedEngine};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use streaming_bc::cluster::transport::TestTransport;
use streaming_bc::cluster::{
    Coordinator, CoordinatorConfig, NodeConfig, NodeId, ShardNode, ShardSpec, TestNet, COORD,
};
use streaming_bc::graph::Graph;
use streaming_bc::serve::{ServedSession, Server, ServerConfig, ServerHandle};
use streaming_bc::{Backend, Checkpoint, CompactionConfig, Session};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Backend::Memory` with two `ClusterEngine` workers.
    Mem,
    /// `Backend::Disk` with a small live-WAL bound, so runs seal segments.
    Disk,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `holme_kim(n, m_per, 0.3, GRAPH_SEED)`.
    pub n: usize,
    pub m_per: usize,
    /// Updates per `apply` request.
    pub batch: usize,
    /// Updates per lap: each lap serves the first `lap` updates of the
    /// stream on a freshly set-up stack (about 4 s each on 2 cores).
    pub lap: usize,
}

/// A served replicated fleet is not among them: its throughput and
/// latency hang on thread wake-ups between coordinator, leaders and
/// followers, and on a shared 2-core host they spread by up to a quarter
/// across seeds, the largest bound a metric may carry. The traced run
/// still measures the cluster layer on both workloads (see
/// `traced::cluster_pass`).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "online-mem",
        kind: Kind::Mem,
        n: 1000,
        m_per: 3,
        batch: 1,
        lap: 300,
    },
    Workload {
        name: "online-disk",
        kind: Kind::Disk,
        n: 400,
        m_per: 2,
        batch: 1,
        lap: 400,
    },
];

/// The graph is part of a workload's definition; `--seed` drives the
/// update stream.
pub const GRAPH_SEED: u64 = 11;

/// Live history WAL bound of the disk stack: a run of a few hundred
/// updates seals several segments.
pub const WAL_BOUND: u64 = 4096;

/// Workers of the memory stack's `ClusterEngine` pool (and of the engine
/// shadow pass), and shards of the traced run's fleet.
pub const P: usize = 2;

pub fn session(kind: Kind, g: &Graph, dir: &Path, policy: Checkpoint) -> Result<Session, String> {
    let builder = match kind {
        Kind::Mem => Session::builder().backend(Backend::Memory).workers(P),
        Kind::Disk => Session::builder()
            .backend(Backend::Disk(dir.to_path_buf()))
            .checkpoint(policy)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: WAL_BOUND,
            }),
    };
    builder.build(g).map_err(|e| format!("session build: {e}"))
}

/// The node threads of an in-process fleet.
pub struct Nodes {
    net: TestNet,
    handles: Vec<JoinHandle<()>>,
}

impl Nodes {
    pub fn join(self) {
        self.net.heal_all();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Launch `P` replicated shards over the sim transport and bootstrap them
/// over `g` (node ids as in `SimBuilder`: leaders `1..=P`, followers next).
pub fn fleet(g: &Graph) -> Result<(Coordinator<TestTransport>, Nodes), String> {
    let net = TestNet::new();
    let coord_mb = net.add_node(COORD);
    let mut handles = Vec::new();
    let mut specs = Vec::new();
    for k in 0..P {
        let leader = NodeId(1 + k as u32);
        let follower = NodeId(1 + (P + k) as u32);
        specs.push(ShardSpec::new(leader, Some(follower)));
        for id in [leader, follower] {
            let mb = net.add_node(id);
            let node = ShardNode::new(id, net.transport(id), mb, NodeConfig::default());
            handles.push(std::thread::spawn(move || node.run()));
        }
    }
    let mut coord = Coordinator::new(net.transport(COORD), coord_mb, CoordinatorConfig::default());
    let nodes = Nodes { net, handles };
    if let Err(e) = coord.bootstrap(g, specs) {
        coord.shutdown();
        nodes.join();
        return Err(format!("fleet bootstrap: {e}"));
    }
    Ok((coord, nodes))
}

/// A stack served over loopback TCP.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Running {
    /// Drain the server.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// From the graph to a server that accepts connections. With `rec`, the
/// served engine is wrapped in a [`TracedEngine`].
pub fn launch(
    w: &Workload,
    g: &Graph,
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<Running, String> {
    let engine = ServedSession::new(session(w.kind, g, dir, Checkpoint::EveryApply)?);
    let cfg = ServerConfig::default();
    let handle = match rec {
        Some(rec) => Server::spawn(TracedEngine::new(engine, Arc::clone(rec)), cfg),
        None => Server::spawn(engine, cfg),
    }
    .map_err(|e| format!("server spawn: {e}"))?;
    let addr = handle
        .tcp_addr()
        .ok_or_else(|| "server has no tcp address".to_string())?;
    Ok(Running { addr, handle })
}
