//! The system under test: a real driver (TCP or threaded) and its
//! front-end client, behind one interface the generator drives.

use std::time::Duration;

use mqp_algebra::plan::Plan;
use mqp_catalog::CatalogEntry;
use mqp_core::{QueryId, QueryOutcome};
use mqp_peer::{MqpClient, Peer, TcpClient, TcpCluster, ThreadedCluster};

use crate::worlds::{Driver, CLIENT};

pub enum Live {
    Tcp(TcpCluster, TcpClient),
    Threaded(ThreadedCluster, MqpClient),
}

/// Transport counters: frames and bytes delivered to peers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transport {
    pub frames: u64,
    pub bytes: u64,
}

/// What shutdown reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Teardown {
    /// `SocketStats::balances(0)` after a drained TCP shutdown (always
    /// true for the threaded driver, which has no such identity).
    pub balanced: bool,
    pub connects: u64,
    pub dropped: u64,
}

impl Live {
    pub fn spawn(driver: Driver, peers: Vec<Peer>) -> Live {
        match driver {
            Driver::Tcp => {
                let (c, f) = TcpCluster::new(peers);
                Live::Tcp(c, f)
            }
            Driver::Threaded => {
                let (c, f) = ThreadedCluster::new(peers);
                Live::Threaded(c, f)
            }
        }
    }

    /// Submits at the client peer.
    pub fn submit(&mut self, plan: &Plan) -> QueryId {
        match self {
            Live::Tcp(_, f) => f.submit(CLIENT, plan),
            Live::Threaded(_, f) => f.submit(CLIENT, plan),
        }
    }

    pub fn register(&mut self, node: usize, entry: &CatalogEntry) -> bool {
        match self {
            Live::Tcp(_, f) => f.register(node, entry),
            Live::Threaded(_, f) => f.register(node, entry),
        }
    }

    /// Blocks up to `timeout` for the next distinct outcome.
    pub fn next_outcome(&mut self, timeout: Duration) -> Option<QueryOutcome> {
        match self {
            Live::Tcp(_, f) => f.collect(1, timeout).pop(),
            Live::Threaded(_, f) => f.collect(1, timeout).pop(),
        }
    }

    pub fn transport(&self) -> Transport {
        match self {
            Live::Tcp(c, _) => {
                let s = c.stats();
                Transport {
                    frames: s.frames_received + s.frames_local,
                    bytes: s.bytes_received,
                }
            }
            Live::Threaded(c, _) => {
                let s = c.stats();
                Transport {
                    frames: s.frames_delivered,
                    bytes: s.bytes_delivered,
                }
            }
        }
    }

    pub fn shutdown(self) -> Teardown {
        match self {
            Live::Tcp(c, mut f) => {
                let s = c.shutdown(&mut f);
                Teardown {
                    balanced: s.balances(0),
                    connects: s.connects,
                    dropped: s.dropped_backpressure + s.dropped_disconnected + s.abandoned,
                }
            }
            Live::Threaded(c, f) => {
                c.shutdown(&f);
                Teardown {
                    balanced: true,
                    ..Teardown::default()
                }
            }
        }
    }
}
