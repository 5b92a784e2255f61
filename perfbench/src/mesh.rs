//! Runs one closure per rank over the in-process cluster or a loopback
//! TCP mesh, and the small collectives the benchmark needs on top.

use soifft_cluster::transport::tcp::{TcpConfig, TcpSupervisor};
use soifft_cluster::{Cluster, ClusterConfig, Comm, RankOutcome, RestartPolicy};
use soifft_num::c64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    InProc,
    Tcp,
}

impl Transport {
    pub fn label(self) -> &'static str {
        match self {
            Transport::InProc => "in-process",
            Transport::Tcp => "tcp-loopback",
        }
    }
}

/// Runs `f` on every rank and returns the per-rank results, or the first
/// rank failure. The TCP supervisor never respawns here: a failed epoch
/// is a failed run, not one to measure twice.
pub fn run<T, F>(transport: Transport, ranks: usize, f: F) -> Result<Vec<T>, String>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let outcomes = match transport {
        Transport::InProc => Cluster::run_with(ClusterConfig::default(), ranks, f),
        Transport::Tcp => {
            let config = TcpConfig {
                restart: RestartPolicy::disabled(),
                ..TcpConfig::default()
            };
            TcpSupervisor::new(config)
                .run(ranks, |comm, _ctx| Ok(f(comm)))
                .map_err(|e| format!("loopback mesh: {e}"))?
                .outcomes
        }
    };
    outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, o)| match o {
            RankOutcome::Ok(v) => Ok(v),
            RankOutcome::Err(e) => Err(format!("rank {rank}: {e}")),
            RankOutcome::Panicked(msg) => Err(format!("rank {rank} panicked: {msg}")),
            _ => Err(format!("rank {rank} crashed")),
        })
        .collect()
}

/// Every rank's `values`, indexed by rank (identical on all ranks).
pub fn allgather(comm: &mut Comm, values: &[f64]) -> Vec<Vec<f64>> {
    let packed = values.iter().map(|&v| c64::new(v, 0.0)).collect();
    comm.allgather(packed)
        .into_iter()
        .map(|row| row.iter().map(|v| v.re).collect())
        .collect()
}
