//! Bookkeeping of one measured run of a closed-loop series.
//!
//! Every figure covers the whole run: sessions over the time from the
//! run's start to its last completion, every request's latency, and the
//! CPU the prover threads and every other task used in between. No part
//! of the run is dropped, so a stall that lands in some requests shows
//! in the rate and, once it hits more than 1% of requests, in the p99.

use crate::procfs::{self, TaskCounters};
use crate::script::EpochCheck;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A run being measured.
pub struct Live {
    provers: Vec<u64>,
    tasks: HashMap<u64, TaskCounters>,
    started: Instant,
    last: Instant,
    sessions: u64,
    latencies_ms: Vec<f64>,
    verifier_ns: u64,
    /// Every checked session's outcome.
    pub check: EpochCheck,
}

/// A finished run's figures.
pub struct LiveStats {
    /// Sessions completed.
    pub sessions: u64,
    /// From the run's start to its last completion, seconds.
    pub wall_s: f64,
    /// `sessions / wall_s`.
    pub sessions_per_sec: f64,
    /// Request (round, epoch or session) latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// CPU of the prover threads.
    pub prover: TaskCounters,
    /// CPU of every other task.
    pub rest: TaskCounters,
    /// Time inside the verifier's own calls, where a series times them.
    pub verifier_ns: u64,
    /// `read` calls the verifier made on its sockets.
    pub socket_reads: u64,
    /// `write` calls the verifier made on its sockets.
    pub socket_writes: u64,
    /// Every checked session's outcome.
    pub check: EpochCheck,
}

impl Live {
    /// Opens a run; `provers` are the prover threads' tids.
    pub fn start(provers: &[u64]) -> Live {
        let tasks = procfs::sample_tasks();
        let now = Instant::now();
        Live {
            provers: provers.to_vec(),
            tasks,
            started: now,
            last: now,
            sessions: 0,
            latencies_ms: Vec::new(),
            verifier_ns: 0,
            check: EpochCheck::default(),
        }
    }

    /// Notes time spent inside the verifier's own calls.
    pub fn verifier_time(&mut self, spent: Duration) {
        self.verifier_ns += spent.as_nanos() as u64;
    }

    /// Notes one request issued at `issued` that completed `sessions`
    /// sessions at `completed`.
    pub fn completed(&mut self, issued: Instant, completed: Instant, sessions: u64) {
        self.latencies_ms
            .push(completed.duration_since(issued).as_secs_f64() * 1e3);
        self.sessions += sessions;
        self.last = self.last.max(completed);
    }

    /// Closes the run.
    pub fn finish(self) -> LiveStats {
        let (prover, rest) =
            procfs::split_delta(&self.tasks, &procfs::sample_tasks(), &self.provers);
        let wall_s = self.last.duration_since(self.started).as_secs_f64();
        LiveStats {
            sessions: self.sessions,
            wall_s,
            sessions_per_sec: self.sessions as f64 / wall_s,
            latencies_ms: self.latencies_ms,
            prover,
            rest,
            verifier_ns: self.verifier_ns,
            socket_reads: 0,
            socket_writes: 0,
            check: self.check,
        }
    }
}
