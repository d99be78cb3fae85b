//! Per-thread CPU accounting from `/proc`, std only.
//!
//! Every task of the benchmark process is sampled from
//! `/proc/self/task/<tid>/schedstat`: time on a CPU and time spent
//! runnable but waiting for one, in nanoseconds (`stat`'s `utime` and
//! `stime` tick at 10 ms, too coarse for a few-second window). Prover
//! threads record their own tids, so verifier-side figures are the sum
//! over every other task.

use std::collections::HashMap;
use std::fs;

/// One task's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting for a CPU.
    pub wait_ns: u64,
}

impl TaskCounters {
    fn since(self, before: TaskCounters) -> TaskCounters {
        TaskCounters {
            run_ns: self.run_ns.saturating_sub(before.run_ns),
            wait_ns: self.wait_ns.saturating_sub(before.wait_ns),
        }
    }

    fn add(self, other: TaskCounters) -> TaskCounters {
        TaskCounters {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: `run_ns wait_ns slices`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM:`, `VmRSS:`), in KiB.
pub fn parse_status_kib(text: &str, field: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// The tid in a `/proc/thread-self` link target (`<pid>/task/<tid>`).
pub fn parse_thread_self(target: &str) -> Option<u64> {
    let (_, tid) = target.trim_end_matches('/').rsplit_once("/task/")?;
    tid.parse().ok()
}

/// The calling thread's kernel tid.
pub fn current_tid() -> Option<u64> {
    let target = fs::read_link("/proc/thread-self").ok()?;
    parse_thread_self(target.to_str()?)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kib(&status, "VmHWM:")? as f64 / 1024.0)
}

/// Counters of every live task of this process, by tid.
pub fn sample_tasks() -> HashMap<u64, TaskCounters> {
    let mut tasks = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return tasks;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let sched = fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t));
        if let Some((run_ns, wait_ns)) = sched {
            tasks.insert(tid, TaskCounters { run_ns, wait_ns });
        }
    }
    tasks
}

/// Counter deltas between two samples, split into the prover tasks and
/// every other task. A task missing from `before` started inside the
/// window and counts from zero; one missing from `after` exited and its
/// share is lost (the series keep their threads alive across windows).
pub fn split_delta(
    before: &HashMap<u64, TaskCounters>,
    after: &HashMap<u64, TaskCounters>,
    provers: &[u64],
) -> (TaskCounters, TaskCounters) {
    let mut prover = TaskCounters::default();
    let mut rest = TaskCounters::default();
    for (tid, now) in after {
        let delta = now.since(before.get(tid).copied().unwrap_or_default());
        if provers.contains(tid) {
            prover = prover.add(delta);
        } else {
            rest = rest.add(delta);
        }
    }
    (prover, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields() {
        assert_eq!(parse_schedstat("678759 1200 1\n"), Some((678_759, 1200)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_kib_fields() {
        let status = "Name:\tperfbench\nVmHWM:\t   12345 kB\nVmRSS:\t    9000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(12_345));
        assert_eq!(parse_status_kib(status, "VmRSS:"), Some(9000));
        assert_eq!(parse_status_kib(status, "VmPeak:"), None);
    }

    #[test]
    fn thread_self_target() {
        assert_eq!(parse_thread_self("4242/task/4250"), Some(4250));
        assert_eq!(parse_thread_self("4242/task/4250/"), Some(4250));
        assert_eq!(parse_thread_self("4242"), None);
    }

    #[test]
    fn live_process_is_readable() {
        let tid = current_tid().expect("/proc/thread-self resolves");
        let tasks = sample_tasks();
        assert!(tasks.contains_key(&tid), "this thread is a task");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn deltas_split_provers_from_the_rest() {
        let c = |run_ns, wait_ns| TaskCounters { run_ns, wait_ns };
        let before = HashMap::from([(1, c(100, 1)), (2, c(50, 0))]);
        let after = HashMap::from([(1, c(160, 4)), (2, c(80, 9)), (3, c(7, 2))]);
        let (prover, rest) = split_delta(&before, &after, &[2]);
        assert_eq!(prover, c(30, 9));
        assert_eq!(rest, c(60 + 7, 3 + 2), "a new task counts from zero");
    }
}
