//! The node phase: open-loop arrivals at a fixed rate into a `Node` whose
//! committed stream is persisted by a `WriteBehindSink` on a `LogStore`.
//!
//! One thread (the caller) sends every transaction when it is due, sleeping
//! in between. Each transaction is timed from its due time to its commit. The
//! commit time comes from a commit sink attached here; the node commits in
//! mempool (FIFO) order, so the k-th commit event is the k-th accepted
//! submission. That mapping is checked against the node's report after every
//! run.

use crate::spans::SpanRecorder;
use crate::stats;
use crate::workload::{BenchTxn, State};
use block_stm::{CommitEvent, CommitSink, SequentialExecutor, Vm};
use block_stm_node::{DurabilitySink, Node, NodeError, NodeReport};
use block_stm_persist::{LogStore, WriteBehindSink};
use block_stm_storage::{AccessPath, GenesisBuilder, StateValue};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mempool bound of the node under test.
pub const MEMPOOL_CAPACITY: usize = 8192;
/// Count cut of the block former.
pub const MAX_BLOCK_TXNS: usize = 512;
/// Age cut of the block former.
pub const MAX_WAIT: Duration = Duration::from_millis(5);
/// Consecutive arrivals per latency window: the smallest window whose p99
/// has ten samples beyond it.
pub const P99_WINDOW: usize = 1000;
/// Pause before retrying a submission the full mempool refused.
const RETRY_PAUSE: Duration = Duration::from_micros(20);

/// The log store backing one node run.
pub type Store = LogStore<AccessPath, StateValue>;

/// Opens a fresh log store at `path` and ingests the genesis state into it.
pub fn open_store(path: &Path, genesis: &GenesisBuilder) -> Result<Arc<Store>, String> {
    let _ = std::fs::remove_file(path);
    let store = LogStore::open(path).map_err(|err| format!("open log store: {err}"))?;
    store
        .ingest_genesis(genesis)
        .map_err(|err| format!("ingest genesis: {err}"))?;
    Ok(Arc::new(store))
}

/// Timestamps every commit event (indexed by its position in the committed
/// stream) and every `begin_block`.
struct CommitClock {
    origin: Instant,
    commit_ns: Vec<AtomicU64>,
    next: AtomicUsize,
    blocks: Mutex<Vec<(u64, usize)>>,
}

impl CommitClock {
    fn new(origin: Instant, txns: usize) -> Self {
        Self {
            origin,
            commit_ns: (0..txns).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            blocks: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl CommitSink<AccessPath, StateValue> for CommitClock {
    fn begin_block(&self, block_size: usize) {
        let now = self.now_ns();
        self.blocks
            .lock()
            .expect("clock poisoned")
            .push((now, block_size));
    }

    fn on_commit(&self, _event: &CommitEvent<'_, AccessPath, StateValue>) {
        let now = self.now_ns();
        let position = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.commit_ns.get(position) {
            slot.store(now, Ordering::Relaxed);
        }
    }
}

/// A forwarding `DurabilitySink` that times `on_commit` and `flush_durable`
/// of the write-behind sink (traced runs only).
struct TimedDurability {
    inner: Arc<WriteBehindSink<AccessPath, StateValue>>,
    on_commit_ns: Mutex<Vec<u64>>,
    flush_ns: Mutex<Vec<u64>>,
}

impl CommitSink<AccessPath, StateValue> for TimedDurability {
    fn begin_block(&self, block_size: usize) {
        self.inner.begin_block(block_size);
    }

    fn on_commit(&self, event: &CommitEvent<'_, AccessPath, StateValue>) {
        let start = Instant::now();
        self.inner.on_commit(event);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.on_commit_ns
            .lock()
            .expect("timing poisoned")
            .push(elapsed);
    }
}

impl DurabilitySink<AccessPath, StateValue> for TimedDurability {
    fn flush_durable(&self) -> Result<u64, String> {
        let start = Instant::now();
        let result = self.inner.flush().map_err(|err| err.to_string());
        let elapsed = start.elapsed().as_nanos() as u64;
        self.flush_ns.lock().expect("timing poisoned").push(elapsed);
        result
    }
}

/// Node configuration for one run.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Engine worker threads.
    pub threads: usize,
    /// Arrival rate, transactions per second.
    pub rate: u64,
    /// The log file (created by [`open_store`]).
    pub log_path: PathBuf,
}

/// What the node phase measured.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Due → committed latency per transaction after the warm-up, ms, sorted.
    pub latency_ms: Vec<f64>,
    /// p99 of the due → committed latency within each window of
    /// `P99_WINDOW` consecutive arrivals, ms.
    pub window_p99_ms: Vec<f64>,
    /// Submission attempts (accepted plus refused).
    pub attempts: u64,
    /// Submissions refused with `MempoolFull` (each one retried).
    pub refused: u64,
    /// Blocks the node formed.
    pub blocks: u64,
    /// Mean transactions per formed block.
    pub block_txns_mean: f64,
    /// Due → `begin_block` of the transaction's block, ms.
    pub form_wait_ms: Vec<f64>,
    /// `begin_block` → commit, ms.
    pub exec_ms: Vec<f64>,
    /// Actual send time − due time, ms.
    pub gen_late_ms: Vec<f64>,
    /// Duration of each accepted `submit` call, µs (traced runs only).
    pub submit_us: Vec<f64>,
    /// Largest mempool depth seen at a submission (traced runs only).
    pub mempool_depth_max: u64,
    /// `WriteBehindSink::on_commit`, µs (traced runs only).
    pub on_commit_us: Vec<f64>,
    /// `flush_durable` at shutdown, ms (traced runs only).
    pub flush_ms: f64,
    /// Committed events not yet durable, sampled at each submission (traced
    /// runs only).
    pub durable_lag_events: Vec<f64>,
    /// Log frames appended per formed block.
    pub frames_per_block: f64,
    /// Log syncs per formed block.
    pub syncs_per_block: f64,
    /// Log bytes appended per committed transaction.
    pub log_bytes_per_txn: f64,
}

/// Per-submission record kept for traced runs.
#[derive(Debug, Clone, Copy)]
struct Sent {
    start: Instant,
    end: Instant,
}

/// Sends `traffic` open-loop into a fresh node, shuts it down, checks every
/// committed block, and returns the measurements.
pub fn run_node<T: BenchTxn>(
    traffic: &[T],
    genesis: &State,
    store: Arc<Store>,
    config: &NodeConfig,
    recorder: &SpanRecorder,
) -> Result<NodeStats, String> {
    let traced = recorder.enabled();
    let txns = traffic.len();
    let origin = Instant::now();
    let clock = Arc::new(CommitClock::new(origin, txns));
    let write_behind = Arc::new(WriteBehindSink::new(store.clone()));
    let timed = traced.then(|| {
        Arc::new(TimedDurability {
            inner: write_behind.clone(),
            on_commit_ns: Mutex::new(Vec::with_capacity(txns)),
            flush_ns: Mutex::new(Vec::new()),
        })
    });
    let durability: Arc<dyn DurabilitySink<AccessPath, StateValue>> = match &timed {
        Some(timed) => timed.clone(),
        None => write_behind.clone(),
    };
    let clock_sink: Arc<dyn CommitSink<AccessPath, StateValue>> = clock.clone();
    let node = Node::builder(Vm::default(), genesis.clone())
        .concurrency(config.threads)
        .mempool_capacity(MEMPOOL_CAPACITY)
        .max_block_txns(MAX_BLOCK_TXNS)
        .max_wait(MAX_WAIT)
        .commit_sink(clock_sink)
        .durability(durability)
        .start()
        .map_err(|err| format!("node start: {err}"))?;
    let handle = node.handle();
    let watermark_base = store.durable_watermark();
    let stats_before = store.stats();
    let bytes_before = file_len(&config.log_path)?;

    let interval_ns = 1e9 / config.rate as f64;
    let first_due = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| first_due + Duration::from_nanos((k as f64 * interval_ns) as u64);
    let mut stats = NodeStats::default();
    let mut sent = Vec::with_capacity(if traced { txns } else { 0 });
    stats.gen_late_ms.reserve(txns);
    for (k, txn) in traffic.iter().enumerate() {
        let due_at = due(k);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let start = Instant::now();
        stats
            .gen_late_ms
            .push(start.saturating_duration_since(due_at).as_secs_f64() * 1e3);
        loop {
            stats.attempts += 1;
            let attempt = Instant::now();
            match handle.submit(txn.clone()) {
                Ok(_) => {
                    if traced {
                        sent.push(Sent {
                            start: attempt,
                            end: Instant::now(),
                        });
                    }
                    break;
                }
                Err(NodeError::MempoolFull { .. }) => {
                    stats.refused += 1;
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(err) => return Err(format!("submission {k} failed: {err}")),
            }
        }
        if traced {
            stats.mempool_depth_max = stats.mempool_depth_max.max(handle.mempool_depth() as u64);
            let committed = clock.next.load(Ordering::Relaxed) as u64;
            let durable = store.durable_watermark().saturating_sub(watermark_base);
            stats
                .durable_lag_events
                .push(committed.saturating_sub(durable) as f64);
        }
    }
    let report = node
        .shutdown()
        .map_err(|err| format!("node shutdown: {err}"))?;

    let blocks = clock.blocks.lock().expect("clock poisoned").clone();
    check_mapping(
        traffic,
        &report,
        &blocks,
        clock.next.load(Ordering::Relaxed),
    )?;

    // Latencies, and the split at the block's `begin_block`.
    // The first second of arrivals (at most half of them) warms the node up:
    // it is sent, committed and checked like the rest but not timed.
    let warmup = (config.rate as usize).min(txns / 2);
    stats.latency_ms.reserve(txns - warmup);
    stats.gen_late_ms.drain(..warmup);
    let block_begins = blocks
        .iter()
        .flat_map(|&(begin, size)| std::iter::repeat_n(begin, size));
    let root_ns = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
    let to_ms = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e6;
    for (k, (commit, begin_ns)) in clock.commit_ns.iter().zip(block_begins).enumerate() {
        let commit_ns = commit.load(Ordering::Relaxed);
        let due_ns = root_ns(due(k));
        if k >= warmup {
            stats.latency_ms.push(to_ms(due_ns, commit_ns));
            stats.form_wait_ms.push(to_ms(due_ns, begin_ns));
            stats.exec_ms.push(to_ms(begin_ns, commit_ns));
        }
        if let Some(submit) = sent.get(k) {
            let at = |ns: u64| origin + Duration::from_nanos(ns);
            let trace = k as u64;
            let root = recorder.record("node.txn", trace, 0, due(k), at(commit_ns));
            recorder.record("node.submit", trace, root, submit.start, submit.end);
            recorder.record(
                "node.form_wait",
                trace,
                root,
                due(k),
                at(begin_ns.max(due_ns)),
            );
            recorder.record("node.execute", trace, root, at(begin_ns), at(commit_ns));
        }
    }
    stats.window_p99_ms = stats
        .latency_ms
        .chunks(P99_WINDOW)
        .filter_map(|window| stats::percentile(window, 99.0))
        .collect();
    stats.latency_ms = stats::sorted(&stats.latency_ms);
    stats.blocks = report.blocks.len() as u64;
    stats.block_txns_mean = stats::ratio(txns as f64, stats.blocks as f64);
    if traced {
        stats.submit_us = sent
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect();
    }
    if let Some(timed) = &timed {
        let ns_to = |ns: &u64, scale: f64| *ns as f64 / scale;
        stats.on_commit_us = timed
            .on_commit_ns
            .lock()
            .expect("timing poisoned")
            .iter()
            .map(|ns| ns_to(ns, 1e3))
            .collect();
        stats.flush_ms = timed
            .flush_ns
            .lock()
            .expect("timing poisoned")
            .last()
            .map_or(0.0, |ns| ns_to(ns, 1e6));
    }
    let stats_after = store.stats();
    let per_block = |n: u64| stats::ratio(n as f64, stats.blocks as f64);
    stats.frames_per_block = per_block(stats_after.frames_appended - stats_before.frames_appended);
    stats.syncs_per_block = per_block(stats_after.syncs - stats_before.syncs);
    stats.log_bytes_per_txn = stats::ratio(
        file_len(&config.log_path)?.saturating_sub(bytes_before) as f64,
        txns as f64,
    );

    // Release every handle on the log, then check what a restart recovers.
    drop(timed);
    drop(write_behind);
    drop(store);
    check_committed(genesis, &report)?;
    check_recovery(&config.log_path, genesis, &report)?;
    Ok(stats)
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|meta| meta.len())
        .map_err(|err| format!("stat {}: {err}", path.display()))
}

/// The k-th commit is the k-th submission: the node formed blocks that
/// concatenate to the traffic in order, announced them with the same sizes,
/// and committed every submission exactly once.
fn check_mapping<T: BenchTxn>(
    traffic: &[T],
    report: &NodeReport<T>,
    announced: &[(u64, usize)],
    commit_events: usize,
) -> Result<(), String> {
    if !report.committed_exactly_once() || report.snapshot.submitted != traffic.len() as u64 {
        return Err(format!(
            "node did not commit each of {} submissions exactly once",
            traffic.len()
        ));
    }
    if commit_events != traffic.len() {
        return Err(format!(
            "commit sink saw {commit_events} commits for {} submissions",
            traffic.len()
        ));
    }
    let formed: Vec<usize> = report.blocks.iter().map(Vec::len).collect();
    let sizes: Vec<usize> = announced.iter().map(|&(_, size)| size).collect();
    if formed != sizes {
        return Err("announced block sizes differ from the formed blocks".into());
    }
    if !report.blocks.iter().flatten().eq(traffic.iter()) {
        return Err("formed blocks are not the submissions in order".into());
    }
    Ok(())
}

/// Every formed block's committed updates equal the sequential engine's on
/// the same pre-state, and pass the workload's audit.
fn check_committed<T: BenchTxn>(genesis: &State, report: &NodeReport<T>) -> Result<(), String> {
    if report.blocks.len() != report.outputs.len() {
        return Err("node report: blocks and outputs differ in number".into());
    }
    let sequential = SequentialExecutor::new(Vm::default());
    let mut state = genesis.clone();
    for (index, (block, output)) in report.blocks.iter().zip(&report.outputs).enumerate() {
        let expected = sequential
            .execute_block(block, &state)
            .map_err(|err| format!("sequential replay of node block {index}: {err}"))?;
        if expected.updates != output.updates {
            return Err(format!(
                "node block {index}: committed updates differ from the sequential engine's"
            ));
        }
        T::audit(&state, block, output)
            .map_err(|err| format!("node block {index}: audit failed: {err}"))?;
        state.apply_updates(output.updates.iter().cloned());
    }
    Ok(())
}

/// A reopened log store recovers exactly genesis overwritten by the node's
/// net committed updates.
fn check_recovery<T: BenchTxn>(
    log_path: &Path,
    genesis: &State,
    report: &NodeReport<T>,
) -> Result<(), String> {
    let mut expected = genesis.clone();
    expected.apply_updates(report.updates.iter().cloned());
    let reopened: Store =
        LogStore::open(log_path).map_err(|err| format!("reopen log store: {err}"))?;
    if reopened.len() != expected.len() {
        return Err(format!(
            "reopened log holds {} keys, committed state has {}",
            reopened.len(),
            expected.len()
        ));
    }
    for (key, value) in expected.iter() {
        let recovered = reopened
            .get_value(key)
            .map_err(|err| format!("read reopened log: {err}"))?;
        if recovered.as_ref() != Some(value) {
            return Err(format!("reopened log disagrees at {key:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// Runs a small eth stream through a node with the benchmark's commit
    /// clock attached and returns the traffic, the report and the clock.
    fn small_node_run() -> (
        Vec<block_stm_workloads::EthTransferTransaction>,
        NodeReport<block_stm_workloads::EthTransferTransaction>,
        Arc<CommitClock>,
    ) {
        let spec = workload::spec("eth-hot").expect("eth-hot exists");
        let traffic = spec.eth_inputs(5, 700).traffic;
        let clock = Arc::new(CommitClock::new(Instant::now(), traffic.len()));
        let sink: Arc<dyn CommitSink<AccessPath, StateValue>> = clock.clone();
        let node = Node::builder(Vm::default(), spec.genesis_builder().build())
            .concurrency(2)
            .max_block_txns(64)
            .max_wait(Duration::from_millis(1))
            .commit_sink(sink)
            .start()
            .expect("node starts");
        for txn in &traffic {
            node.submit(*txn).expect("mempool has room");
        }
        let report = node.shutdown().expect("clean shutdown");
        (traffic, report, clock)
    }

    #[test]
    fn kth_commit_is_kth_submission() {
        let (traffic, report, clock) = small_node_run();
        let announced = clock.blocks.lock().unwrap().clone();
        let commits = clock.next.load(Ordering::Relaxed);
        assert!(
            report.blocks.len() > 1,
            "the stream must span several blocks"
        );
        check_mapping(&traffic, &report, &announced, commits).expect("mapping holds");
        assert!(clock
            .commit_ns
            .iter()
            .all(|ns| ns.load(Ordering::Relaxed) > 0));
        let committed: u64 = report.commit_counts.iter().map(|&(_, count)| count).sum();
        assert_eq!(committed as usize, commits);

        // Each way the mapping can break is caught.
        let mut swapped = traffic.clone();
        swapped.swap(0, traffic.len() - 1);
        assert!(check_mapping(&swapped, &report, &announced, commits).is_err());
        let mut resized = announced.clone();
        resized[0].1 += 1;
        assert!(check_mapping(&traffic, &report, &resized, commits).is_err());
        assert!(check_mapping(&traffic, &report, &announced, commits - 1).is_err());
        assert!(check_mapping(&traffic[1..], &report, &announced, commits).is_err());
    }
}
