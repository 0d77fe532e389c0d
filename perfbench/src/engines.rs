//! The block-engine phase: the same stream of blocks through the sequential
//! engine, Block-STM, the chained executor and the adaptive executor, in
//! interleaved rounds, with every block checked against the sequential
//! engine's committed updates.

use crate::spans::SpanRecorder;
use crate::workload::{BenchTxn, State};
use block_stm::{
    AdaptiveExecutor, BlockOutput, BlockStm, BlockStmBuilder, ChainExecutor, CommitEvent,
    CommitSink, MetricsSnapshot, SequentialExecutor, Vm,
};
use block_stm_storage::{AccessPath, StateValue, Storage};
use block_stm_vm::{ReadOutcome, StateReader, VmStatus};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Committed updates of one block, sorted by key.
pub type Updates = Vec<(AccessPath, StateValue)>;

/// The engines under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SequentialExecutor`.
    Seq,
    /// `BlockStm`, one dispatch per block.
    Bstm,
    /// `ChainExecutor`, one dispatch per stream.
    Chain,
    /// `AdaptiveExecutor`, per-block engine choice.
    Adaptive,
}

/// All engines, in the order of the first round (the sequential engine runs
/// first so its output is the reference for every other pass).
pub const ENGINES: [Engine; 4] = [Engine::Seq, Engine::Bstm, Engine::Chain, Engine::Adaptive];

impl Engine {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Bstm => "bstm",
            Engine::Chain => "chain",
            Engine::Adaptive => "adaptive",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Engine::Seq => "seq.execute_block",
            Engine::Bstm => "bstm.execute_block",
            Engine::Chain => "chain.block",
            Engine::Adaptive => "adaptive.execute_block",
        }
    }
}

/// Commit times of one block, as seen by a commit sink.
#[derive(Debug, Clone, Copy)]
pub struct BlockMark {
    size: usize,
    begin: Instant,
    first: Option<Instant>,
    last: Option<Instant>,
}

/// A commit sink that timestamps each block's `begin_block`, first commit and
/// last commit, and sums the commit lag of every `CommitEvent`.
#[derive(Debug, Default)]
pub struct BlockClock {
    marks: Mutex<Vec<BlockMark>>,
    current_size: AtomicUsize,
    lag_sum: AtomicU64,
    commits: AtomicU64,
}

impl BlockClock {
    fn take(&self) -> Vec<BlockMark> {
        std::mem::take(&mut *self.marks.lock().expect("clock poisoned"))
    }
}

impl CommitSink<AccessPath, StateValue> for BlockClock {
    fn begin_block(&self, block_size: usize) {
        self.current_size.store(block_size, Ordering::Relaxed);
        self.marks.lock().expect("clock poisoned").push(BlockMark {
            size: block_size,
            begin: Instant::now(),
            first: None,
            last: None,
        });
    }

    fn on_commit(&self, event: &CommitEvent<'_, AccessPath, StateValue>) {
        self.lag_sum
            .fetch_add(event.commit_lag() as u64, Ordering::Relaxed);
        self.commits.fetch_add(1, Ordering::Relaxed);
        let is_first = event.txn_idx == 0;
        let is_last = event.txn_idx + 1 == self.current_size.load(Ordering::Relaxed);
        if is_first || is_last {
            let now = Instant::now();
            let mut marks = self.marks.lock().expect("clock poisoned");
            if let Some(mark) = marks.last_mut() {
                if is_first {
                    mark.first = Some(now);
                }
                if is_last {
                    mark.last = Some(now);
                }
            }
        }
    }
}

/// The four engines, built once and reused block after block.
pub struct Engines {
    vm: Vm,
    seq: SequentialExecutor,
    bstm: BlockStm,
    chain: ChainExecutor,
    adaptive: AdaptiveExecutor,
    bstm_clock: Arc<BlockClock>,
    chain_clock: Arc<BlockClock>,
}

impl Engines {
    /// Builds every engine with `threads` workers.
    pub fn build(threads: usize) -> Self {
        let vm = Vm::default();
        let bstm_clock = Arc::new(BlockClock::default());
        let chain_clock = Arc::new(BlockClock::default());
        let bstm_sink: Arc<dyn CommitSink<AccessPath, StateValue>> = bstm_clock.clone();
        let chain_sink: Arc<dyn CommitSink<AccessPath, StateValue>> = chain_clock.clone();
        Self {
            vm,
            seq: SequentialExecutor::new(vm),
            bstm: BlockStmBuilder::new(vm)
                .concurrency(threads)
                .commit_sink(bstm_sink)
                .build(),
            chain: BlockStmBuilder::new(vm)
                .concurrency(threads)
                .commit_sink(chain_sink)
                .build_chain(),
            adaptive: AdaptiveExecutor::builder(vm).concurrency(threads).build(),
            bstm_clock,
            chain_clock,
        }
    }
}

/// Everything the engine phase measured, per engine where it applies.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Per-block execution times in seconds, per engine (`Engine as usize`);
    /// for the chain, means over windows of `CHAIN_WINDOW` consecutive blocks.
    pub block_secs: [Vec<f64>; 4],
    /// Total timed seconds per engine.
    pub busy_secs: [f64; 4],
    /// Transactions executed in timed passes, per engine.
    pub txns: [u64; 4],
    /// Engine metrics merged over every timed pass, per engine.
    pub metrics: [MetricsSnapshot; 4],
    /// Block-STM: `begin_block` → first commit, ms.
    pub bstm_first_commit_ms: Vec<f64>,
    /// Chain: `begin_block` (the block becomes head) → first commit, ms.
    pub chain_first_commit_ms: Vec<f64>,
    /// Chain: last commit of block N → first commit of block N+1, ms.
    pub chain_handoff_ms: Vec<f64>,
    /// `(lag sum, commits)` over Block-STM's commit events.
    pub bstm_lag: (u64, u64),
    /// `(lag sum, commits)` over the chain's commit events.
    pub chain_lag: (u64, u64),
    /// `AdaptiveExecutor::decide` per block, µs (traced runs only).
    pub decide_us: Vec<f64>,
    /// Adaptive blocks dispatched per `EngineChoice::code` (1..=3).
    pub adaptive_choices: [u64; 4],
    /// Pool dispatches of Block-STM and of the chain during timed passes.
    pub bstm_dispatches: u64,
    /// See `bstm_dispatches`.
    pub chain_dispatches: u64,
    /// `Vm::execute` per transaction against the pre-block state, µs
    /// (traced runs only).
    pub vm_exec_us: Vec<f64>,
}

/// A reader serving every read from the pre-block state.
struct PreState<'a>(&'a State);

impl StateReader<AccessPath, StateValue> for PreState<'_> {
    fn read(&self, key: &AccessPath) -> ReadOutcome<StateValue> {
        match self.0.get(key) {
            Some(value) => ReadOutcome::Value(value),
            None => ReadOutcome::NotFound,
        }
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Checks one engine's block against the reference, and on the first pass
/// of each engine also runs the workload's own audit.
fn check_block<T: BenchTxn>(
    engine: Engine,
    index: usize,
    pre: &State,
    block: &[T],
    output: &BlockOutput<AccessPath, StateValue>,
    reference: &[Updates],
    audit: bool,
) -> Result<(), String> {
    if output.outputs.len() != block.len() {
        return Err(format!(
            "{} block {index}: {} outputs for {} transactions",
            engine.name(),
            output.outputs.len(),
            block.len()
        ));
    }
    if let Some(expected) = reference.get(index) {
        if &output.updates != expected {
            return Err(format!(
                "{} block {index}: committed updates differ from the sequential engine's",
                engine.name()
            ));
        }
    }
    if audit {
        T::audit(pre, block, output)
            .map_err(|err| format!("{} block {index}: audit failed: {err}", engine.name()))?;
    }
    Ok(())
}

/// Runs interleaved rounds (each engine once per round, the order rotating
/// every round) until `budget` has passed and at least `min_rounds` rounds
/// ran.
pub fn run_phase<T: BenchTxn>(
    engines: &Engines,
    blocks: &[Vec<T>],
    genesis: &State,
    budget: Duration,
    min_rounds: usize,
    recorder: &SpanRecorder,
) -> Result<EngineStats, String> {
    let mut stats = EngineStats::default();
    let mut reference: Vec<Updates> = Vec::new();
    let started = Instant::now();
    let mut round = 0usize;
    while round < min_rounds || started.elapsed() < budget {
        for offset in 0..ENGINES.len() {
            let engine = ENGINES[(round + offset) % ENGINES.len()];
            let first_pass = round == 0;
            let trace = (round * ENGINES.len() + offset) as u64;
            match engine {
                Engine::Chain => chain_pass(
                    engines, blocks, genesis, &reference, first_pass, trace, recorder, &mut stats,
                )?,
                _ => {
                    let produced = block_pass(
                        engine, engines, blocks, genesis, &reference, first_pass, trace, recorder,
                        &mut stats,
                    )?;
                    if reference.is_empty() {
                        reference = produced;
                    }
                }
            }
        }
        round += 1;
    }
    if recorder.enabled() {
        time_vm(engines, blocks, genesis, &reference, recorder, &mut stats);
    }
    Ok(stats)
}

/// One pass of a per-block engine over the stream; returns the committed
/// updates of every block.
#[allow(clippy::too_many_arguments)]
fn block_pass<T: BenchTxn>(
    engine: Engine,
    engines: &Engines,
    blocks: &[Vec<T>],
    genesis: &State,
    reference: &[Updates],
    audit: bool,
    trace: u64,
    recorder: &SpanRecorder,
    stats: &mut EngineStats,
) -> Result<Vec<Updates>, String> {
    let slot = engine as usize;
    let mut state = genesis.clone();
    let mut produced = Vec::with_capacity(blocks.len());
    let dispatched = engines.bstm.blocks_dispatched();
    let pass = recorder.open("engine.pass", trace, 0);
    engines.bstm_clock.take();
    for (index, block) in blocks.iter().enumerate() {
        if engine == Engine::Adaptive && recorder.enabled() {
            let start = Instant::now();
            let decision = engines.adaptive.decide(block);
            let elapsed = start.elapsed();
            std::hint::black_box(decision);
            recorder.record("adaptive.decide", trace, pass, start, start + elapsed);
            stats.decide_us.push(elapsed.as_secs_f64() * 1e6);
        }
        let start = Instant::now();
        let result = match engine {
            Engine::Seq => engines.seq.execute_block(block, &state),
            Engine::Bstm => engines.bstm.execute_block(block, &state),
            Engine::Adaptive => engines.adaptive.execute_block(block, &state),
            Engine::Chain => unreachable!("the chain runs whole streams"),
        };
        let end = Instant::now();
        recorder.record(engine.span(), trace, pass, start, end);
        let output =
            result.map_err(|err| format!("{} block {index} failed: {err}", engine.name()))?;
        check_block(engine, index, &state, block, &output, reference, audit)?;
        stats.block_secs[slot].push((end - start).as_secs_f64());
        stats.busy_secs[slot] += (end - start).as_secs_f64();
        stats.txns[slot] += block.len() as u64;
        stats.metrics[slot] = stats.metrics[slot].merge(&output.metrics);
        if engine == Engine::Adaptive {
            let code = output.metrics.adaptive_engine_choice as usize;
            if let Some(count) = stats.adaptive_choices.get_mut(code) {
                *count += 1;
            }
        }
        state.apply_updates(output.updates.iter().cloned());
        produced.push(output.updates);
    }
    recorder.close(pass);
    if engine == Engine::Bstm {
        stats.bstm_dispatches += engines.bstm.blocks_dispatched() - dispatched;
        for mark in engines.bstm_clock.take() {
            if let Some(first) = mark.first {
                stats.bstm_first_commit_ms.push(ms(first - mark.begin));
            }
        }
        stats.bstm_lag = (
            engines.bstm_clock.lag_sum.load(Ordering::Relaxed),
            engines.bstm_clock.commits.load(Ordering::Relaxed),
        );
    }
    Ok(produced)
}

/// Consecutive blocks a chain block time is averaged over. Two blocks are in
/// flight at once, so a block whose successor ran far ahead is followed by a
/// short one: single block times alternate between long and short and their
/// median falls in the gap between the two modes.
pub const CHAIN_WINDOW: usize = 4;

/// One `execute_chain` call over the whole stream. A block ends at its last
/// commit; the call's start stands in for the end of the block before the
/// first. The chain's block time is the time between the ends of blocks `N`
/// and `N - CHAIN_WINDOW`, divided by `CHAIN_WINDOW`.
#[allow(clippy::too_many_arguments)]
fn chain_pass<T: BenchTxn>(
    engines: &Engines,
    blocks: &[Vec<T>],
    genesis: &State,
    reference: &[Updates],
    audit: bool,
    trace: u64,
    recorder: &SpanRecorder,
    stats: &mut EngineStats,
) -> Result<(), String> {
    let slot = Engine::Chain as usize;
    let dispatched = engines.chain.chains_dispatched();
    engines.chain_clock.take();
    let start = Instant::now();
    let result = engines.chain.execute_chain(blocks, genesis);
    let end = Instant::now();
    let pass = recorder.record("chain.execute_chain", trace, 0, start, end);
    let output = result.map_err(|err| format!("chain failed: {err}"))?;
    let marks = engines.chain_clock.take();
    if output.blocks.len() != blocks.len() || marks.len() != blocks.len() {
        return Err(format!(
            "chain: {} outputs and {} announced blocks for {} blocks",
            output.blocks.len(),
            marks.len(),
            blocks.len()
        ));
    }
    let mut state = audit.then(|| genesis.clone());
    let mut ends = vec![start];
    for (index, ((block, block_output), mark)) in
        blocks.iter().zip(&output.blocks).zip(&marks).enumerate()
    {
        let pre = state.as_ref().unwrap_or(genesis);
        check_block(
            Engine::Chain,
            index,
            pre,
            block,
            block_output,
            reference,
            audit,
        )?;
        if let Some(state) = state.as_mut() {
            state.apply_updates(block_output.updates.iter().cloned());
        }
        let (Some(first), Some(last)) = (mark.first, mark.last) else {
            return Err(format!("chain block {index}: missing commit timestamps"));
        };
        if mark.size != block.len() {
            return Err(format!(
                "chain block {index}: announced with size {}",
                mark.size
            ));
        }
        let previous_end = ends[index];
        recorder.record(Engine::Chain.span(), trace, pass, previous_end, last);
        if index > 0 {
            stats
                .chain_handoff_ms
                .push(ms(first.saturating_duration_since(previous_end)));
        }
        stats
            .chain_first_commit_ms
            .push(ms(first.saturating_duration_since(mark.begin)));
        ends.push(last);
        if let Some(window_start) = ends.len().checked_sub(CHAIN_WINDOW + 1) {
            let window = last - ends[window_start];
            stats.block_secs[slot].push(window.as_secs_f64() / CHAIN_WINDOW as f64);
        }
    }
    stats.busy_secs[slot] += (ends[ends.len() - 1] - start).as_secs_f64();
    stats.txns[slot] += output.total_txns() as u64;
    stats.metrics[slot] = stats.metrics[slot].merge(&output.metrics);
    stats.chain_dispatches += engines.chain.chains_dispatched() - dispatched;
    stats.chain_lag = (
        engines.chain_clock.lag_sum.load(Ordering::Relaxed),
        engines.chain_clock.commits.load(Ordering::Relaxed),
    );
    Ok(())
}

/// Times `Vm::execute` over every transaction of the stream against its
/// block's pre-block state.
fn time_vm<T: BenchTxn>(
    engines: &Engines,
    blocks: &[Vec<T>],
    genesis: &State,
    reference: &[Updates],
    recorder: &SpanRecorder,
    stats: &mut EngineStats,
) {
    let mut state = genesis.clone();
    for (index, (block, updates)) in blocks.iter().zip(reference).enumerate() {
        let trace = index as u64;
        let parent = recorder.open("vm.block", trace, 0);
        for txn in block {
            let reader = PreState(&state);
            let start = Instant::now();
            let status = engines.vm.execute(txn, &reader);
            let end = Instant::now();
            debug_assert!(matches!(status, VmStatus::Done(_)));
            std::hint::black_box(status);
            recorder.record("vm.execute", trace, parent, start, end);
            stats.vm_exec_us.push((end - start).as_secs_f64() * 1e6);
        }
        recorder.close(parent);
        state.apply_updates(updates.iter().cloned());
    }
}
