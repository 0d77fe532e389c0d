//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <p2p-diem|eth-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (`setup_s` is the median),
//! then spends half of `--seconds` on the block engines and half on the node
//! service under open-loop load, checking every output. With `--trace 0` the
//! last line of standard output is the JSON result with the end-to-end
//! metrics; with `--trace 1` the run is repeated with the span recorder on
//! and the result carries the per-layer metrics, including the tracing
//! overhead (traced minus untraced end-to-end metrics). The line before the
//! result is a report that records, next to every metric, its sample count,
//! `nproc`, the engine threads and the seed. See `METRICS.md`.

mod engines;
mod node;
mod spans;
mod stats;
mod workload;

use block_stm_vm::p2p::PeerToPeerTransaction;
use block_stm_workloads::EthTransferTransaction;
use engines::{Engine, EngineStats, Engines};
use node::{NodeConfig, NodeStats};
use spans::SpanRecorder;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{BenchTxn, Family, Inputs, Spec, State};

/// Times the workload is set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` spent on the node; the rest goes to the engines.
const NODE_SHARE: f64 = 0.5;
/// Engine rounds run even when the time budget is already spent.
const MIN_ROUNDS: usize = 2;
/// Scratch space for log stores, inside the working directory.
const SCRATCH_DIR: &str = ".perfbench_tmp";
/// Where traced runs write their spans.
const SPANS_DIR: &str = ".perfbench_out";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Everything measured by one pass over both phases.
struct Measured {
    engines: EngineStats,
    node: NodeStats,
    block_txns: usize,
}

impl Measured {
    /// Transactions executed by the engines plus submissions to the node.
    fn attempted(&self) -> u64 {
        self.engines.txns.iter().sum::<u64>() + self.node.attempts
    }

    fn tps(&self, engine: Engine) -> Metric {
        let times = &self.engines.block_secs[engine as usize];
        let median = stats::median(times).unwrap_or(0.0);
        metric(
            format!("{}_tps", engine.name()),
            stats::ratio(self.block_txns as f64, median),
            "txn/s",
            times.len(),
        )
    }

    fn end_to_end(&self, setup: &[f64]) -> Vec<Metric> {
        let latency = &self.node.latency_ms;
        let pct = |p: f64| stats::percentile_sorted(latency, p).unwrap_or(0.0);
        vec![
            self.tps(Engine::Seq),
            self.tps(Engine::Bstm),
            self.tps(Engine::Chain),
            self.tps(Engine::Adaptive),
            metric("commit_p50_ms", pct(50.0), "ms", latency.len()),
            metric(
                "commit_p99_ms",
                stats::median(&self.node.window_p99_ms).unwrap_or(0.0),
                "ms",
                latency.len(),
            ),
            metric(
                "setup_s",
                stats::median(setup).unwrap_or(0.0),
                "s",
                setup.len(),
            ),
        ]
    }

    /// Extra end-to-end context printed in the report only.
    fn context(&self) -> Vec<Metric> {
        let latency = &self.node.latency_ms;
        let pct = |p: f64| stats::percentile_sorted(latency, p).unwrap_or(0.0);
        vec![
            metric("commit_p99_whole_run_ms", pct(99.0), "ms", latency.len()),
            metric("commit_p999_whole_run_ms", pct(99.9), "ms", latency.len()),
            metric(
                "commit_windows",
                self.node.window_p99_ms.len() as f64,
                "count",
                1,
            ),
        ]
    }

    fn per_layer(&self, threads: usize) -> Vec<Metric> {
        let e = &self.engines;
        let n = &self.node;
        let mut out = Vec::new();
        let vm_us = stats::mean(&e.vm_exec_us).unwrap_or(0.0);
        out.push(metric(
            "vm.exec_us_per_txn",
            vm_us,
            "us",
            e.vm_exec_us.len(),
        ));
        for engine in [Engine::Bstm, Engine::Chain] {
            let slot = engine as usize;
            let txns = e.txns[slot] as f64;
            let busy_us = threads as f64 * e.busy_secs[slot] * 1e6;
            let vm_total = e.metrics[slot].incarnations as f64 * vm_us;
            out.push(metric(
                format!("core.{}.overhead_us_per_txn", engine.name()),
                stats::ratio(busy_us - vm_total, txns),
                "us",
                e.block_secs[slot].len(),
            ));
        }
        let chain = &e.metrics[Engine::Chain as usize];
        let chain_blocks = chain.chain_blocks as f64;
        let p50 = |values: &[f64]| stats::median(values).unwrap_or(0.0);
        let p99 = |values: &[f64]| stats::percentile(values, 99.0).unwrap_or(0.0);
        out.extend([
            metric(
                "core.bstm.first_commit_ms",
                p50(&e.bstm_first_commit_ms),
                "ms",
                e.bstm_first_commit_ms.len(),
            ),
            metric(
                "core.chain.first_commit_ms",
                p50(&e.chain_first_commit_ms),
                "ms",
                e.chain_first_commit_ms.len(),
            ),
            metric(
                "core.chain.handoff_ms",
                p50(&e.chain_handoff_ms),
                "ms",
                e.chain_handoff_ms.len(),
            ),
            metric(
                "core.chain.sweeps_per_block",
                stats::ratio(chain.chain_sweeps as f64, chain_blocks),
                "count",
                chain.chain_blocks as usize,
            ),
            metric(
                "core.chain.cross_block_aborts_per_block",
                stats::ratio(chain.chain_cross_block_aborts as f64, chain_blocks),
                "count",
                chain.chain_blocks as usize,
            ),
            metric(
                "core.chain.runahead_avg",
                chain.avg_chain_runahead(),
                "txn",
                chain.chain_blocks as usize,
            ),
            metric(
                "core.bstm.commit_lag_txns",
                stats::ratio(e.bstm_lag.0 as f64, e.bstm_lag.1 as f64),
                "txn",
                e.bstm_lag.1 as usize,
            ),
            metric(
                "core.chain.commit_lag_txns",
                stats::ratio(e.chain_lag.0 as f64, e.chain_lag.1 as f64),
                "txn",
                e.chain_lag.1 as usize,
            ),
            metric(
                "core.adaptive.decide_us",
                p50(&e.decide_us),
                "us",
                e.decide_us.len(),
            ),
        ]);
        let adaptive_blocks: u64 = e.adaptive_choices.iter().sum();
        for (code, name) in [(1, "seq"), (2, "parallel"), (3, "hinted")] {
            out.push(metric(
                format!("core.adaptive.share_{name}"),
                stats::ratio(e.adaptive_choices[code] as f64, adaptive_blocks as f64),
                "ratio",
                adaptive_blocks as usize,
            ));
        }
        let adaptive = &e.metrics[Engine::Adaptive as usize];
        out.push(metric(
            "core.adaptive.fallbacks",
            adaptive.adaptive_fallbacks as f64,
            "count",
            adaptive_blocks as usize,
        ));
        for engine in [Engine::Bstm, Engine::Chain] {
            let m = &e.metrics[engine as usize];
            let txns = e.txns[engine as usize];
            let per_txn = |count: u64| stats::ratio(count as f64, txns as f64);
            let name = engine.name();
            for (counter, count) in [
                ("incarnations", m.incarnations),
                ("validations", m.validations),
                ("validation_failures", m.validation_failures),
                ("dependency_aborts", m.dependency_aborts),
                ("polls", m.scheduler_polls),
                ("yields", m.scheduler_yields),
            ] {
                out.push(metric(
                    format!("scheduler.{name}.{counter}_per_txn"),
                    per_txn(count),
                    "count",
                    txns as usize,
                ));
            }
            let lookups =
                m.mvmemory_cache_hits + m.mvmemory_interner_hits + m.mvmemory_interner_misses;
            for (counter, count) in [
                ("location_lookups", lookups),
                ("committed_prefix_reads", m.committed_prefix_reads),
                ("delta_resolutions", m.delta_resolutions),
                ("frontier_reads", m.frontier_reads),
            ] {
                out.push(metric(
                    format!("mvmemory.{name}.{counter}_per_txn"),
                    per_txn(count),
                    "count",
                    txns as usize,
                ));
            }
            out.push(metric(
                format!("mvmemory.{name}.cache_hit_ratio"),
                stats::ratio(m.mvmemory_cache_hits as f64, lookups as f64),
                "ratio",
                lookups as usize,
            ));
        }
        let blocks = |engine: Engine| e.block_secs[engine as usize].len();
        out.push(metric(
            "sync.bstm.dispatches_per_block",
            stats::ratio(e.bstm_dispatches as f64, blocks(Engine::Bstm) as f64),
            "count",
            blocks(Engine::Bstm),
        ));
        out.push(metric(
            "sync.chain.dispatches_per_block",
            stats::ratio(e.chain_dispatches as f64, blocks(Engine::Chain) as f64),
            "count",
            blocks(Engine::Chain),
        ));
        let txns = n.latency_ms.len();
        out.extend([
            metric(
                "node.submit_us_p99",
                p99(&n.submit_us),
                "us",
                n.submit_us.len(),
            ),
            metric(
                "node.refused",
                n.refused as f64,
                "count",
                n.attempts as usize,
            ),
            metric(
                "node.mempool_depth_max",
                n.mempool_depth_max as f64,
                "txn",
                txns,
            ),
            metric(
                "node.block_txns_mean",
                n.block_txns_mean,
                "txn",
                n.blocks as usize,
            ),
            metric(
                "node.form_wait_ms_p50",
                p50(&n.form_wait_ms),
                "ms",
                n.form_wait_ms.len(),
            ),
            metric(
                "node.form_wait_ms_p99",
                p99(&n.form_wait_ms),
                "ms",
                n.form_wait_ms.len(),
            ),
            metric("node.exec_ms_p50", p50(&n.exec_ms), "ms", n.exec_ms.len()),
            metric("node.exec_ms_p99", p99(&n.exec_ms), "ms", n.exec_ms.len()),
            metric(
                "node.gen_late_ms_p99",
                p99(&n.gen_late_ms),
                "ms",
                n.gen_late_ms.len(),
            ),
            metric(
                "persist.on_commit_us_p99",
                p99(&n.on_commit_us),
                "us",
                n.on_commit_us.len(),
            ),
            metric("persist.flush_ms", n.flush_ms, "ms", 1),
            metric(
                "persist.durable_lag_events_p99",
                p99(&n.durable_lag_events),
                "count",
                n.durable_lag_events.len(),
            ),
            metric(
                "persist.frames_per_block",
                n.frames_per_block,
                "count",
                n.blocks as usize,
            ),
            metric(
                "persist.syncs_per_block",
                n.syncs_per_block,
                "count",
                n.blocks as usize,
            ),
            metric(
                "persist.log_bytes_per_txn",
                n.log_bytes_per_txn,
                "bytes",
                txns,
            ),
        ]);
        out
    }
}

/// The outcome of a whole run.
struct Outcome {
    metrics: Vec<Metric>,
    context: Vec<Metric>,
    attempted: u64,
    failed: u64,
    spans_file: Option<PathBuf>,
}

/// A run that failed part-way: what was attempted before the failure.
struct Failure {
    message: String,
    attempted: u64,
}

fn fail(message: String, attempted: u64) -> Failure {
    Failure { message, attempted }
}

/// What one set-up builds (the log store is kept apart: each measurement
/// needs a fresh one).
struct Setup<T> {
    inputs: Inputs<T>,
    genesis: State,
    engines: Engines,
}

/// Runs both phases once: the engines for `engine_budget`, then the node.
fn measure<T: BenchTxn>(
    spec: Spec,
    setup: &Setup<T>,
    engine_budget: Duration,
    threads: usize,
    recorder: &SpanRecorder,
    store: Arc<node::Store>,
    log_path: PathBuf,
) -> Result<Measured, Failure> {
    let engine_stats = engines::run_phase(
        &setup.engines,
        &setup.inputs.blocks,
        &setup.genesis,
        engine_budget,
        MIN_ROUNDS,
        recorder,
    )
    .map_err(|err| fail(err, 0))?;
    let engine_txns: u64 = engine_stats.txns.iter().sum();
    let config = NodeConfig {
        threads,
        rate: spec.node_rate,
        log_path,
    };
    let node_stats = node::run_node(
        &setup.inputs.traffic,
        &setup.genesis,
        store,
        &config,
        recorder,
    )
    .map_err(|err| fail(err, engine_txns + setup.inputs.traffic.len() as u64))?;
    Ok(Measured {
        engines: engine_stats,
        node: node_stats,
        block_txns: spec.block_txns,
    })
}

fn run<T: BenchTxn>(
    spec: Spec,
    args: &Args,
    threads: usize,
    scratch: &Path,
    generate: impl Fn(u64, usize) -> Inputs<T>,
) -> Result<Outcome, Failure> {
    let node_budget = args.seconds * NODE_SHARE;
    let engine_budget = Duration::from_secs_f64(args.seconds - node_budget);
    let traffic_txns = (spec.node_rate as f64 * node_budget).round().max(1.0) as usize;
    let genesis_builder = spec.genesis_builder();
    let log_path = |label: &str| scratch.join(format!("{label}.log"));

    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup<T>> = None;
    let mut store = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = generate(args.seed, traffic_txns);
        let genesis = genesis_builder.build();
        let engines = Engines::build(threads);
        let rep_path = log_path(&format!("setup{rep}"));
        let rep_store =
            node::open_store(&rep_path, &genesis_builder).map_err(|err| fail(err, 0))?;
        setup_secs.push(start.elapsed().as_secs_f64());
        if let Some(previous) = &setup {
            if previous.inputs != inputs {
                return Err(fail(
                    format!("setup {rep}: the seed gave different inputs"),
                    0,
                ));
            }
        }
        setup = Some(Setup {
            inputs,
            genesis,
            engines,
        });
        store = Some((rep_store, rep_path));
    }
    let setup = setup.expect("at least one setup repetition");
    let (store, store_path) = store.expect("at least one setup repetition");

    let measure = |recorder: &SpanRecorder, store, log_path| {
        measure(
            spec,
            &setup,
            engine_budget,
            threads,
            recorder,
            store,
            log_path,
        )
    };
    let untraced = measure(&SpanRecorder::new(false), store, store_path)?;
    let mut attempted = untraced.attempted();
    let mut failed = untraced.node.refused;
    let plain = untraced.end_to_end(&setup_secs);
    if !args.trace {
        return Ok(Outcome {
            context: untraced.context(),
            metrics: plain,
            attempted,
            failed,
            spans_file: None,
        });
    }

    let recorder = SpanRecorder::new(true);
    let traced_path = log_path("traced");
    let traced_store =
        node::open_store(&traced_path, &genesis_builder).map_err(|err| fail(err, attempted))?;
    let traced = measure(&recorder, traced_store, traced_path)?;
    attempted += traced.attempted();
    failed += traced.node.refused;
    let mut metrics = traced.per_layer(threads);
    for (before, after) in plain.iter().zip(traced.end_to_end(&setup_secs)) {
        if before.name == "setup_s" {
            continue;
        }
        metrics.push(metric(
            format!("trace.overhead_pct.{}", before.name),
            stats::ratio(after.value - before.value, before.value) * 100.0,
            "%",
            after.samples.min(before.samples),
        ));
    }
    std::fs::create_dir_all(SPANS_DIR)
        .map_err(|err| fail(format!("{SPANS_DIR}: {err}"), attempted))?;
    let spans_file =
        Path::new(SPANS_DIR).join(format!("spans-{}-seed{}.tsv", spec.name, args.seed));
    recorder
        .write_tsv(&spans_file)
        .map_err(|err| fail(format!("write spans: {err}"), attempted))?;
    Ok(Outcome {
        context: plain.into_iter().chain(untraced.context()).collect(),
        metrics,
        attempted,
        failed,
        spans_file: Some(spans_file),
    })
}

/// Formats a float as a JSON number (non-finite values, which no metric
/// should produce, become 0 and fail the run).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn json_metrics(metrics: &[Metric], extra: impl Fn(&Metric) -> String) -> String {
    let mut out = String::from("{");
    for (index, m) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{}}}",
            m.name,
            json_number(m.value),
            m.unit,
            extra(m)
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = Path::new(SCRATCH_DIR).join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {err}", scratch.display());
        return ExitCode::from(2);
    }
    let result = match spec.family {
        Family::P2pDiem => {
            run::<PeerToPeerTransaction>(spec, &args, threads, &scratch, |seed, n| {
                spec.p2p_inputs(seed, n)
            })
        }
        Family::EthHot => {
            run::<EthTransferTransaction>(spec, &args, threads, &scratch, |seed, n| {
                spec.eth_inputs(seed, n)
            })
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);

    match result {
        Ok(outcome) => {
            let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
            let with_context = |m: &Metric| {
                format!(
                    ", \"samples\": {}, \"nproc\": {threads}, \"engine_threads\": {threads}, \"seed\": {}",
                    m.samples, args.seed
                )
            };
            let report_metrics: Vec<Metric> = outcome
                .metrics
                .iter()
                .chain(&outcome.context)
                .cloned()
                .collect();
            println!(
                "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {threads}, \"engine_threads\": {threads}, \"spans\": {}, \"metrics\": {}}}}}",
                spec.name,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                outcome
                    .spans_file
                    .map_or("null".into(), |path| format!("\"{}\"", path.display())),
                json_metrics(&report_metrics, with_context)
            );
            println!(
                "{{\"correct\": {finite}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.attempted.max(1),
                outcome.failed,
                json_metrics(&outcome.metrics, |_| String::new())
            );
            if finite {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(failure) => {
            eprintln!("perfbench: run failed: {}", failure.message);
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                failure.attempted.max(1),
                failure.attempted.max(1)
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "eth-hot",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, "eth-hot");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 12.0);
        assert!(parsed.trace);
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "eth-hot", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "eth-hot", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
