//! Executor configuration.

/// Tuning knobs of the [`BlockStm`](crate::BlockStm) engine (assembled fluently by
/// [`BlockStmBuilder`](crate::BlockStmBuilder)).
///
/// The defaults reproduce the configuration evaluated in the paper plus the rolling
/// commit ladder, which is always on; the remaining switches exist so the ablation
/// benchmarks (`crates/bench/benches/ablation.rs`) can quantify each optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Number of worker threads. `0` (the default) means "use all available
    /// parallelism", capped at 32 to mirror the paper's setup.
    pub concurrency: usize,
    /// Before re-executing a transaction whose previous incarnation was aborted, scan
    /// its previous read-set for unresolved ESTIMATE markers and register a dependency
    /// instead of paying for a doomed re-execution (the §4 mitigation for VMs that
    /// restart from scratch). Default: `true`.
    pub dependency_recheck: bool,
    /// Allow `finish_execution` / `finish_validation` to hand the follow-up task
    /// directly back to the calling thread instead of routing it through the shared
    /// counters (the paper's cases 1(b)/2(c) optimization). Default: `true`.
    pub task_return_optimization: bool,
    /// Halt the block with
    /// [`AbortThresholdExceeded`](crate::ExecutionError::AbortThresholdExceeded)
    /// once more than this many validation aborts have occurred — the adaptive
    /// executor's mid-block escape hatch to a sequential re-run. `None` (the
    /// default) never trips.
    pub abort_fallback_threshold: Option<u64>,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self {
            concurrency: 0,
            dependency_recheck: true,
            task_return_optimization: true,
            abort_fallback_threshold: None,
        }
    }
}

impl ExecutorOptions {
    /// Options with an explicit worker-thread count and default optimizations.
    pub fn with_concurrency(concurrency: usize) -> Self {
        Self {
            concurrency,
            ..Self::default()
        }
    }

    /// Builder: toggles the dependency re-check optimization.
    pub fn dependency_recheck(mut self, enabled: bool) -> Self {
        self.dependency_recheck = enabled;
        self
    }

    /// Builder: toggles the task-return optimization.
    pub fn task_return_optimization(mut self, enabled: bool) -> Self {
        self.task_return_optimization = enabled;
        self
    }

    /// Builder: sets the mid-block abort-fallback threshold.
    pub fn abort_fallback_threshold(mut self, aborts: u64) -> Self {
        self.abort_fallback_threshold = Some(aborts);
        self
    }

    /// The number of worker threads to actually spawn: the configured concurrency, or
    /// the machine's available parallelism when unset, never less than 1 and never
    /// more than 32 (the paper's maximum).
    pub fn effective_concurrency(&self) -> usize {
        let requested = if self.concurrency == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.concurrency
        };
        requested.clamp(1, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let options = ExecutorOptions::default();
        assert!(options.dependency_recheck);
        assert!(options.task_return_optimization);
        assert_eq!(options.concurrency, 0);
        assert!(options.abort_fallback_threshold.is_none());
    }

    #[test]
    fn effective_concurrency_clamps() {
        assert_eq!(
            ExecutorOptions::with_concurrency(4).effective_concurrency(),
            4
        );
        assert_eq!(
            ExecutorOptions::with_concurrency(1).effective_concurrency(),
            1
        );
        assert_eq!(
            ExecutorOptions::with_concurrency(1_000).effective_concurrency(),
            32
        );
        assert!(ExecutorOptions::default().effective_concurrency() >= 1);
    }

    #[test]
    fn builders_toggle_flags() {
        let options = ExecutorOptions::default()
            .dependency_recheck(false)
            .task_return_optimization(false)
            .abort_fallback_threshold(16);
        assert!(!options.dependency_recheck);
        assert!(!options.task_return_optimization);
        assert_eq!(options.abort_fallback_threshold, Some(16));
    }
}
