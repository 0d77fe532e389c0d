//! Test-only transactions shared by the engine's unit tests.

use block_stm_vm::{ExecutionFailure, StateReader, Transaction, TransactionContext};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ARMED: u8 = 0;
const READ: u8 = 1;
const SPENT: u8 = 2;

/// Half of a two-transaction block whose optimistic execution fails one validation
/// deterministically, given at least two workers (see [`colliding_pair`]).
pub(crate) enum Collide {
    /// Transaction 0: held inside its first execution until the reader has read
    /// key 0, then increments key 0.
    Writer(Arc<AtomicU8>),
    /// Transaction 1: copies key 0 into key 1.
    Reader(Arc<AtomicU8>),
}

/// The writer/reader pair: the reader's first incarnation reads key 0 before the
/// writer has written it, so its validation fails and it is aborted. Only the
/// first execution of the writer is held, so a later (e.g. sequential) run of the
/// same block never waits.
pub(crate) fn colliding_pair() -> Vec<Collide> {
    let state = Arc::new(AtomicU8::new(ARMED));
    vec![Collide::Writer(state.clone()), Collide::Reader(state)]
}

impl Transaction for Collide {
    type Key = u64;
    type Value = u64;

    fn execute<R: StateReader<u64, u64>>(
        &self,
        ctx: &mut TransactionContext<'_, u64, u64, R>,
    ) -> Result<(), ExecutionFailure> {
        match self {
            Collide::Writer(state) => {
                // Bounded hold: a host that never schedules the second worker
                // fails the caller's abort assertion instead of hanging.
                let deadline = Instant::now() + Duration::from_secs(10);
                while state.load(Ordering::Acquire) == ARMED && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(50));
                }
                state.store(SPENT, Ordering::Release);
                let value = ctx.read(&0)?.unwrap_or(0);
                ctx.write(0, value + 1);
            }
            Collide::Reader(state) => {
                let value = ctx.read(&0)?.unwrap_or(0);
                let _ = state.compare_exchange(ARMED, READ, Ordering::AcqRel, Ordering::Acquire);
                ctx.write(1, value);
            }
        }
        Ok(())
    }
}
