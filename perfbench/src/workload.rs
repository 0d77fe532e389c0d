//! The benchmark's workloads and their seeded inputs.
//!
//! A workload is one traffic mix. Each run drives it twice: as a stream of
//! closed blocks through the four block engines, and as open-loop arrivals at
//! a fixed rate into the node service. Inputs are a pure function of the
//! workload and the seed; generating them is untimed and counted in `setup_s`.

use block_stm::{BlockOutput, Transaction};
use block_stm_storage::{AccessPath, GenesisBuilder, InMemoryStorage, StateValue};
use block_stm_vm::p2p::PeerToPeerTransaction;
use block_stm_workloads::{
    ConservationOracle, EthTransferTransaction, EthTransferWorkload, P2pWorkload,
};

/// The state model every workload shares.
pub type State = InMemoryStorage<AccessPath, StateValue>;

/// Transactions the benchmark can drive, with the workload-specific audit of
/// a committed block (on top of byte-equality with the sequential engine).
pub trait BenchTxn:
    Transaction<Key = AccessPath, Value = StateValue> + Clone + PartialEq + Send + Sync + 'static
{
    /// Checks the invariants of one committed block against its pre-state.
    fn audit(
        pre: &State,
        block: &[Self],
        output: &BlockOutput<AccessPath, StateValue>,
    ) -> Result<(), String>;
}

impl BenchTxn for PeerToPeerTransaction {
    /// The p2p family has no conservation oracle; byte-equality with the
    /// sequential engine is its gate.
    fn audit(
        _pre: &State,
        _block: &[Self],
        _output: &BlockOutput<AccessPath, StateValue>,
    ) -> Result<(), String> {
        Ok(())
    }
}

impl BenchTxn for EthTransferTransaction {
    fn audit(
        pre: &State,
        block: &[Self],
        output: &BlockOutput<AccessPath, StateValue>,
    ) -> Result<(), String> {
        let Some(first) = block.first() else {
            return Ok(());
        };
        ConservationOracle::new()
            .with_beneficiary(first.beneficiary)
            .check(pre, block, &output.updates, &output.outputs)
            .map(|_| ())
    }
}

/// Which transaction family a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's Diem peer-to-peer transfers.
    P2pDiem,
    /// `EthTransferWorkload` with hot receivers and delta fee credits.
    EthHot,
}

/// A workload's fixed shape (everything but the seed).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name given on the command line.
    pub name: &'static str,
    /// Transaction family.
    pub family: Family,
    /// Account universe.
    pub accounts: u64,
    /// Transactions per block of the engine stream.
    pub block_txns: usize,
    /// Blocks in the engine stream.
    pub stream_blocks: usize,
    /// Open-loop arrival rate into the node, transactions per second.
    pub node_rate: u64,
}

/// The workloads, by name.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "p2p-diem",
        family: Family::P2pDiem,
        accounts: 10_000,
        block_txns: 1_000,
        stream_blocks: 12,
        node_rate: 2_500,
    },
    Spec {
        name: "eth-hot",
        family: Family::EthHot,
        accounts: 1_000,
        block_txns: 500,
        stream_blocks: 20,
        node_rate: 10_000,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|spec| spec.name == name)
}

/// One workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs<T> {
    /// The engine stream: distinct blocks, executed in order from genesis.
    pub blocks: Vec<Vec<T>>,
    /// The node traffic, in arrival order.
    pub traffic: Vec<T>,
}

/// Mixes the run seed with a stream label so every generated stream is
/// distinct yet fixed by the seed (splitmix64 finalizer).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Spec {
    /// The genesis state as a builder (ingested into the log store as is).
    pub fn genesis_builder(&self) -> GenesisBuilder {
        match self.family {
            Family::P2pDiem => {
                let workload = P2pWorkload::diem(self.accounts, 0);
                GenesisBuilder::new(self.accounts).initial_balance(workload.initial_balance)
            }
            Family::EthHot => self.eth(0, 0).genesis_builder(),
        }
    }

    fn eth(&self, txns: usize, seed: u64) -> EthTransferWorkload {
        EthTransferWorkload::new(self.accounts, txns)
            .with_seed(seed)
            .with_zipf_s_hundredths(100)
            .with_conflict(20, 4)
            .with_sigverify_gas(0)
    }

    fn p2p_blocks(
        &self,
        count: usize,
        block_txns: usize,
        seed: u64,
        first: u64,
    ) -> Vec<Vec<PeerToPeerTransaction>> {
        (0..count as u64)
            .map(|index| {
                P2pWorkload::diem(self.accounts, block_txns)
                    .with_seed(derive_seed(seed, first + index))
                    .generate_block()
            })
            .collect()
    }

    /// The p2p inputs: `stream_blocks` distinct blocks plus `traffic_txns`
    /// node arrivals drawn from further distinct blocks.
    pub fn p2p_inputs(&self, seed: u64, traffic_txns: usize) -> Inputs<PeerToPeerTransaction> {
        let blocks = self.p2p_blocks(self.stream_blocks, self.block_txns, seed, 0);
        let traffic_blocks = traffic_txns.div_ceil(self.block_txns);
        let mut traffic: Vec<_> = self
            .p2p_blocks(traffic_blocks, self.block_txns, seed, 1 << 32)
            .into_iter()
            .flatten()
            .collect();
        traffic.truncate(traffic_txns);
        Inputs { blocks, traffic }
    }

    /// The eth inputs: one generated sequence cut into `stream_blocks` blocks
    /// (so nonces continue across blocks), and an independent sequence for
    /// the node traffic (the node starts from genesis too).
    pub fn eth_inputs(&self, seed: u64, traffic_txns: usize) -> Inputs<EthTransferTransaction> {
        let stream = self
            .eth(self.stream_blocks * self.block_txns, derive_seed(seed, 0))
            .generate_block();
        let blocks = stream.chunks(self.block_txns).map(<[_]>::to_vec).collect();
        let traffic = self
            .eth(traffic_txns, derive_seed(seed, 1))
            .generate_block();
        Inputs { blocks, traffic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs_twice() {
        for spec in WORKLOADS {
            let small = Spec {
                stream_blocks: 3,
                block_txns: 50,
                ..spec
            };
            match spec.family {
                Family::P2pDiem => {
                    let a = small.p2p_inputs(11, 120);
                    assert_eq!(a, small.p2p_inputs(11, 120));
                    assert_ne!(a, small.p2p_inputs(12, 120));
                    assert_eq!(a.blocks.len(), 3);
                    assert_ne!(a.blocks[0], a.blocks[1], "stream blocks must be distinct");
                    assert_eq!(a.traffic.len(), 120);
                }
                Family::EthHot => {
                    let a = small.eth_inputs(11, 120);
                    assert_eq!(a, small.eth_inputs(11, 120));
                    assert_ne!(a, small.eth_inputs(12, 120));
                    assert_eq!(a.blocks.len(), 3);
                    assert!(a.blocks.iter().all(|block| block.len() == 50));
                    assert_eq!(a.traffic.len(), 120);
                }
            }
            let genesis = small.genesis_builder();
            assert_eq!(genesis.build().len(), small.genesis_builder().build().len());
        }
    }

    #[test]
    fn workload_names_resolve() {
        assert_eq!(spec("eth-hot").map(|s| s.family), Some(Family::EthHot));
        assert_eq!(spec("p2p-diem").map(|s| s.block_txns), Some(1_000));
        assert!(spec("node-paced").is_none());
    }
}
