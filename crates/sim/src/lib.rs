//! Logic simulation, single-stuck-at fault simulation and switching-activity
//! power estimation for [`xsynth_net::Network`]s.
//!
//! The paper leans on simulation twice: the redundancy-removal pass of
//! Section 4 simulates the OC/AZ/AO/SA1 pattern sets to find reducible XOR
//! gates, and the evaluation reports SIS `power_estimate` numbers and
//! claims complete single-stuck-at test sets. This crate provides those
//! engines: 64-way bit-parallel simulation, fault enumeration/simulation,
//! and the zero-delay, uniform-input switching-activity power model.
//!
//! Patterns travel as 64-bit words end to end. A [`PatternRows`] list
//! holds one pattern per row of words, which is the form that is built,
//! sorted and deduplicated (the paper's pattern family, merged pattern
//! sets). A [`PatternBlock`] holds 64 patterns as one word per input,
//! which is the form the simulator consumes. One transpose links the two.
//! Random patterns are drawn straight into blocks ([`random_blocks`]). A
//! [`Pattern`] (`Vec<bool>`) is only the unpacked view that tests and
//! test generation read and write.
//!
//! # Examples
//!
//! ```
//! use xsynth_net::{GateKind, Network};
//! use xsynth_sim::Simulator;
//!
//! let mut n = Network::new("and");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(GateKind::And, vec![a, b]);
//! n.add_output("y", g);
//! let sim = Simulator::new(&n);
//! let outs = sim.outputs_for_patterns(&xsynth_sim::exhaustive_patterns(2));
//! assert_eq!(outs[3], vec![true]); // pattern 0b11
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
mod power;

pub use fault::{enumerate_faults, fault_simulate, Fault, FaultReport, FaultSim, FaultSite};
pub use power::{power_estimate, signal_activity, PowerReport};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// A single input assignment: one value per primary input, in declaration
/// order. The unpacked view of a pattern, for tests and test generation;
/// the pipeline keeps patterns in [`PatternRows`] and [`PatternBlock`]s.
pub type Pattern = Vec<bool>;

/// The largest input count [`exhaustive_patterns`] will materialise.
pub const EXHAUSTIVE_MATERIALIZE_LIMIT: usize = 24;

/// All `2^n` input patterns of an `n`-input network, in minterm order.
///
/// This materialises `2^n` `Vec<bool>`s and is meant for small `n` only;
/// bulk consumers (redundancy removal, verification) should stream
/// [`exhaustive_blocks`] instead.
///
/// # Panics
///
/// Panics if `n > 24` (16 M patterns). Callers only ask for small
/// supports: wider networks stream [`exhaustive_blocks`], whose peak
/// memory is one 64-lane block regardless of `n`.
pub fn exhaustive_patterns(n: usize) -> Vec<Pattern> {
    assert!(
        n <= EXHAUSTIVE_MATERIALIZE_LIMIT,
        "exhaustive pattern set too large for {n} inputs (max {EXHAUSTIVE_MATERIALIZE_LIMIT}); \
         use exhaustive_blocks for a streaming form"
    );
    (0..(1u64 << n))
        .map(|m| (0..n).map(|i| m & (1 << i) != 0).collect())
        .collect()
}

/// A word-packed block of up to 64 input patterns: `words[i]` holds the
/// values of primary input `i`, one pattern per bit lane.
///
/// This is the form the simulator consumes directly; building blocks
/// from [`PatternRows`], drawing them ([`random_blocks`]) or streaming
/// them ([`exhaustive_blocks`]) never materialises one `Vec<bool>` per
/// pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    /// One word per primary input; bit `k` is the value in lane `k`.
    pub words: Vec<u64>,
    /// Number of valid lanes (1..=64).
    pub lanes: u32,
}

impl PatternBlock {
    /// Mask with one bit set per valid lane.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes >= 64 {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }
}

/// Packs an explicit pattern list into 64-lane blocks.
///
/// # Panics
///
/// Panics if any pattern's length differs from `n`.
pub fn pack_patterns(n: usize, patterns: &[Pattern]) -> Vec<PatternBlock> {
    patterns
        .chunks(64)
        .map(|chunk| {
            let mut words = vec![0u64; n];
            for (k, p) in chunk.iter().enumerate() {
                assert_eq!(p.len(), n, "pattern arity mismatch");
                for (i, &b) in p.iter().enumerate() {
                    if b {
                        words[i] |= 1 << k;
                    }
                }
            }
            PatternBlock {
                words,
                lanes: chunk.len() as u32,
            }
        })
        .collect()
}

/// The patterns of packed blocks, one `Vec<bool>` each: the inverse of
/// [`pack_patterns`].
pub fn unpack_blocks(blocks: &[PatternBlock]) -> Vec<Pattern> {
    blocks
        .iter()
        .flat_map(|b| (0..b.lanes).map(move |k| b.words.iter().map(|w| w >> k & 1 != 0).collect()))
        .collect()
}

/// A pattern list stored row by row, one pattern per row of 64-bit
/// words: input `i` is bit `i % 64` of word `i / 64`, and the bits past
/// the last input are zero. Rows compare and sort as plain integers, so
/// building, deduplicating and merging pattern sets never materialises a
/// `Vec<bool>`; [`PatternRows::to_blocks`] transposes them into the
/// simulator's lane-per-pattern form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternRows {
    inputs: usize,
    stride: usize,
    words: Vec<u64>,
}

impl PatternRows {
    /// An empty list of `n`-input patterns.
    pub fn new(n: usize) -> Self {
        PatternRows {
            inputs: n,
            // an input-less pattern still takes one (zero) word, so the
            // row count stays `words.len() / stride`
            stride: n.div_ceil(64).max(1),
            words: Vec::new(),
        }
    }

    /// The rows of packed blocks, lane `k` of block `b` becoming row
    /// `64 b + k`.
    ///
    /// # Panics
    ///
    /// Panics if a block's word count differs from `n`.
    pub fn from_blocks(n: usize, blocks: &[PatternBlock]) -> Self {
        let mut rows = PatternRows::new(n);
        for b in blocks {
            assert_eq!(b.words.len(), n, "pattern arity mismatch");
            for k in 0..b.lanes {
                let row = rows.push_zero();
                for (i, w) in b.words.iter().enumerate() {
                    row[i / 64] |= (w >> k & 1) << (i % 64);
                }
            }
        }
        rows
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether the list holds no pattern.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Row `p`.
    pub fn row(&self, p: usize) -> &[u64] {
        &self.words[p * self.stride..(p + 1) * self.stride]
    }

    /// Every row, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.stride)
    }

    /// Appends an all-zero row and returns it for filling in.
    pub fn push_zero(&mut self) -> &mut [u64] {
        let at = self.words.len();
        self.words.resize(at + self.stride, 0);
        &mut self.words[at..]
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different input count.
    pub fn append(&mut self, other: &PatternRows) {
        assert_eq!(self.inputs, other.inputs, "pattern arity mismatch");
        self.words.extend_from_slice(&other.words);
    }

    /// Keeps the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        self.words.truncate(len * self.stride);
    }

    /// XORs `mask` (one row) into every row.
    pub fn xor_all(&mut self, mask: &[u64]) {
        for row in self.words.chunks_exact_mut(self.stride) {
            for (w, m) in row.iter_mut().zip(mask) {
                *w ^= m;
            }
        }
    }

    /// Sorts the rows and drops duplicates. Rows compare word 0 first,
    /// each word through `key`, numerically: the identity sorts like the
    /// rows' variable sets, `u64::reverse_bits` like their `Vec<bool>`
    /// patterns (input 0 first, `false` before `true`). `key` must be its
    /// own inverse, as both of those are: the words are keyed once before
    /// the sort and mapped back after it.
    pub fn sort_dedup(&mut self, key: fn(u64) -> u64) {
        for w in &mut self.words {
            *w = key(*w);
        }
        if self.stride == 1 {
            self.words.sort_unstable();
            self.words.dedup();
        } else {
            let mut rows: Vec<&[u64]> = self.rows().collect();
            rows.sort_unstable();
            rows.dedup();
            self.words = rows.concat();
        }
        for w in &mut self.words {
            *w = key(*w);
        }
    }

    /// The rows as 64-lane blocks for the simulator: row `64 b + k` is
    /// lane `k` of block `b`.
    pub fn to_blocks(&self) -> Vec<PatternBlock> {
        self.words
            .chunks(64 * self.stride)
            .map(|chunk| {
                let mut words = vec![0u64; self.inputs];
                for (k, row) in chunk.chunks_exact(self.stride).enumerate() {
                    for (j, &w) in row.iter().enumerate() {
                        let mut bits = w;
                        while bits != 0 {
                            words[64 * j + bits.trailing_zeros() as usize] |= 1 << k;
                            bits &= bits - 1;
                        }
                    }
                }
                PatternBlock {
                    words,
                    lanes: (chunk.len() / self.stride) as u32,
                }
            })
            .collect()
    }
}

// Periodic lane masks for inputs 0..6 within a full 64-lane block: bit `k`
// of LANE_BITS[i] is bit `i` of the lane index `k`.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Streams the full `2^n` exhaustive pattern space as word-packed
/// 64-lane blocks in minterm order, with peak memory bounded at one
/// block regardless of `n`.
///
/// # Panics
///
/// Panics if `n > 32` (the iteration itself would never finish).
pub fn exhaustive_blocks(n: usize) -> ExhaustiveBlocks {
    assert!(n <= 32, "exhaustive simulation infeasible for {n} inputs");
    ExhaustiveBlocks { n, next: 0 }
}

/// Iterator returned by [`exhaustive_blocks`].
#[derive(Debug, Clone)]
pub struct ExhaustiveBlocks {
    n: usize,
    next: u64,
}

impl Iterator for ExhaustiveBlocks {
    type Item = PatternBlock;

    fn next(&mut self) -> Option<PatternBlock> {
        let mut words = vec![0; self.n];
        let lanes = self.fill(&mut words)?;
        Some(PatternBlock { words, lanes })
    }
}

impl ExhaustiveBlocks {
    /// Writes the next block's input words into `words` (one per input)
    /// and returns its lane count, or `None` past the last block.
    fn fill(&mut self, words: &mut [u64]) -> Option<u32> {
        let total: u64 = 1u64 << self.n;
        if self.next >= total {
            return None;
        }
        let base = self.next;
        let lanes = 64u64.min(total - base) as u32;
        let mask = if lanes >= 64 { !0 } else { (1u64 << lanes) - 1 };
        // Minterm `base + k` sits in lane `k`: inputs below 6 cycle within
        // the block (fixed masks), inputs from 6 up are constant across it.
        for (i, w) in words.iter_mut().enumerate() {
            *w = if i < 6 {
                LANE_BITS[i] & mask
            } else if base >> i & 1 != 0 {
                mask
            } else {
                0
            };
        }
        self.next = base + 64;
        Some(lanes)
    }
}

/// `count` uniformly random patterns from a fixed seed (reproducible),
/// drawn straight into 64-lane blocks: one `gen::<bool>()` per input
/// value, pattern after pattern, input 0 first.
pub fn random_blocks(n: usize, count: usize, seed: u64) -> Vec<PatternBlock> {
    let mut draw = RandomDraw::new(count, seed);
    let mut blocks = Vec::with_capacity(count.div_ceil(64));
    let mut words = vec![0; n];
    while let Some(lanes) = draw.fill(&mut words) {
        blocks.push(PatternBlock {
            words: words.clone(),
            lanes,
        });
    }
    blocks
}

/// The stream of [`random_blocks`], drawn block by block into a caller's
/// buffer.
struct RandomDraw {
    rng: StdRng,
    left: usize,
}

impl RandomDraw {
    fn new(count: usize, seed: u64) -> Self {
        RandomDraw {
            rng: StdRng::seed_from_u64(seed),
            left: count,
        }
    }

    /// Draws the next block's input words into `words` (one per input)
    /// and returns its lane count, or `None` once `count` patterns are out.
    fn fill(&mut self, words: &mut [u64]) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        let lanes = self.left.min(64) as u32;
        self.left -= lanes as usize;
        words.fill(0);
        for k in 0..lanes {
            for w in words.iter_mut() {
                *w |= u64::from(self.rng.gen::<bool>()) << k;
            }
        }
        Some(lanes)
    }
}

/// The patterns of [`random_blocks`], one `Vec<bool>` each.
pub fn random_patterns(n: usize, count: usize, seed: u64) -> Vec<Pattern> {
    unpack_blocks(&random_blocks(n, count, seed))
}

/// A prepared bit-parallel simulator over a network.
///
/// Evaluates up to 64 patterns at once by packing one bit per pattern into
/// `u64` lanes.
#[derive(Debug)]
pub struct Simulator<'a> {
    net: &'a Network,
    order: Vec<SignalId>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator (computes the topological order once).
    pub fn new(net: &'a Network) -> Self {
        Simulator {
            net,
            order: net.topo_order(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Prepares a simulator whose evaluation order covers exactly the
    /// cone rooted at `root`, children before parents. Unlike [`new`],
    /// this works on a network still under construction that has no
    /// outputs yet — the use case is self-checking an emitted cone
    /// before it is registered as an output.
    ///
    /// [`new`]: Simulator::new
    pub fn for_cone(net: &'a Network, root: SignalId) -> Self {
        let mut seen = vec![false; net.num_nodes()];
        let mut order = Vec::new();
        let mut stack: Vec<(SignalId, usize)> = vec![(root, 0)];
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            if seen[id.index()] {
                stack.pop();
                continue;
            }
            let fanins = net.fanins(id);
            if *next < fanins.len() {
                let child = fanins[*next];
                *next += 1;
                if !seen[child.index()] {
                    stack.push((child, 0));
                }
            } else {
                seen[id.index()] = true;
                order.push(id);
                stack.pop();
            }
        }
        Simulator { net, order }
    }

    /// Simulates one 64-pattern block. `input_words[i]` holds the 64 values
    /// of primary input `i` (pattern `k` in bit `k`). Returns one word per
    /// network node (indexed by `SignalId::index`); unreachable nodes stay
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the input count.
    pub fn simulate_block(&self, input_words: &[u64]) -> Vec<u64> {
        xsynth_trace::fail_point!("sim.block");
        assert_eq!(
            input_words.len(),
            self.net.inputs().len(),
            "input arity mismatch"
        );
        let mut val = vec![0u64; self.net.num_nodes()];
        for (i, &id) in self.net.inputs().iter().enumerate() {
            val[id.index()] = input_words[i];
        }
        for &id in &self.order {
            if let NodeKind::Gate(k) = self.net.kind(id) {
                val[id.index()] = k.eval_words(self.net.fanins(id).iter().map(|f| val[f.index()]));
            }
        }
        val
    }

    /// Output values for one packed block: one word per primary output,
    /// with lanes outside the block's `lane_mask` forced to zero.
    pub fn output_words(&self, block: &PatternBlock) -> Vec<u64> {
        let val = self.simulate_block(&block.words);
        let mask = block.lane_mask();
        self.net
            .outputs()
            .iter()
            .map(|&(_, s)| val[s.index()] & mask)
            .collect()
    }

    /// Simulates an arbitrary pattern list, returning the output values for
    /// each pattern.
    pub fn outputs_for_patterns(&self, patterns: &[Pattern]) -> Vec<Vec<bool>> {
        let n = self.net.inputs().len();
        let mut results = Vec::with_capacity(patterns.len());
        for block in pack_patterns(n, patterns) {
            let val = self.simulate_block(&block.words);
            for k in 0..block.lanes as usize {
                results.push(
                    self.net
                        .outputs()
                        .iter()
                        .map(|&(_, s)| val[s.index()] & (1 << k) != 0)
                        .collect(),
                );
            }
        }
        results
    }

    /// Per-node one-counts over a stream of packed blocks: returns
    /// `(counts, total)` where `counts[node]` is how many patterns set that
    /// node to 1 and `total` is the number of patterns.
    ///
    /// # Panics
    ///
    /// Panics if a block's word count differs from the input count.
    pub fn node_one_counts<I>(&self, blocks: I) -> (Vec<u64>, u64)
    where
        I: IntoIterator<Item = PatternBlock>,
    {
        let mut blocks = blocks.into_iter();
        BlockSim::new(self.net, &self.order).one_counts(|words| {
            let block = blocks.next()?;
            assert_eq!(block.words.len(), words.len(), "input arity mismatch");
            words.copy_from_slice(&block.words);
            Some(block.lanes)
        })
    }
}

/// A network compiled for counting one-values block by block.
///
/// Every node of an evaluation order becomes a reference to a value slot,
/// `slot << 1 | complemented`: the inputs take slots `0..n`, in input
/// order, and every gate other than a buffer or an inverter takes the next
/// slot, so values are written and counted front to back in one reused
/// buffer. A buffer or an inverter takes no slot: it is its fanin's
/// reference, complemented for an inverter, and its one-count is derived
/// from its fanin's at the end (`patterns - ones` through an inverter).
struct BlockSim {
    inputs: usize,
    /// Each slotted gate's function (`And`, `Or` or `Xor` of its fanins,
    /// complemented when the flag is set) and the end of its fanins in
    /// `fanins`; they start where the previous gate's end.
    gates: Vec<(Fold, bool, u32)>,
    /// Fanin references of the slotted gates, gate after gate.
    fanins: Vec<u32>,
    /// Each node's reference, or `None` outside the order and the inputs.
    node_ref: Vec<Option<u32>>,
}

/// The fold a slotted gate applies over its fanin words.
#[derive(Debug, Clone, Copy)]
enum Fold {
    And,
    Or,
    Xor,
}

impl BlockSim {
    /// Compiles the primary inputs and the gates of `order`, which lists
    /// fanins before fanouts.
    fn new(net: &Network, order: &[SignalId]) -> Self {
        let inputs = net.inputs().len();
        let mut node_ref = vec![None; net.num_nodes()];
        for (i, s) in net.inputs().iter().enumerate() {
            node_ref[s.index()] = Some((i as u32) << 1);
        }
        let mut gates = Vec::with_capacity(order.len());
        let mut fanins = Vec::with_capacity(order.len() * 2);
        for &id in order {
            let NodeKind::Gate(kind) = *net.kind(id) else {
                continue;
            };
            let fanin = |k: usize| node_ref[net.fanins(id)[k].index()].expect("fanins precede");
            let (fold, complement) = match kind {
                GateKind::Buf | GateKind::Not => {
                    node_ref[id.index()] = Some(fanin(0) ^ u32::from(kind == GateKind::Not));
                    continue;
                }
                GateKind::Const0 | GateKind::Or => (Fold::Or, false),
                GateKind::Const1 | GateKind::Nor => (Fold::Or, true),
                GateKind::And => (Fold::And, false),
                GateKind::Nand => (Fold::And, true),
                GateKind::Xor => (Fold::Xor, false),
                GateKind::Xnor => (Fold::Xor, true),
            };
            fanins.extend((0..net.fanins(id).len()).map(fanin));
            node_ref[id.index()] = Some(((inputs + gates.len()) as u32) << 1);
            gates.push((fold, complement, fanins.len() as u32));
        }
        BlockSim {
            inputs,
            gates,
            fanins,
            node_ref,
        }
    }

    /// Simulates every block `fill` writes into the input words (returning
    /// its lane count, or `None` when done): per-node one-counts over the
    /// valid lanes, and the number of patterns.
    fn one_counts(&self, mut fill: impl FnMut(&mut [u64]) -> Option<u32>) -> (Vec<u64>, u64) {
        let mut val = vec![0u64; self.inputs + self.gates.len()];
        let mut ones = vec![0u64; val.len()];
        let mut total = 0u64;
        while let Some(lanes) = fill(&mut val[..self.inputs]) {
            xsynth_trace::fail_point!("sim.block");
            let mask = if lanes >= 64 { !0 } else { (1u64 << lanes) - 1 };
            let mut start = 0;
            for (g, &(fold, complement, end)) in self.gates.iter().enumerate() {
                let fan = &self.fanins[start as usize..end as usize];
                let word = |r: &u32| val[(r >> 1) as usize] ^ 0u64.wrapping_sub(u64::from(r & 1));
                let w = match fold {
                    Fold::And => fan.iter().fold(!0, |a, r| a & word(r)),
                    Fold::Or => fan.iter().fold(0, |a, r| a | word(r)),
                    Fold::Xor => fan.iter().fold(0, |a, r| a ^ word(r)),
                };
                val[self.inputs + g] = if complement { !w } else { w };
                start = end;
            }
            for (c, w) in ones.iter_mut().zip(&val) {
                *c += u64::from((w & mask).count_ones());
            }
            total += u64::from(lanes);
        }
        let counts = self
            .node_ref
            .iter()
            .map(|r| match r {
                None => 0,
                Some(r) if r & 1 == 0 => ones[(r >> 1) as usize],
                Some(r) => total - ones[(r >> 1) as usize],
            })
            .collect();
        (counts, total)
    }
}

/// Checks functional equivalence of two networks on an explicit pattern
/// list (both must have the same input/output counts). This is the
/// workhorse behind the `verify`-style checks in the benchmark harness;
/// for complete certainty on small circuits pass
/// [`exhaustive_patterns`].
pub fn equivalent_on(a: &Network, b: &Network, patterns: &[Pattern]) -> bool {
    equivalent_on_blocks(a, b, pack_patterns(a.inputs().len(), patterns))
}

/// Streaming form of [`equivalent_on`] over word-packed blocks: each block
/// is simulated and compared as it arrives, so a generator like
/// [`exhaustive_blocks`] keeps peak memory at one block.
pub fn equivalent_on_blocks<I>(a: &Network, b: &Network, blocks: I) -> bool
where
    I: IntoIterator<Item = PatternBlock>,
{
    let (sa, sb) = (Simulator::new(a), Simulator::new(b));
    blocks
        .into_iter()
        .all(|blk| sa.output_words(&blk) == sb.output_words(&blk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn adder2() -> Network {
        // 2-bit adder: inputs a0 a1 b0 b1, outputs s0 s1 c
        let mut n = Network::new("adder2");
        let a0 = n.add_input("a0");
        let a1 = n.add_input("a1");
        let b0 = n.add_input("b0");
        let b1 = n.add_input("b1");
        let s0 = n.add_gate(GateKind::Xor, vec![a0, b0]);
        let c0 = n.add_gate(GateKind::And, vec![a0, b0]);
        let s1 = n.add_gate(GateKind::Xor, vec![a1, b1, c0]);
        let ab = n.add_gate(GateKind::And, vec![a1, b1]);
        let ac = n.add_gate(GateKind::And, vec![a1, c0]);
        let bc = n.add_gate(GateKind::And, vec![b1, c0]);
        let c1 = n.add_gate(GateKind::Or, vec![ab, ac, bc]);
        n.add_output("s0", s0);
        n.add_output("s1", s1);
        n.add_output("c", c1);
        n
    }

    #[test]
    fn block_simulation_matches_scalar_eval() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let pats = exhaustive_patterns(4);
        let outs = sim.outputs_for_patterns(&pats);
        for (m, out) in outs.iter().enumerate() {
            assert_eq!(*out, n.eval_u64(m as u64), "pattern {m}");
        }
    }

    #[test]
    fn adder_adds() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let outs = sim.outputs_for_patterns(&exhaustive_patterns(4));
        for m in 0..16u64 {
            let a = m & 0b11;
            let b = (m >> 2) & 0b11;
            let s = a + b;
            let o = &outs[m as usize];
            let got = (o[0] as u64) | ((o[1] as u64) << 1) | ((o[2] as u64) << 2);
            assert_eq!(got, s, "{a}+{b}");
        }
    }

    #[test]
    fn one_counts_of_and2() {
        let mut n = Network::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("y", g);
        let sim = Simulator::new(&n);
        let (counts, total) = sim.node_one_counts(exhaustive_blocks(2));
        assert_eq!(total, 4);
        assert_eq!(counts[g.index()], 1);
        assert_eq!(counts[a.index()], 2);
    }

    #[test]
    fn cone_simulation_works_without_outputs() {
        // a net still under construction: gates exist, no outputs yet
        let mut n = Network::new("partial");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let root = n.add_gate(GateKind::Xor, vec![ab, c]);
        let stray = n.add_gate(GateKind::Or, vec![a, c]);
        let sim = Simulator::for_cone(&n, root);
        let pats = exhaustive_patterns(3);
        for block in pack_patterns(3, &pats) {
            let val = sim.simulate_block(&block.words);
            for (k, p) in pats.iter().enumerate().take(block.lanes as usize) {
                let want = (p[0] && p[1]) ^ p[2];
                assert_eq!(val[root.index()] & (1 << k) != 0, want, "pattern {k}");
            }
            // nodes outside the cone are untouched
            assert_eq!(val[stray.index()], 0);
        }
    }

    /// The per-block loop [`Simulator::node_one_counts`] replaced, kept as
    /// the oracle: one [`Simulator::simulate_block`] (a fresh value per
    /// node) per block, and every node's valid lanes counted.
    pub(crate) fn reference_one_counts(
        sim: &Simulator,
        blocks: impl IntoIterator<Item = PatternBlock>,
    ) -> (Vec<u64>, u64) {
        let mut counts = vec![0u64; sim.network().num_nodes()];
        let mut total = 0u64;
        for block in blocks {
            let mask = block.lane_mask();
            let val = sim.simulate_block(&block.words);
            for (c, w) in counts.iter_mut().zip(val.iter()) {
                *c += (w & mask).count_ones() as u64;
            }
            total += u64::from(block.lanes);
        }
        (counts, total)
    }

    const KINDS: [GateKind; 10] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Not,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xnor,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// A random network over every gate kind: pick `(k, a, b, c)` adds a
    /// gate of kind `k`; an n-ary gate reads `1 + c % 3` of the signals
    /// `a`, `b` and `a + b` before it. `outs` picks the outputs among the
    /// newest signals, so some gates may be unreachable.
    pub(crate) fn random_net(n_inputs: usize, picks: &[(u8, u8, u8, u8)], outs: &[u8]) -> Network {
        let mut net = Network::new("rand");
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        for &(k, a, b, c) in picks {
            let kind = KINDS[k as usize % KINDS.len()];
            let arity = kind.arity().unwrap_or(1 + c as usize % 3);
            if arity > 0 && sigs.is_empty() {
                continue;
            }
            let at = [a as usize, b as usize, a as usize + b as usize];
            let fanins = at[..arity].iter().map(|x| sigs[x % sigs.len()]).collect();
            sigs.push(net.add_gate(kind, fanins));
        }
        if sigs.is_empty() {
            sigs.push(net.add_gate(GateKind::Const0, vec![]));
        }
        for (i, &o) in outs.iter().enumerate() {
            let s = sigs[sigs.len() - 1 - o as usize % sigs.len()];
            net.add_output(format!("y{i}"), s);
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The compiled simulator counts exactly what the per-block loop
        /// counts, node by node, under exhaustive blocks (one partial block
        /// below six inputs) and under random blocks (a partial last block
        /// unless `count` is a multiple of 64), for the whole network and
        /// for one output's cone.
        #[test]
        fn compiled_one_counts_match_the_block_loop(
            n_inputs in 0usize..9,
            picks in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
            outs in proptest::collection::vec(any::<u8>(), 1..4),
            count in 0usize..300,
            seed in any::<u64>(),
        ) {
            let net = random_net(n_inputs, &picks, &outs);
            let whole = Simulator::new(&net);
            let cone = Simulator::for_cone(&net, net.outputs()[0].1);
            for sim in [&whole, &cone] {
                prop_assert_eq!(
                    sim.node_one_counts(exhaustive_blocks(n_inputs)),
                    reference_one_counts(sim, exhaustive_blocks(n_inputs))
                );
                let drawn = random_blocks(n_inputs, count, seed);
                prop_assert_eq!(
                    sim.node_one_counts(drawn.clone()),
                    reference_one_counts(sim, drawn)
                );
            }
        }
    }

    /// The first and last words of the power estimate's random stream, so
    /// that a cheaper draw cannot drift from it.
    #[test]
    fn random_blocks_stream_is_pinned() {
        let pins: [(usize, [u64; 3], [u64; 2]); 2] = [
            (
                3,
                [
                    0xd856_e9a4_1a9a_baa2,
                    0x1dfd_26ae_5e8c_0831,
                    0x0093_ff54_8ab9_b7e0,
                ],
                [0xe8de_e015_e3c0_dbf8, 0x126c_283d_3f5f_b883],
            ),
            (
                70,
                [
                    0xb85a_e498_5f40_0266,
                    0x1e93_1f64_08d2_c75f,
                    0x55ee_c9e2_fb6b_bbd8,
                ],
                [0x6dcd_1322_82f6_5313, 0x1c1a_81b9_2957_5a71],
            ),
        ];
        for (n, first, last) in pins {
            let blocks = random_blocks(n, 4096, 0x5eed);
            assert_eq!(blocks.len(), 64);
            assert_eq!(blocks[0].words[..3], first, "n={n} first block");
            assert_eq!(blocks[63].words[n - 2..], last, "n={n} last block");
        }
    }

    /// The pattern-at-a-time draw `random_blocks` replaced: one
    /// `gen::<bool>()` per input value, pattern after pattern.
    fn random_patterns_oracle(n: usize, count: usize, seed: u64) -> Vec<Pattern> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n).map(|_| rng.gen::<bool>()).collect())
            .collect()
    }

    #[test]
    fn random_blocks_match_the_packed_pattern_stream() {
        for n in [0usize, 1, 7, 64, 65, 130] {
            for count in [0usize, 1, 63, 64, 65, 200, 4096] {
                let oracle = random_patterns_oracle(n, count, 0x5eed);
                assert_eq!(
                    random_blocks(n, count, 0x5eed),
                    pack_patterns(n, &oracle),
                    "n={n} count={count}"
                );
                assert_eq!(random_patterns(n, count, 0x5eed), oracle);
            }
        }
    }

    #[test]
    fn pattern_rows_transpose_like_pack_patterns() {
        for n in [0usize, 3, 64, 65, 130] {
            let pats = random_patterns_oracle(n, 150, n as u64);
            let mut rows = PatternRows::new(n);
            for p in &pats {
                let row = rows.push_zero();
                for (i, &b) in p.iter().enumerate() {
                    row[i / 64] |= u64::from(b) << (i % 64);
                }
            }
            assert_eq!(rows.len(), 150);
            let blocks = rows.to_blocks();
            assert_eq!(blocks, pack_patterns(n, &pats), "n={n}");
            assert_eq!(unpack_blocks(&blocks), pats);
            assert_eq!(PatternRows::from_blocks(n, &blocks), rows);
        }
    }

    #[test]
    fn sorted_rows_follow_pattern_order_under_reverse_bits() {
        for n in [5usize, 64, 70, 140] {
            let mut pats = random_patterns_oracle(n, 300, 3);
            pats.extend(pats.clone().into_iter().take(40)); // duplicates
            let blocks = pack_patterns(n, &pats);
            let mut rows = PatternRows::from_blocks(n, &blocks);
            rows.sort_dedup(u64::reverse_bits);
            pats.sort();
            pats.dedup();
            assert_eq!(unpack_blocks(&rows.to_blocks()), pats, "n={n}");
        }
    }

    #[test]
    fn random_patterns_reproducible() {
        let p1 = random_patterns(8, 100, 42);
        let p2 = random_patterns(8, 100, 42);
        assert_eq!(p1, p2);
        let p3 = random_patterns(8, 100, 43);
        assert_ne!(p1, p3);
    }

    #[test]
    fn more_than_64_patterns() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let mut pats = exhaustive_patterns(4);
        // repeat to cross the 64-pattern block boundary
        let reps = pats.clone();
        for _ in 0..8 {
            pats.extend(reps.iter().cloned());
        }
        let outs = sim.outputs_for_patterns(&pats);
        for (i, p) in pats.iter().enumerate() {
            let m: u64 = p.iter().enumerate().map(|(b, &v)| (v as u64) << b).sum();
            assert_eq!(outs[i], n.eval_u64(m));
        }
    }

    #[test]
    fn exhaustive_blocks_match_materialised_patterns() {
        for n in [0usize, 1, 3, 5, 6, 7, 9] {
            let pats = exhaustive_patterns(n);
            let packed = pack_patterns(n, &pats);
            let streamed: Vec<PatternBlock> = exhaustive_blocks(n).collect();
            assert_eq!(packed, streamed, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "exhaustive pattern set too large for 25 inputs (max 24)")]
    fn exhaustive_patterns_rejects_large_n() {
        exhaustive_patterns(25);
    }

    #[test]
    fn streaming_equivalence_matches_pattern_equivalence() {
        let n1 = adder2();
        let n2 = adder2().sweep();
        assert!(equivalent_on_blocks(&n1, &n2, exhaustive_blocks(4)));
        let mut broken = adder2();
        let out = broken.outputs()[0].1;
        broken.replace_gate(out, GateKind::Xnor, broken.fanins(out).to_vec());
        assert!(!equivalent_on_blocks(&n1, &broken, exhaustive_blocks(4)));
    }

    #[test]
    fn output_words_agree_with_scalar_outputs() {
        let n = adder2();
        let sim = Simulator::new(&n);
        for block in exhaustive_blocks(4) {
            let words = sim.output_words(&block);
            assert_eq!(words.len(), n.outputs().len());
            for k in 0..block.lanes as u64 {
                let expect = n.eval_u64(k);
                for (o, w) in words.iter().enumerate() {
                    assert_eq!(w >> k & 1 != 0, expect[o]);
                }
            }
        }
    }

    #[test]
    fn equivalence_checking() {
        let n1 = adder2();
        let mut n2 = adder2().sweep();
        assert!(equivalent_on(&n1, &n2, &exhaustive_patterns(4)));
        // break it
        let out = n2.outputs()[0].1;
        if n2.gate_kind(out).is_some() {
            n2.replace_gate(out, GateKind::Xnor, n2.fanins(out).to_vec());
            assert!(!equivalent_on(&n1, &n2, &exhaustive_patterns(4)));
        }
    }
}
