//! Kernel work descriptions — the interface between functional kernels
//! and the timing engine.
//!
//! A kernel is described by its launch resources (which bound occupancy)
//! and the work of every thread block, broken down by execution pipe. The
//! engine turns this into a duration without ever seeing the data the
//! functional kernel computed: timing depends only on structure.

/// Per-thread-block resource requirements, which determine how many blocks
/// an SM can host concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads in one thread block (multiple of 32 in practice).
    pub threads_per_tb: usize,
    /// 32-bit registers per thread.
    pub regs_per_thread: usize,
    /// Shared memory per thread block, bytes.
    pub smem_per_tb: usize,
}

impl LaunchConfig {
    /// Warps per thread block (threads rounded up to warp granularity).
    pub fn warps_per_tb(&self) -> usize {
        self.threads_per_tb.div_ceil(32).max(1)
    }
}

impl Default for LaunchConfig {
    fn default() -> LaunchConfig {
        LaunchConfig {
            threads_per_tb: 128,
            regs_per_thread: 64,
            smem_per_tb: 16 * 1024,
        }
    }
}

/// The work one thread block performs, by pipe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TbWork {
    /// Multiply-accumulates executed on the tensor-core pipe (each counts
    /// as 2 FLOPs).
    pub tensor_macs: u64,
    /// FLOPs executed on the CUDA-core pipe.
    pub cuda_flops: u64,
    /// Transcendental ops (exp) on the special function units.
    pub sfu_ops: u64,
    /// Bytes read through the L2 cache (every load that misses shared
    /// memory / registers; the data-reuse pipe).
    pub l2_read: u64,
    /// Bytes read from device memory (post-L2-filtering estimate).
    pub dram_read: u64,
    /// Bytes written to device memory.
    pub dram_write: u64,
    /// Exposed (un-hidden) latency cycles, e.g. per-iteration DRAM stalls
    /// in kernels without software pipelining (paper §3.2 motivates
    /// double buffering exactly to remove these).
    pub stall_cycles: u64,
}

impl TbWork {
    /// Total bytes moved to or from device memory.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read + self.dram_write
    }

    /// Every field multiplied by `k`: the work of `k` copies of a block.
    fn scaled(self, k: u64) -> TbWork {
        TbWork {
            tensor_macs: self.tensor_macs * k,
            cuda_flops: self.cuda_flops * k,
            sfu_ops: self.sfu_ops * k,
            l2_read: self.l2_read * k,
            dram_read: self.dram_read * k,
            dram_write: self.dram_write * k,
            stall_cycles: self.stall_cycles * k,
        }
    }

    /// Element-wise sum of two work descriptions.
    pub fn merged(self, other: TbWork) -> TbWork {
        TbWork {
            tensor_macs: self.tensor_macs + other.tensor_macs,
            cuda_flops: self.cuda_flops + other.cuda_flops,
            sfu_ops: self.sfu_ops + other.sfu_ops,
            l2_read: self.l2_read + other.l2_read,
            dram_read: self.dram_read + other.dram_read,
            dram_write: self.dram_write + other.dram_write,
            stall_cycles: self.stall_cycles + other.stall_cycles,
        }
    }
}

/// Inputs of the cache-hierarchy filter a profile was built with, kept so
/// merged profiles (batched launches combining several plans) can be
/// re-filtered: cache capacity effects are nonlinear, so per-plan
/// filtering does not compose by simple concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct input bytes the kernel touches.
    pub unique_bytes: u64,
    /// Approximate reuse distance in bytes.
    pub reuse_footprint: u64,
    /// Raw (pre-filter) load bytes across all blocks.
    pub raw_l2: u64,
    /// Raw (pre-filter) write bytes across all blocks.
    pub raw_write: u64,
}

impl CacheStats {
    /// Combines the stats of two merged profiles: unique data and raw
    /// traffic add; the reuse distance of the union is at least the
    /// larger of the two.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            unique_bytes: self.unique_bytes + other.unique_bytes,
            reuse_footprint: self.reuse_footprint.max(other.reuse_footprint),
            raw_l2: self.raw_l2 + other.raw_l2,
            raw_write: self.raw_write + other.raw_write,
        }
    }
}

/// A complete kernel work description: launch resources plus per-block
/// work.
///
/// The grid is stored as ordered runs: each run holds some thread blocks
/// and dispatches them `repeat` times back to back. A kernel replicated
/// over heads keeps one head's blocks once with `repeat = heads`, so
/// every pass over the grid (cache filtering, totals, the engine's list
/// schedule) prices each stored block once. [`KernelProfile::blocks`]
/// yields the expanded grid in dispatch order.
///
/// # Examples
///
/// ```
/// use mg_gpusim::{KernelProfile, LaunchConfig, TbWork};
///
/// let profile = KernelProfile::uniform(
///     "toy",
///     LaunchConfig::default(),
///     64,
///     TbWork { cuda_flops: 1_000_000, dram_read: 4096, ..TbWork::default() },
/// );
/// assert_eq!(profile.tb_count(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name, used in records and reports.
    pub name: String,
    /// Per-block resource requirements.
    pub launch: LaunchConfig,
    /// The stored blocks of every run, run after run.
    blocks: Vec<TbWork>,
    /// The runs over `blocks`, in dispatch order. Never holds an empty
    /// run.
    runs: Vec<Run>,
    /// Cache-filter inputs, set by the cache model so merged profiles can
    /// be re-filtered (see [`CacheStats`]). `None` for raw profiles.
    pub cache: Option<CacheStats>,
}

/// `len` consecutive stored blocks dispatched `repeat` times.
#[derive(Debug, Clone, Copy)]
struct Run {
    len: usize,
    repeat: usize,
}

/// Profiles are equal when they launch the same grid: the same blocks in
/// the same dispatch order, however the runs group them.
impl PartialEq for KernelProfile {
    fn eq(&self, other: &KernelProfile) -> bool {
        self.name == other.name
            && self.launch == other.launch
            && self.cache == other.cache
            && self.tb_count() == other.tb_count()
            && self.blocks().eq(other.blocks())
    }
}

impl KernelProfile {
    /// Creates a profile of `n` identical thread blocks.
    pub fn uniform(
        name: impl Into<String>,
        launch: LaunchConfig,
        n: usize,
        work: TbWork,
    ) -> KernelProfile {
        KernelProfile::replicated(name, launch, vec![work], n)
    }

    /// Creates a profile with an empty grid; [`KernelProfile::push_run`]
    /// adds blocks.
    pub fn new(name: impl Into<String>, launch: LaunchConfig) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            launch,
            blocks: Vec::new(),
            runs: Vec::new(),
            cache: None,
        }
    }

    /// Creates a profile that dispatches `blocks` `instances` times back
    /// to back — one kernel launch over `instances` identical per-head
    /// grids. `instances == 1` gives an explicit grid.
    pub fn replicated(
        name: impl Into<String>,
        launch: LaunchConfig,
        blocks: Vec<TbWork>,
        instances: usize,
    ) -> KernelProfile {
        let mut profile = KernelProfile::new(name, launch);
        if !blocks.is_empty() && instances > 0 {
            profile.runs.push(Run {
                len: blocks.len(),
                repeat: instances,
            });
            profile.blocks = blocks;
        }
        profile
    }

    /// Appends a run: `blocks` dispatched `repeat` times after the
    /// current grid.
    pub fn push_run(&mut self, blocks: &[TbWork], repeat: usize) {
        if blocks.is_empty() || repeat == 0 {
            return;
        }
        self.blocks.extend_from_slice(blocks);
        self.runs.push(Run {
            len: blocks.len(),
            repeat,
        });
    }

    /// The grid's runs as `(blocks, repeat)` pairs, in dispatch order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&[TbWork], usize)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |run| {
            let blocks = &self.blocks[start..start + run.len];
            start += run.len;
            (blocks, run.repeat)
        })
    }

    /// Every thread block of the grid in dispatch order (runs expanded).
    pub fn blocks(&self) -> impl Iterator<Item = &TbWork> + '_ {
        self.runs()
            .flat_map(|(blocks, repeat)| (0..repeat).flat_map(move |_| blocks.iter()))
    }

    /// The stored blocks, each once however often its run repeats it.
    /// A change to a stored block applies to every dispatch of it.
    pub fn stored_blocks_mut(&mut self) -> std::slice::IterMut<'_, TbWork> {
        self.blocks.iter_mut()
    }

    /// `f` summed over every dispatched block.
    pub fn sum_blocks(&self, f: impl Fn(&TbWork) -> u64) -> u64 {
        self.runs()
            .map(|(blocks, repeat)| blocks.iter().map(&f).sum::<u64>() * repeat as u64)
            .sum()
    }

    /// Number of thread blocks in the grid.
    pub fn tb_count(&self) -> usize {
        self.runs.iter().map(|run| run.len * run.repeat).sum()
    }

    /// Aggregate work across all blocks.
    pub fn total(&self) -> TbWork {
        self.runs()
            .map(|(blocks, repeat)| {
                blocks
                    .iter()
                    .fold(TbWork::default(), |acc, &w| acc.merged(w))
                    .scaled(repeat as u64)
            })
            .fold(TbWork::default(), TbWork::merged)
    }

    /// Total bytes moved to or from device memory.
    pub fn total_dram_bytes(&self) -> u64 {
        self.sum_blocks(TbWork::dram_bytes)
    }

    /// Appends another kernel's runs (used to batch per-head grids into
    /// one launch, as batched kernels do).
    pub fn extend_with(&mut self, other: &KernelProfile) {
        debug_assert_eq!(
            self.launch, other.launch,
            "batched grids share a launch config"
        );
        self.blocks.extend_from_slice(&other.blocks);
        self.runs.extend_from_slice(&other.runs);
        self.cache = match (self.cache, other.cache) {
            (Some(a), Some(b)) => Some(a.merged(b)),
            _ => None, // mixed raw/filtered profiles cannot be re-filtered
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warps_round_up() {
        let l = LaunchConfig {
            threads_per_tb: 33,
            regs_per_thread: 32,
            smem_per_tb: 0,
        };
        assert_eq!(l.warps_per_tb(), 2);
        let l1 = LaunchConfig {
            threads_per_tb: 1,
            ..l
        };
        assert_eq!(l1.warps_per_tb(), 1);
    }

    #[test]
    fn totals_sum_over_blocks() {
        let w = TbWork {
            tensor_macs: 10,
            cuda_flops: 5,
            sfu_ops: 1,
            l2_read: 0,
            dram_read: 100,
            dram_write: 50,
            stall_cycles: 0,
        };
        let p = KernelProfile::uniform("k", LaunchConfig::default(), 4, w);
        let t = p.total();
        assert_eq!(t.tensor_macs, 40);
        assert_eq!(t.dram_read, 400);
        assert_eq!(p.total_dram_bytes(), 600);
    }

    #[test]
    fn merged_adds_fields() {
        let a = TbWork {
            tensor_macs: 1,
            cuda_flops: 2,
            sfu_ops: 3,
            l2_read: 0,
            dram_read: 4,
            dram_write: 5,
            stall_cycles: 6,
        };
        let b = a.merged(a);
        assert_eq!(b.tensor_macs, 2);
        assert_eq!(b.dram_write, 10);
        assert_eq!(b.stall_cycles, 12);
    }

    #[test]
    fn extend_with_concatenates_grids() {
        let w = TbWork::default();
        let mut a = KernelProfile::uniform("a", LaunchConfig::default(), 2, w);
        let b = KernelProfile::uniform("b", LaunchConfig::default(), 3, w);
        a.extend_with(&b);
        assert_eq!(a.tb_count(), 5);
    }
}
