//! Cache-hierarchy traffic model.
//!
//! Kernels record their *raw* loads per thread block in `TbWork::l2_read`
//! (every load not served by shared memory or registers). This module then
//! splits those raw touches across the hierarchy:
//!
//! * re-touches with a small reuse footprint hit the per-SM L1 and are
//!   dropped from the L2 pipe;
//! * the remainder flows through L2 (`l2_read`), and of that, compulsory
//!   first-touches plus an L2-capacity miss fraction reach DRAM
//!   (`dram_read`).
//!
//! This is what makes the paper's data-reuse story quantitative: the
//! coarse kernels stage operands in shared memory (few raw touches), the
//! fine kernels re-touch operands per element (many raw touches, filtered
//! by whatever locality the pattern has).

use mg_gpusim::{CacheStats, DeviceSpec, KernelProfile};

/// Locality hints a kernel provides about its loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHints {
    /// Total bytes of distinct input data the kernel touches.
    pub unique_bytes: u64,
    /// Approximate bytes touched between two touches of the same datum
    /// (the reuse distance): small for sliding-window patterns, the whole
    /// operand for scattered ones.
    pub reuse_footprint: u64,
}

/// Fraction of re-touches served by the per-SM L1 for a given reuse
/// footprint.
pub fn l1_hit_rate(spec: &DeviceSpec, reuse_footprint: u64) -> f64 {
    let l1 = spec.l1_per_sm as f64;
    let fp = reuse_footprint as f64;
    if fp <= 0.6 * l1 {
        0.95
    } else if fp <= 3.0 * l1 {
        0.6
    } else {
        // Even fully scattered row loads keep some line-granularity and
        // short-temporal reuse in L1.
        0.35
    }
}

/// L2 miss rate for re-reads of a working set of `unique_bytes`.
pub fn l2_miss_rate(spec: &DeviceSpec, unique_bytes: u64) -> f64 {
    if unique_bytes == 0 {
        return 1.0;
    }
    let ratio = spec.l2_bytes as f64 / unique_bytes as f64;
    (0.08 + 0.92 * (1.0 - ratio).max(0.0)).clamp(0.08, 1.0)
}

/// Applies the cache model: rescales every block's `l2_read` (raw touches
/// in, post-L1 traffic out) and sets its `dram_read` share.
///
/// Kernels must have stored raw touch bytes in `l2_read` and left
/// `dram_read` zero; per-block proportions are preserved so load-imbalance
/// effects survive the filtering.
pub fn apply_cache_model(spec: &DeviceSpec, profile: &mut KernelProfile, hints: CacheHints) {
    let raw = profile.sum_blocks(|t| t.l2_read);
    // Record the filter inputs so merged profiles can be re-filtered.
    let prior_write = profile.cache.map_or(0, |c| c.raw_write);
    profile.cache = Some(CacheStats {
        unique_bytes: hints.unique_bytes,
        reuse_footprint: hints.reuse_footprint,
        raw_l2: raw,
        raw_write: prior_write,
    });
    if raw == 0 {
        return;
    }
    let unique = hints.unique_bytes.min(raw);
    let retouches = (raw - unique) as f64;

    let l1_hit = l1_hit_rate(spec, hints.reuse_footprint);
    let l2_total = unique as f64 + retouches * (1.0 - l1_hit);
    let dram_total = unique as f64 + (l2_total - unique as f64) * l2_miss_rate(spec, unique);

    let l2_scale = l2_total / raw as f64;
    let dram_scale = dram_total / raw as f64;
    // Each block's rescale depends only on its own value, so scaling the
    // stored blocks once scales every dispatch of them.
    for tb in profile.stored_blocks_mut() {
        debug_assert_eq!(
            tb.dram_read, 0,
            "kernels must leave dram_read to the cache model"
        );
        let raw_tb = tb.l2_read as f64;
        tb.l2_read = (raw_tb * l2_scale).round() as u64;
        tb.dram_read = (raw_tb * dram_scale).round() as u64;
    }
}

/// Models L2 write-back caching for intermediate tensors: an output that
/// fits comfortably in L2 is consumed by the next kernel before most of
/// it is ever evicted to DRAM. Only the evicted fraction of `dram_write`
/// survives; the L2-bandwidth cost of the writes is unchanged (the engine
/// charges `dram_write` on the L2 pipe regardless).
pub fn apply_writeback_filter(spec: &DeviceSpec, profile: &mut KernelProfile) {
    let total_write = profile.sum_blocks(|t| t.dram_write);
    if let Some(cache) = &mut profile.cache {
        cache.raw_write = total_write;
    } else {
        profile.cache = Some(CacheStats {
            unique_bytes: 0,
            reuse_footprint: 0,
            raw_l2: 0,
            raw_write: total_write,
        });
    }
    if total_write == 0 {
        return;
    }
    let l2_half = spec.l2_bytes as f64 * 0.5;
    let evicted = (total_write as f64 / l2_half).clamp(0.25, 1.0);
    for tb in profile.stored_blocks_mut() {
        tb.dram_write = (tb.dram_write as f64 * evicted).round() as u64;
    }
}

/// Re-applies the cache and write-back filters to a *merged* profile
/// (e.g. several per-head plans combined into one batched launch), using
/// the accumulated [`CacheStats`]. Capacity effects are nonlinear, so the
/// merged working set must be filtered as a whole — concatenating
/// individually filtered profiles underestimates DRAM traffic badly.
///
/// Profiles without stats (raw, or mixed raw/filtered merges) are left
/// untouched.
pub fn reapply_cache_model(spec: &DeviceSpec, profile: &mut KernelProfile) {
    let Some(stats) = profile.cache else {
        return;
    };
    // Restore raw loads proportionally, then re-filter with the merged
    // working set.
    let cur_l2 = profile.sum_blocks(|t| t.l2_read);
    if stats.raw_l2 > 0 && cur_l2 > 0 {
        let scale = stats.raw_l2 as f64 / cur_l2 as f64;
        for tb in profile.stored_blocks_mut() {
            tb.l2_read = (tb.l2_read as f64 * scale).round() as u64;
            tb.dram_read = 0;
        }
        apply_cache_model(
            spec,
            profile,
            CacheHints {
                unique_bytes: stats.unique_bytes,
                reuse_footprint: stats.reuse_footprint,
            },
        );
    }
    let cur_w = profile.sum_blocks(|t| t.dram_write);
    if stats.raw_write > 0 && cur_w > 0 {
        let scale = stats.raw_write as f64 / cur_w as f64;
        for tb in profile.stored_blocks_mut() {
            tb.dram_write = (tb.dram_write as f64 * scale).round() as u64;
        }
        apply_writeback_filter(spec, profile);
    }
    // apply_* reset the stats from the restored raws; keep the merged
    // hints for any further merging.
    if let Some(cache) = &mut profile.cache {
        cache.unique_bytes = stats.unique_bytes;
        cache.reuse_footprint = stats.reuse_footprint;
        cache.raw_write = stats.raw_write;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_gpusim::{LaunchConfig, TbWork};

    fn profile(raw_per_tb: u64, n: usize) -> KernelProfile {
        KernelProfile::uniform(
            "k",
            LaunchConfig::default(),
            n,
            TbWork {
                l2_read: raw_per_tb,
                ..TbWork::default()
            },
        )
    }

    #[test]
    fn sliding_window_retouches_stay_in_l1() {
        let spec = DeviceSpec::a100();
        let mut p = profile(1 << 20, 100); // 100 MiB raw
        apply_cache_model(
            &spec,
            &mut p,
            CacheHints {
                unique_bytes: 1 << 20,
                reuse_footprint: 64 * 1024,
            },
        );
        let l2: u64 = p.sum_blocks(|t| t.l2_read);
        // 1 MiB unique + 5% of 99 MiB re-touches.
        assert!(l2 < 8 << 20, "l2 traffic filtered by L1: {l2}");
    }

    #[test]
    fn scattered_retouches_flow_through_l2() {
        let spec = DeviceSpec::a100();
        let mut p = profile(1 << 20, 100);
        apply_cache_model(
            &spec,
            &mut p,
            CacheHints {
                unique_bytes: 1 << 20,
                reuse_footprint: 8 << 20,
            },
        );
        let l2: u64 = p.sum_blocks(|t| t.l2_read);
        // 1 MiB unique + 65% of the 99 MiB re-touches (L1 floor is 35%).
        assert!(l2 > 50 << 20, "scattered touches hit L2: {l2}");
        // But the working set fits L2, so DRAM stays near-compulsory.
        let dram: u64 = p.sum_blocks(|t| t.dram_read);
        assert!(dram < 10 << 20, "dram filtered by L2: {dram}");
    }

    #[test]
    fn giant_working_set_reaches_dram() {
        let spec = DeviceSpec::a100();
        let mut p = profile(1 << 30, 100); // 100 GiB raw
        apply_cache_model(
            &spec,
            &mut p,
            CacheHints {
                unique_bytes: 80 << 30,
                reuse_footprint: 80 << 30,
            },
        );
        let dram: u64 = p.sum_blocks(|t| t.dram_read);
        assert!(dram > 90 << 30, "little cache help: {dram}");
    }

    #[test]
    fn per_tb_proportions_preserved() {
        let spec = DeviceSpec::a100();
        let tb = |l2_read| TbWork {
            l2_read,
            ..TbWork::default()
        };
        let mut p =
            KernelProfile::replicated("k", LaunchConfig::default(), vec![tb(1000), tb(3000)], 1);
        apply_cache_model(
            &spec,
            &mut p,
            CacheHints {
                unique_bytes: 2000,
                reuse_footprint: 1 << 30,
            },
        );
        let tbs: Vec<&TbWork> = p.blocks().collect();
        assert!(tbs[1].l2_read >= 2 * tbs[0].l2_read);
        assert!(tbs[1].dram_read >= 2 * tbs[0].dram_read);
    }

    #[test]
    fn writeback_filter_keeps_small_outputs_in_l2() {
        let spec = DeviceSpec::a100();
        let mut p = KernelProfile::uniform(
            "k",
            LaunchConfig::default(),
            10,
            TbWork {
                dram_write: 100_000,
                ..TbWork::default()
            },
        );
        apply_writeback_filter(&spec, &mut p); // 1 MB << 20 MB half-L2
        let w: u64 = p.sum_blocks(|t| t.dram_write);
        assert_eq!(w, 250_000, "25% eviction floor");
    }

    #[test]
    fn writeback_filter_passes_large_outputs_through() {
        let spec = DeviceSpec::a100();
        let mut p = KernelProfile::uniform(
            "k",
            LaunchConfig::default(),
            10,
            TbWork {
                dram_write: 1 << 30,
                ..TbWork::default()
            },
        );
        apply_writeback_filter(&spec, &mut p); // 10 GiB >> L2
        let w: u64 = p.sum_blocks(|t| t.dram_write);
        assert_eq!(w, 10 << 30);
    }

    #[test]
    fn reapply_restores_capacity_effects_after_merging() {
        let spec = DeviceSpec::a100();
        // One instance: working set fits L2, DRAM stays near-compulsory.
        let mut one = profile(1 << 22, 64); // 256 MiB raw
        apply_cache_model(
            &spec,
            &mut one,
            CacheHints {
                unique_bytes: 8 << 20,
                reuse_footprint: 8 << 20,
            },
        );
        // Sixteen instances in one profile (ground truth).
        let mut sixteen = profile(1 << 22, 64 * 16);
        apply_cache_model(
            &spec,
            &mut sixteen,
            CacheHints {
                unique_bytes: 128 << 20,
                reuse_footprint: 8 << 20,
            },
        );
        // Sixteen per-instance profiles merged, then re-filtered.
        let mut merged = one.clone();
        for _ in 0..15 {
            merged.extend_with(&one);
        }
        let naive: u64 = merged.sum_blocks(|t| t.dram_read);
        reapply_cache_model(&spec, &mut merged);
        let refiltered: u64 = merged.sum_blocks(|t| t.dram_read);
        let truth: u64 = sixteen.sum_blocks(|t| t.dram_read);
        assert!(
            naive < truth / 2,
            "naive merge undercounts: {naive} vs {truth}"
        );
        let err = (refiltered as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.05, "re-filtered {refiltered} vs truth {truth}");
    }

    #[test]
    fn zero_raw_is_noop() {
        let spec = DeviceSpec::a100();
        let mut p = profile(0, 4);
        apply_cache_model(
            &spec,
            &mut p,
            CacheHints {
                unique_bytes: 100,
                reuse_footprint: 10,
            },
        );
        assert_eq!(p.total_dram_bytes(), 0);
    }
}
