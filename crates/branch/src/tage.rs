//! A TAGE conditional-branch predictor (Seznec, MICRO 2011).
//!
//! The paper's simulated core uses TAGE-SC-L; we implement the TAGE core
//! (base bimodal + tagged components with geometric history lengths,
//! usefulness counters and periodic aging). The statistical corrector and
//! loop predictor are omitted — they shave a little conditional MPKI but do
//! not change memory-dependence behaviour (see DESIGN.md substitutions).

use crate::direction::DirectionPredictor;
use phast_isa::Pc;

/// Configuration of a [`Tage`] predictor.
#[derive(Clone, Debug)]
pub struct TageConfig {
    /// log2 of the base bimodal table size.
    pub base_log2: u32,
    /// log2 of each tagged table size.
    pub tagged_log2: u32,
    /// Tag width in bits for the tagged tables.
    pub tag_bits: u32,
    /// Geometric history lengths, shortest first (≤ 128 each).
    pub history_lengths: Vec<u32>,
    /// Reset the usefulness counters after this many updates.
    pub reset_period: u64,
}

impl Default for TageConfig {
    fn default() -> TageConfig {
        TageConfig {
            base_log2: 12,
            tagged_log2: 10,
            tag_bits: 10,
            history_lengths: vec![2, 4, 8, 16, 32, 64, 96, 128],
            reset_period: 512 * 1024,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: u8, // 3-bit saturating, 4 = weakly taken threshold
    useful: u8,
}

/// Most tagged components a [`Tage`] or [`Ittage`](crate::Ittage) may
/// have: per-access keys live in fixed stack arrays of this size.
pub(crate) const MAX_COMPONENTS: usize = 16;

/// Asserts that `lengths` is a non-empty, shortest-first list of at most
/// [`MAX_COMPONENTS`] histories of at most `max_len` bits each — the
/// nesting the single-pass folds rely on.
pub(crate) fn check_lengths(lengths: &[u32], max_len: u32) {
    assert!(!lengths.is_empty(), "need at least one tagged component");
    assert!(lengths.len() <= MAX_COMPONENTS, "at most {MAX_COMPONENTS} tagged components");
    assert!(lengths.iter().all(|&h| h <= max_len), "histories must fit {max_len} bits");
    assert!(lengths.windows(2).all(|w| w[0] <= w[1]), "history lengths must be shortest first");
}

/// Folds the low `lengths[t]` bits of `ghr` into `bits` bits for every
/// component `t`, in one pass over the history: `step(acc, chunk)` mixes
/// each `bits`-bit chunk in, youngest first, and a component whose length
/// is not a multiple of `bits` finishes with its partial last chunk.
///
/// The fold is chunk-sequential, so the accumulator after the full chunks
/// consumed so far is shared by every longer component. `lengths` must be
/// sorted shortest first (see [`check_lengths`]).
pub(crate) fn fold_nested(
    ghr: u128,
    lengths: &[u32],
    bits: u32,
    step: impl Fn(u64, u64) -> u64,
) -> [u64; MAX_COMPONENTS] {
    let mask = (1u128 << bits) - 1;
    let mut out = [0u64; MAX_COMPONENTS];
    let mut acc = 0u64;
    let mut consumed = 0;
    let mut h = ghr;
    for (o, &len) in out.iter_mut().zip(lengths) {
        while consumed + bits <= len {
            acc = step(acc, (h & mask) as u64);
            h >>= bits;
            consumed += bits;
        }
        let rest = len - consumed;
        *o = if rest == 0 { acc } else { step(acc, (h as u64) & ((1u64 << rest) - 1)) };
    }
    out
}

/// TAGE's fold step: plain XOR, so a fold is the XOR of its chunks.
fn xor_step(acc: u64, chunk: u64) -> u64 {
    acc ^ chunk
}

/// Every component's table index and tag for one (pc, history) access.
pub(crate) struct Keys {
    pub(crate) idx: [usize; MAX_COMPONENTS],
    pub(crate) tag: [u16; MAX_COMPONENTS],
}

/// TAGE predictor with a bimodal base and geometric tagged components.
#[derive(Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    updates: u64,
    lfsr: u32,
}

struct Lookup {
    provider: Option<usize>, // table
    pred: bool,
    alt_pred: bool,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the length list is empty, longer than 16, not sorted
    /// shortest first, or has a length over 128, or if `tag_bits < 2`.
    pub fn new(cfg: TageConfig) -> Tage {
        check_lengths(&cfg.history_lengths, 128);
        assert!(cfg.tag_bits >= 2, "tags fold the history at tag_bits - 1 bits too");
        let tables =
            vec![vec![TaggedEntry::default(); 1 << cfg.tagged_log2]; cfg.history_lengths.len()];
        Tage { base: vec![1; 1 << cfg.base_log2], tables, cfg, updates: 0, lfsr: 0xace1 }
    }

    /// Every component's (index, tag), folding the history once per
    /// distinct fold width.
    fn keys(&self, pc: Pc, ghr: u128) -> Keys {
        let lengths = &self.cfg.history_lengths;
        let (ib, tb) = (self.cfg.tagged_log2, self.cfg.tag_bits);
        let fold = |bits| fold_nested(ghr, lengths, bits, xor_step);
        let hi = fold(ib);
        let ht = if tb == ib { hi } else { fold(tb) };
        let ht2 = if tb - 1 == ib { hi } else { fold(tb - 1) };
        let mut k = Keys { idx: [0; MAX_COMPONENTS], tag: [0; MAX_COMPONENTS] };
        for t in 0..lengths.len() {
            let pch = (pc >> 2) ^ (pc >> (2 + ib as u64)) ^ (t as u64);
            k.idx[t] = ((pch ^ hi[t]) & ((1 << ib) - 1)) as usize;
            k.tag[t] = (((pc >> 2) ^ ht[t] ^ (ht2[t] << 1)) & ((1 << tb) - 1)) as u16;
        }
        k
    }

    fn base_index(&self, pc: Pc) -> usize {
        ((pc >> 2) & ((1 << self.cfg.base_log2) - 1)) as usize
    }

    fn lookup(&self, pc: Pc, k: &Keys) -> Lookup {
        let mut provider = None;
        let mut alt = None;
        for t in (0..self.tables.len()).rev() {
            if self.tables[t][k.idx[t]].tag == k.tag[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        let base_pred = self.base[self.base_index(pc)] >= 2;
        let alt_pred = match alt {
            Some(t) => self.tables[t][k.idx[t]].ctr >= 4,
            None => base_pred,
        };
        let pred = match provider {
            Some(t) => self.tables[t][k.idx[t]].ctr >= 4,
            None => base_pred,
        };
        Lookup { provider, pred, alt_pred }
    }

    fn rand(&mut self) -> u32 {
        // 16-bit Galois LFSR for allocation randomization; deterministic.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }
}

impl DirectionPredictor for Tage {
    fn predict(&self, pc: Pc, ghr: u128) -> bool {
        self.lookup(pc, &self.keys(pc, ghr)).pred
    }

    fn update(&mut self, pc: Pc, ghr: u128, taken: bool) {
        let k = self.keys(pc, ghr);
        let l = self.lookup(pc, &k);
        let mispredicted = l.pred != taken;

        // Update provider (or base) counter.
        match l.provider {
            Some(t) => {
                let e = &mut self.tables[t][k.idx[t]];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                // Usefulness: provider correct where alternate was wrong.
                if l.pred != l.alt_pred {
                    if l.pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let i = self.base_index(pc);
                crate::direction::ctr_update(&mut self.base[i], taken, 3);
            }
        }

        // Allocate on misprediction in a longer-history component.
        if mispredicted {
            let start = l.provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            let r = self.rand();
            for t in start..self.tables.len() {
                let idx = k.idx[t];
                if self.tables[t][idx].useful == 0 {
                    // Skip a free slot with probability 1/2 to spread
                    // allocations across components, but never skip the
                    // last candidate.
                    let last = t + 1 == self.tables.len();
                    if last || r & (1 << t) == 0 {
                        self.tables[t][idx] =
                            TaggedEntry { tag: k.tag[t], ctr: if taken { 4 } else { 3 }, useful: 0 };
                        allocated = true;
                        break;
                    }
                }
            }
            if !allocated {
                // Decay usefulness along the would-be allocation path.
                for t in start..self.tables.len() {
                    let e = &mut self.tables[t][k.idx[t]];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        self.updates += 1;
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
    }

    fn storage_bits(&self) -> usize {
        let tagged_entry_bits = self.cfg.tag_bits as usize + 3 + 2;
        self.base.len() * 2 + self.tables.len() * (1 << self.cfg.tagged_log2) * tagged_entry_bits
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

#[cfg(test)]
impl Tage {
    /// Reference fold: one component's history folded chunk by chunk.
    fn fold_hist(ghr: u128, len: u32, bits: u32) -> u64 {
        let mut acc = 0u64;
        let mask = (1u64 << bits) - 1;
        let mut remaining = len;
        let mut h = ghr;
        while remaining > 0 {
            let take = remaining.min(bits);
            acc ^= (h as u64) & ((1u64 << take) - 1);
            acc &= mask;
            h >>= take;
            remaining -= take;
        }
        acc
    }

    /// Reference (index, tag) of component `t`, folded on its own.
    fn reference_key(&self, t: usize, pc: Pc, ghr: u128) -> (usize, u16) {
        let len = self.cfg.history_lengths[t];
        let ib = self.cfg.tagged_log2;
        let h = Self::fold_hist(ghr, len, ib);
        let pch = (pc >> 2) ^ (pc >> (2 + ib as u64)) ^ (t as u64);
        let idx = ((pch ^ h) & ((1 << ib) - 1)) as usize;
        let tb = self.cfg.tag_bits;
        let h = Self::fold_hist(ghr, len, tb);
        let h2 = Self::fold_hist(ghr, len, tb - 1) << 1;
        (idx, (((pc >> 2) ^ h ^ h2) & ((1 << tb) - 1)) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The single-pass nested fold equals the per-component reference
        /// fold at every configured length, for every width up to 16.
        #[test]
        fn nested_fold_matches_reference(ghr in any::<u128>(), bits in 1u32..17) {
            let lengths = TageConfig::default().history_lengths;
            let out = fold_nested(ghr, &lengths, bits, xor_step);
            for (t, &len) in lengths.iter().enumerate() {
                prop_assert_eq!(out[t], Tage::fold_hist(ghr, len, bits), "len {} bits {}", len, bits);
            }
        }

        /// Every component's key equals the reference derivation, for the
        /// default geometry (index width = tag width) and for geometries
        /// whose index width matches the tag's second fold or neither.
        #[test]
        fn keys_match_reference(ghr in any::<u128>(), pc in any::<u64>(), geometry in 0usize..3) {
            let (tagged_log2, tag_bits) = [(10, 10), (9, 10), (9, 12)][geometry];
            let p = Tage::new(TageConfig { tagged_log2, tag_bits, ..TageConfig::default() });
            let k = p.keys(pc, ghr);
            for t in 0..p.tables.len() {
                prop_assert_eq!((k.idx[t], k.tag[t]), p.reference_key(t, pc, ghr), "component {}", t);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shortest first")]
    fn rejects_unsorted_lengths() {
        let _ = Tage::new(TageConfig { history_lengths: vec![8, 4], ..TageConfig::default() });
    }

    fn run_pattern(p: &mut Tage, pattern: impl Fn(u64, u128) -> bool, iters: u64) -> f64 {
        let mut ghr: u128 = 0;
        let mut correct = 0u64;
        let pc = 0x40_2000;
        for i in 0..iters {
            let taken = pattern(i, ghr);
            if p.predict(pc, ghr) == taken {
                correct += 1;
            }
            p.update(pc, ghr, taken);
            ghr = (ghr << 1) | u128::from(taken);
        }
        correct as f64 / iters as f64
    }

    #[test]
    fn learns_simple_bias() {
        let mut p = Tage::new(TageConfig::default());
        let acc = run_pattern(&mut p, |_, _| true, 2000);
        assert!(acc > 0.99, "bias accuracy {acc}");
    }

    #[test]
    fn learns_long_period_pattern() {
        // Period-24 pattern: needs more history than bimodal/gshare-8.
        let mut p = Tage::new(TageConfig::default());
        let acc = run_pattern(&mut p, |i, _| (i % 24) < 5, 30_000);
        assert!(acc > 0.95, "period-24 accuracy {acc}");
    }

    #[test]
    fn outperforms_bimodal_on_history_pattern() {
        use crate::direction::Bimodal;
        let pattern = |i: u64, _: u128| i.is_multiple_of(7) || i.is_multiple_of(5);
        let mut tage = Tage::new(TageConfig::default());
        let tage_acc = run_pattern(&mut tage, pattern, 20_000);

        let mut bim = Bimodal::new(4096);
        let mut ghr: u128 = 0;
        let mut correct = 0u64;
        for i in 0..20_000u64 {
            let taken = pattern(i, ghr);
            if bim.predict(0x40_2000, ghr) == taken {
                correct += 1;
            }
            bim.update(0x40_2000, ghr, taken);
            ghr = (ghr << 1) | u128::from(taken);
        }
        let bim_acc = correct as f64 / 20_000.0;
        assert!(tage_acc > bim_acc + 0.05, "tage {tage_acc} vs bimodal {bim_acc}");
    }

    #[test]
    fn storage_is_reported() {
        let p = Tage::new(TageConfig::default());
        // 4K*2 + 8*1K*(10+3+2) bits.
        assert_eq!(p.storage_bits(), 4096 * 2 + 8 * 1024 * 15);
    }

    #[test]
    fn fold_hist_is_stable_and_bounded() {
        let f = Tage::fold_hist(0xdead_beef_dead_beef, 64, 10);
        assert!(f < 1024);
        assert_eq!(f, Tage::fold_hist(0xdead_beef_dead_beef, 64, 10));
        assert_ne!(
            Tage::fold_hist(0b01, 2, 10),
            Tage::fold_hist(0b10, 2, 10),
            "order matters within the window"
        );
    }
}
