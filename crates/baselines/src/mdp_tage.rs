//! MDP-TAGE (Perais & Seznec, PACT 2018), evaluated standalone with a
//! 7-bit store-distance field as in the paper's §II-C.

use phast_branch::{DivergentHistory, PathFolder};
use phast_isa::Pc;
use phast_mdp::{
    pc_index_hash, pc_tag_hash, AccessStats, AssocTable, DepPrediction, LoadCommit, LoadQuery,
    MemDepPredictor, PredictionOutcome, TableGeometry, Violation, MAX_STORE_DISTANCE,
};

/// Geometry of one MDP-TAGE component.
#[derive(Clone, Copy, Debug)]
pub struct Component {
    /// Sets (power of two).
    pub sets: usize,
    /// Ways per set (1 = direct-mapped, as the original TAGE).
    pub ways: usize,
    /// Partial tag bits.
    pub tag_bits: u32,
    /// History length of this component (divergent branches).
    pub history_len: u32,
}

/// Configuration of [`MdpTage`].
#[derive(Clone, Debug)]
pub struct MdpTageConfig {
    /// Components, shortest history first.
    pub components: Vec<Component>,
    /// Whether entries carry an LRU field (set-associative variants).
    pub lru_bits: usize,
    /// Reset all `u` bits after this many predictor accesses (§II-C: MDP
    /// needs a higher reset frequency than branch TAGE).
    pub u_reset_period: u64,
    /// On a detected false dependence, reset the providing entry with
    /// probability `1/false_dep_reset_denom` (§II-C: 1/256).
    pub false_dep_reset_denom: u32,
}

impl MdpTageConfig {
    /// The paper's 38.625 KB configuration (Table II): 12 components on
    /// the (6, 2000) geometric series, 16K entries total, 7–15 bit tags.
    pub fn paper() -> MdpTageConfig {
        // Geometric lengths 6 .. 2000 over 12 components.
        let lengths = [6u32, 10, 17, 29, 50, 84, 143, 242, 411, 697, 1181, 2000];
        let geom: Vec<Component> = lengths
            .iter()
            .enumerate()
            .map(|(i, &history_len)| {
                let (sets, tag_bits) = if i < 4 {
                    (2048, 7 + i as u32) // 7, 8, 9, 10
                } else {
                    (1024, [13, 13, 14, 14, 14, 15, 15, 15][i - 4])
                };
                Component { sets, ways: 1, tag_bits, history_len }
            })
            .collect();
        MdpTageConfig {
            components: geom,
            lru_bits: 0,
            u_reset_period: 512 * 1024,
            false_dep_reset_denom: 256,
        }
    }

    /// MDP-TAGE-S (Table II): the same training algorithm on PHAST's table
    /// layout — 8 four-way tables of 128 sets at history lengths
    /// (0, 2, 4, 6, 8, 12, 16, 32), 16-bit tags; 13 KB.
    pub fn short() -> MdpTageConfig {
        let lengths = [0u32, 2, 4, 6, 8, 12, 16, 32];
        MdpTageConfig {
            components: lengths
                .iter()
                .map(|&history_len| Component { sets: 128, ways: 4, tag_bits: 16, history_len })
                .collect(),
            lru_bits: 2,
            u_reset_period: 512 * 1024,
            false_dep_reset_denom: 256,
        }
    }

    /// The paper configuration with every component's set count scaled by
    /// `num/den` (Fig. 13 sweep). Set counts stay powers of two.
    pub fn paper_scaled(num: usize, den: usize) -> MdpTageConfig {
        let mut cfg = MdpTageConfig::paper();
        for c in &mut cfg.components {
            let sets = (c.sets * num / den).next_power_of_two();
            c.sets = sets.max(64);
        }
        cfg
    }

    /// Total storage in bits: per entry tag + 7-bit distance + u bit
    /// (+ LRU for the associative variant).
    pub fn storage_bits(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.sets * c.ways * (c.tag_bits as usize + 7 + 1 + self.lru_bits))
            .sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    distance: u8,
    useful: bool,
}

/// Most components an [`MdpTage`] may have: keys are derived into a
/// fixed stack array, so a lookup allocates nothing.
const MAX_COMPONENTS: usize = 16;

/// Every component's `(index, tag)`, shortest history first; only the
/// first `n` passed to [`MdpTage::keys_upto`] are meaningful.
type Keys = [(u64, u64); MAX_COMPONENTS];

/// The MDP-TAGE predictor.
///
/// Prediction: the longest-history component with a tag match and a set
/// `u` bit provides the store distance. Training: with no prior provider,
/// allocate at the shortest history; after a misprediction, allocate at
/// the next longer history — the brute-force length search PHAST replaces
/// with the exact N+1 rule.
pub struct MdpTage {
    cfg: MdpTageConfig,
    /// Cached display name (`name()` must not allocate per call).
    name: String,
    tables: Vec<AssocTable<Entry>>,
    /// One past the longest component that has ever received an entry.
    /// Nothing is ever removed from the tables, so every component from
    /// `live` on is empty and cannot provide.
    live: usize,
    accesses: u64,
    lfsr: u32,
    stats: AccessStats,
}

impl MdpTage {
    /// Creates an MDP-TAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if the components are not ordered shortest history first,
    /// or if there are more than 16 of them.
    pub fn new(cfg: MdpTageConfig) -> MdpTage {
        // `keys_upto` folds every component from one incremental history
        // walk, which requires the documented shortest-first ordering.
        assert!(
            cfg.components.windows(2).all(|w| w[0].history_len <= w[1].history_len),
            "components must be ordered shortest history first"
        );
        assert!(
            cfg.components.len() <= MAX_COMPONENTS,
            "at most {MAX_COMPONENTS} components are supported"
        );
        let tables = cfg
            .components
            .iter()
            .map(|c| {
                AssocTable::new(TableGeometry { sets: c.sets, ways: c.ways, tag_bits: c.tag_bits })
            })
            .collect();
        let style = if cfg.lru_bits > 0 { "mdp-tage-s" } else { "mdp-tage" };
        let name = format!("{style}-{:.1}KB", cfg.storage_bits() as f64 / 8192.0);
        MdpTage {
            tables,
            cfg,
            name,
            live: 0,
            accesses: 0,
            lfsr: 0xbeef,
            stats: AccessStats::default(),
        }
    }

    /// The `(index, tag)` of components `0..n` from one incremental walk
    /// of the history (see [`PathFolder`]): each component's path is a
    /// prefix of the next, so the walk stops at component `n - 1`'s
    /// length instead of re-reading the shared prefix per component.
    fn keys_upto(&self, n: usize, pc: Pc, history: &DivergentHistory) -> Keys {
        let mut keys = [(0, 0); MAX_COMPONENTS];
        let mut folder = PathFolder::new(history);
        for (ci, c) in self.cfg.components[..n].iter().enumerate() {
            let index_bits = c.sets.trailing_zeros();
            let folded = folder.fold_plain(c.history_len as usize, index_bits + c.tag_bits);
            let index = pc_index_hash(pc) ^ (folded & ((1 << index_bits) - 1));
            let tag = pc_tag_hash(pc) ^ (folded >> index_bits);
            keys[ci] = (index, tag);
        }
        keys
    }

    fn tick(&mut self) {
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.cfg.u_reset_period) {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.useful = false;
                }
            }
        }
    }

    fn rand(&mut self) -> u32 {
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    fn provider(&mut self, pc: Pc, history: &DivergentHistory) -> Option<(usize, u8)> {
        // Every component is probed (and counted as a read), but only
        // those below `live` can hold an entry, so the history is folded
        // only that far. Store→load paths are short, so `live` rarely
        // passes the first few components and a load folds a few dozen
        // events, not the longest component's 2,000 (per-load hot path).
        self.stats.reads += self.tables.len() as u64;
        let keys = self.keys_upto(self.live, pc, history);
        let mut found = None;
        for (ci, &(index, tag)) in keys[..self.live].iter().enumerate() {
            if let Some(e) = self.tables[ci].peek(index, tag) {
                if e.useful {
                    found = Some((ci, e.distance));
                }
            }
        }
        found
    }

    fn allocate(&mut self, ci: usize, (index, tag): (u64, u64), distance: u32) {
        self.stats.writes += 1;
        self.tables[ci].insert(
            index,
            tag,
            Entry { distance: distance.min(MAX_STORE_DISTANCE) as u8, useful: true },
        );
        self.live = self.live.max(ci + 1);
    }

    /// Reference key derivation: one full fold per component.
    #[cfg(test)]
    fn keys(&self, ci: usize, pc: Pc, history: &DivergentHistory) -> (u64, u64) {
        let c = &self.cfg.components[ci];
        let index_bits = c.sets.trailing_zeros();
        let folded = history.fold_plain(c.history_len as usize, index_bits + c.tag_bits);
        let index = pc_index_hash(pc) ^ (folded & ((1 << index_bits) - 1));
        let tag = pc_tag_hash(pc) ^ (folded >> index_bits);
        (index, tag)
    }

    /// Reference provider: probes every component, folding the whole
    /// longest history whatever `live` says.
    #[cfg(test)]
    fn provider_full(&mut self, pc: Pc, history: &DivergentHistory) -> Option<(usize, u8)> {
        let mut found = None;
        for ci in 0..self.tables.len() {
            self.stats.reads += 1;
            let (index, tag) = self.keys(ci, pc, history);
            if let Some(e) = self.tables[ci].peek(index, tag) {
                if e.useful {
                    found = Some((ci, e.distance));
                }
            }
        }
        found
    }
}

impl MemDepPredictor for MdpTage {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        self.tick();
        match self.provider(q.pc, q.history) {
            Some((ci, dist)) => PredictionOutcome {
                dep: DepPrediction::Distance(u32::from(dist)),
                hint: ci as u64 + 1,
            },
            None => PredictionOutcome::none(),
        }
    }

    fn train_violation(&mut self, v: &Violation<'_>) {
        self.tick();
        // §II-C: no prediction -> allocate starting at the shortest
        // history; an incorrect prediction -> at a longer history than
        // the provider. As in TAGE, allocation only steals slots whose
        // `u` bit is clear; established entries are protected, otherwise
        // two hot dependences sharing a direct-mapped slot would evict
        // each other forever.
        let start = if v.prior.dep.is_dependence() && v.prior.hint > 0 {
            (v.prior.hint as usize).min(self.tables.len() - 1)
        } else {
            0
        };
        // One walk keys every component; the lookups below must still run
        // in this exact order, because `lookup` advances a table's LRU
        // clock even on a miss.
        let n = self.tables.len();
        let keys = self.keys_upto(n, v.load_pc, v.history);
        // An existing entry for this exact context retrains in place.
        for (ci, &(index, tag)) in keys.iter().enumerate().take(n).skip(start) {
            if let Some(e) = self.tables[ci].lookup(index, tag) {
                e.distance = v.store_distance.min(MAX_STORE_DISTANCE) as u8;
                e.useful = true;
                self.stats.writes += 1;
                return;
            }
        }
        // Otherwise claim the first slot that is free or not useful.
        for (ci, &(index, tag)) in keys.iter().enumerate().take(n).skip(start) {
            let claimable = !self.tables[ci].set_full(index)
                || self.tables[ci].lru_victim_mut(index).is_some_and(|e| !e.useful);
            if claimable {
                self.allocate(ci, (index, tag), v.store_distance);
                return;
            }
        }
        // Everything useful along the path: age the shortest candidate so
        // a future allocation can succeed (TAGE's u decay).
        if let Some(e) = self.tables[start].lru_victim_mut(keys[start].0) {
            e.useful = false;
            self.stats.writes += 1;
        }
    }

    fn load_committed(&mut self, c: &LoadCommit<'_>) {
        let DepPrediction::Distance(_) = c.prediction.dep else { return };
        if c.waited_correct || c.prediction.hint == 0 {
            return;
        }
        // False dependence: reset the providing entry with probability
        // 1/256 so stale dependences eventually vanish (§II-C).
        let denom = self.cfg.false_dep_reset_denom;
        if self.rand().is_multiple_of(denom) {
            let ci = (c.prediction.hint - 1) as usize;
            let (index, tag) = self.keys_upto(ci + 1, c.pc, c.history)[ci];
            self.stats.writes += 1;
            if let Some(e) = self.tables[ci].lookup(index, tag) {
                e.useful = false;
            }
        }
    }

    fn storage_bits(&self) -> usize {
        self.cfg.storage_bits()
    }

    fn access_stats(&self) -> AccessStats {
        self.stats
    }

    fn reset_access_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_branch::DivergentEvent;
    use proptest::prelude::*;

    fn history_with(events: &[(bool, u64)]) -> DivergentHistory {
        let mut h = DivergentHistory::new();
        for &(taken, target) in events {
            h.push(DivergentEvent { indirect: false, taken, target });
        }
        h
    }

    fn lq<'a>(pc: Pc, h: &'a DivergentHistory) -> LoadQuery<'a> {
        LoadQuery { pc, token: 0, history: h, arch_seq: 0, older_stores: 16 }
    }

    fn viol<'a>(
        pc: Pc,
        distance: u32,
        prior: PredictionOutcome,
        h: &'a DivergentHistory,
    ) -> Violation<'a> {
        Violation {
            load_pc: pc,
            store_pc: 0,
            store_distance: distance,
            history_len: 1,
            history: h,
            load_token: 0,
            store_token: 0,
            prior,
        }
    }

    /// The unbounded algorithm, as the reference the bounded predictor
    /// must match call for call: a full-history provider and one fold per
    /// component key, with the same table-call sequence.
    struct Reference(MdpTage);

    impl Reference {
        fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
            let p = &mut self.0;
            p.tick();
            match p.provider_full(q.pc, q.history) {
                Some((ci, dist)) => PredictionOutcome {
                    dep: DepPrediction::Distance(u32::from(dist)),
                    hint: ci as u64 + 1,
                },
                None => PredictionOutcome::none(),
            }
        }

        fn train_violation(&mut self, v: &Violation<'_>) {
            let p = &mut self.0;
            p.tick();
            let n = p.tables.len();
            let start = if v.prior.dep.is_dependence() && v.prior.hint > 0 {
                (v.prior.hint as usize).min(n - 1)
            } else {
                0
            };
            for ci in start..n {
                let (index, tag) = p.keys(ci, v.load_pc, v.history);
                if let Some(e) = p.tables[ci].lookup(index, tag) {
                    e.distance = v.store_distance.min(MAX_STORE_DISTANCE) as u8;
                    e.useful = true;
                    p.stats.writes += 1;
                    return;
                }
            }
            for ci in start..n {
                let (index, _tag) = p.keys(ci, v.load_pc, v.history);
                let claimable = !p.tables[ci].set_full(index)
                    || p.tables[ci].lru_victim_mut(index).is_some_and(|e| !e.useful);
                if claimable {
                    let keys = p.keys(ci, v.load_pc, v.history);
                    p.allocate(ci, keys, v.store_distance);
                    return;
                }
            }
            let (index, _) = p.keys(start, v.load_pc, v.history);
            if let Some(e) = p.tables[start].lru_victim_mut(index) {
                e.useful = false;
                p.stats.writes += 1;
            }
        }

        fn load_committed(&mut self, c: &LoadCommit<'_>) {
            let p = &mut self.0;
            let DepPrediction::Distance(_) = c.prediction.dep else { return };
            if c.waited_correct || c.prediction.hint == 0 {
                return;
            }
            if p.rand().is_multiple_of(p.cfg.false_dep_reset_denom) {
                let ci = (c.prediction.hint - 1) as usize;
                let (index, tag) = p.keys(ci, c.pc, c.history);
                p.stats.writes += 1;
                if let Some(e) = p.tables[ci].lookup(index, tag) {
                    e.useful = false;
                }
            }
        }
    }

    /// One SplitMix64 step, to expand an operation's seed.
    fn mix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The live-bounded provider and the single-walk training keys
        /// give the same outcomes and access counts as the full-walk
        /// reference after every call: over random histories up to
        /// twice the longest component, predictions, violations that
        /// escalate from the real prior or are forced up to the longest
        /// component, and false-dependence commits.
        #[test]
        fn bounded_walk_matches_full_walk(
            geometry in 0usize..3,
            ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..160),
        ) {
            let mut cfg = [
                MdpTageConfig::paper(),
                MdpTageConfig::short(),
                MdpTageConfig::paper_scaled(1, 2),
            ][geometry].clone();
            // Exercise the u-reset and the false-dependence reset often.
            cfg.u_reset_period = 97;
            cfg.false_dep_reset_denom = 2;
            let mut fast = MdpTage::new(cfg.clone());
            let mut reference = Reference(MdpTage::new(cfg));
            let n = fast.tables.len() as u64;
            let pcs = [0x100u64, 0x140, 0x1c4, 0x2000];
            let mut h = DivergentHistory::new();
            let mut last = [PredictionOutcome::none(); 4];
            for (step, &(kind, seed)) in ops.iter().enumerate() {
                let pc_i = (seed % 4) as usize;
                let pc = pcs[pc_i];
                let r = mix64(seed);
                match kind {
                    0 => {
                        // A burst now and then carries the history past
                        // the longest component (2,000 events).
                        let count = if r.is_multiple_of(8) { 1500 } else { r % 24 };
                        let mut x = r;
                        for _ in 0..count {
                            x = mix64(x);
                            h.push(DivergentEvent {
                                indirect: x & 1 == 0,
                                taken: x & 2 == 0,
                                target: x >> 8,
                            });
                        }
                        continue;
                    }
                    1 => {}
                    2 | 3 => {
                        let prior = if kind == 2 {
                            last[pc_i]
                        } else {
                            // Forced escalation, up to the longest component.
                            PredictionOutcome {
                                dep: DepPrediction::Distance(1),
                                hint: n - (r % 3).min(n - 1),
                            }
                        };
                        let v = viol(pc, (r >> 8) as u32 % 130, prior, &h);
                        fast.train_violation(&v);
                        reference.train_violation(&v);
                        prop_assert_eq!(fast.stats, reference.0.stats, "step {} train", step);
                    }
                    _ => {
                        let commit = LoadCommit {
                            pc,
                            prediction: last[pc_i],
                            actual_distance: None,
                            waited_correct: false,
                            history: &h,
                        };
                        fast.load_committed(&commit);
                        reference.load_committed(&commit);
                        prop_assert_eq!(fast.stats, reference.0.stats, "step {} commit", step);
                    }
                }
                let got = fast.predict_load(&lq(pc, &h));
                let want = reference.predict_load(&lq(pc, &h));
                prop_assert_eq!(got, want, "step {} predict", step);
                prop_assert_eq!(fast.stats, reference.0.stats, "step {} predict", step);
                last[pc_i] = got;
            }
        }
    }

    #[test]
    fn longest_component_provides_past_the_live_bound() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let mut h = DivergentHistory::new();
        for i in 0..2500u64 {
            h.push(DivergentEvent {
                indirect: i.is_multiple_of(3),
                taken: i.is_multiple_of(2),
                target: i * 7,
            });
        }
        let forced = PredictionOutcome { dep: DepPrediction::Distance(1), hint: 12 };
        p.train_violation(&viol(0x100, 9, forced, &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out, PredictionOutcome { dep: DepPrediction::Distance(9), hint: 12 });
        assert_eq!(p.access_stats().reads, 12, "every component counts as probed");
    }

    #[test]
    #[should_panic(expected = "at most 16 components")]
    fn rejects_more_than_sixteen_components() {
        let mut cfg = MdpTageConfig::short();
        let c = cfg.components[0];
        cfg.components = vec![c; 17];
        let _ = MdpTage::new(cfg);
    }

    #[test]
    fn paper_config_is_38_625_kb() {
        let cfg = MdpTageConfig::paper();
        assert_eq!(cfg.components.len(), 12);
        let entries: usize = cfg.components.iter().map(|c| c.sets * c.ways).sum();
        assert_eq!(entries, 16 * 1024, "Table II: 16K entries");
        assert_eq!(cfg.storage_bits() as f64 / 8192.0, 38.625, "Table II");
    }

    #[test]
    fn short_config_is_13_kb() {
        let cfg = MdpTageConfig::short();
        let entries: usize = cfg.components.iter().map(|c| c.sets * c.ways).sum();
        assert_eq!(entries, 4096, "Table II: 4K entries");
        assert_eq!(cfg.storage_bits() as f64 / 8192.0, 13.0, "Table II");
    }

    #[test]
    fn first_violation_allocates_shortest() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1), (false, 2)]);
        p.train_violation(&viol(0x100, 4, PredictionOutcome::none(), &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(4));
        assert_eq!(out.hint, 1, "provided by component 0 (shortest history)");
    }

    #[test]
    fn misprediction_escalates_history_length() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1), (false, 2)]);
        p.train_violation(&viol(0x100, 4, PredictionOutcome::none(), &h));
        let prior = p.predict_load(&lq(0x100, &h));
        // The prediction was wrong (violation again): allocate longer.
        p.train_violation(&viol(0x100, 6, prior, &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(6));
        assert_eq!(out.hint, 2, "escalated to component 1");
    }

    #[test]
    fn longest_matching_component_provides() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        let prior = p.predict_load(&lq(0x100, &h));
        p.train_violation(&viol(0x100, 2, prior, &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(2), "longer history wins");
    }

    #[test]
    fn periodic_u_reset_forgets() {
        let mut cfg = MdpTageConfig::paper();
        cfg.u_reset_period = 4;
        let mut p = MdpTage::new(cfg);
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        for _ in 0..4 {
            let _ = p.predict_load(&lq(0x900, &h));
        }
        assert_eq!(p.predict_load(&lq(0x100, &h)).dep, DepPrediction::None);
    }

    #[test]
    fn false_dependence_eventually_resets_entry() {
        let mut cfg = MdpTageConfig::paper();
        cfg.false_dep_reset_denom = 1; // make the probabilistic reset certain
        let mut p = MdpTage::new(cfg);
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        let out = p.predict_load(&lq(0x100, &h));
        p.load_committed(&LoadCommit {
            pc: 0x100,
            prediction: out,
            actual_distance: None,
            waited_correct: false,
            history: &h,
        });
        assert_eq!(p.predict_load(&lq(0x100, &h)).dep, DepPrediction::None);
    }
}
