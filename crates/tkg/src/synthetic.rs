//! Synthetic TKG generators standing in for ICEWS14/ICEWS18/ICEWS05-15/GDELT.
//!
//! The real event dumps are license- and network-gated, so the benchmarks
//! are simulated by *planting the two historical pattern families the paper
//! is about* (Section I), at ~1/20 of the original scale:
//!
//! 1. **Global repetition/cyclic facts** — periodic `(s, r, o)` events (think
//!    recurring diplomatic meetings), each preceded by a rotating "hosting
//!    process" precursor fact one step earlier. The repetition is what copy/
//!    global models (CyGNet, CENET) exploit; the precursor gives the two-hop
//!    historical query subgraph genuinely more signal than one-hop answer
//!    copying — exactly the paper's motivation for its global encoder.
//! 2. **Local evolution chains** — walkers anchored at a subject whose
//!    object advances through a fixed successor permutation over an object
//!    pool while the relation cycles, emitting intermittently (every 1–3
//!    steps). Predicting these requires modelling recent-snapshot dynamics
//!    (RE-GCN-style), and the intermittence makes *query-relevant* snapshot
//!    selection (entity-aware attention) pay off, because the last relevant
//!    snapshot for a query subject is often not the most recent one (Fig. 1).
//! 3. **Uniform noise facts** — unpredictable background events.
//!
//! Each preset mirrors its benchmark's relative statistics (entity/relation
//! counts, horizon, density, noise share). Entities and relations carry
//! ICEWS-flavoured names so the Table VI case study reads like the paper's.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::TkgDataset;
use crate::quad::Quad;

/// The four benchmark stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticPreset {
    /// ICEWS14 analogue: 1 year of daily political events.
    Icews14,
    /// ICEWS18 analogue: denser, more entities (harder).
    Icews18,
    /// ICEWS05-15 analogue: long horizon.
    Icews0515,
    /// GDELT analogue: fine granularity, heavy noise (hardest).
    Gdelt,
}

impl SyntheticPreset {
    /// All four presets in the paper's column order.
    pub const ALL: [SyntheticPreset; 4] =
        [Self::Icews14, Self::Icews18, Self::Icews0515, Self::Gdelt];

    /// Dataset name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Icews14 => "ICEWS14-s",
            Self::Icews18 => "ICEWS18-s",
            Self::Icews0515 => "ICEWS05-15-s",
            Self::Gdelt => "GDELT-s",
        }
    }

    /// The generator configuration for this preset.
    pub fn config(&self) -> SyntheticConfig {
        match self {
            Self::Icews14 => SyntheticConfig {
                name: self.name().into(),
                num_entities: 340,
                num_rels: 24,
                num_times: 120,
                periodic_triples: 140,
                chains: 30,
                chain_object_pool: 80,
                noise_per_t: 6,
                drift_prob: 0.5,
                seed: 1401,
            },
            Self::Icews18 => SyntheticConfig {
                name: self.name().into(),
                num_entities: 500,
                num_rels: 26,
                num_times: 120,
                periodic_triples: 240,
                chains: 56,
                chain_object_pool: 110,
                noise_per_t: 12,
                drift_prob: 0.65,
                seed: 1801,
            },
            Self::Icews0515 => SyntheticConfig {
                name: self.name().into(),
                num_entities: 760,
                num_rels: 25,
                num_times: 400,
                periodic_triples: 260,
                chains: 40,
                chain_object_pool: 130,
                noise_per_t: 7,
                drift_prob: 0.5,
                seed: 515,
            },
            Self::Gdelt => SyntheticConfig {
                name: self.name().into(),
                num_entities: 380,
                num_rels: 20,
                num_times: 300,
                periodic_triples: 120,
                chains: 28,
                chain_object_pool: 90,
                noise_per_t: 22,
                drift_prob: 0.6,
                seed: 2013,
            },
        }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> TkgDataset {
        self.config().generate()
    }

    /// Generates a reduced-cost variant: entity/pattern counts and horizon
    /// scaled by `scale` ∈ (0, 1], for quick experiment runs.
    pub fn generate_scaled(&self, scale: f64) -> TkgDataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut cfg = self.config();
        let s = |x: usize, min: usize| ((x as f64 * scale).round() as usize).max(min);
        cfg.num_entities = s(cfg.num_entities, 40);
        cfg.num_times = s(cfg.num_times, 40);
        cfg.periodic_triples = s(cfg.periodic_triples, 20);
        cfg.chains = s(cfg.chains, 6);
        cfg.chain_object_pool = s(cfg.chain_object_pool, 15);
        cfg.noise_per_t = s(cfg.noise_per_t, 1);
        cfg.generate()
    }
}

/// Generator parameters; see module docs for the pattern semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Dataset name.
    pub name: String,
    /// Entity vocabulary size.
    pub num_entities: usize,
    /// Base relation vocabulary size (≥ 6).
    pub num_rels: usize,
    /// Number of snapshots.
    pub num_times: usize,
    /// Number of periodic `(s, r, o)` patterns.
    pub periodic_triples: usize,
    /// Number of evolution-chain walkers.
    pub chains: usize,
    /// Size of the entity pool chain objects move through.
    pub chain_object_pool: usize,
    /// Uniform noise facts per timestamp.
    pub noise_per_t: usize,
    /// Probability that a periodic pattern drifts (resamples its partner
    /// set) once mid-stream — the paper's "complex dynamic interactions"
    /// knob: ICEWS18/GDELT are more volatile.
    pub drift_prob: f64,
    /// Generator seed (datasets are fully deterministic).
    pub seed: u64,
}

impl SyntheticConfig {
    /// Generates the dataset (deterministic in `seed`).
    pub fn generate(&self) -> TkgDataset {
        assert!(
            self.num_rels >= 6,
            "need at least 6 relations for the pattern pools"
        );
        assert!(self.chain_object_pool <= self.num_entities);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut quads: Vec<Quad> = Vec::new();

        // Relation pools: first third periodic, second third precursor,
        // final third chains (noise draws from all).
        let third = (self.num_rels / 3).max(1);
        let periodic_rels = 0..third;
        let precursor_rels = third..(2 * third);
        let chain_rels: Vec<usize> = (2 * third..self.num_rels).collect();

        // ---------------------------------------------- periodic patterns
        // Recurring events whose object *rotates* through a small set, with
        // the upcoming object announced by a "hosting process" precursor
        // fact one step earlier (the paper's Fig. 1 / Section III-D
        // motivating example). Pure one-hop copy models see every rotation
        // member as equally historical; models that read the precursor
        // context (recent snapshots, or the two-hop query subgraph)
        // disambiguate which member fires now.
        for _ in 0..self.periodic_triples {
            let s = rng.gen_range(0..self.num_entities);
            let r = rng.gen_range(periodic_rels.clone());
            let period = rng.gen_range(4..13usize);
            let phase = rng.gen_range(0..period);
            // Wide rotation sets: the historical answer vocabulary of (s, r)
            // is large enough that knowing "the answer repeats" is weak on
            // its own (as on real ICEWS, where (s, r) pairs accumulate tens
            // of past objects) — the precursor context pins it down.
            let k = rng.gen_range(4..9usize);
            let mut objects: Vec<usize> = (0..k)
                .map(|_| rng.gen_range(0..self.num_entities))
                .collect();
            let r_pre = rng.gen_range(precursor_rels.clone());
            // How many steps before the event the "hosting process" fact
            // appears. With Δ > 1 the informative snapshot is *not* the most
            // recent one — precisely Fig. 1's scenario, which rewards
            // query-aware snapshot selection (entity-aware attention) over
            // uniform recency decay.
            let lead = rng.gen_range(1..4usize);
            // Half the patterns *drift*: the partner set is resampled once
            // mid-stream (political alignments change). Full-history
            // vocabularies then accumulate stale candidates, while models
            // reading the recent precursor context keep up — the concept
            // drift that separates history-as-mask from history-as-context.
            let drift_at = if rng.gen_bool(self.drift_prob) {
                Some(rng.gen_range(
                    self.num_times / 3..(2 * self.num_times / 3).max(1 + self.num_times / 3),
                ))
            } else {
                None
            };
            let mut occurrence = 0usize;
            for t in 0..self.num_times {
                if Some(t) == drift_at {
                    for o in objects.iter_mut() {
                        *o = rng.gen_range(0..self.num_entities);
                    }
                }
                if t % period == phase {
                    let j = occurrence % k;
                    quads.push(Quad::new(s, r, objects[j], t));
                    if t >= lead {
                        // The upcoming partner reaches out `lead` steps
                        // before the event. Pure one-hop copy models cannot
                        // use it (all rotation members look equally
                        // historical); recent-snapshot models can.
                        quads.push(Quad::new(objects[j], r_pre, s, t - lead));
                    }
                    occurrence += 1;
                }
            }
        }

        // ---------------------------------------------- evolution chains
        // One global successor permutation over the object pool.
        let mut pool: Vec<usize> = (0..self.chain_object_pool).collect();
        shuffle(&mut pool, &mut rng);
        let succ = |o: usize| pool[o % self.chain_object_pool];
        for _ in 0..self.chains {
            let s = rng.gen_range(0..self.num_entities);
            let stride = rng.gen_range(1..4usize); // emit every 1–3 steps
            let mut o = rng.gen_range(0..self.chain_object_pool);
            let mut rel_phase = rng.gen_range(0..chain_rels.len());
            let offset = rng.gen_range(0..stride);
            for t in 0..self.num_times {
                if t % stride == offset {
                    quads.push(Quad::new(s, chain_rels[rel_phase], o, t));
                    o = succ(o);
                    rel_phase = (rel_phase + 1) % chain_rels.len();
                }
            }
        }

        // --------------------------------------------------------- noise
        for t in 0..self.num_times {
            for _ in 0..self.noise_per_t {
                quads.push(Quad::new(
                    rng.gen_range(0..self.num_entities),
                    rng.gen_range(0..self.num_rels),
                    rng.gen_range(0..self.num_entities),
                    t,
                ));
            }
        }

        let mut ds = TkgDataset::from_quads(&self.name, self.num_entities, self.num_rels, quads);
        ds.entity_names = entity_names(self.num_entities);
        ds.rel_names = relation_names(self.num_rels);

        // Static KG information (the affiliation graph RE-GCN-lineage
        // models add on the ICEWS datasets): every entity belongs to one of
        // `num_entities / 25` blocs, anchored at low-id entities. Drawn from
        // an *independent* RNG stream so the dynamic facts above stay
        // byte-identical whether or not static facts are consumed.
        let mut static_rng = StdRng::seed_from_u64(self.seed ^ 0x5747_u64);
        let num_blocs = (self.num_entities / 25).max(2);
        ds.num_static_rels = 1;
        ds.static_facts = (0..self.num_entities)
            .map(|e| (e, 0usize, static_rng.gen_range(0..num_blocs)))
            .collect();
        ds
    }
}

fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// ICEWS-flavoured entity names: a country/actor pool, suffixed when the
/// vocabulary outgrows it.
pub fn entity_names(n: usize) -> Vec<String> {
    const POOL: &[&str] = &[
        "China",
        "Iran",
        "Oman",
        "South_Africa",
        "South_Korea",
        "Malaysia",
        "France",
        "Kazakhstan",
        "Vietnam",
        "Iraq",
        "Qatar",
        "Portugal",
        "Guinea",
        "Tajikistan",
        "European_Parliament",
        "Food_and_Agriculture_Organization",
        "Ashraf_Ghani_Ahmadzai",
        "Russia",
        "Japan",
        "Germany",
        "Brazil",
        "India",
        "Nigeria",
        "Egypt",
        "Turkey",
        "Mexico",
        "Canada",
        "Australia",
        "Spain",
        "Italy",
        "Poland",
        "Sweden",
        "Norway",
        "Kenya",
        "Ethiopia",
        "Ghana",
        "Chile",
        "Peru",
        "Colombia",
        "Thailand",
    ];
    (0..n)
        .map(|i| {
            let base = POOL[i % POOL.len()];
            if i < POOL.len() {
                base.to_string()
            } else {
                format!("{base}_{}", i / POOL.len())
            }
        })
        .collect()
}

/// ICEWS-flavoured (CAMEO-style) relation names.
pub fn relation_names(n: usize) -> Vec<String> {
    const POOL: &[&str] = &[
        "Sign_formal_agreement",
        "Engage_in_diplomatic_cooperation",
        "Cooperate",
        "Make_a_visit",
        "Host_a_visit",
        "Consult",
        "Make_statement",
        "Express_intent_to_meet",
        "Provide_aid",
        "Criticize_or_denounce",
        "Make_an_appeal_or_request",
        "Engage_in_negotiation",
        "Praise_or_endorse",
        "Demand",
        "Threaten",
        "Impose_sanctions",
        "Reduce_relations",
        "Accuse",
        "Investigate",
        "Reject",
        "Grant_diplomatic_recognition",
        "Return_or_release",
        "Mediate",
        "Yield",
        "Share_intelligence",
        "Form_alliance",
    ];
    (0..n)
        .map(|i| {
            let base = POOL[i % POOL.len()];
            if i < POOL.len() {
                base.to_string()
            } else {
                format!("{base}_{}", i / POOL.len())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticPreset::Icews14.generate();
        let b = SyntheticPreset::Icews14.generate();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn presets_have_expected_scale() {
        let ds = SyntheticPreset::Icews14.generate();
        assert_eq!(ds.num_entities, 340);
        assert_eq!(ds.num_rels, 24);
        assert_eq!(ds.num_times, 120);
        assert!(ds.train.len() > 3000, "train size {}", ds.train.len());
        assert!(!ds.valid.is_empty() && !ds.test.is_empty());
    }

    #[test]
    fn all_ids_in_range() {
        for preset in SyntheticPreset::ALL {
            let ds = preset.generate_scaled(0.3);
            for q in ds.all_quads() {
                assert!(q.s < ds.num_entities && q.o < ds.num_entities);
                assert!(q.r < ds.num_rels);
                assert!(q.t < ds.num_times);
            }
        }
    }

    #[test]
    fn repetition_pattern_present() {
        // A substantial share of test facts must have occurred before (the
        // global repetition signal the copy models rely on).
        let ds = SyntheticPreset::Icews14.generate();
        let mut seen: HashMap<(usize, usize, usize), usize> = HashMap::new();
        for q in &ds.train {
            *seen.entry(q.triple()).or_default() += 1;
        }
        let repeated = ds
            .test
            .iter()
            .filter(|q| seen.contains_key(&q.triple()))
            .count();
        let share = repeated as f64 / ds.test.len() as f64;
        assert!(share > 0.25, "repetition share {share}");
        assert!(
            share < 0.95,
            "dataset must not be pure repetition, got {share}"
        );
    }

    #[test]
    fn evolution_pattern_present() {
        // Some test facts must be novel triples (never seen in training) —
        // the local-evolution signal copy models cannot answer.
        let ds = SyntheticPreset::Icews14.generate();
        let seen: HashSet<_> = ds.train.iter().map(|q| q.triple()).collect();
        let novel = ds
            .test
            .iter()
            .filter(|q| !seen.contains(&q.triple()))
            .count();
        assert!(novel as f64 / ds.test.len() as f64 > 0.05);
    }

    #[test]
    fn names_cover_vocabulary() {
        let ds = SyntheticPreset::Icews14.generate();
        assert_eq!(ds.entity_names.len(), ds.num_entities);
        assert_eq!(ds.rel_names.len(), ds.num_rels);
        assert_eq!(ds.entity_name(0), "China");
        assert!(ds.rel_name(ds.num_rels).ends_with("^-1"));
        // Names are unique.
        let set: std::collections::HashSet<_> = ds.entity_names.iter().collect();
        assert_eq!(set.len(), ds.num_entities);
    }

    #[test]
    fn scaled_generation_shrinks() {
        let full = SyntheticPreset::Icews18.generate();
        let small = SyntheticPreset::Icews18.generate_scaled(0.4);
        assert!(small.num_entities < full.num_entities);
        assert!(small.train.len() < full.train.len());
        assert!(small.num_times < full.num_times);
    }
}
