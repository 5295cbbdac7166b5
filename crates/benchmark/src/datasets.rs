//! The three fixed graphs the workloads serve.
//!
//! All come from the `Icews14` synthetic preset (seed 1401) with pattern
//! counts scaled by `|E| / 340`, so the density a query sees stays that of
//! the preset while `|E|` — what decode, top-k and the R-GCN self-loop cost
//! scale with — grows. The benchmark seed never reaches the generator.

use logcl_tkg::synthetic::SyntheticConfig;
use logcl_tkg::{SyntheticPreset, TkgDataset};

/// A benchmark dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kg {
    /// The `Icews14` preset at scale 1.0: `|E|`=340, `|T|`=120. The long
    /// horizon gives `history_read` 80 distinct past timestamps to ask for.
    Kg340,
    /// `|E|`=1000, `|T|`=64.
    Kg1k,
    /// `|E|`=4000, `|T|`=16: large enough that decode and top-k show.
    Kg4k,
}

impl Kg {
    /// `(|E|, |T|)`; `smoke` shrinks both so a debug build boots in seconds.
    pub fn shape(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Kg::Kg340, false) => (340, 120),
            (Kg::Kg1k, false) => (1000, 64),
            (Kg::Kg4k, false) => (4000, 16),
            (Kg::Kg340, true) => (60, 40),
            (Kg::Kg1k, true) => (80, 16),
            (Kg::Kg4k, true) => (120, 10),
        }
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kg::Kg340 => "kg340",
            Kg::Kg1k => "kg1k",
            Kg::Kg4k => "kg4k",
        }
    }

    /// Generates the dataset (deterministic; independent of `--seed`).
    pub fn generate(self, smoke: bool) -> TkgDataset {
        let (entities, times) = self.shape(smoke);
        let base = SyntheticPreset::Icews14.config();
        let scale = entities as f64 / base.num_entities as f64;
        let scaled = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        SyntheticConfig {
            name: self.name().into(),
            num_entities: entities,
            num_times: times,
            periodic_triples: scaled(base.periodic_triples),
            chains: scaled(base.chains),
            chain_object_pool: scaled(base.chain_object_pool).min(entities),
            noise_per_t: scaled(base.noise_per_t),
            ..base
        }
        .generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kg340_is_the_preset_and_shapes_hold() {
        let ds = Kg::Kg340.generate(false);
        let preset = SyntheticPreset::Icews14.generate();
        assert_eq!(ds.num_entities, 340);
        assert_eq!(ds.num_times, 120);
        assert_eq!(ds.all_quads(), preset.all_quads());
        for kg in [Kg::Kg340, Kg::Kg1k, Kg::Kg4k] {
            let (e, t) = kg.shape(true);
            let ds = kg.generate(true);
            assert_eq!((ds.num_entities, ds.num_times), (e, t));
        }
    }
}
