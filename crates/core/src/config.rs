//! LogCL hyper-parameters and ablation switches.

use logcl_gnn::AggregatorKind;
use logcl_tkg::NoiseSpec;

/// Which of the four query-contrast losses of Section III-E are active
/// (Fig. 7 compares them; the full model averages all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContrastStrategy {
    /// `(L_lg + L_gl + L_ll + L_gg) / 4` — the full model.
    All,
    /// Local anchors against global candidates only.
    Lg,
    /// Global anchors against local candidates only.
    Gl,
    /// Local–local uniformity only.
    Ll,
    /// Global–global uniformity only.
    Gg,
}

impl ContrastStrategy {
    /// The four single-loss variants in Fig. 7's order.
    pub const SINGLES: [ContrastStrategy; 4] = [Self::Lg, Self::Gl, Self::Ll, Self::Gg];

    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            Self::All => "LogCL",
            Self::Lg => "LogCL-lg",
            Self::Gl => "LogCL-gl",
            Self::Ll => "LogCL-ll",
            Self::Gg => "LogCL-gg",
        }
    }
}

/// Full model configuration. `Default` reproduces the paper's settings
/// (Section IV-B2) scaled to the synthetic benchmarks (DESIGN.md).
#[derive(Debug, Clone)]
pub struct LogClConfig {
    /// Embedding dimensionality `d` (paper: 200; default here: 64).
    pub dim: usize,
    /// Width of the periodic time-encoding frequency bank (Eq. 2).
    pub time_bank: usize,
    /// Local history length `m` (paper: 7/9; default here: 4).
    pub m: usize,
    /// R-GCN depth in the local encoder.
    pub local_layers: usize,
    /// R-GCN depth in the global encoder (Fig. 6 sweeps this).
    pub global_layers: usize,
    /// Which relational GNN fills both encoders (Table V).
    pub aggregator: AggregatorKind,
    /// ConvTransE kernel count (paper: 50).
    pub channels: usize,
    /// Dropout rate (paper: 0.2).
    pub dropout: f32,
    /// Mixing weight λ of Eq. 19 — the **local** share, following Fig. 8's
    /// description ("a larger value of λ indicates a higher proportion of
    /// the local encoder"; Eq. 19's rendering has the opposite orientation —
    /// the paper is internally inconsistent, see DESIGN.md). The paper's
    /// prediction weight is 0.9.
    pub lambda: f32,
    /// Contrastive temperature τ (paper: 0.03 / 0.07).
    pub tau: f32,
    /// Which contrast losses are active.
    pub contrast: ContrastStrategy,
    /// Cap on historical query-subgraph edges sampled per query.
    pub max_subgraph_edges: usize,
    /// Ablation: use the local entity-aware attention recurrent encoder
    /// (`false` = LogCL-G).
    pub use_local: bool,
    /// Ablation: use the global entity-aware attention encoder
    /// (`false` = LogCL-L).
    pub use_global: bool,
    /// Ablation: entity-aware attention in both encoders
    /// (`false` = LogCL-w/o-eatt).
    pub use_entity_attention: bool,
    /// Ablation: the local-global query contrast module
    /// (`false` = LogCL-w/o-cl).
    pub use_contrast: bool,
    /// Use the dataset's static KG information (affiliation graph) to
    /// refine initial entity embeddings, as the paper does on the ICEWS
    /// datasets. Off by default (the recorded experiment runs predate it);
    /// a no-op when the dataset carries no static facts.
    pub use_static: bool,
    /// Gaussian perturbation of the initial entity representations
    /// (Figs. 2 & 5); applied at every forward pass when non-clean.
    pub noise: NoiseSpec,
    /// Parameter-initialisation / dropout seed.
    pub seed: u64,
}

impl Default for LogClConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            time_bank: 16,
            m: 4,
            local_layers: 2,
            global_layers: 2,
            aggregator: AggregatorKind::Rgcn,
            channels: 50,
            dropout: 0.2,
            lambda: 0.9,
            tau: 0.03,
            contrast: ContrastStrategy::All,
            max_subgraph_edges: 60,
            use_local: true,
            use_global: true,
            use_entity_attention: true,
            use_contrast: true,
            use_static: false,
            noise: NoiseSpec::CLEAN,
            seed: 42,
        }
    }
}

impl LogClConfig {
    /// The LogCL-G variant (global encoder only).
    pub fn without_local(mut self) -> Self {
        self.use_local = false;
        self
    }

    /// The LogCL-L variant (local encoder only).
    pub fn without_global(mut self) -> Self {
        self.use_global = false;
        self
    }

    /// The LogCL-w/o-eatt variant.
    pub fn without_entity_attention(mut self) -> Self {
        self.use_entity_attention = false;
        self
    }

    /// The LogCL-w/o-cl variant.
    pub fn without_contrast(mut self) -> Self {
        self.use_contrast = false;
        self
    }

    /// Human-readable variant name used in the experiment tables.
    pub fn variant_name(&self) -> String {
        let mut name = String::from("LogCL");
        if !self.use_local {
            name.push_str("-G");
        }
        if !self.use_global {
            name.push_str("-L");
        }
        if !self.use_entity_attention {
            name.push_str("-w/o-eatt");
        }
        if !self.use_contrast {
            name.push_str("-w/o-cl");
        }
        name
    }

    /// A stable, human-readable fingerprint of every field that shapes the
    /// parameter set or the forward pass — everything except the RNG seed
    /// and the (test-time) input noise. The kernel backend is not part of
    /// the config: backends are bit-identical, so checkpoints are portable
    /// across thread counts.
    /// Stamped into checkpoint metadata so loaders can reject parameters
    /// trained under a different configuration with a clear message instead
    /// of a shape panic.
    pub fn fingerprint(&self) -> String {
        format!(
            "d{}.tb{}.m{}.ll{}.gl{}.{:?}.ch{}.do{}.la{}.tau{}.{:?}.sub{}.loc{}.glob{}.eatt{}.cl{}.stat{}",
            self.dim,
            self.time_bank,
            self.m,
            self.local_layers,
            self.global_layers,
            self.aggregator,
            self.channels,
            self.dropout,
            self.lambda,
            self.tau,
            self.contrast,
            self.max_subgraph_edges,
            u8::from(self.use_local),
            u8::from(self.use_global),
            u8::from(self.use_entity_attention),
            u8::from(self.use_contrast),
            u8::from(self.use_static),
        )
    }

    /// Validates configuration invariants; panics on nonsense combinations.
    pub fn validate(&self) {
        assert!(self.dim >= 4, "dim too small");
        assert!(self.m >= 1, "local history length must be >= 1");
        assert!(
            self.use_local || self.use_global,
            "at least one encoder required"
        );
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda must be in [0, 1]"
        );
        assert!(self.tau > 0.0, "temperature must be positive");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0, 1)"
        );
        assert!(self.local_layers >= 1 && self.global_layers >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_full_model() {
        let cfg = LogClConfig::default();
        cfg.validate();
        assert_eq!(cfg.variant_name(), "LogCL");
        assert!(cfg.use_local && cfg.use_global && cfg.use_contrast);
    }

    #[test]
    fn ablation_builders_name_themselves() {
        assert_eq!(
            LogClConfig::default().without_local().variant_name(),
            "LogCL-G"
        );
        assert_eq!(
            LogClConfig::default().without_global().variant_name(),
            "LogCL-L"
        );
        assert_eq!(
            LogClConfig::default()
                .without_entity_attention()
                .variant_name(),
            "LogCL-w/o-eatt"
        );
        assert_eq!(
            LogClConfig::default().without_contrast().variant_name(),
            "LogCL-w/o-cl"
        );
        assert_eq!(
            LogClConfig::default()
                .without_global()
                .without_entity_attention()
                .variant_name(),
            "LogCL-L-w/o-eatt"
        );
    }

    #[test]
    #[should_panic(expected = "at least one encoder")]
    fn both_encoders_off_is_rejected() {
        LogClConfig::default()
            .without_local()
            .without_global()
            .validate();
    }

    #[test]
    fn fingerprint_tracks_structural_fields_but_not_seed() {
        let base = LogClConfig::default();
        let same = LogClConfig {
            seed: 7,
            ..LogClConfig::default()
        };
        assert_eq!(base.fingerprint(), same.fingerprint());
        let wider = LogClConfig {
            dim: 128,
            ..LogClConfig::default()
        };
        assert_ne!(base.fingerprint(), wider.fingerprint());
        assert_ne!(
            base.fingerprint(),
            LogClConfig::default().without_contrast().fingerprint()
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ContrastStrategy::All.name(), "LogCL");
        assert_eq!(ContrastStrategy::SINGLES.len(), 4);
    }
}
