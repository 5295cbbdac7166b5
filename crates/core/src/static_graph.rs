//! Static KG information (Section IV-B2: "we follow works \[9\], \[11\], \[45\]
//! that add static KG information on ICEWS14, ICEWS18 and ICEWS05-15").
//!
//! RE-GCN-lineage models aggregate a time-less affiliation graph
//! (entity → bloc/country anchors) once at the start of encoding, so the
//! initial entity representations already carry shared static context.
//! This module implements that aggregation: one R-GCN pass over the static
//! facts with dedicated static-relation embeddings, mixed into the initial
//! embeddings with a residual (so the module is a refinement, not a
//! replacement — RE-GCN's angular-constraint schedule is simplified away;
//! see DESIGN.md).

use logcl_gnn::aggregator::{Aggregator, EdgeBatch};
use logcl_gnn::RgcnLayer;
use logcl_tensor::nn::{Embedding, ParamSet};
use logcl_tensor::{Rng, Var};
use logcl_tkg::TkgDataset;

/// The static-graph refinement module.
pub struct StaticGraph {
    gnn: RgcnLayer,
    rel_emb: Embedding,
    subjects: Vec<usize>,
    relations: Vec<usize>,
    objects: Vec<usize>,
    num_entities: usize,
}

impl StaticGraph {
    /// Builds the module from the dataset's static facts (returns `None`
    /// when the dataset carries none).
    pub fn new(ds: &TkgDataset, dim: usize, rng: &mut Rng) -> Option<Self> {
        if ds.static_facts.is_empty() {
            return None;
        }
        let mut subjects = Vec::with_capacity(ds.static_facts.len() * 2);
        let mut relations = Vec::with_capacity(ds.static_facts.len() * 2);
        let mut objects = Vec::with_capacity(ds.static_facts.len() * 2);
        // Static facts are symmetric context: add both directions (inverse
        // static relations occupy ids `r + num_static_rels`).
        for &(e, r, anchor) in &ds.static_facts {
            subjects.push(e);
            relations.push(r);
            objects.push(anchor);
            subjects.push(anchor);
            relations.push(r + ds.num_static_rels);
            objects.push(e);
        }
        Some(Self {
            gnn: RgcnLayer::new(dim, rng),
            rel_emb: Embedding::new(ds.num_static_rels * 2, dim, rng),
            subjects,
            relations,
            objects,
            num_entities: ds.num_entities,
        })
    }

    /// Number of (directed) static edges.
    pub fn num_edges(&self) -> usize {
        self.subjects.len()
    }

    /// Refines the initial entity embeddings with static context:
    /// `h₀ + RGCN_static(h₀)` scaled to keep magnitudes comparable.
    pub fn refine(&self, h0: &Var) -> Var {
        let edges = EdgeBatch {
            subjects: &self.subjects,
            relations: &self.relations,
            objects: &self.objects,
            num_entities: self.num_entities,
        };
        let every: Vec<usize> = (0..self.num_entities).collect();
        let agg = self
            .gnn
            .forward(h0, &self.rel_emb.weight, Some(&edges), &every);
        h0.add(&agg.scale(0.5))
    }

    /// Registers the module's parameters.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        self.gnn.register(params, &format!("{prefix}.gnn"));
        self.rel_emb.register(params, &format!("{prefix}.rel"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logcl_tensor::Tensor;
    use logcl_tkg::SyntheticPreset;

    #[test]
    fn builds_from_preset_and_refines() {
        let ds = SyntheticPreset::Icews14.generate_scaled(0.2);
        assert!(
            !ds.static_facts.is_empty(),
            "presets must carry static facts"
        );
        let mut rng = Rng::seed(7);
        let sg = StaticGraph::new(&ds, 8, &mut rng).expect("static graph");
        assert_eq!(sg.num_edges(), ds.static_facts.len() * 2);
        let h0 = Var::param(Tensor::randn(&[ds.num_entities, 8], 0.3, &mut rng));
        let refined = sg.refine(&h0);
        assert_eq!(refined.shape(), vec![ds.num_entities, 8]);
        assert_ne!(refined.value().data(), h0.value().data());
        refined.sum().backward();
        assert!(
            h0.grad().is_some(),
            "gradients must flow through refinement"
        );
    }

    #[test]
    fn absent_static_facts_yield_none() {
        let mut ds = SyntheticPreset::Icews14.generate_scaled(0.2);
        ds.static_facts.clear();
        let mut rng = Rng::seed(7);
        assert!(StaticGraph::new(&ds, 8, &mut rng).is_none());
    }

    #[test]
    fn entities_in_same_bloc_get_correlated_context() {
        // Two entities sharing a bloc anchor receive messages through the
        // same anchor; with identical initial embeddings their refinements
        // agree on the anchor-mediated component.
        let mut ds = SyntheticPreset::Icews14.generate_scaled(0.2);
        ds.static_facts = vec![(2, 0, 0), (3, 0, 0)];
        ds.num_static_rels = 1;
        let mut rng = Rng::seed(9);
        let sg = StaticGraph::new(&ds, 4, &mut rng).unwrap();
        let mut h = Tensor::zeros(&[ds.num_entities, 4]);
        // Same embedding for entities 2 and 3.
        for j in 0..4 {
            h.set2(2, j, 1.0);
            h.set2(3, j, 1.0);
        }
        let refined = sg.refine(&Var::constant(h));
        let r2 = refined.value().row(2).to_vec();
        let r3 = refined.value().row(3).to_vec();
        assert_eq!(r2, r3);
    }
}
