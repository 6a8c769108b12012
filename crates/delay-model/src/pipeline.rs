//! EQ 1: packing atomic modules into pipeline stages.
//!
//! Given the ordered atomic modules on a router's critical path, each with
//! latency `tᵢ` and overhead `hᵢ`, and a clock cycle `clk`, the paper's
//! general model prescribes the pipeline: modules `a..=b` share a stage
//! when `Σ tᵢ + h_b ≤ clk` and adding the next module would overflow.
//!
//! Two refinements from the paper are honored:
//!
//! * Route/decode and crossbar traversal are pinned to one full cycle each
//!   ([`crate::ModuleKind::occupies_full_cycle`]).
//! * An atomic module whose own delay exceeds `clk` must straddle
//!   `ceil((t+h)/clk)` stages (footnote 4 warns this costs performance; the
//!   model still reports the required depth).

use crate::module::{AtomicModule, ModuleKind};
use crate::params::RouterParams;
use logical_effort::Tau;
use std::fmt;

/// One pipeline stage: the modules (or module fractions) it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStage {
    /// `(module, delay charged to this stage)` pairs, in path order. A
    /// module straddling stages appears in several consecutive stages with
    /// its delay split.
    pub entries: Vec<(ModuleKind, Tau)>,
    /// Total delay charged to this stage, in τ.
    pub occupancy: Tau,
}

impl PipelineStage {
    fn new() -> Self {
        PipelineStage {
            entries: Vec::new(),
            occupancy: Tau::zero(),
        }
    }

    /// Fraction of the clock cycle this stage uses (the bar heights of the
    /// paper's Figure 11).
    #[must_use]
    pub fn utilization(&self, clk: Tau) -> f64 {
        self.occupancy.value() / clk.value()
    }

    /// Whether this stage contains (part of) the given module.
    #[must_use]
    pub fn contains(&self, kind: ModuleKind) -> bool {
        self.entries.iter().any(|(k, _)| *k == kind)
    }
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(k, d)| format!("{k}({d})"))
            .collect();
        write!(f, "[{}]", parts.join(" + "))
    }
}

/// A packed router pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    stages: Vec<PipelineStage>,
    clk: Tau,
}

impl Pipeline {
    /// Packs `modules` (in dependency order) into stages of cycle `clk`.
    /// As EQ 1 is written, a stage holding modules `a..=b` must satisfy
    /// `Σ tᵢ + h_b ≤ clk`: only the *last* module's overhead is charged,
    /// since earlier modules' priority updates overlap downstream logic.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is empty or `params.clk` is non-positive.
    #[must_use]
    pub fn pack(modules: &[AtomicModule], params: &RouterParams) -> Self {
        assert!(!modules.is_empty(), "cannot pack an empty module list");
        params.validate();
        let clk = params.clk;
        let mut stages: Vec<PipelineStage> = Vec::new();
        let mut current = PipelineStage::new();
        // Σ tᵢ of the modules already in `current` (occupancy additionally
        // includes the last module's overhead).
        let mut current_t = Tau::zero();

        let flush =
            |stages: &mut Vec<PipelineStage>, current: &mut PipelineStage, current_t: &mut Tau| {
                if !current.entries.is_empty() {
                    stages.push(std::mem::replace(current, PipelineStage::new()));
                }
                *current_t = Tau::zero();
            };

        for m in modules {
            if m.kind.occupies_full_cycle() {
                // Pinned to exactly one dedicated stage.
                flush(&mut stages, &mut current, &mut current_t);
                let mut stage = PipelineStage::new();
                stage.entries.push((m.kind, clk));
                stage.occupancy = clk;
                stages.push(stage);
                continue;
            }

            let solo = m.delay.total();
            if solo > clk {
                // Atomic module straddles multiple stages (footnote 4).
                flush(&mut stages, &mut current, &mut current_t);
                let mut remaining = solo;
                while remaining > Tau::zero() {
                    let slice = if remaining > clk { clk } else { remaining };
                    let mut stage = PipelineStage::new();
                    stage.entries.push((m.kind, slice));
                    stage.occupancy = slice;
                    stages.push(stage);
                    remaining -= slice;
                }
                continue;
            }

            // EQ 1: adding m keeps the stage valid iff Σt + t_m + h_m ≤ clk
            // (h of the would-be-last module only).
            if current_t + solo > clk {
                flush(&mut stages, &mut current, &mut current_t);
            }
            current.entries.push((m.kind, m.delay.t));
            current_t += m.delay.t;
            current.occupancy = current_t + m.delay.h;
        }
        flush(&mut stages, &mut current, &mut current_t);

        Pipeline { stages, clk }
    }

    /// Number of pipeline stages — the per-hop router latency in cycles.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.stages.len() as u32
    }

    /// The stages, in order.
    #[must_use]
    pub fn stages(&self) -> &[PipelineStage] {
        &self.stages
    }

    /// The clock cycle the pipeline was packed for, in τ.
    #[must_use]
    pub fn clock(&self) -> Tau {
        self.clk
    }

    /// Index of the first stage containing the given module, if present.
    #[must_use]
    pub fn stage_of(&self, kind: ModuleKind) -> Option<usize> {
        self.stages.iter().position(|s| s.contains(kind))
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.stages.iter().map(PipelineStage::to_string).collect();
        write!(f, "{} ({} stages)", parts.join(" | "), self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleDelay;

    fn module(kind: ModuleKind, t: f64, h: f64) -> AtomicModule {
        AtomicModule::new(kind, ModuleDelay::new(Tau::new(t), Tau::new(h)))
    }

    fn params() -> RouterParams {
        RouterParams::paper_default() // clk = 100 τ
    }

    #[test]
    fn single_small_module_is_one_stage() {
        let p = Pipeline::pack(&[module(ModuleKind::SwitchArbiter, 39.0, 9.0)], &params());
        assert_eq!(p.depth(), 1);
        assert_eq!(p.stages()[0].occupancy, Tau::new(48.0));
    }

    #[test]
    fn two_small_modules_share_a_stage() {
        let p = Pipeline::pack(
            &[
                module(ModuleKind::VcAllocator, 40.0, 9.0),
                module(ModuleKind::SwitchAllocator, 40.0, 9.0),
            ],
            &params(),
        );
        assert_eq!(p.depth(), 1, "49 + 49 ≤ 100 must share");
    }

    #[test]
    fn overflow_starts_a_new_stage() {
        let p = Pipeline::pack(
            &[
                module(ModuleKind::VcAllocator, 60.0, 9.0),
                module(ModuleKind::SwitchAllocator, 40.0, 9.0),
            ],
            &params(),
        );
        assert_eq!(p.depth(), 2, "69 + 49 > 100 must split");
        assert_eq!(p.stage_of(ModuleKind::SwitchAllocator), Some(1));
    }

    #[test]
    fn full_cycle_modules_get_dedicated_stages() {
        let p = Pipeline::pack(
            &[
                module(ModuleKind::RouteDecode, 100.0, 0.0),
                module(ModuleKind::SwitchArbiter, 39.0, 9.0),
                module(ModuleKind::Crossbar, 42.0, 0.0),
            ],
            &params(),
        );
        assert_eq!(p.depth(), 3);
        assert_eq!(p.stages()[0].entries[0].0, ModuleKind::RouteDecode);
        assert_eq!(p.stages()[2].entries[0].0, ModuleKind::Crossbar);
        // Crossbar stage is pinned to the full cycle even though its own
        // delay is only 42 τ.
        assert_eq!(p.stages()[2].occupancy, Tau::new(100.0));
    }

    #[test]
    fn oversized_atomic_module_straddles() {
        let p = Pipeline::pack(&[module(ModuleKind::VcAllocator, 145.0, 9.0)], &params());
        assert_eq!(p.depth(), 2, "154 τ needs ceil(154/100) = 2 stages");
        assert!(p
            .stages()
            .iter()
            .all(|s| s.contains(ModuleKind::VcAllocator)));
        assert_eq!(p.stages()[0].occupancy, Tau::new(100.0));
        assert!((p.stages()[1].occupancy.value() - 54.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_fraction_of_clock() {
        let p = Pipeline::pack(&[module(ModuleKind::SwitchArbiter, 41.0, 9.0)], &params());
        assert!((p.stages()[0].utilization(Tau::new(100.0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_shows_stage_structure() {
        let p = Pipeline::pack(
            &[
                module(ModuleKind::RouteDecode, 100.0, 0.0),
                module(ModuleKind::SwitchArbiter, 39.0, 9.0),
            ],
            &params(),
        );
        let s = p.to_string();
        assert!(s.contains("RT"));
        assert!(s.contains("SB"));
        assert!(s.contains("2 stages"));
    }

    #[test]
    #[should_panic(expected = "empty module list")]
    fn empty_module_list_rejected() {
        let _ = Pipeline::pack(&[], &params());
    }
}
