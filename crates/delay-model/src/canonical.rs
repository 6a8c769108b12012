//! Canonical router pipelines (paper Figures 2–4, 11).
//!
//! For each flow-control method this module lists the atomic modules on
//! the critical path in dependency order and packs them with EQ 1.

use crate::equations;
use crate::module::{AtomicModule, ModuleDelay, ModuleKind};
use crate::params::RouterParams;
use crate::pipeline::Pipeline;
use crate::FlowControl;
use logical_effort::Tau;

/// The atomic modules on the critical path of a router with the given flow
/// control, in dependency order (paper Figure 4).
///
/// Route/decode is a black box taking one full cycle (footnote 2); the
/// crossbar is pinned to one full cycle to absorb wire delay (§3.2).
#[must_use]
pub fn critical_path(fc: FlowControl, params: &RouterParams) -> Vec<AtomicModule> {
    let full_cycle = ModuleDelay::new(params.clk, Tau::zero());
    let rt = AtomicModule::new(ModuleKind::RouteDecode, full_cycle);
    let xb = AtomicModule::new(ModuleKind::Crossbar, full_cycle);
    match fc {
        FlowControl::Wormhole => vec![
            rt,
            AtomicModule::new(ModuleKind::SwitchArbiter, equations::switch_arbiter(params)),
            xb,
        ],
        FlowControl::VirtualChannel(r) => vec![
            rt,
            AtomicModule::new(ModuleKind::VcAllocator, equations::vc_allocator(r, params)),
            AtomicModule::new(
                ModuleKind::SwitchAllocator,
                equations::switch_allocator(params),
            ),
            xb,
        ],
        FlowControl::SpeculativeVirtualChannel(r) => vec![
            rt,
            AtomicModule::new(
                ModuleKind::CombinedVaSa,
                equations::combined_va_sa_packing(r, params),
            ),
            xb,
        ],
    }
}

/// The model-prescribed pipeline for a router: its critical path packed
/// with EQ 1. The paper's prose claims hold: a wormhole router packs into
/// 3 stages, a non-speculative VC router into 4 for practical VC counts,
/// and a speculative VC router back into 3 for up to 16 VCs.
#[must_use]
pub fn pipeline(fc: FlowControl, params: &RouterParams) -> Pipeline {
    Pipeline::pack(&critical_path(fc, params), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingFunction as R;

    #[test]
    fn wormhole_is_three_stages() {
        let p = pipeline(FlowControl::Wormhole, &RouterParams::paper_default());
        assert_eq!(p.depth(), 3);
        assert_eq!(p.stage_of(ModuleKind::RouteDecode), Some(0));
        assert_eq!(p.stage_of(ModuleKind::SwitchArbiter), Some(1));
        assert_eq!(p.stage_of(ModuleKind::Crossbar), Some(2));
    }

    #[test]
    fn vc_router_is_four_stages_at_paper_default() {
        for r in R::ALL {
            let p = pipeline(
                FlowControl::VirtualChannel(r),
                &RouterParams::paper_default(),
            );
            assert_eq!(p.depth(), 4, "VC router with {r:?} at p=5, v=2");
        }
    }

    #[test]
    fn spec_router_is_three_stages_at_paper_default() {
        for r in R::ALL {
            let p = pipeline(
                FlowControl::SpeculativeVirtualChannel(r),
                &RouterParams::paper_default(),
            );
            assert_eq!(p.depth(), 3, "spec VC router with {r:?} at p=5, v=2");
        }
    }

    /// Paper §4: "a speculative virtual-channel router with up to 16
    /// virtual channels per physical channel (for 5 and 7 physical
    /// channels) fits within a 3-stage pipeline" (Rv routing function).
    #[test]
    fn spec_router_three_stages_up_to_16_vcs() {
        for p in [5u32, 7] {
            for v in [2u32, 4, 8, 16] {
                let params = RouterParams::with_channels(p, v);
                let pipe = pipeline(FlowControl::SpeculativeVirtualChannel(R::Rv), &params);
                assert_eq!(pipe.depth(), 3, "spec router at p={p}, v={v}");
            }
            let params = RouterParams::with_channels(p, 32);
            let pipe = pipeline(FlowControl::SpeculativeVirtualChannel(R::Rv), &params);
            assert!(pipe.depth() > 3, "32 VCs must not fit 3 stages (p={p})");
        }
    }

    /// Paper §4: with Rp→ (the most general range possible for a
    /// deterministic router) a VC router keeps 4 stages up to 8 VCs at
    /// p = 5, and up to 4 VCs at p = 7; p = 7, v = 8 is pinned by
    /// `rp_allocator_overflows_the_clock_at_p7_v8`.
    #[test]
    fn vc_router_four_stages_up_to_8_vcs_with_rp() {
        for v in [2u32, 4, 8] {
            let params = RouterParams::with_channels(5, v);
            let pipe = pipeline(FlowControl::VirtualChannel(R::Rp), &params);
            assert_eq!(pipe.depth(), 4, "VC router (Rp) at p=5, v={v}");
        }
        for v in [2u32, 4] {
            let params = RouterParams::with_channels(7, v);
            let pipe = pipeline(FlowControl::VirtualChannel(R::Rp), &params);
            assert_eq!(pipe.depth(), 4, "VC router (Rp) at p=7, v={v}");
        }
    }

    #[test]
    fn vc_router_never_shallower_than_spec() {
        for p in [5u32, 7] {
            for v in [2u32, 4, 8, 16, 32] {
                let params = RouterParams::with_channels(p, v);
                for r in R::ALL {
                    let vc = pipeline(FlowControl::VirtualChannel(r), &params).depth();
                    let spec = pipeline(FlowControl::SpeculativeVirtualChannel(r), &params).depth();
                    assert!(
                        vc > spec,
                        "VC must be deeper than spec at p={p}, v={v}, {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wormhole_path_has_no_vc_modules() {
        let path = critical_path(FlowControl::Wormhole, &RouterParams::paper_default());
        assert!(path.iter().all(|m| !matches!(
            m.kind,
            ModuleKind::VcAllocator | ModuleKind::SwitchAllocator | ModuleKind::CombinedVaSa
        )));
    }

    /// At p = 7, v = 8 the reconstructed Rp VC allocator needs about
    /// 102.5 τ: it overflows the 100 τ clock by about 2.5 τ, inside the
    /// model's ±2 τ4 validation band, and so straddles two stages of a
    /// 5-stage pipeline.
    #[test]
    fn rp_allocator_overflows_the_clock_at_p7_v8() {
        let params = RouterParams::with_channels(7, 8);
        let overflow = equations::vc_allocator(R::Rp, &params).total() - params.clk;
        assert!(
            (overflow.value() - 2.5).abs() < 0.05,
            "Rp VC allocator overflows the clock by {overflow}"
        );
        let pipe = pipeline(FlowControl::VirtualChannel(R::Rp), &params);
        assert_eq!(pipe.depth(), 5, "{pipe}");
        assert_eq!(pipe.stage_of(ModuleKind::VcAllocator), Some(1));
        assert_eq!(pipe.stage_of(ModuleKind::SwitchAllocator), Some(3));
    }
}
