//! Property-based tests of the delay model: monotonicity of the
//! parametric equations and structural invariants of EQ-1 packing.

use delay_model::{
    canonical, equations, FlowControl, ModuleKind, Pipeline, RouterParams, RoutingFunction,
};
use logical_effort::Tau;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = RouterParams> {
    ((2u32..12), (1u32..33), (8u32..129))
        .prop_map(|(p, v, w)| RouterParams::with_channels(p, v).with_width(w))
}

proptest! {
    /// Every atomic-module delay is positive and finite.
    #[test]
    fn delays_positive_and_finite(params in params_strategy()) {
        let delays = [
            equations::switch_arbiter(&params),
            equations::crossbar(&params),
            equations::vc_allocator(RoutingFunction::Rv, &params),
            equations::vc_allocator(RoutingFunction::Rp, &params),
            equations::vc_allocator(RoutingFunction::Rpv, &params),
            equations::switch_allocator(&params),
            equations::spec_switch_allocator(&params),
            equations::speculative_combiner(&params),
        ];
        for d in delays {
            prop_assert!(d.t.value() > 0.0 && d.t.value().is_finite());
            prop_assert!(d.h.value() >= 0.0 && d.h.value().is_finite());
        }
    }

    /// Delays never decrease when p or v grows (port/VC counts only add
    /// arbitration work).
    #[test]
    fn delays_monotone_in_channels(p in 2u32..10, v in 1u32..16) {
        let small = RouterParams::with_channels(p, v);
        let bigger_p = RouterParams::with_channels(p + 1, v);
        let bigger_v = RouterParams::with_channels(p, v + 1);
        for grow in [&bigger_p, &bigger_v] {
            prop_assert!(equations::switch_arbiter(grow).t >= equations::switch_arbiter(&small).t
                || grow.v != small.v); // SB depends only on p
            for r in RoutingFunction::ALL {
                prop_assert!(
                    equations::vc_allocator(r, grow).t >= equations::vc_allocator(r, &small).t
                );
                prop_assert!(
                    equations::combined_va_sa(r, grow).t
                        >= equations::combined_va_sa(r, &small).t
                );
            }
            prop_assert!(
                equations::switch_allocator(grow).t >= equations::switch_allocator(&small).t
            );
        }
    }

    /// The speculative combined stage always beats serial VA→SA — the
    /// architecture's raison d'être, for any configuration.
    #[test]
    fn speculation_always_wins(params in params_strategy()) {
        for r in RoutingFunction::ALL {
            let serial = equations::vc_allocator(r, &params).total()
                + equations::switch_allocator(&params).total();
            let spec = equations::combined_va_sa(r, &params).total();
            prop_assert!(spec < serial);
        }
    }

    /// EQ-1 packing invariants: every stage fits the clock (full-cycle
    /// modules exactly fill theirs), module order is preserved, and
    /// nothing is dropped.
    #[test]
    fn packing_invariants(params in params_strategy()) {
        for fc in [
            FlowControl::Wormhole,
            FlowControl::VirtualChannel(RoutingFunction::Rpv),
            FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rv),
        ] {
            let modules = canonical::critical_path(fc, &params);
            let pipe = Pipeline::pack(&modules, &params);
            // Stages fit the clock.
            for stage in pipe.stages() {
                prop_assert!(stage.occupancy <= params.clk + Tau::new(1e-9));
                prop_assert!(!stage.entries.is_empty());
            }
            // Module order preserved and complete.
            let flat: Vec<ModuleKind> = pipe
                .stages()
                .iter()
                .flat_map(|s| s.entries.iter().map(|(k, _)| *k))
                .collect();
            let mut dedup = flat.clone();
            dedup.dedup();
            let expected: Vec<ModuleKind> = modules.iter().map(|m| m.kind).collect();
            prop_assert_eq!(dedup, expected);
            // Depth bounds: at least one stage per full-cycle module.
            prop_assert!(pipe.depth() >= 2);
        }
    }

    /// Pipeline depth is monotone in clock tightness: a faster clock can
    /// never need fewer stages.
    #[test]
    fn depth_monotone_in_clock(p in 2u32..10, v in 1u32..17) {
        let base = RouterParams::with_channels(p, v);
        let mut prev_depth = None;
        for clk_tau4 in [40.0, 30.0, 20.0, 15.0, 10.0] {
            let params = base.with_clock(Tau::new(clk_tau4 * 5.0));
            let depth = canonical::pipeline(
                FlowControl::VirtualChannel(RoutingFunction::Rpv),
                &params,
            )
            .depth();
            if let Some(prev) = prev_depth {
                prop_assert!(depth >= prev, "tightening the clock reduced depth");
            }
            prev_depth = Some(depth);
        }
    }

    /// Chien's monolithic single-cycle critical path always exceeds the
    /// pipelined clock and grows with v faster than the shared-crossbar
    /// router's pipeline.
    #[test]
    fn chien_penalty_grows(p in 3u32..8, v in 2u32..16) {
        let small = RouterParams::with_channels(p, v);
        let big = RouterParams::with_channels(p, v * 2);
        let chien_small = delay_model::chien::chien_critical_path(&small);
        let chien_big = delay_model::chien::chien_critical_path(&big);
        prop_assert!(chien_big > chien_small);
        prop_assert!(chien_small > small.clk);
    }
}
