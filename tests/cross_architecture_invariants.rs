//! Property tests on the cross-architecture executor (Algorithm 3):
//! structural invariants of every placement plan, transfer accounting, and
//! agreement between the profile-based costing and the real executor.

use proptest::prelude::*;
use xbfs::archsim::{profile, ArchSpec, Link};
use xbfs::core::cross::{cost_cross, placement_script, run_cross, CrossParams, Placement};
use xbfs::core::session::RunSession;
use xbfs::engine::{validate, FixedMN, XbfsError};
use xbfs::graph::{Csr, EdgeList};

fn arb_graph() -> impl Strategy<Value = (Csr, u32)> {
    (4u32..64).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 1..256);
        (edges, 0..n).prop_map(move |(edges, src)| {
            let el = EdgeList::from_edges(n, edges).expect("in-range");
            (Csr::from_edge_list(&el), src)
        })
    })
}

fn arb_params() -> impl Strategy<Value = CrossParams> {
    let mn = (0.5f64..400.0, 0.5f64..400.0);
    (mn.clone(), mn).prop_map(|((m1, n1), (m2, n2))| CrossParams {
        handoff: FixedMN::new(m1, n1),
        gpu: FixedMN::new(m2, n2),
    })
}

/// Switch parameters drawn from the full abuse surface: zeros, negatives,
/// infinities, NaN, and ordinary valid values. Built as raw struct
/// literals so the degenerate values bypass `FixedMN::new`'s assert, the
/// way an unvalidated prediction or config file would.
fn arb_degenerate_mn() -> impl Strategy<Value = f64> {
    (0u32..8, 0.5f64..400.0).prop_map(|(pick, ordinary)| match pick {
        0 => 0.0,
        1 => -1.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 1e308,
        6 => f64::MIN_POSITIVE,
        _ => ordinary,
    })
}

fn arb_degenerate_params() -> impl Strategy<Value = CrossParams> {
    (
        arb_degenerate_mn(),
        arb_degenerate_mn(),
        arb_degenerate_mn(),
        arb_degenerate_mn(),
    )
        .prop_map(|(m1, n1, m2, n2)| CrossParams {
            handoff: FixedMN { m: m1, n: n1 },
            gpu: FixedMN { m: m2, n: n2 },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placement_is_always_a_cpu_prefix((g, src) in arb_graph(), params in arb_params()) {
        let p = profile(&g, src);
        let script = placement_script(&p, &params);
        prop_assert_eq!(script.len(), p.depth());
        // Once on the GPU, never back: the script is CPU* GPU*.
        let first_gpu = script.iter().position(|pl| pl.on_gpu());
        if let Some(k) = first_gpu {
            prop_assert!(script[..k].iter().all(|&pl| pl == Placement::CpuTd));
            prop_assert!(script[k..].iter().all(|pl| pl.on_gpu()));
        }
    }

    #[test]
    fn transfer_charged_iff_handoff_happens((g, src) in arb_graph(), params in arb_params()) {
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let p = profile(&g, src);
        let c = cost_cross(&p, &cpu, &gpu, &link, &params);
        let any_gpu = c.placements.iter().any(|pl| pl.on_gpu());
        if any_gpu {
            prop_assert!(c.transfer_seconds >= link.latency_s);
        } else {
            prop_assert_eq!(c.transfer_seconds, 0.0);
        }
        // Totals add up.
        let sum: f64 = c.level_seconds.iter().sum::<f64>() + c.transfer_seconds;
        prop_assert!((sum - c.total_seconds).abs() < 1e-15);
    }

    #[test]
    fn executor_and_costing_agree((g, src) in arb_graph(), params in arb_params()) {
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let p = profile(&g, src);
        let c = cost_cross(&p, &cpu, &gpu, &link, &params);
        let r = run_cross(&g, src, &cpu, &gpu, &link, &params);
        prop_assert_eq!(&c.placements, &r.placements);
        prop_assert!((c.total_seconds - r.total_seconds).abs() < 1e-12);
        prop_assert_eq!(validate(&g, &r.traversal.output), Ok(()));
    }

    #[test]
    fn zero_link_cross_never_loses_to_its_own_gpu_script(
        (g, src) in arb_graph(),
        params in arb_params(),
    ) {
        // With a free link, pricing the same placement script is the sum of
        // per-level minima over the chosen devices; sanity: total time is
        // monotone in the link cost.
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let p = profile(&g, src);
        let free = cost_cross(&p, &cpu, &gpu, &Link::zero(), &params);
        let pcie = cost_cross(&p, &cpu, &gpu, &Link::pcie3(), &params);
        prop_assert!(free.total_seconds <= pcie.total_seconds + 1e-15);
        prop_assert_eq!(free.placements, pcie.placements);
    }

    #[test]
    fn degenerate_params_rejected_identically_by_costing_and_executor(
        (g, src) in arb_graph(),
        params in arb_degenerate_params(),
    ) {
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let p = profile(&g, src);

        // `CrossParams::validate` is the one gate in front of costing and
        // executing; what it accepts, both price identically and the
        // executor traverses validly.
        let checked = params.validate();
        match &checked {
            Ok(()) => {
                let c = cost_cross(&p, &cpu, &gpu, &link, &params);
                let r = run_cross(&g, src, &cpu, &gpu, &link, &params);
                prop_assert!((c.total_seconds - r.total_seconds).abs() < 1e-12);
                prop_assert_eq!(validate(&g, &r.traversal.output), Ok(()));
            }
            Err(e) => prop_assert!(matches!(e, XbfsError::InvalidSwitchParams { .. })),
        }

        // Acceptance is exactly "all four thresholds finite and positive".
        let all_valid = [params.handoff.m, params.handoff.n, params.gpu.m, params.gpu.n]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0);
        prop_assert_eq!(checked.is_ok(), all_valid);
    }

    #[test]
    fn out_of_range_source_is_a_typed_error((g, _) in arb_graph(), params in arb_params()) {
        let cpu = ArchSpec::cpu_sandy_bridge();
        let gpu = ArchSpec::gpu_k20x();
        let link = Link::pcie3();
        let bad = g.num_vertices() + 1;
        let err = RunSession::on_platform(&g, &cpu, &gpu, &link, &params)
            .source(bad)
            .run()
            .unwrap_err();
        prop_assert!(matches!(err, XbfsError::BadSource { .. }));
    }
}
