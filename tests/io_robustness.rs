//! Robustness of the on-disk formats: arbitrary bytes must never panic
//! the binary graph decoder, mutations of valid encodings must either
//! decode to a valid CSR or fail cleanly, and checkpoint spill files —
//! truncated, garbage, or bit-flipped on disk — must surface a typed
//! `XbfsError`, never a panic or a silent bad resume.

use proptest::prelude::*;
use std::sync::OnceLock;
use xbfs::archsim::{ArchSpec, FaultPlan, Link};
use xbfs::core::checkpoint::{capture_at, LevelCheckpoint};
use xbfs::core::recovery::{ResilienceConfig, Rung};
use xbfs::core::CrossParams;
use xbfs::engine::{FixedMN, XbfsError};
use xbfs::graph::{gen, io, Csr};

/// One real spilled checkpoint (JSON text) plus the graph it belongs to,
/// captured once and shared across the corruption proptests.
fn spilled() -> &'static (Csr, String) {
    static SPILL: OnceLock<(Csr, String)> = OnceLock::new();
    SPILL.get_or_init(|| {
        let g = xbfs::graph::rmat::rmat_csr(8, 8);
        let src = xbfs::core::training::pick_source(&g, 3).expect("non-empty graph");
        let params = CrossParams {
            handoff: FixedMN::new(64.0, 64.0),
            gpu: FixedMN::new(14.0, 24.0),
        };
        let ck = capture_at(
            &g,
            src,
            &ArchSpec::cpu_sandy_bridge(),
            &ArchSpec::gpu_k20x(),
            &Link::pcie3(),
            &params,
            &FaultPlan::none(),
            &ResilienceConfig::default_runtime(),
            Rung::CpuOnly,
            2,
        )
        .expect("clean capture");
        let json = ck.to_json();
        (g, json)
    })
}

/// A corrupted spill is only allowed two outcomes: a typed checkpoint
/// error, or a parse that the trust gate (`validate_for`) then judges —
/// and a state that passes both must still be internally consistent.
fn assert_sound_spill(g: &Csr, text: &str) {
    match LevelCheckpoint::from_json(text) {
        Err(XbfsError::Checkpoint { .. }) => {}
        Err(other) => panic!("corrupt spill surfaced a non-checkpoint error: {other}"),
        Ok(ck) => {
            // Parsing succeeded; resuming is only legal if the full trust
            // gate passes, and then the restored state must audit clean.
            if ck.validate_for(g).is_ok() {
                assert!(ck.state.check_against(g).is_ok());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Either outcome is fine; panicking is not.
        let _ = io::decode_csr(&bytes[..]);
    }

    #[test]
    fn decode_of_mutated_encoding_is_sound(
        flip_at in 0usize..256,
        xor in 1u8..=255,
    ) {
        let g = gen::grid(4, 5);
        let mut bytes = io::encode_csr(&g).to_vec();
        let i = flip_at % bytes.len();
        bytes[i] ^= xor;
        // If it still decodes, the decoder's full validation
        // guarantees a canonical, symmetric CSR — a mutation can at
        // most produce a *different* valid graph, never a corrupt one.
        if let Ok(decoded) = io::decode_csr(&bytes[..]) {
            prop_assert!(decoded.is_canonical());
            prop_assert!(decoded.is_symmetric());
        }
    }

    #[test]
    fn truncations_fail_cleanly(cut in 0usize..100) {
        let g = gen::complete(6);
        let bytes = io::encode_csr(&g);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let r = io::decode_csr(&bytes[..cut]);
        prop_assert!(r.is_err(), "truncated decode at {} succeeded", cut);
    }

    #[test]
    fn checkpoint_garbage_spills_fail_with_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let (g, _) = spilled();
        let text = String::from_utf8_lossy(&bytes);
        assert_sound_spill(g, &text);
    }

    #[test]
    fn checkpoint_truncated_spills_fail_with_a_typed_error(frac in 0.0f64..1.0) {
        let (g, json) = spilled();
        let cut = ((json.len() as f64 * frac) as usize).min(json.len() - 1);
        // Cut on a char boundary (the spill is ASCII JSON, but stay safe).
        let cut = (0..=cut).rev().find(|&i| json.is_char_boundary(i)).unwrap();
        assert_sound_spill(g, &json[..cut]);
    }

    #[test]
    fn checkpoint_bitflipped_spills_never_resume_silently(
        at in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let (g, json) = spilled();
        let mut bytes = json.clone().into_bytes();
        let i = at % bytes.len();
        bytes[i] ^= xor;
        let text = String::from_utf8_lossy(&bytes);
        assert_sound_spill(g, &text);
    }
}

/// The unflipped spill itself parses and passes the trust gate — the
/// corruption tests above are exercising real rejections, not a fixture
/// that was broken to begin with.
#[test]
fn the_pristine_spill_fixture_is_trusted() {
    let (g, json) = spilled();
    let ck = LevelCheckpoint::from_json(json).expect("pristine spill parses");
    assert!(ck.validate_for(g).is_ok());
    assert_eq!(ck.level(), 2);
}
