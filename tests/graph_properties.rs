//! Property tests on the graph substrate, exercised through the public
//! umbrella API: CSR construction invariants, serialization round-trips,
//! bitmap behavior, relabeling, and component consistency.

use proptest::prelude::*;
use xbfs::graph::{bitmap::Bitmap, components, io, relabel, Csr, EdgeList, VertexId};

fn arb_edges() -> impl Strategy<Value = (VertexId, Vec<(VertexId, VertexId)>)> {
    (1u32..96).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..256).prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csr_construction_invariants((n, edges) in arb_edges()) {
        let el = EdgeList::from_edges(n, edges.clone()).expect("in-range");
        let g = Csr::from_edge_list(&el);
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert!(g.is_symmetric());
        prop_assert!(g.is_canonical());
        // Every non-self-loop input edge is present, both directions.
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            } else {
                prop_assert!(!g.has_edge(u, u));
            }
        }
        // Handshake lemma.
        let deg_sum: u64 = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, g.num_directed_edges());
        prop_assert_eq!(deg_sum % 2, 0);
    }

    #[test]
    fn binary_io_roundtrip((n, edges) in arb_edges()) {
        let el = EdgeList::from_edges(n, edges).expect("in-range");
        let g = Csr::from_edge_list(&el);
        let encoded = io::encode_csr(&g);
        let decoded = io::decode_csr(encoded).expect("own encoding decodes");
        prop_assert_eq!(g, decoded);
    }

    #[test]
    fn text_io_roundtrip((n, edges) in arb_edges()) {
        let el = EdgeList::from_edges(n, edges).expect("in-range");
        let mut buf = Vec::new();
        io::write_edge_list(&el, &mut buf).expect("write");
        let back = io::read_edge_list(&buf[..], n).expect("read");
        prop_assert_eq!(el.as_slice(), back.as_slice());
        prop_assert_eq!(back.num_vertices(), n);
    }

    #[test]
    fn relabel_by_degree_preserves_bfs_depth((n, edges) in arb_edges()) {
        // Relabeling is an isomorphism: eccentricities are preserved.
        let el = EdgeList::from_edges(n, edges).expect("in-range");
        let g = Csr::from_edge_list(&el);
        let perm = relabel::degree_descending_permutation(&g);
        let r = relabel::apply_permutation(&g, &perm);
        for src in (0..n).step_by((n as usize / 4).max(1)) {
            let a = xbfs::engine::topdown::run(&g, src);
            let b = xbfs::engine::topdown::run(&r, perm[src as usize]);
            prop_assert_eq!(a.output.max_level(), b.output.max_level());
            prop_assert_eq!(a.output.visited_count(), b.output.visited_count());
        }
    }

    #[test]
    fn components_agree_with_bfs((n, edges) in arb_edges()) {
        let el = EdgeList::from_edges(n, edges).expect("in-range");
        let g = Csr::from_edge_list(&el);
        let comps = components::connected_components(&g);
        // BFS from any source visits exactly its component.
        let src = 0u32;
        let t = xbfs::engine::topdown::run(&g, src);
        let comp_size = comps.sizes[comps.labels[src as usize] as usize];
        prop_assert_eq!(t.output.visited_count(), comp_size);
        for v in g.vertices() {
            prop_assert_eq!(
                t.output.visited(v),
                components::same_component(&comps, src, v),
                "vertex {}", v
            );
        }
    }

    #[test]
    fn bitmap_matches_reference_set(ops in prop::collection::vec((0u32..512, any::<bool>()), 0..200)) {
        let mut bm = Bitmap::new(512);
        let mut reference = std::collections::BTreeSet::new();
        for (v, set) in ops {
            if set {
                bm.set(v);
                reference.insert(v);
            } else {
                bm.clear(v);
                reference.remove(&v);
            }
        }
        prop_assert_eq!(bm.count(), reference.len());
        prop_assert_eq!(bm.iter().collect::<Vec<_>>(),
                        reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn st_connectivity_agrees_with_levels((n, edges) in arb_edges()) {
        let el = EdgeList::from_edges(n, edges).expect("in-range");
        let g = Csr::from_edge_list(&el);
        let levels = xbfs::engine::topdown::run(&g, 0).output.levels;
        for t in (0..n).step_by((n as usize / 5).max(1)) {
            let expect = levels[t as usize];
            let got = xbfs::engine::stcon::st_connectivity(&g, 0, t);
            if expect == xbfs::engine::UNREACHED {
                prop_assert_eq!(got, xbfs::engine::stcon::StResult::Disconnected);
            } else {
                prop_assert_eq!(
                    got,
                    xbfs::engine::stcon::StResult::Connected { distance: expect }
                );
            }
        }
    }
}
