//! The host-speed probe: a textbook queue BFS, owned by the benchmark and
//! never changed with the program, over the workload's own graph.
//!
//! On a shared host the same binary's replay throughput drifts by a
//! fifth and more within minutes, at a steal share of 1–3 %: neighbours
//! slow the CPU and its memory system rather than take the CPU away.
//! The probe runs beside every replay, on the same CPU and the same
//! graph, so it sees the same slowdown. Replay throughput and set-up
//! time are scaled by how much slower the probe ran than on the
//! reference VM; a change to the program moves the scaled figures
//! exactly as much as the raw ones.

use std::hint::black_box;
use std::time::Instant;

use xbfs_graph::components::connected_components;
use xbfs_graph::{Csr, VertexId};

/// Edges one probe scans, summed over its traversals: 0.1 s (R-MAT) to
/// 0.17 s (road-like) on the reference VM.
const PROBE_EDGE_SCANS: u64 = 40_000_000;
/// Distinct sources the probe's traversals cycle through.
const PROBE_SOURCES: usize = 8;

pub struct Probe {
    sources: Vec<VertexId>,
    traversals: usize,
    /// Vertices every traversal must reach: the largest component.
    reach: usize,
}

impl Probe {
    /// Sources evenly spaced over the largest connected component, and
    /// enough traversals of it to scan `PROBE_EDGE_SCANS` edges.
    pub fn new(csr: &Csr) -> Result<Self, String> {
        let components = connected_components(csr);
        let members = components
            .largest()
            .map(|id| components.members(id))
            .filter(|m| m.len() > 1)
            .ok_or("the generated graph has no edges")?;
        let step = members.len().div_ceil(PROBE_SOURCES);
        let sources: Vec<VertexId> = members.iter().step_by(step).copied().collect();
        let scans: u64 = members.iter().map(|&v| csr.degree(v)).sum();
        Ok(Self {
            sources,
            traversals: PROBE_EDGE_SCANS.div_ceil(scans).max(1) as usize,
            reach: members.len(),
        })
    }

    /// Run the probe once; returns its wall seconds.
    pub fn time(&self, csr: &Csr) -> Result<f64, String> {
        let (offsets, targets) = (csr.row_offsets(), csr.column_indices());
        let t0 = Instant::now();
        for i in 0..self.traversals {
            let source = self.sources[i % self.sources.len()];
            let mut seen = vec![false; csr.num_vertices() as usize];
            let mut queue = Vec::with_capacity(self.reach);
            seen[source as usize] = true;
            queue.push(source);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let u = u as usize;
                for &w in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push(w);
                    }
                }
            }
            if black_box(queue.len()) != self.reach {
                return Err(format!(
                    "probe BFS from {source} reached {} vertices, not {}",
                    queue.len(),
                    self.reach
                ));
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }
}
