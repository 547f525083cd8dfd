//! HNSW adjacency storage: heap-built nested lists, or a zero-copy CSR
//! view over a mapped artifact section.
//!
//! A freshly built graph is `Vec<Node>` — nested `Vec`s are what the
//! insertion algorithms need to grow and shrink out-lists in place. A
//! *loaded* graph doesn't need any of that: it is immutable, and rebuilding
//! millions of little `Vec<Vec<u32>>`s is exactly the cold-start cost the
//! aligned layout exists to kill. So the on-disk form is CSR — three flat `u32`
//! arrays — and [`Graph`] lets traversal walk either representation through
//! one accessor pair ([`Graph::level_count`] / [`Graph::neighbors`]), so
//! search behaves identically on both.
//!
//! CSR layout (all `u32`, little-endian on disk):
//!
//! ```text
//! node_off:  n+1 entries; node i owns rows node_off[i]..node_off[i+1],
//!            one row per layer (row r = layer r − node_off[i] of node i),
//!            so level_count(i) = node_off[i+1] − node_off[i].
//! adj_off:   node_off[n]+1 entries; row r's out-list is
//!            neighbors[adj_off[r]..adj_off[r+1]].
//! neighbors: E entries; the concatenated out-lists.
//! ```
//!
//! Mutation (a post-load [`crate::HnswIndex`] `add`) goes through
//! [`Graph::heap_mut`], which materializes CSR back into nested lists
//! first — loads stay zero-copy, and the rare post-load insert pays one
//! conversion.

use crate::plane::PodVec;

/// Adjacency of one heap node: `neighbors[l]` is the out-list on layer `l`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Node {
    pub(crate) neighbors: Vec<Vec<u32>>,
}

enum Repr {
    Heap(Vec<Node>),
    Csr {
        node_off: PodVec<u32>,
        adj_off: PodVec<u32>,
        neighbors: PodVec<u32>,
    },
}

/// Layered adjacency over heap or CSR backing (see module docs).
pub struct Graph {
    repr: Repr,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty heap-backed graph.
    pub fn new() -> Self {
        Self {
            repr: Repr::Heap(Vec::new()),
        }
    }

    /// Graph from fully-formed per-node adjacency.
    pub fn from_adjacency(nodes: Vec<Vec<Vec<u32>>>) -> Self {
        Self {
            repr: Repr::Heap(nodes.into_iter().map(|neighbors| Node { neighbors }).collect()),
        }
    }

    /// Graph over CSR arrays (heap-decoded or mapped views alike), after
    /// validating every structural invariant traversal relies on:
    /// monotone offset tables that cover each other exactly, and neighbor
    /// ids within the node count. Returns a description of the first
    /// violation, so loaders can degrade instead of panicking mid-search.
    pub fn from_csr(
        node_off: impl Into<PodVec<u32>>,
        adj_off: impl Into<PodVec<u32>>,
        neighbors: impl Into<PodVec<u32>>,
    ) -> Result<Self, String> {
        let (node_off, adj_off, neighbors) = (node_off.into(), adj_off.into(), neighbors.into());
        let no = node_off.as_slice();
        let ao = adj_off.as_slice();
        let nb = neighbors.as_slice();
        if no.is_empty() {
            return Err("node offset table is empty".into());
        }
        if no[0] != 0 {
            return Err("node offset table does not start at 0".into());
        }
        if no.windows(2).any(|w| w[0] > w[1]) {
            return Err("node offset table is not monotone".into());
        }
        let rows = *no.last().expect("non-empty") as usize;
        if ao.len() != rows + 1 {
            return Err(format!(
                "adjacency offset table has {} entries, want {}",
                ao.len(),
                rows + 1
            ));
        }
        if ao[0] != 0 {
            return Err("adjacency offset table does not start at 0".into());
        }
        if ao.windows(2).any(|w| w[0] > w[1]) {
            return Err("adjacency offset table is not monotone".into());
        }
        if *ao.last().expect("non-empty") as usize != nb.len() {
            return Err(format!(
                "adjacency covers {} edges, neighbor array holds {}",
                ao.last().expect("non-empty"),
                nb.len()
            ));
        }
        let n = (no.len() - 1) as u32;
        if let Some(&bad) = nb.iter().find(|&&id| id >= n) {
            return Err(format!("neighbor id {bad} out of range (n = {n})"));
        }
        Ok(Self {
            repr: Repr::Csr {
                node_off,
                adj_off,
                neighbors,
            },
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Heap(nodes) => nodes.len(),
            Repr::Csr { node_off, .. } => node_off.len() - 1,
        }
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of layers node `id` participates in (its sampled level + 1).
    #[inline]
    pub fn level_count(&self, id: u32) -> usize {
        match &self.repr {
            Repr::Heap(nodes) => nodes[id as usize].neighbors.len(),
            Repr::Csr { node_off, .. } => {
                let no = node_off.as_slice();
                (no[id as usize + 1] - no[id as usize]) as usize
            }
        }
    }

    /// Out-list of node `id` on `level`. `level` must be below
    /// [`Graph::level_count`] for the node.
    #[inline]
    pub fn neighbors(&self, id: u32, level: usize) -> &[u32] {
        match &self.repr {
            Repr::Heap(nodes) => &nodes[id as usize].neighbors[level],
            Repr::Csr {
                node_off,
                adj_off,
                neighbors,
            } => {
                let row = node_off.as_slice()[id as usize] as usize + level;
                let ao = adj_off.as_slice();
                &neighbors.as_slice()[ao[row] as usize..ao[row + 1] as usize]
            }
        }
    }

    /// True when the adjacency is a zero-copy view of a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Heap(_) => false,
            Repr::Csr { neighbors, .. } => neighbors.is_mapped(),
        }
    }

    /// Heap bytes retained by the adjacency (0 for fully mapped CSR).
    pub fn resident_bytes(&self) -> usize {
        match &self.repr {
            Repr::Heap(nodes) => {
                let mut total = nodes.capacity() * std::mem::size_of::<Node>();
                for node in nodes {
                    total += node.neighbors.capacity() * std::mem::size_of::<Vec<u32>>();
                    for list in &node.neighbors {
                        total += list.capacity() * std::mem::size_of::<u32>();
                    }
                }
                total
            }
            Repr::Csr {
                node_off,
                adj_off,
                neighbors,
            } => {
                node_off.resident_bytes() + adj_off.resident_bytes() + neighbors.resident_bytes()
            }
        }
    }

    /// Flatten to CSR arrays (for the `DJG2` encoder), regardless of backing.
    pub fn to_csr(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let n = self.len();
        let mut node_off = Vec::with_capacity(n + 1);
        let mut adj_off = vec![0u32];
        let mut flat = Vec::new();
        node_off.push(0u32);
        let mut rows = 0u32;
        for id in 0..n as u32 {
            let levels = self.level_count(id);
            rows += levels as u32;
            node_off.push(rows);
            for level in 0..levels {
                flat.extend_from_slice(self.neighbors(id, level));
                adj_off.push(flat.len() as u32);
            }
        }
        (node_off, adj_off, flat)
    }

    /// Mutable per-node adjacency, converting CSR to heap first (one copy;
    /// afterwards the graph stays heap-backed).
    pub(crate) fn heap_mut(&mut self) -> &mut Vec<Node> {
        if let Repr::Csr { .. } = self.repr {
            let mut nodes = Vec::with_capacity(self.len());
            for id in 0..self.len() as u32 {
                let neighbors = (0..self.level_count(id))
                    .map(|l| self.neighbors(id, l).to_vec())
                    .collect();
                nodes.push(Node { neighbors });
            }
            self.repr = Repr::Heap(nodes);
        }
        match &mut self.repr {
            Repr::Heap(nodes) => nodes,
            Repr::Csr { .. } => unreachable!("materialized above"),
        }
    }
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Heap(nodes) => Self {
                repr: Repr::Heap(nodes.clone()),
            },
            Repr::Csr {
                node_off,
                adj_off,
                neighbors,
            } => Self {
                repr: Repr::Csr {
                    node_off: node_off.clone(),
                    adj_off: adj_off.clone(),
                    neighbors: neighbors.clone(),
                },
            },
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.len())
            .field("csr", &matches!(self.repr, Repr::Csr { .. }))
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_adjacency() -> Vec<Vec<Vec<u32>>> {
        vec![
            vec![vec![1, 2], vec![3]],   // node 0: 2 layers
            vec![vec![0]],               // node 1: 1 layer
            vec![vec![0, 3], vec![], vec![3]], // node 2: 3 layers, one empty
            vec![vec![2]],               // node 3
        ]
    }

    #[test]
    fn heap_and_csr_agree_on_every_accessor() {
        let heap = Graph::from_adjacency(sample_adjacency());
        let (no, ao, nb) = heap.to_csr();
        let csr = Graph::from_csr(no, ao, nb).unwrap();
        assert_eq!(heap.len(), csr.len());
        for id in 0..heap.len() as u32 {
            assert_eq!(heap.level_count(id), csr.level_count(id), "node {id}");
            for l in 0..heap.level_count(id) {
                assert_eq!(heap.neighbors(id, l), csr.neighbors(id, l), "node {id} layer {l}");
            }
        }
    }

    #[test]
    fn csr_round_trips_back_to_identical_csr() {
        let heap = Graph::from_adjacency(sample_adjacency());
        let first = heap.to_csr();
        let csr = Graph::from_csr(first.0.clone(), first.1.clone(), first.2.clone()).unwrap();
        assert_eq!(csr.to_csr(), first);
    }

    #[test]
    fn heap_mut_on_csr_materializes_and_preserves_lists() {
        let heap = Graph::from_adjacency(sample_adjacency());
        let (no, ao, nb) = heap.to_csr();
        let mut csr = Graph::from_csr(no, ao, nb).unwrap();
        csr.heap_mut()[0].neighbors[0].push(3);
        assert_eq!(csr.neighbors(0, 0), &[1, 2, 3]);
        assert_eq!(csr.neighbors(2, 2), &[3], "untouched lists survive");
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let (no, ao, nb) = g.to_csr();
        assert_eq!((no.as_slice(), ao.as_slice(), nb.len()), (&[0u32][..], &[0u32][..], 0));
        let back = Graph::from_csr(no, ao, nb).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn from_csr_rejects_structural_damage() {
        let (no, ao, nb) = Graph::from_adjacency(sample_adjacency()).to_csr();
        // Empty node table.
        assert!(Graph::from_csr(vec![], ao.clone(), nb.clone()).is_err());
        // Non-monotone node offsets.
        let mut bad = no.clone();
        bad[1] = 5;
        assert!(Graph::from_csr(bad, ao.clone(), nb.clone()).is_err());
        // Truncated adjacency table.
        assert!(Graph::from_csr(no.clone(), ao[..ao.len() - 1].to_vec(), nb.clone()).is_err());
        // Edge array length mismatch.
        assert!(Graph::from_csr(no.clone(), ao.clone(), nb[..nb.len() - 1].to_vec()).is_err());
        // Out-of-range neighbor id.
        let mut bad = nb.clone();
        bad[0] = 100;
        assert!(Graph::from_csr(no, ao, bad).is_err());
    }

    #[test]
    fn csr_over_mapped_bytes_is_zero_copy() {
        use std::sync::Arc;
        let (no, ao, nb) = Graph::from_adjacency(sample_adjacency()).to_csr();
        let mut bytes = Vec::new();
        for v in no.iter().chain(&ao).chain(&nb) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let owner: crate::plane::ByteOwner = Arc::new(bytes);
        let pv_no = PodVec::<u32>::from_bytes(owner.clone(), 0, no.len()).unwrap();
        let pv_ao = PodVec::<u32>::from_bytes(owner.clone(), no.len() * 4, ao.len()).unwrap();
        let pv_nb =
            PodVec::<u32>::from_bytes(owner, (no.len() + ao.len()) * 4, nb.len()).unwrap();
        let g = Graph::from_csr(pv_no, pv_ao, pv_nb).unwrap();
        assert!(g.is_mapped());
        assert_eq!(g.resident_bytes(), 0);
        let heap = Graph::from_adjacency(sample_adjacency());
        for id in 0..heap.len() as u32 {
            for l in 0..heap.level_count(id) {
                assert_eq!(g.neighbors(id, l), heap.neighbors(id, l));
            }
        }
    }
}
