//! # deepjoin-ann
//!
//! Approximate nearest-neighbor search substrate (the Faiss stand-in,
//! DESIGN.md §1): a from-scratch HNSW graph index (Malkov & Yashunin) and
//! an exact flat index that serves as the correctness oracle, each with an
//! optional SQ8-quantized plane ([`Sq8Plane`]). Both implement
//! [`VectorIndex`], so DeepJoin and the benchmarks can swap backends, as
//! §3.3 of the paper describes.
//!
//! Every search is one call, [`VectorIndex::search_wave`], over one value:
//!
//! ```
//! use deepjoin_ann::{Budget, FlatIndex, Metric, SearchRequest, VectorIndex};
//!
//! let mut index = FlatIndex::new(2, Metric::L2);
//! index.add_batch(&[0., 0., 1., 0., 5., 5.]);
//! let wave = index.search_wave(&SearchRequest {
//!     queries: &[0.1, 0.0, 4.0, 4.0], // two members, row-major
//!     k: 1,
//!     budget: &Budget::unlimited(), // deadline, cancellation, effort rung
//!     deleted: None,                // tombstoned ids never appear
//! });
//! assert_eq!((wave[0].hits[0].id, wave[1].hits[0].id), (0, 2));
//! assert_eq!(index.search(&[0.1, 0.0], 1), wave[0].hits); // a wave of one
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod distance;
pub mod graph;
pub mod io;
pub mod flat;
pub mod hnsw;
pub mod index;
pub mod plane;
pub mod segmented;
pub mod sq8;
pub mod tombstones;

pub use budget::{Budget, BudgetedSearch, Effort, TRUNCATED_SCAN_ROWS};
pub use distance::Metric;
pub use flat::FlatIndex;
pub use graph::Graph;
pub use hnsw::{HnswConfig, HnswIndex};
pub use index::{Neighbor, SearchRequest, VectorIndex};
pub use plane::{ByteOwner, Pod, PodVec};
pub use segmented::search_segments;
pub use sq8::{Sq8Plane, Sq8Query, RESCORE_FACTOR};
pub use tombstones::TombSet;
