//! The one differential test of the search surface: every index type is
//! driven through [`VectorIndex::search_wave`] over index × tombstones ×
//! effort rung × budget × wave width, and each row states once how its
//! answers relate to its exact twin (a flat f32 index over the same rows).
//!
//! Two properties hold on every row: a wave of N is N waves of one (hits,
//! `complete` and `visited`), and the answers are the ones the pre-request
//! entry points gave — an FNV fingerprint over (ids, distance bits,
//! `complete`, `visited`), recorded from those entry points at the commit
//! before they were deleted, is pinned per row × tombstones × rung.
//! Distance bits depend on the summation order of the SIMD tier, so the
//! test pins the portable tier: the constants read the same on any host.
//!
//! Every row is also built a second time from its encoded bytes, the way an
//! opened artifact holds it: each plane decoded as a zero-copy view of a
//! pinned buffer. The mapped build must give the same fingerprints.

use std::sync::Arc;
use std::time::{Duration, Instant};

use deepjoin_ann::io::{
    decode_flat, decode_hnsw_graph, decode_sq8, encode_flat, encode_hnsw_graph, encode_sq8,
    MappedPayload,
};
use deepjoin_ann::{
    Budget, BudgetedSearch, Effort, FlatIndex, HnswConfig, HnswIndex, Metric, SearchRequest,
    Sq8Plane, TombSet, VectorIndex, TRUNCATED_SCAN_ROWS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;
const K: usize = 10;
/// Rows under the scan indexes: past the rung-3 truncation horizon.
const SCAN_ROWS: usize = TRUNCATED_SCAN_ROWS + 700;
/// Rows under the graph indexes.
const GRAPH_ROWS: usize = 3000;

/// How a row's answers relate to its exact twin's under an unlimited budget.
#[derive(Clone, Copy)]
enum Relation {
    /// The same hits, distance bits, `complete` and `visited`, on every rung.
    BitIdentical,
    /// Below rung 2 every reported distance is the exact f32 distance, and
    /// at full effort recall@10 is at least the bound.
    ExactDistances { recall: f64 },
    /// At full effort recall@10 is at least the bound.
    Recall(f64),
}

struct Row {
    name: &'static str,
    rows: usize,
    /// Builds the index over the rows; with `mapped`, rebuilt from its
    /// encoded bytes as zero-copy views.
    build: fn(&[f32], bool) -> Box<dyn VectorIndex>,
    relation: Relation,
    /// Fingerprints recorded from the old entry points:
    /// `[no tombstones, in-range tombstones][rung]`.
    pinned: [[u64; 4]; 2],
}

fn flat(data: &[f32]) -> FlatIndex {
    let mut index = FlatIndex::new(DIM, Metric::L2);
    index.add_batch(data);
    index
}

fn hnsw(data: &[f32]) -> HnswIndex {
    let mut index = HnswIndex::new(DIM, HnswConfig::default());
    index.add_batch(data);
    index
}

/// A payload's bytes as the pinned buffer its decoded views borrow from.
fn source(bytes: Vec<u8>) -> MappedPayload {
    MappedPayload {
        owner: Arc::new(bytes),
        base: 0,
    }
}

fn bytes(src: &MappedPayload) -> &[u8] {
    src.owner.as_ref().as_ref()
}

fn mapped_sq8(plane: Option<&Sq8Plane>) -> Option<Sq8Plane> {
    let src = source(encode_sq8(plane?));
    let plane = decode_sq8(bytes(&src), "SQ8V", Some(&src)).unwrap();
    assert!(plane.is_mapped());
    Some(plane)
}

fn mapped_flat(index: &FlatIndex) -> FlatIndex {
    let src = source(encode_flat(index));
    let mut out = decode_flat(bytes(&src), "VECS", Some(&src)).unwrap();
    assert!(out.is_mapped());
    if let Some(plane) = mapped_sq8(index.sq8()) {
        out.attach_sq8(plane);
    }
    out
}

fn mapped_hnsw(index: &HnswIndex) -> HnswIndex {
    let vectors = mapped_flat(&FlatIndex::from_plane(
        DIM,
        Metric::L2,
        index.vectors_plane().clone(),
    ));
    let src = source(encode_hnsw_graph(index));
    let mut out =
        decode_hnsw_graph(bytes(&src), "HNSW", vectors.plane().clone(), Some(&src)).unwrap();
    assert!(out.is_mapped());
    if let Some(plane) = mapped_sq8(index.sq8()) {
        out.attach_sq8(plane);
    }
    out
}

fn backed_flat(index: FlatIndex, mapped: bool) -> Box<dyn VectorIndex> {
    Box::new(if mapped { mapped_flat(&index) } else { index })
}

fn backed_hnsw(index: HnswIndex, mapped: bool) -> Box<dyn VectorIndex> {
    Box::new(if mapped { mapped_hnsw(&index) } else { index })
}

/// Recall bounds are the ones the per-file tests of each index used.
const TABLE: [Row; 4] = [
    Row {
        name: "flat",
        rows: SCAN_ROWS,
        build: |data, mapped| backed_flat(flat(data), mapped),
        relation: Relation::BitIdentical,
        pinned: [
            [0x2911e1f2c2fecaa0, 0x2911e1f2c2fecaa0, 0x2911e1f2c2fecaa0, 0xacec17a300969b6c],
            [0x54d71cbb1299c300, 0x54d71cbb1299c300, 0x54d71cbb1299c300, 0x5984f067cbdf2c50],
        ],
    },
    Row {
        name: "flat+sq8",
        rows: SCAN_ROWS,
        build: |data, mapped| {
            let mut index = flat(data);
            index.quantize_sq8();
            backed_flat(index, mapped)
        },
        relation: Relation::ExactDistances { recall: 0.99 },
        pinned: [
            [0xde1cfd807d54e3d8, 0xde1cfd807d54e3d8, 0x6a04a46bf545e111, 0xd5084d42d0315857],
            [0x0ca6211a6280c348, 0x0ca6211a6280c348, 0x7274ee06168af7a5, 0xaf567122915fc14f],
        ],
    },
    Row {
        name: "hnsw",
        rows: GRAPH_ROWS,
        build: |data, mapped| backed_hnsw(hnsw(data), mapped),
        relation: Relation::Recall(0.9),
        pinned: [
            [0x2db95ad765bd5331, 0x3347b7f16ac3e3cf, 0x3347b7f16ac3e3cf, 0xe6d97b8b8266cabe],
            [0x53f7a9a28ffa12dc, 0x3b19b900c494fb44, 0x3b19b900c494fb44, 0x3b19b900c494fb44],
        ],
    },
    Row {
        name: "hnsw+sq8",
        rows: GRAPH_ROWS,
        build: |data, mapped| {
            let mut index = hnsw(data);
            index.quantize_sq8();
            backed_hnsw(index, mapped)
        },
        relation: Relation::ExactDistances { recall: 0.9 },
        pinned: [
            [0x28b54c1582478182, 0x806cdc0d151089da, 0xde3f6ca84cb80b1f, 0xa4b67c3a47b499fb],
            [0xd2a9ad94cd5a61cb, 0x1d8638325b77e0cb, 0x4e5bd80c731a8f8f, 0x4e5bd80c731a8f8f],
        ],
    },
];

/// Clustered rows (harder for graph navigability than uniform ones).
fn clustered(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
        .collect();
    let mut data = Vec::with_capacity(n * DIM);
    for i in 0..n {
        for d in 0..DIM {
            data.push(centers[i % 24][d] + rng.gen_range(-0.3f32..0.3));
        }
    }
    data
}

fn eat(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

fn fingerprint(h: &mut u64, wave: &[BudgetedSearch]) {
    eat(h, wave.len() as u64);
    for r in wave {
        eat(h, r.hits.len() as u64);
        for n in &r.hits {
            eat(h, n.id as u64);
            eat(h, n.distance.to_bits() as u64);
        }
        eat(h, r.complete as u64);
        eat(h, r.visited as u64);
    }
}

fn recall(got: &[BudgetedSearch], truth: &[BudgetedSearch]) -> f64 {
    let (mut hit, mut total) = (0usize, 0usize);
    for (g, t) in got.iter().zip(truth) {
        total += t.hits.len();
        hit += g
            .hits
            .iter()
            .filter(|h| t.hits.iter().any(|x| x.id == h.id))
            .count();
    }
    hit as f64 / total as f64
}

#[test]
fn every_index_answers_a_wave_like_its_twin_and_like_the_old_entry_points() {
    deepjoin_simd::force_kernel(Some(deepjoin_simd::Kernel::Portable8));
    // Five members, the fourth a duplicate of the first.
    let mut queries = clustered(5, 2);
    queries.copy_within(0..DIM, 3 * DIM);
    let expired = Instant::now() - Duration::from_millis(1);

    let mut recorded = Vec::new();
    for (row, mapped) in TABLE.iter().flat_map(|row| [(row, false), (row, true)]) {
        let data = clustered(row.rows, 1);
        let index = (row.build)(&data, mapped);
        let twin = flat(&data);
        // In-range tombstones: the first member's true top-3 (the rows that
        // crowd its answer) plus enough scattered rows that a graph widens
        // the reduced beams of rungs 1–3 but not the full one.
        let tombs: TombSet = twin.search(&queries[..DIM], 3)
            .iter()
            .map(|h| h.id)
            .chain((0..row.rows as u32).step_by(61))
            .collect();

        let mut prints = [[0u64; 4]; 2];
        for (t, deleted) in [None, Some(&tombs)].into_iter().enumerate() {
            for rung in 0..4u8 {
                let effort = Effort::from_rung(rung);
                let what = format!("{} mapped={mapped} tombs={t} rung={rung}", row.name);
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for unlimited in [true, false] {
                    let budget = if unlimited {
                        Budget::unlimited()
                    } else {
                        Budget::with_deadline(expired)
                    }
                    .with_effort(effort);
                    let ask = |queries: &[f32], index: &dyn VectorIndex| {
                        index.search_wave(&SearchRequest {
                            queries,
                            k: K,
                            budget: &budget,
                            deleted,
                        })
                    };
                    let wave = ask(&queries, index.as_ref());
                    fingerprint(&mut h, &wave);

                    // Wave of N ≡ N waves of one; a wave of none is empty.
                    assert_eq!(wave.len(), 5, "{what}");
                    for (member, q) in wave.iter().zip(queries.chunks_exact(DIM)) {
                        assert_eq!(ask(q, index.as_ref()), std::slice::from_ref(member), "{what}");
                    }
                    assert_eq!(wave[0], wave[3], "{what}: duplicate members");
                    assert!(ask(&[], index.as_ref()).is_empty(), "{what}");

                    for (member, q) in wave.iter().zip(queries.chunks_exact(DIM)) {
                        assert!(member.hits.len() <= K, "{what}");
                        for pair in member.hits.windows(2) {
                            assert!(pair[0].rank(&pair[1]).is_lt(), "{what}: hits out of order");
                        }
                        for hit in &member.hits {
                            assert!(deleted.is_none_or(|d| !d.contains(hit.id)), "{what}: dead id");
                            let exact = matches!(row.relation, Relation::ExactDistances { .. });
                            if exact && rung < 2 {
                                let at = hit.id as usize * DIM;
                                let want = Metric::L2.distance(q, &data[at..at + DIM]);
                                assert!(
                                    (hit.distance - want).abs() <= 1e-5 * want.max(1.0),
                                    "{what}: {} is not the exact distance {want}",
                                    hit.distance
                                );
                            }
                        }
                    }
                    if !unlimited {
                        continue;
                    }
                    let truth = ask(&queries, &twin);
                    match row.relation {
                        Relation::BitIdentical => assert_eq!(wave, truth, "{what}"),
                        Relation::ExactDistances { recall: bound } | Relation::Recall(bound) => {
                            let got = recall(&wave, &truth);
                            assert!(rung > 0 || got >= bound, "{what}: recall {got} < {bound}");
                        }
                    }
                }
                prints[t][rung as usize] = h;
            }
        }
        recorded.push((row.name, mapped, prints));
    }
    deepjoin_simd::force_kernel(None);

    let pinned: Vec<_> = TABLE
        .iter()
        .flat_map(|row| [(row.name, false, row.pinned), (row.name, true, row.pinned)])
        .collect();
    assert_eq!(
        recorded, pinned,
        "answers moved away from the recorded entry points:\n{recorded:#x?}"
    );
}
