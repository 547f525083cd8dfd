//! ANNS-backend ablation (design choice of §3.3): retrieval quality and
//! per-query latency of Flat (exact) and HNSW (the default), each with and
//! without its SQ8-quantized plane, over the *same* trained DeepJoin
//! embeddings. These are the index choices the serving stack makes.
//!
//! Not a paper table — the paper takes Faiss's behaviour as given; this
//! validates the from-scratch implementations against each other.
//!
//! Usage: `cargo run --release -p deepjoin-bench --bin exp_ablation_anns`

use deepjoin::batch::encode_repository;
use deepjoin::model::Variant;
use deepjoin::text::TransformOption;
use deepjoin_ann::{FlatIndex, HnswConfig, HnswIndex, Metric, VectorIndex};
use deepjoin_bench::timing::time_per_query;
use deepjoin_bench::{Bench, JoinKind, Scale};
use deepjoin_lake::column::Column;
use deepjoin_lake::corpus::CorpusProfile;
use deepjoin_metrics::{mean, precision_at_k};

const K: usize = 10;

fn main() {
    let scale = Scale::from_env();
    println!("ANNS-backend ablation — same DeepJoin embeddings, four indexes ({})", scale.label());

    let bench = Bench::new(CorpusProfile::Webtable, scale, 0xA22);
    eprintln!("training DeepJoin…");
    let model = bench.train_deepjoin(
        Variant::MpLite,
        JoinKind::Equi,
        TransformOption::TitleColnameStatCol,
        0.2,
    );
    eprintln!("embedding repository…");
    let embeddings = encode_repository(&model, &bench.repo);
    let dim = bench.scale.dim;
    let queries: Vec<Column> = bench.queries.iter().map(|(q, _)| q.clone()).collect();
    let qembs: Vec<Vec<f32>> = queries.iter().map(|q| model.embed_column(q)).collect();

    eprintln!("building indexes…");
    let build_flat = |sq8: bool| {
        let mut index = FlatIndex::new(dim, Metric::L2);
        index.add_batch(&embeddings);
        if sq8 {
            index.quantize_sq8();
        }
        index
    };
    let build_hnsw = |sq8: bool| {
        let mut index = HnswIndex::new(dim, HnswConfig::default());
        index.add_batch(&embeddings);
        if sq8 {
            index.quantize_sq8();
        }
        index
    };
    let (flat, flat_sq8) = (build_flat(false), build_flat(true));
    let (hnsw, hnsw_sq8) = (build_hnsw(false), build_hnsw(true));

    // Recall@k of every index vs the exact flat scan, and latency for all
    // four.
    let truth: Vec<Vec<u32>> = qembs
        .iter()
        .map(|e| flat.search(e, K).into_iter().map(|n| n.id).collect())
        .collect();

    println!("\n{:<10} {:>12} {:>14}", "Index", "recall@10", "ms/query");
    for (name, index) in [
        ("flat", &flat as &dyn VectorIndex),
        ("flat+sq8", &flat_sq8 as &dyn VectorIndex),
        ("hnsw", &hnsw as &dyn VectorIndex),
        ("hnsw+sq8", &hnsw_sq8 as &dyn VectorIndex),
    ] {
        let mut recalls = Vec::new();
        for (e, t) in qembs.iter().zip(&truth) {
            let got: Vec<u32> = index.search(e, K).into_iter().map(|n| n.id).collect();
            recalls.push(precision_at_k(&got, t, K));
        }
        let mut qi = 0usize;
        let ms = time_per_query(&queries, |_| {
            qi = (qi + 1) % qembs.len();
            std::hint::black_box(index.search(&qembs[qi], K));
        });
        println!("{:<10} {:>12.3} {:>14.3}", name, mean(&recalls), ms);
    }
    println!("\nExpected: HNSW recall ≥ 0.9 at a fraction of flat's latency on large");
    println!("repositories; the +sq8 rows keep their index's recall within noise");
    println!("(the exact rescore returns f32 distances) on a plane ~4x smaller.");
}
