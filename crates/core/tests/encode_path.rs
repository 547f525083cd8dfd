//! Gates on the encode half of the query path, `Column → unit vector`
//! (DESIGN.md §12): a counting allocator pins its heap traffic — a count,
//! so the gate reads the same on any host — and the parent's forward pass,
//! kept here as the reference, pins what the fused SIMD forward computes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use deepjoin::model::{DeepJoin, DeepJoinConfig};
use deepjoin::train::{FineTuneConfig, JoinType};
use deepjoin_lake::column::Column;
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::tokenizer::TokenId;
use deepjoin_nn::encoder::{ColumnEncoder, Pooling};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local without a destructor, so touching it
// neither allocates nor outlives its thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

/// A small trained, indexed MPLite model and 500 held-out query columns.
fn setup() -> &'static (DeepJoin, Vec<Column>) {
    static SETUP: OnceLock<(DeepJoin, Vec<Column>)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut cfg = CorpusConfig::new(CorpusProfile::Webtable, 200, 17);
        cfg.num_domains = 7;
        cfg.entities_per_domain = 200;
        let corpus = Corpus::generate(cfg);
        let (repo, _) = corpus.to_repository();
        let config = DeepJoinConfig {
            fine_tune: FineTuneConfig {
                epochs: 1,
                ..Default::default()
            },
            ..DeepJoinConfig::default()
        };
        let (mut model, _) = DeepJoin::train(&repo, JoinType::Equi, config);
        model.index_repository(&repo);
        let queries = corpus
            .sample_queries(500, 23)
            .into_iter()
            .map(|(q, _)| q)
            .collect();
        (model, queries)
    })
}

#[test]
fn encode_path_stays_off_the_heap() {
    let (model, queries) = setup();
    let columns = &queries[..200];
    let buckets = model.config().oov_buckets;
    let (vocab, encoder) = (model.vocabulary(), model.encoder());
    let texts: Vec<String> = columns
        .iter()
        .map(|c| model.textizer().transform(c))
        .collect();
    let (mut buf, mut ids) = (String::new(), Vec::new());
    let mut out = vec![0f32; model.config().dim];

    // One warm-up lap grows every reused buffer to the longest column.
    let mut tokens = 0;
    for (column, text) in columns.iter().zip(&texts) {
        vocab.encode_hybrid_bucketed_into(text, buckets, &mut buf, &mut ids);
        encoder.encode_into(&ids, &mut out);
        model.embed_column_into(column, &mut out);
        tokens += ids.len();
    }
    assert!(
        tokens >= 20 * columns.len(),
        "columns too short to mean anything: {tokens} tokens"
    );

    let ids_and_forward = allocations(|| {
        for text in &texts {
            vocab.encode_hybrid_bucketed_into(text, buckets, &mut buf, &mut ids);
            encoder.encode_into(&ids, &mut out);
        }
    });
    assert_eq!(
        ids_and_forward, 0,
        "token-id pass + encoder forward must not allocate"
    );

    // Parent: 141 a call. What is left is the textizer's distinct-cell list
    // and set, and the returned vector.
    let embed = allocations(|| {
        for column in columns {
            std::hint::black_box(model.embed_column(column));
        }
    });
    assert!(
        embed <= 10 * columns.len() as u64,
        "embed_column: {embed} allocations over {} columns",
        columns.len()
    );

    // No term in the token count: five times the cells, the same count.
    let mut sized = |cells: usize| {
        let column = Column::from_cells((0..cells).map(|i| format!("Cell_{i} of {cells}")));
        model.embed_column_into(&column, &mut out); // grow the buffers
        allocations(|| model.embed_column_into(&column, &mut out))
    };
    let (short, long) = (sized(10), sized(48));
    assert_eq!(
        short, long,
        "allocations grew with the column: 10 cells vs 48"
    );
    assert!(long <= 10, "embed_column_into: {long} allocations");
}

/// `x·w + b` for one row, `w` row-major `in × n`.
fn linear(x: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
    let n = b.len();
    let mut out = b.to_vec();
    for (r, &xv) in x.iter().enumerate() {
        for (o, &wv) in out.iter_mut().zip(&w[r * n..(r + 1) * n]) {
            *o += xv * wv;
        }
    }
    out
}

/// The parent commit's inference forward (`embed_tokens` → `attention_pool`
/// / `mean_pool` → `head_infer`), in plain loops with libm's `tanh`.
fn reference_encode(enc: &ColumnEncoder, tokens: &[TokenId]) -> Vec<f32> {
    let cfg = enc.config;
    let (emb, pos, attn_w, attn_b, attn_v, h1_w, h1_b, h2_w, h2_b) = enc.raw_params();
    let dim = cfg.dim;
    let len = tokens.len().min(cfg.max_len);
    let mut t = vec![vec![0f32; dim]; len.max(1)];
    for (i, &tok) in tokens.iter().take(len).enumerate() {
        let row = tok as usize % cfg.vocab_size;
        t[i].copy_from_slice(&emb[row * dim..(row + 1) * dim]);
        if cfg.use_positions {
            for (d, &p) in t[i].iter_mut().zip(&pos[i * dim..(i + 1) * dim]) {
                *d += p;
            }
        }
    }
    let weights: Vec<f32> = match cfg.pooling {
        Pooling::Mean => vec![1.0 / t.len() as f32; t.len()],
        Pooling::Attention => {
            let scores: Vec<f32> = t
                .iter()
                .map(|row| {
                    let u = linear(row, attn_w, attn_b);
                    u.iter().zip(attn_v).map(|(u, v)| u.tanh() * v).sum()
                })
                .collect();
            let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exp: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
            let z: f32 = exp.iter().sum();
            exp.iter().map(|e| e / z).collect()
        }
    };
    let mut pooled = vec![0f32; dim];
    for (row, &a) in t.iter().zip(&weights) {
        for (p, &v) in pooled.iter_mut().zip(row) {
            *p += a * v;
        }
    }
    let mut mid = linear(&pooled, h1_w, h1_b);
    mid.iter_mut().for_each(|x| *x = x.tanh());
    let mut out = linear(&mid, h2_w, h2_b);
    if cfg.residual {
        for (o, &p) in out.iter_mut().zip(&pooled) {
            *o += p;
        }
    }
    out
}

#[test]
fn fused_forward_matches_the_parent_forward() {
    let (model, queries) = setup();
    let mut same_top10 = 0;
    for query in queries {
        let text = model.textizer().transform(query);
        let ids = model
            .vocabulary()
            .encode_hybrid_bucketed(&text, model.config().oov_buckets);
        let mut want = reference_encode(model.encoder(), &ids);
        deepjoin_embed::vector::normalize(&mut want);
        let got = model.embed_column(query);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= 1e-5,
                "component {g} vs reference {w} ({} tokens)",
                ids.len()
            );
        }
        let top10 = |v: &[f32]| -> Vec<u32> {
            model
                .search_embedded(v, 10)
                .iter()
                .map(|hit| hit.id.0)
                .collect()
        };
        same_top10 += usize::from(top10(&got) == top10(&want));
    }
    assert!(
        same_top10 * 100 >= queries.len() * 99,
        "identical top-10 on only {same_top10} of {} queries",
        queries.len()
    );
}

/// Most allocations any one call of `f` makes, over `queries` (one warm-up
/// lap first: the graph scratch and the sort buffers grow once per thread).
fn worst_call(queries: &[Vec<f32>], f: impl Fn(&[f32])) -> u64 {
    queries.iter().for_each(|q| f(q));
    queries
        .iter()
        .map(|q| allocations(|| f(q)))
        .max()
        .expect("queries")
}

/// The search half of the query path, counted the same way: a single query
/// is a wave of one, and entering through the wave costs one allocation (the
/// one-element result vector) over the entry points it replaced.
#[test]
fn search_path_allocations_are_pinned() {
    /// Measured at the commit before `SearchRequest`.
    const PARENT_SEARCH_EMBEDDED: u64 = 2;
    const PARENT_LIVE_SEARCH: u64 = 13;

    let (model, queries) = setup();
    let embeddings: Vec<Vec<f32>> = queries[..40].iter().map(|q| model.embed_column(q)).collect();
    let graph = worst_call(&embeddings, |q| {
        std::hint::black_box(model.search_embedded(q, 10));
    });
    assert!(
        graph <= PARENT_SEARCH_EMBEDDED + 1,
        "search_embedded: {graph} allocations a call"
    );

    // Three flushed segments and a memtable: four slabs, scanned on this
    // thread (a serial pool) so every allocation lands on this counter.
    let io: deepjoin_store::SharedIo = std::sync::Arc::new(deepjoin_store::MemIo::new());
    let lake = deepjoin::live::LiveLake::open(io, "live".into(), model)
        .expect("open")
        .lake;
    for t in 0..4 {
        let columns: Vec<(String, Vec<String>)> = (0..5)
            .map(|c| (format!("c{c}"), (0..8).map(|i| format!("v{t}-{c}-{i}")).collect()))
            .collect();
        lake.add_table(model, &format!("t{t}"), &columns).expect("add");
        if t < 3 {
            lake.flush().expect("flush");
        }
    }
    let view = lake.view();
    assert_eq!(view.slab_count(), 4);
    deepjoin_par::Pool::set_global_threads(1);
    let budget = deepjoin_ann::Budget::unlimited();
    let slabs = worst_call(&embeddings, |q| {
        std::hint::black_box(view.search(q, 10, &budget));
    });
    deepjoin_par::Pool::set_global_threads(0);
    assert!(
        slabs <= PARENT_LIVE_SEARCH + 1,
        "LiveView::search over 4 slabs: {slabs} allocations a call"
    );
}
