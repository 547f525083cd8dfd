//! Crash-safety and equivalence tests for the live lake (DESIGN.md §13).
//!
//! * **Kill-point fuzz** — a mutation workload runs over
//!   [`KillPointIo`], once per injected crash point (every write, torn
//!   append prefix, rename, and unlink boundary). After each crash the
//!   surviving bytes are recovered into a fresh lake, which must serve
//!   exactly the committed prefix of acknowledged mutations — plus at most
//!   the single in-flight mutation whose journal append became durable
//!   before its ack was lost.
//! * **Random-interleaving property** — a lake mutated by a seeded random
//!   interleaving of adds / drops / flushes / compactions must answer
//!   searches byte-identically to a from-scratch flat index over the
//!   surviving columns as tracked by the embedding-free
//!   [`MutationOracle`].
//! * **Tombstoned base columns** — `drop-table` on a base-indexed table
//!   takes effect on the next filtered search and never resurfaces after
//!   crash recovery or compaction.
//! * **Corrupt tombstone bitmap** — degrades to serving-without-deletes
//!   with a warning, never a load failure.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use deepjoin::live::LiveLake;
use deepjoin::model::{DeepJoin, DeepJoinConfig, LadderSearch};
use deepjoin::train::{FineTuneConfig, JoinType};
use deepjoin_ann::index::{finalize_hits, push_top};
use deepjoin_ann::{Budget, FlatIndex, SearchRequest, TombSet, VectorIndex};
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::{Column, ColumnMeta, MutationOracle, Repository};
use deepjoin_store::{ArtifactIo, KillPointIo, MemIo, SharedIo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_model(indexed: bool) -> (DeepJoin, Repository) {
    let corpus = Corpus::generate(CorpusConfig::new(CorpusProfile::Webtable, 12, 7));
    let (repo, _) = corpus.to_repository();
    let config = DeepJoinConfig {
        fine_tune: FineTuneConfig {
            epochs: 1,
            ..Default::default()
        },
        ..DeepJoinConfig::default()
    };
    let (mut model, _) = DeepJoin::train(&repo, JoinType::Equi, config);
    if indexed {
        model.index_repository(&repo);
    }
    (model, repo)
}

/// One embedded query against the base index, behind a tombstone filter.
fn filtered(model: &DeepJoin, query: &[f32], k: usize, tombs: &TombSet) -> LadderSearch {
    let req = SearchRequest {
        queries: query,
        k,
        budget: &Budget::unlimited(),
        deleted: Some(tombs),
    };
    model.search_wave(&req).remove(0)
}

fn live_dir() -> PathBuf {
    PathBuf::from("/live")
}

/// Copy every artifact under `dir` from one store into a fresh `MemIo` —
/// the "disk image" that survives a crash.
fn copy_dir(from: &dyn ArtifactIo, dir: &Path) -> MemIo {
    let to = MemIo::new();
    for f in from.list(dir).unwrap_or_default() {
        let p = dir.join(&f);
        if let Ok(bytes) = from.read(&p) {
            to.write_atomic(&p, &bytes).unwrap();
        }
    }
    to
}

fn embed(model: &DeepJoin, table: &str, name: &str, cells: &[String]) -> Vec<f32> {
    let col = Column::new(
        cells.to_vec(),
        ColumnMeta {
            table_title: table.to_string(),
            column_name: name.to_string(),
            ..ColumnMeta::default()
        },
    );
    model.embed_column(&col)
}

// ---------------------------------------------------------------------
// Kill-point fuzz
// ---------------------------------------------------------------------

/// The oracle-visible mutation ops of the fuzz workload, in order.
#[derive(Clone)]
enum FuzzOp {
    Add(&'static str, Vec<(String, Vec<String>)>),
    Drop(&'static str),
}

fn fuzz_ops() -> Vec<FuzzOp> {
    let cols = |names: &[&str]| -> Vec<(String, Vec<String>)> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n.to_string(),
                    (0..3).map(|j| format!("{n}-cell-{i}-{j}")).collect(),
                )
            })
            .collect()
    };
    vec![
        FuzzOp::Add("t1", cols(&["a", "b"])),
        FuzzOp::Add("t2", cols(&["c"])),
        FuzzOp::Drop("t1"),
        FuzzOp::Add("t3", cols(&["d", "e"])),
        FuzzOp::Add("t4", cols(&["f"])),
    ]
}

fn oracle_prefix(n: usize) -> Vec<String> {
    let mut o = MutationOracle::new();
    for op in fuzz_ops().into_iter().take(n) {
        match op {
            FuzzOp::Add(title, cols) => o.add_table(title, &cols),
            FuzzOp::Drop(title) => {
                o.drop_table(title);
            }
        }
    }
    o.surviving_labels()
}

/// Run the full workload (open, mutations with interleaved flushes and a
/// compaction, final add) over `io`. Returns how many oracle-visible
/// mutations were acknowledged (returned `Ok`) before the first failure.
fn run_workload(io: SharedIo, model: &DeepJoin) -> usize {
    // flush_rows is high: flushes happen only where the workload says so,
    // keeping the set of kill points deterministic and interpretable.
    let opened = match LiveLake::open_with_flush_rows(io, live_dir(), model, 1_000) {
        Ok(o) => o,
        Err(_) => return 0, // crashed during open: nothing acknowledged
    };
    let lake = opened.lake;
    let ops = fuzz_ops();
    let mut acked = 0;
    for (i, op) in ops.iter().enumerate() {
        let result = match op {
            FuzzOp::Add(title, cols) => lake.add_table(model, title, cols).map(|_| ()),
            FuzzOp::Drop(title) => lake.drop_table(title, &[]).map(|_| ()),
        };
        if result.is_err() {
            return acked;
        }
        acked += 1;
        // Flush after the second mutation, compact after the fourth: the
        // workload crosses every state transition (journal-only, flushed,
        // flushed+tombstoned, compacted, journal-tail-on-top-of-segments).
        let maintenance = match i {
            1 => lake.flush().map(|_| ()),
            3 => lake.flush().and_then(|_| lake.compact()).map(|_| ()),
            _ => Ok(()),
        };
        if maintenance.is_err() {
            return acked;
        }
    }
    acked
}

fn recovered_labels(image: MemIo, model: &DeepJoin) -> Vec<String> {
    let opened = LiveLake::open(Arc::new(image), live_dir(), model).expect("recovery must load");
    let view = opened.lake.view();
    let surviving = view.surviving();
    // Stable global ids, never duplicated: ascending strictly.
    for w in surviving.windows(2) {
        assert!(w[0].0 < w[1].0, "duplicate or unsorted ids: {surviving:?}");
    }
    surviving
        .into_iter()
        .map(|(_, t, c)| format!("{t}.{c}"))
        .collect()
}

#[test]
fn sigkill_at_every_byte_boundary_recovers_the_committed_prefix() {
    let (model, _repo) = tiny_model(true);

    // Count the kill points with a clean run.
    let counter = Arc::new(KillPointIo::new(MemIo::new(), None));
    let clean_acked = run_workload(counter.clone(), &model);
    let total_ops = fuzz_ops().len();
    assert_eq!(clean_acked, total_ops, "clean run must ack everything");
    let points = counter.points_used();
    assert!(points > 20, "expected a rich kill surface, got {points}");

    // The clean image recovers to the full prefix.
    let clean = recovered_labels(copy_dir(counter.inner(), &live_dir()), &model);
    assert_eq!(clean, oracle_prefix(total_ops));

    for kp in 0..points {
        let io = Arc::new(KillPointIo::new(MemIo::new(), Some(kp)));
        let acked = run_workload(io.clone(), &model);
        assert!(io.crashed(), "kill point {kp} never fired");

        let labels = recovered_labels(copy_dir(io.inner(), &live_dir()), &model);
        // Exactly the committed prefix: everything acknowledged survives;
        // at most the one in-flight mutation (journal append durable, ack
        // lost) may additionally appear.
        let exact = oracle_prefix(acked);
        let plus_one = oracle_prefix((acked + 1).min(total_ops));
        assert!(
            labels == exact || labels == plus_one,
            "kill point {kp}: recovered {labels:?}, wanted {exact:?} (acked {acked}) \
             or {plus_one:?} (in-flight committed)"
        );

        // Recovery is idempotent: recovering the recovered image again
        // (which may have swept orphans / rewritten the journal header)
        // yields the same state, with no duplicated rows.
        let image = Arc::new(copy_dir(io.inner(), &live_dir()));
        {
            let opened =
                LiveLake::open(image.clone(), live_dir(), &model).expect("first recovery");
            // Flush so the second open exercises the manifest path too.
            opened.lake.flush().expect("flush recovered state");
        }
        let relabels = recovered_labels(copy_dir(&*image, &live_dir()), &model);
        assert_eq!(relabels, labels, "kill point {kp}: recovery not idempotent");
    }
}

// ---------------------------------------------------------------------
// Random-interleaving equivalence property
// ---------------------------------------------------------------------

#[test]
fn random_mutation_interleavings_match_a_from_scratch_rebuild() {
    // No base index: every searchable column lives in the lake, so both
    // sides are exact flat scans and the comparison is byte-strict.
    let (model, _repo) = tiny_model(false);
    let dim = model.config().dim;
    let metric = model.config().hnsw.metric;

    for seed in [11u64, 47, 90] {
        let mut rng = StdRng::seed_from_u64(seed);
        let io: SharedIo = Arc::new(MemIo::new());
        let lake = LiveLake::open_with_flush_rows(io.clone(), live_dir(), &model, 1_000)
            .expect("open")
            .lake;
        let mut oracle = MutationOracle::new();
        let titles = ["alpha", "beta", "gamma", "delta"];

        for step in 0..40 {
            match rng.gen_range(0..10) {
                // Adds dominate so the lake actually grows.
                0..=5 => {
                    let title = titles[rng.gen_range(0..titles.len())];
                    let ncols = rng.gen_range(1..=3);
                    let columns: Vec<(String, Vec<String>)> = (0..ncols)
                        .map(|c| {
                            let name = format!("col{}-{}", step, c);
                            let cells = (0..rng.gen_range(1..=4))
                                .map(|j| format!("{seed}-{step}-{c}-{j}"))
                                .collect();
                            (name, cells)
                        })
                        .collect();
                    lake.add_table(&model, title, &columns).expect("add");
                    oracle.add_table(title, &columns);
                }
                6..=7 => {
                    let title = titles[rng.gen_range(0..titles.len())];
                    let lake_result = lake.drop_table(title, &[]);
                    let oracle_dropped = oracle.drop_table(title);
                    assert_eq!(
                        lake_result.is_ok(),
                        oracle_dropped > 0,
                        "seed {seed} step {step}: drop '{title}' disagreement"
                    );
                }
                8 => {
                    lake.flush().expect("flush");
                }
                _ => {
                    lake.compact().expect("compact");
                }
            }
        }
        // The multi-slab view (segments + memtable, tombstones applied at
        // scan time) must already agree with the oracle on what survives.
        {
            let view = lake.view();
            let labels: Vec<String> = view
                .surviving()
                .into_iter()
                .map(|(_, t, c)| format!("{t}.{c}"))
                .collect();
            assert_eq!(labels, oracle.surviving_labels(), "seed {seed}: survivors");
        }

        // Canonicalize to a single clean segment: rows land at the same
        // offsets as a from-scratch index, so the block-kernel reduction
        // order matches and search results must be *byte*-identical (a
        // multi-slab lake can differ by an ULP since each slab scans from
        // its own row 0).
        lake.flush().expect("final flush");
        lake.compact().expect("final compact");

        // Rebuild from scratch over the oracle's surviving columns.
        let surviving = oracle.surviving();
        let mut rebuilt = FlatIndex::new(dim, metric).with_unit_norm(true);
        let mut rebuilt_labels = Vec::new();
        for col in &surviving {
            rebuilt.add(&embed(&model, &col.table, &col.name, &col.cells));
            rebuilt_labels.push(format!("{}.{}", col.table, col.name));
        }

        // Reopen the lake from its own bytes (exercising recovery) and
        // compare full-ranking searches.
        let recovered = LiveLake::open(io.clone(), live_dir(), &model)
            .expect("reopen")
            .lake;
        let view = recovered.view();
        assert_eq!(view.live_rows(), surviving.len(), "seed {seed}: row count");

        let k = surviving.len().max(1);
        for probe in 0..4 {
            let query = embed(
                &model,
                "probe",
                "q",
                &[format!("{seed}-probe-{probe}"), "shared".to_string()],
            );
            let live = view.search(&query, k, &Budget::unlimited());
            let mut merged = Vec::new();
            for n in &live.hits {
                push_top(&mut merged, k, n.id, n.distance);
            }
            let got: Vec<(String, u32)> = finalize_hits(merged, k)
                .into_iter()
                .map(|n| {
                    let (t, c) = view.label(n.id).expect("hit label");
                    (format!("{t}.{c}"), n.distance.to_bits())
                })
                .collect();
            let want: Vec<(String, u32)> = rebuilt
                .search(&query, k)
                .into_iter()
                .map(|n| (rebuilt_labels[n.id as usize].clone(), n.distance.to_bits()))
                .collect();
            assert_eq!(
                got, want,
                "seed {seed} probe {probe}: lake ranking diverged from rebuild"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Background compactor
// ---------------------------------------------------------------------

#[test]
fn stopping_the_compactor_does_not_wait_out_its_interval() {
    let (model, _) = tiny_model(false);
    let io: SharedIo = Arc::new(MemIo::new());
    let lake = LiveLake::open(io, live_dir(), &model).expect("open").lake;
    // An hour-long interval: the thread is parked until stop() unparks it.
    let compactor = lake.spawn_compactor(std::time::Duration::from_secs(3600), 2);
    let start = std::time::Instant::now();
    compactor.stop();
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(5),
        "stop() took {took:?}: the compactor slept through it"
    );
}

// ---------------------------------------------------------------------
// Base-table drops
// ---------------------------------------------------------------------

#[test]
fn dropped_base_tables_vanish_immediately_and_never_reappear() {
    let (model, repo) = tiny_model(true);
    let io: SharedIo = Arc::new(MemIo::new());
    let lake = LiveLake::open(io.clone(), live_dir(), &model).expect("open").lake;

    // Pick the base table owning column 0 and resolve its base ids.
    let victim = repo.columns()[0].meta.table_title.clone();
    let victim_ids: Vec<u32> = repo
        .iter()
        .filter(|(_, c)| c.meta.table_title == victim)
        .map(|(id, _)| id.0)
        .collect();
    assert!(!victim_ids.is_empty());

    let query = model.embed_column(&repo.columns()[0].clone());
    let k = model.indexed_len();
    let before = filtered(&model, &query, k, lake.view().tombs());
    assert!(
        before.hits.iter().any(|h| victim_ids.contains(&h.id.0)),
        "victim must be findable before the drop"
    );

    lake.drop_table(&victim, &victim_ids).expect("drop");

    // Effective on the very next filtered search — no flush, no restart.
    let after = filtered(&model, &query, k, lake.view().tombs());
    assert!(
        after.hits.iter().all(|h| !victim_ids.contains(&h.id.0)),
        "tombstoned base ids leaked into HNSW results"
    );

    // Never reappears: after flush, compaction, and crash recovery.
    lake.flush().expect("flush");
    lake.add_table(&model, "fresh", &[("x".into(), vec!["1".into()])])
        .expect("add");
    lake.flush().expect("flush");
    lake.compact().expect("compact");
    let recovered = LiveLake::open(io, live_dir(), &model).expect("reopen").lake;
    let view = recovered.view();
    for id in &victim_ids {
        assert!(view.tombs().contains(*id), "tombstone for {id} lost");
    }
    let final_hits = filtered(&model, &query, k, view.tombs());
    assert!(
        final_hits.hits.iter().all(|h| !victim_ids.contains(&h.id.0)),
        "dropped base ids reappeared after compaction + recovery"
    );
}

// ---------------------------------------------------------------------
// Corrupt tombstone bitmap
// ---------------------------------------------------------------------

#[test]
fn corrupt_tombstone_bitmap_degrades_to_serving_without_deletes() {
    let (model, _repo) = tiny_model(true);
    let io: SharedIo = Arc::new(MemIo::new());
    {
        let lake = LiveLake::open(io.clone(), live_dir(), &model).expect("open").lake;
        lake.add_table(&model, "t", &[("a".into(), vec!["1".into()])])
            .expect("add");
        lake.drop_table("t", &[]).expect("drop");
        lake.flush().expect("flush");
    }

    // Flip one byte inside the TOMB section payload of the manifest. The
    // section CRC now fails while the container structure stays intact.
    let manifest_path = live_dir().join(deepjoin::live::MANIFEST_FILE);
    let mut bytes = io.read(&manifest_path).expect("manifest");
    let tombs_magic = b"DJT1";
    let pos = bytes
        .windows(tombs_magic.len())
        .rposition(|w| w == tombs_magic)
        .expect("TOMB payload present");
    bytes[pos + 8] ^= 0x40;
    io.write_atomic(&manifest_path, &bytes).expect("rewrite");

    let opened = LiveLake::open(io, live_dir(), &model).expect("must still load");
    assert!(
        opened
            .warnings
            .iter()
            .any(|w| w.contains("serving without deletes")),
        "expected a serving-without-deletes warning, got {:?}",
        opened.warnings
    );
    // The deletes are gone (the dropped row serves again) but nothing else
    // was lost and the lake still accepts work.
    let view = opened.lake.view();
    assert_eq!(view.live_rows(), 1, "the flushed row must still serve");
    assert!(view.tombs().is_empty(), "tombstones degraded to empty");
    opened
        .lake
        .add_table(&model, "u", &[("b".into(), vec!["2".into()])])
        .expect("lake stays writable after degradation");
}

// ---------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------

/// An io that counts journal appends and holds each one for `delay`, so
/// mutations racing the in-flight fsync pile up in the commit queue and
/// must coalesce into batched appends.
struct SlowCountingIo {
    inner: MemIo,
    appends: std::sync::atomic::AtomicUsize,
    delay: std::time::Duration,
}

impl ArtifactIo for SlowCountingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_atomic(path, bytes)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.appends
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.append(path, bytes)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }
}

#[test]
fn concurrent_mutations_group_commit_into_fewer_fsyncs_than_ops() {
    const N: usize = 8;
    let (model, _repo) = tiny_model(false);
    let slow = Arc::new(SlowCountingIo {
        inner: MemIo::new(),
        appends: std::sync::atomic::AtomicUsize::new(0),
        delay: std::time::Duration::from_millis(100),
    });
    let io: SharedIo = slow.clone();
    let lake = LiveLake::open(io.clone(), live_dir(), &model)
        .expect("open")
        .lake;

    // N threads release together; each journals one single-column table.
    let barrier = std::sync::Barrier::new(N);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let (lake, model, barrier) = (&lake, &model, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    lake.add_table(
                        model,
                        &format!("gc{i}"),
                        &[("col".into(), vec![format!("cell-{i}")])],
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every mutation was acknowledged with its own journal seq…
    let mut seqs: Vec<u64> = outcomes
        .into_iter()
        .map(|o| o.expect("every concurrent add must commit").seq)
        .collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), N, "acks must carry {N} distinct seqs");
    assert_eq!(
        seqs[N - 1] - seqs[0],
        (N - 1) as u64,
        "batched records must take consecutive seqs"
    );

    // …but the journal saw far fewer durable appends than mutations.
    let appends = slow.appends.load(std::sync::atomic::Ordering::SeqCst);
    assert!(appends >= 1, "something must have hit the journal");
    assert!(
        appends <= N / 2,
        "expected {N} concurrent mutations to coalesce into at most {} \
         journal appends, saw {appends}",
        N / 2
    );

    // Recovery replays the full committed batch: every add survives.
    drop(lake);
    let recovered = LiveLake::open(io, live_dir(), &model)
        .expect("reopen")
        .lake;
    let view = recovered.view();
    assert_eq!(
        view.live_rows(),
        N,
        "replay must recover every group-committed row"
    );
}
