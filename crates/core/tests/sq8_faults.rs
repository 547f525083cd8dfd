//! Fault-injection pass over the optional `SQ8V` quantized-plane section.
//!
//! The quantized plane is an accelerator, never a dependency: any damage to
//! it — a checksum-detected bit flip, a checksum-*valid* truncation (a torn
//! write that was re-framed), or arbitrary torn prefixes — must cost exactly
//! one load warning and silently fall back to exact f32 serving. A damaged
//! `SQ8V` section must never fail the load or perturb search results.

use deepjoin::model::{DeepJoin, DeepJoinConfig, IndexHealth};
use deepjoin::persist::SECTION_SQ8;
use deepjoin::train::{FineTuneConfig, JoinType};
use deepjoin::{load_model, save_model};
use deepjoin_ann::Budget;
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::Repository;
use deepjoin_store::{Container, ContainerBuilder};

fn tiny_indexed_model() -> (DeepJoin, Repository) {
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
    model.index_repository(&repo);
    (model, repo)
}

/// Top-k over every indexed column, as exact (id, score-bits) pairs.
fn rankings(model: &DeepJoin, repo: &Repository, k: usize) -> Vec<Vec<(u32, u64)>> {
    repo.columns()
        .iter()
        .take(6)
        .map(|col| {
            let q = model.embed_column(col);
            model
                .search_embedded_budgeted(&q, k, &Budget::unlimited())
                .hits
                .into_iter()
                .map(|h| (h.id.0, h.score.to_bits()))
                .collect()
        })
        .collect()
}

/// Rebuild the artifact with the `SQ8V` payload replaced. The builder
/// recomputes section checksums, so the damage arrives with a *valid* CRC —
/// the decoder itself has to reject it.
fn rebuild_with_sq8(bytes: &[u8], sq8_payload: Vec<u8>) -> Vec<u8> {
    let container = Container::parse(bytes).expect("artifact parses");
    let mut builder = ContainerBuilder::new();
    for name in container.section_names() {
        let payload = container
            .section(name, "rebuild")
            .expect("present")
            .expect("intact")
            .to_vec();
        if name == SECTION_SQ8 {
            builder = builder.section(name, sq8_payload.clone());
        } else {
            builder = builder.section(name, payload);
        }
    }
    builder.build()
}

fn sq8_payload(bytes: &[u8]) -> (usize, Vec<u8>) {
    let container = Container::parse(bytes).expect("artifact parses");
    let payload = container
        .section(SECTION_SQ8, "SQ8V")
        .expect("SQV8 section present")
        .expect("intact payload");
    let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    (offset, payload.to_vec())
}

/// The shared postcondition: the damaged artifact loads with exactly one
/// SQ8 warning, serves from the full-fidelity graph without the quantized
/// plane, and ranks bit-identically to the never-quantized model.
fn assert_degrades_to_exact(
    label: &str,
    damaged: &[u8],
    repo: &Repository,
    reference: &[Vec<(u32, u64)>],
) {
    let loaded = load_model(damaged).unwrap_or_else(|e| panic!("{label}: load failed: {e}"));
    assert_eq!(
        loaded.warnings.len(),
        1,
        "{label}: want exactly one warning, got {:?}",
        loaded.warnings
    );
    assert!(
        loaded.warnings[0].contains("SQ8"),
        "{label}: warning must name the section: {}",
        loaded.warnings[0]
    );
    assert_eq!(
        loaded.model.index_health(),
        IndexHealth::Hnsw,
        "{label}: graph fidelity must be untouched"
    );
    assert_eq!(
        loaded.model.sq8_resident_bytes(),
        None,
        "{label}: damaged plane must be dropped, not half-attached"
    );
    assert_eq!(
        &rankings(&loaded.model, repo, 5),
        reference,
        "{label}: exact-f32 serving must rank like the unquantized model"
    );
}

#[test]
fn damaged_sq8_sections_cost_one_warning_and_serve_exact() {
    let (mut model, repo) = tiny_indexed_model();

    // Reference rankings from the model that never quantized.
    let plain = save_model(&model, true);
    let reference = {
        let loaded = load_model(&plain).expect("plain load");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        rankings(&loaded.model, &repo, 5)
    };

    assert!(model.quantize_sq8(), "quantization must engage");
    let quantized = save_model(&model, true);
    {
        let loaded = load_model(&quantized).expect("quantized load");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert!(loaded.model.sq8_resident_bytes().is_some());
    }

    let (offset, payload) = sq8_payload(&quantized);
    assert!(payload.len() > 16, "plane payload should be non-trivial");

    // 1. Bit flip on disk: the section checksum catches it.
    let mut flipped = quantized.clone();
    flipped[offset + payload.len() / 2] ^= 0x10;
    assert_degrades_to_exact("crc-detected bit flip", &flipped, &repo, &reference);

    // 2. Checksum-valid truncation: a torn payload re-framed with a correct
    // CRC, so only the decoder's own length accounting can reject it.
    let truncated = rebuild_with_sq8(&quantized, payload[..payload.len() / 2].to_vec());
    assert_degrades_to_exact("valid-crc truncation", &truncated, &repo, &reference);

    // 3. Torn prefixes of several lengths, including a cut inside the
    // header and a one-byte-short tail.
    for cut in [1, 7, payload.len() / 3, payload.len() - 1] {
        let torn = rebuild_with_sq8(&quantized, payload[..cut].to_vec());
        assert_degrades_to_exact(&format!("torn prefix of {cut} bytes"), &torn, &repo, &reference);
    }

    // 4. Garbage of the right length: every byte overwritten.
    let garbage = rebuild_with_sq8(&quantized, vec![0xA5; payload.len()]);
    assert_degrades_to_exact("same-length garbage", &garbage, &repo, &reference);
}
