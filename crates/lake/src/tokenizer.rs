//! A small word-level tokenizer and vocabulary.
//!
//! Both the SGNS pre-training (in `deepjoin-embed`) and the column encoder
//! (in `deepjoin-nn` / `deepjoin`) consume token ids produced here. Tokens
//! are lowercased alphanumeric runs; punctuation separates tokens; numbers
//! are kept as-is (cell values like zip codes matter for joins).

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashMap;

/// Write `text`'s tokens — its maximal alphanumeric runs, lowercased — into
/// `buf`, separated by single spaces (a space is never part of a run). The
/// one tokenizing loop: every tokenizer below reads its tokens out of `buf`.
fn lower_runs(text: &str, buf: &mut String) {
    buf.clear();
    let mut gap = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if gap && !buf.is_empty() {
                buf.push(' ');
            }
            gap = false;
            if ch.is_ascii() {
                buf.push(ch.to_ascii_lowercase());
            } else {
                buf.extend(ch.to_lowercase());
            }
        } else {
            gap = true;
        }
    }
}

/// The tokens [`lower_runs`] left in `buf`.
fn runs(buf: &str) -> impl Iterator<Item = &str> {
    buf.split(' ').filter(|run| !run.is_empty())
}

/// Split text into lowercase tokens: maximal runs of alphanumeric characters.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut buf = String::new();
    lower_runs(text, &mut buf);
    runs(&buf).map(str::to_string).collect()
}

/// Hybrid tokenization — the miniature of PLM subword tokenization.
///
/// A WordPiece/BPE tokenizer gives a transformer *both* surface identity
/// (the exact piece sequence distinguishes `Fort_Kelso` from `fort kelso`)
/// and content overlap (the pieces still share subwords). This hybrid
/// scheme reproduces that: each whitespace-delimited word emits
///
/// 1. its **surface token** — the word with case and inner punctuation
///    preserved (template delimiters `,:.;()` are trimmed from the edges);
/// 2. its lowercase alphanumeric **subtokens**, when they differ from the
///    surface form.
///
/// `"Fort_Kelso, 12"` → `["Fort_Kelso", "fort", "kelso", "12"]`.
///
/// Equi-trained encoders can attend to the surface tokens (exact-match
/// identity), semantic-trained encoders to the subtokens (format-invariant
/// content); the attention pooling decides which matters.
///
/// This is the streaming form: each token is handed to `emit` in order as a
/// `&str` borrowed from `text` or from `buf`, which is reused from word to
/// word and call to call — no `String` per token.
pub fn for_each_hybrid_token(text: &str, buf: &mut String, mut emit: impl FnMut(&str)) {
    for raw in text.split_whitespace() {
        let surface = raw.trim_matches(|c: char| matches!(c, ',' | ':' | '.' | ';' | '(' | ')'));
        if surface.is_empty() {
            continue;
        }
        emit(surface);
        lower_runs(surface, buf);
        if buf.as_str() != surface {
            runs(buf).for_each(&mut emit);
        }
    }
}

/// [`for_each_hybrid_token`] collected into owned tokens.
pub fn tokenize_hybrid(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_hybrid_token(text, &mut String::new(), |tok| out.push(tok.to_string()));
    out
}

/// Token id. `0` is reserved for the unknown token.
pub type TokenId = u32;

/// The reserved id for out-of-vocabulary tokens.
pub const UNK: TokenId = 0;

/// A frequency-built vocabulary mapping tokens to dense ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    token_to_id: FxHashMap<String, TokenId>,
    id_to_token: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// An empty vocabulary containing only `<unk>`.
    pub fn new() -> Self {
        let mut v = Self {
            token_to_id: FxHashMap::default(),
            id_to_token: Vec::new(),
            counts: Vec::new(),
        };
        v.id_to_token.push("<unk>".to_string());
        v.counts.push(0);
        v.token_to_id.insert("<unk>".to_string(), UNK);
        v
    }

    /// Build a vocabulary from an iterator of texts, keeping tokens that
    /// occur at least `min_count` times. Ids are assigned in descending
    /// frequency order (ties broken lexicographically) for determinism.
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(texts: I, min_count: u64) -> Self {
        Self::from_tokens(texts.into_iter().flat_map(tokenize), min_count)
    }

    /// Build from texts using the hybrid (surface + subtoken) scheme of
    /// [`tokenize_hybrid`].
    pub fn build_hybrid<'a, I: IntoIterator<Item = &'a str>>(texts: I, min_count: u64) -> Self {
        Self::from_tokens(texts.into_iter().flat_map(tokenize_hybrid), min_count)
    }

    /// Rebuild a vocabulary from `(token, count)` pairs **in id order**
    /// (ids 1..; id 0 stays `<unk>`). Persistence path: preserves the exact
    /// id assignment of the saved vocabulary.
    pub fn from_id_order<I: IntoIterator<Item = (String, u64)>>(pairs: I) -> Self {
        let mut v = Self::new();
        for (tok, count) in pairs {
            let id = v.id_to_token.len() as TokenId;
            v.token_to_id.insert(tok.clone(), id);
            v.id_to_token.push(tok);
            v.counts.push(count);
        }
        v
    }

    /// Ids by descending count (ties lexicographic) over the tokens seen at
    /// least `min_count` times.
    fn from_tokens(tokens: impl Iterator<Item = String>, min_count: u64) -> Self {
        let mut freq: FxHashMap<String, u64> = FxHashMap::default();
        for tok in tokens {
            *freq.entry(tok).or_insert(0) += 1;
        }
        let mut entries: Vec<(String, u64)> =
            freq.into_iter().filter(|(_, c)| *c >= min_count).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Self::from_id_order(entries)
    }

    /// Number of tokens including `<unk>`.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only `<unk>` is present.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= 1
    }

    /// Id of `token`, or [`UNK`].
    pub fn id(&self, token: &str) -> TokenId {
        self.token_to_id.get(token).copied().unwrap_or(UNK)
    }

    /// Token string for `id`. Panics on out-of-range ids.
    pub fn token(&self, id: TokenId) -> &str {
        &self.id_to_token[id as usize]
    }

    /// Corpus count recorded for `id` at build time.
    pub fn count(&self, id: TokenId) -> u64 {
        self.counts[id as usize]
    }

    /// Encode text to token ids (OOV → `UNK`).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        tokenize(text).iter().map(|t| self.id(t)).collect()
    }

    /// Id of `token` with hash-bucket fallback: an out-of-vocabulary token
    /// maps deterministically to one of `buckets` reserved ids in
    /// `[len(), len() + buckets)` instead of `UNK`.
    ///
    /// This is the "hashing trick" fastText uses for its n-gram table: two
    /// occurrences of the same unseen word still receive the same id, so the
    /// encoder keeps an *identity* signal for cell values never seen during
    /// training — essential for equi-joins over a large test repository.
    fn bucketed_id(&self, token: &str, buckets: u32) -> TokenId {
        assert!(buckets > 0, "need at least one bucket");
        match self.token_to_id.get(token) {
            Some(&id) => id,
            None => {
                let h = crate::fxhash::hash_bytes(token.as_bytes());
                self.len() as TokenId + (h % buckets as u64) as TokenId
            }
        }
    }

    /// Encode text to [`Self::bucketed_id`]s.
    pub fn encode_bucketed(&self, text: &str, buckets: u32) -> Vec<TokenId> {
        tokenize(text).iter().map(|tok| self.bucketed_id(tok, buckets)).collect()
    }

    /// Hybrid-tokenized variant of [`Self::encode_bucketed`], replacing the
    /// contents of `ids`; `buf` is the tokenizer's scratch. Neither
    /// allocates once grown to the text at hand.
    pub fn encode_hybrid_bucketed_into(
        &self,
        text: &str,
        buckets: u32,
        buf: &mut String,
        ids: &mut Vec<TokenId>,
    ) {
        ids.clear();
        for_each_hybrid_token(text, buf, |tok| ids.push(self.bucketed_id(tok, buckets)));
    }

    /// [`Self::encode_hybrid_bucketed_into`] into a fresh vector.
    pub fn encode_hybrid_bucketed(&self, text: &str, buckets: u32) -> Vec<TokenId> {
        let mut ids = Vec::new();
        self.encode_hybrid_bucketed_into(text, buckets, &mut String::new(), &mut ids);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("a-b_c"), vec!["a", "b", "c"]);
        assert_eq!(tokenize("ZIP 90210"), vec!["zip", "90210"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn tokenize_handles_unicode() {
        assert_eq!(tokenize("Əlif Ba"), vec!["əlif", "ba"]);
        assert_eq!(tokenize("東京 tower"), vec!["東京", "tower"]);
    }

    #[test]
    fn vocabulary_orders_by_frequency() {
        let texts = ["b b b a a c", "a b"];
        let v = Vocabulary::build(texts.iter().copied(), 1);
        // b appears 4x, a 3x, c 1x
        assert_eq!(v.id("b"), 1);
        assert_eq!(v.id("a"), 2);
        assert_eq!(v.id("c"), 3);
        assert_eq!(v.count(1), 4);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn min_count_filters() {
        let texts = ["a a b"];
        let v = Vocabulary::build(texts.iter().copied(), 2);
        assert_eq!(v.id("a"), 1);
        assert_eq!(v.id("b"), UNK);
    }

    #[test]
    fn encode_roundtrip() {
        let texts = ["tokyo paris tokyo"];
        let v = Vocabulary::build(texts.iter().copied(), 1);
        let ids = v.encode("Tokyo osaka");
        assert_eq!(ids.len(), 2);
        assert_eq!(v.token(ids[0]), "tokyo");
        assert_eq!(ids[1], UNK);
    }

    #[test]
    fn hybrid_tokenize_emits_surface_and_subtokens() {
        assert_eq!(
            tokenize_hybrid("Fort_Kelso, 12"),
            vec!["Fort_Kelso", "fort", "kelso", "12"]
        );
        // Plain lowercase words emit only themselves.
        assert_eq!(tokenize_hybrid("paris tokyo"), vec!["paris", "tokyo"]);
        // Template punctuation is trimmed; inner punctuation preserved.
        assert_eq!(
            tokenize_hybrid("city: a.b@c.com."),
            vec!["city", "a.b@c.com", "a", "b", "c", "com"]
        );
        assert_eq!(tokenize_hybrid("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn hybrid_formats_share_subtokens_but_not_surface() {
        let a = tokenize_hybrid("fort kelso");
        let b = tokenize_hybrid("Fort_Kelso");
        // Different surfaces…
        assert!(!b.contains(&"fort kelso".to_string()));
        assert_ne!(a, b);
        // …same content subtokens.
        assert!(b.contains(&"fort".to_string()) && b.contains(&"kelso".to_string()));
        assert!(a.contains(&"fort".to_string()) && a.contains(&"kelso".to_string()));
    }

    #[test]
    fn hybrid_vocab_and_encoding_roundtrip() {
        let v = Vocabulary::build_hybrid(["Fort_Kelso rest"].iter().copied(), 1);
        assert_ne!(v.id("Fort_Kelso"), UNK);
        assert_ne!(v.id("fort"), UNK);
        let ids = v.encode_hybrid_bucketed("Fort_Kelso unseen_word", 512);
        assert_eq!(ids[0], v.id("Fort_Kelso"));
        // OOV surface + subtokens land in buckets.
        assert!(ids[3] >= v.len() as TokenId);
    }

    /// The parent's collecting tokenizer, kept as the reference the
    /// streaming one must reproduce token for token.
    fn reference_tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    fn reference_tokenize_hybrid(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for raw in text.split_whitespace() {
            let surface =
                raw.trim_matches(|c: char| matches!(c, ',' | ':' | '.' | ';' | '(' | ')'));
            if surface.is_empty() {
                continue;
            }
            out.push(surface.to_string());
            let subs = reference_tokenize(surface);
            if !(subs.len() == 1 && subs[0] == surface) {
                out.extend(subs);
            }
        }
        out
    }

    /// Random text over everything the tokenizer branches on: ASCII of both
    /// cases, digits, template punctuation (trimmed), inner punctuation
    /// (kept), `İ`/`ẞ` (lowercase to two chars, one not alphanumeric / to a
    /// different char), CJK, a combining mark, and ASCII and Unicode spaces.
    #[test]
    fn streaming_tokenizers_match_the_reference_on_random_text() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ALPHABET: &[char] = &[
            'a', 'b', 'z', 'A', 'Q', 'Z', '0', '7', '9', ',', ':', '.', ';', '(', ')', '_', '-',
            '@', 'İ', 'ẞ', 'é', 'Σ', '東', '京', '\u{307}', ' ', ' ', '\t', '\n', '\u{a0}',
            '\u{3000}',
        ];
        let mut rng = StdRng::seed_from_u64(0x70CE);
        let texts: Vec<String> = (0..2000)
            .map(|_| {
                let len = rng.gen_range(0..40usize);
                (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect()
            })
            .collect();
        // Half of the tokens known, half out of vocabulary.
        let vocab = Vocabulary::build_hybrid(texts.iter().step_by(2).map(String::as_str), 1);
        let (mut buf, mut ids) = (String::from("stale"), vec![UNK; 3]);
        for text in &texts {
            assert_eq!(tokenize(text), reference_tokenize(text), "{text:?}");
            let want = reference_tokenize_hybrid(text);
            assert_eq!(tokenize_hybrid(text), want, "{text:?}");

            let want_ids: Vec<TokenId> = want
                .iter()
                .map(|tok| match vocab.id(tok) {
                    UNK => {
                        let h = crate::fxhash::hash_bytes(tok.as_bytes());
                        vocab.len() as TokenId + (h % 64) as TokenId
                    }
                    id => id,
                })
                .collect();
            vocab.encode_hybrid_bucketed_into(text, 64, &mut buf, &mut ids);
            assert_eq!(ids, want_ids, "{text:?}");
            assert_eq!(vocab.encode_hybrid_bucketed(text, 64), want_ids, "{text:?}");
        }
        assert!(texts.iter().any(|t| vocab
            .encode_hybrid_bucketed(t, 64)
            .iter()
            .any(|&id| id >= vocab.len() as TokenId)));
        // The vocabulary build counts what the reference tokenizer produces.
        let reference = texts.iter().step_by(2).flat_map(|t| reference_tokenize_hybrid(t));
        let rebuilt = Vocabulary::from_tokens(reference, 1);
        assert_eq!(rebuilt.id_to_token, vocab.id_to_token);
        assert_eq!(rebuilt.counts, vocab.counts);
    }

    #[test]
    fn bucketed_encode_is_stable_for_oov() {
        let v = Vocabulary::build(["seen words here"].iter().copied(), 1);
        let a = v.encode_bucketed("seen unseen1 unseen1 unseen2", 4096);
        assert_eq!(a[0], v.id("seen"));
        assert!(a[1] >= v.len() as TokenId && a[1] < (v.len() + 4096) as TokenId);
        assert_eq!(a[1], a[2], "same OOV word -> same bucket");
        // Different OOV words *usually* differ (these two do under FxHash).
        assert_ne!(a[1], a[3]);
    }

    #[test]
    fn deterministic_ids_on_ties() {
        let v1 = Vocabulary::build(["x y", "y x"].iter().copied(), 1);
        let v2 = Vocabulary::build(["y x", "x y"].iter().copied(), 1);
        assert_eq!(v1.id("x"), v2.id("x"));
        assert_eq!(v1.id("y"), v2.id("y"));
    }
}
