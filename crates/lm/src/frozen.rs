//! Frozen-LM feature extraction with an embedding cache.
//!
//! TimeKD keeps the CLM frozen and, to avoid "repetitive processing with
//! the frozen CLMs", stores the extracted embeddings for reuse (§IV-B2).
//! [`FrozenLm`] wraps a pretrained [`CausalLm`], runs it under `no_grad`,
//! and memoises last-token embeddings keyed by the exact token sequence and
//! calibration flag.
//!
//! The map is indexed by a 64-bit digest for O(1) lookup, but a digest
//! alone is not a correctness guarantee: two distinct prompts can collide,
//! and a collision would silently return the *wrong* prompt's embedding.
//! Every hit therefore verifies the stored `(tokens, calibrated)` key
//! against the query; a mismatch is treated as a miss, counted in
//! [`FrozenLm::collision_count`], and the entry is overwritten with the
//! recomputed embedding.
//!
//! ## Cache fill
//!
//! [`FrozenLm::fill`] embeds a whole list of prompts ahead of the
//! [`FrozenLm::embed`] calls that will look them up; the teacher runs it
//! once at the top of each training epoch. It dedupes the list, skips
//! prompts already cached, and splits the misses into
//! `min(effective threads, hardware threads, misses)` contiguous shards on
//! the worker pool. Tensors are not `Send`, so each shard builds its own LM
//! replica: a fresh [`CausalLm`] of the same shape whose parameters are
//! then overwritten from this model's [`Module::save_params`] bytes. With
//! one shard the wrapped model runs on the calling thread. Every forward
//! is the same row-independent kernel sequence, so the embeddings are
//! bitwise equal to sequential `embed` calls at any shard count.
//!
//! Only the calling thread touches the cache and its counters: shards
//! return plain `f32` rows, which are inserted after the pool job ends.
//! Spans and op counts record per thread, so with more than one shard a
//! forward's trace lands in the trie of whichever thread ran its shard.
//!
//! ## Counters
//!
//! A miss is one LM forward, whether `embed` or a fill ran it. A hit is one
//! `embed` lookup served from the cache; a fill never counts hits, so a
//! prompt it skips counts nothing. After a fill the epoch's `embed` calls
//! are all hits, which is why a filled epoch reports as many hits as
//! lookups.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use timekd_nn::Module;
use timekd_tensor::parallel::{block_ranges, effective_threads, hardware_threads, parallel_for};
use timekd_tensor::{no_grad, seeded_rng, Tensor};

use crate::model::CausalLm;
use crate::tokenizer::Token;

/// One memoised embedding plus the full key that produced it, so digest
/// collisions are detectable.
struct CacheEntry {
    tokens: Vec<Token>,
    calibrated: bool,
    data: Vec<f32>,
}

impl CacheEntry {
    fn matches(&self, tokens: &[Token], calibrated: bool) -> bool {
        self.calibrated == calibrated && self.tokens == tokens
    }
}

/// A frozen language model with embedding memoisation.
///
/// The model is shared via `Rc` and only the owning thread touches the
/// cache and its counters (a fill's pool shards hand back plain rows), so
/// plain interior mutability suffices.
pub struct FrozenLm {
    lm: CausalLm,
    cache: RefCell<HashMap<u64, CacheEntry>>,
    caching_enabled: Cell<bool>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    collisions: Cell<u64>,
}

fn cache_key(tokens: &[Token], calibrated: bool) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in tokens {
        t.id.hash(&mut h);
        t.modality.hash(&mut h);
    }
    calibrated.hash(&mut h);
    h.finish()
}

/// One LM forward under `no_grad`: the unit a cache miss counts.
fn lm_forward(lm: &CausalLm, tokens: &[Token], calibrated: bool) -> Vec<f32> {
    let _span = timekd_obs::span("lm.forward");
    no_grad(|| lm.last_token_embedding(tokens, calibrated)).to_vec()
}

/// The last-token embeddings of `prompts`, in order, computed in up to
/// `shards` contiguous shards. A pool shard runs on a replica of `lm`
/// rebuilt from its saved parameters; a single shard runs `lm` itself on
/// this thread.
fn embed_sharded(
    lm: &CausalLm,
    prompts: &[&[Token]],
    calibrated: bool,
    shards: usize,
) -> Vec<Vec<f32>> {
    if shards.min(prompts.len()) <= 1 {
        return prompts
            .iter()
            .map(|p| lm_forward(lm, p, calibrated))
            .collect();
    }
    let params = lm.save_params();
    let vocab_size = lm.token_embedding_table().dims()[0];
    let config = *lm.config();
    let ranges = block_ranges(prompts.len(), shards);
    let done: Vec<OnceLock<Vec<Vec<f32>>>> = ranges.iter().map(|_| OnceLock::new()).collect();
    parallel_for(ranges.len(), |s| {
        // The init draws are overwritten by the load, so any seed will do.
        let replica = CausalLm::new(vocab_size, config, &mut seeded_rng(0));
        replica
            .load_params(&mut params.clone())
            .expect("a replica has its source's parameter shapes");
        let (start, end) = ranges[s];
        let rows = prompts[start..end]
            .iter()
            .map(|p| lm_forward(&replica, p, calibrated))
            .collect();
        // Shard `s` is the only writer of `done[s]`.
        let _ = done[s].set(rows);
    });
    done.into_iter()
        .flat_map(|rows| rows.into_inner().expect("every shard ran"))
        .collect()
}

impl FrozenLm {
    /// Freezes `lm`.
    pub fn new(lm: CausalLm) -> FrozenLm {
        FrozenLm {
            lm,
            cache: RefCell::new(HashMap::new()),
            caching_enabled: Cell::new(true),
            hits: Cell::new(0),
            misses: Cell::new(0),
            collisions: Cell::new(0),
        }
    }

    /// The wrapped model (read-only use).
    pub fn model(&self) -> &CausalLm {
        &self.lm
    }

    /// Last-token embedding `[D]` as a constant tensor, served from the
    /// cache when this exact prompt has been embedded before.
    ///
    /// A digest hit only counts as a cache hit after the stored full key
    /// matches the query; colliding entries are recomputed and replaced.
    pub fn embed(&self, tokens: &[Token], calibrated: bool) -> Tensor {
        let _span = timekd_obs::span("lm.embed");
        let caching = self.caching_enabled.get();
        let key = cache_key(tokens, calibrated);
        if caching {
            if let Some(entry) = self.cache.borrow().get(&key) {
                if entry.matches(tokens, calibrated) {
                    self.hits.set(self.hits.get() + 1);
                    timekd_obs::LM_CACHE_HITS.add(1);
                    return Tensor::from_vec(entry.data.clone(), [self.lm.config().dim]);
                }
                self.count_collision();
            }
        }
        self.count_misses(1);
        let data = lm_forward(&self.lm, tokens, calibrated);
        if caching {
            self.cache.borrow_mut().insert(
                key,
                CacheEntry {
                    tokens: tokens.to_vec(),
                    calibrated,
                    data: data.clone(),
                },
            );
        }
        Tensor::from_vec(data, [self.lm.config().dim])
    }

    /// Embeds every prompt in `prompts` that is not cached yet, spread over
    /// the worker pool, so the [`embed`](Self::embed) calls that follow
    /// are hits (see the module docs).
    ///
    /// A prompt repeated in `prompts` is embedded once. A digest collision
    /// with a cached entry is counted and recomputed, as in `embed`. With
    /// caching disabled this does nothing, so every `embed` still runs the
    /// LM.
    pub fn fill<'a>(&self, prompts: impl IntoIterator<Item = &'a [Token]>, calibrated: bool) {
        if !self.caching_enabled.get() {
            return;
        }
        let _span = timekd_obs::span("lm.fill");
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        let mut misses = Vec::new();
        {
            let cache = self.cache.borrow();
            for tokens in prompts {
                let key = cache_key(tokens, calibrated);
                // A digest already taken in this fill is a repeat, or a
                // collision that `embed` will catch.
                if !seen.insert(key) {
                    continue;
                }
                match cache.get(&key) {
                    Some(entry) if entry.matches(tokens, calibrated) => continue,
                    Some(_) => self.count_collision(),
                    None => {}
                }
                keys.push(key);
                misses.push(tokens);
            }
        }
        self.count_misses(misses.len() as u64);
        let shards = effective_threads()
            .min(hardware_threads())
            .min(misses.len());
        let rows = embed_sharded(&self.lm, &misses, calibrated, shards);
        let mut cache = self.cache.borrow_mut();
        for ((key, tokens), data) in keys.into_iter().zip(misses).zip(rows) {
            cache.insert(
                key,
                CacheEntry {
                    tokens: tokens.to_vec(),
                    calibrated,
                    data,
                },
            );
        }
    }

    fn count_misses(&self, n: u64) {
        self.misses.set(self.misses.get() + n);
        timekd_obs::LM_CACHE_MISSES.add(n);
    }

    fn count_collision(&self) {
        self.collisions.set(self.collisions.get() + 1);
        timekd_obs::LM_CACHE_COLLISIONS.add(1);
    }

    /// Enables or disables the embedding cache (the design-choice ablation
    /// measured by the `ablation_cache` bench — §IV-B2's "we store the
    /// subtracted embeddings").
    pub fn set_caching(&self, enabled: bool) {
        self.caching_enabled.set(enabled);
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of digest collisions detected (a digest matched an entry
    /// whose full key differed). Each one was recomputed, never served.
    pub fn collision_count(&self) -> u64 {
        self.collisions.get()
    }

    /// Number of distinct prompts embedded.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Drops all cached embeddings.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Test hook: plants `data` in the cache under the digest of
    /// `(stored_tokens, calibrated)` as if `stored_tokens` had been
    /// embedded. Forced-collision regression tests use this to simulate two
    /// prompts hashing to the same digest (infeasible to construct for the
    /// real 64-bit hasher).
    #[doc(hidden)]
    pub fn inject_cache_entry_for_test(
        &self,
        digest_of: &[Token],
        stored_tokens: &[Token],
        calibrated: bool,
        data: Vec<f32>,
    ) {
        let key = cache_key(digest_of, calibrated);
        self.cache.borrow_mut().insert(
            key,
            CacheEntry {
                tokens: stored_tokens.to_vec(),
                calibrated,
                data,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmConfig;
    use crate::tokenizer::{PromptPiece, PromptTokenizer};
    use timekd_tensor::seeded_rng;

    fn setup() -> (PromptTokenizer, FrozenLm) {
        let tok = PromptTokenizer::new();
        // Not seed 0: a replica's throwaway init must differ from the
        // model it copies, or a skipped parameter load would go unseen.
        let mut rng = seeded_rng(7);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        (tok, FrozenLm::new(lm))
    }

    #[test]
    fn embeddings_are_constant_tensors() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(3.0)]);
        let e = frozen.embed(&toks, true);
        assert!(
            !e.requires_grad(),
            "frozen LM output must not join the graph"
        );
        assert_eq!(e.dims(), &[frozen.model().config().dim]);
    }

    #[test]
    fn cache_hit_on_repeat() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, true);
        assert_eq!(a.to_vec(), b.to_vec());
        let (hits, misses) = frozen.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(frozen.collision_count(), 0);
    }

    #[test]
    fn calibration_flag_is_part_of_key() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(1.0)]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, false);
        assert_ne!(a.to_vec(), b.to_vec());
        assert_eq!(frozen.cache_len(), 2);
    }

    #[test]
    fn different_prompts_different_entries() {
        let (tok, frozen) = setup();
        let a = tok.encode(&[PromptPiece::Number(1.0)]);
        let b = tok.encode(&[PromptPiece::Number(2.0)]);
        let _ = frozen.embed(&a, true);
        let _ = frozen.embed(&b, true);
        assert_eq!(frozen.cache_len(), 2);
    }

    #[test]
    fn caching_can_be_disabled() {
        let (tok, frozen) = setup();
        frozen.set_caching(false);
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let a = frozen.embed(&toks, true);
        let b = frozen.embed(&toks, true);
        assert_eq!(a.to_vec(), b.to_vec(), "results identical either way");
        let (hits, misses) = frozen.cache_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2, "every call recomputes with caching off");
        assert_eq!(frozen.cache_len(), 0);
    }

    #[test]
    fn clear_cache_resets() {
        let (tok, frozen) = setup();
        let toks = tok.encode(&[PromptPiece::Word("forecast")]);
        let _ = frozen.embed(&toks, true);
        frozen.clear_cache();
        assert_eq!(frozen.cache_len(), 0);
    }

    #[test]
    fn digest_collision_is_not_served() {
        // Simulate prompts A and B hashing to the same 64-bit digest: plant
        // poison data under A's digest, key-stamped as belonging to B. The
        // pre-fix cache would return the poison for A; the verified cache
        // must detect the key mismatch, recompute A, and never serve B's
        // data.
        let (tok, frozen) = setup();
        let a = tok.encode(&[PromptPiece::Number(1.0)]);
        let b = tok.encode(&[PromptPiece::Number(2.0)]);
        let dim = frozen.model().config().dim;
        let poison = vec![f32::MAX; dim];
        frozen.inject_cache_entry_for_test(&a, &b, true, poison.clone());

        let got = frozen.embed(&a, true);
        assert_ne!(got.to_vec(), poison, "collision served the wrong prompt");
        assert_eq!(frozen.collision_count(), 1);
        let (hits, misses) = frozen.cache_stats();
        assert_eq!((hits, misses), (0, 1), "a collision is a miss, not a hit");

        // The colliding entry was overwritten with A's true embedding, so a
        // repeat is a genuine verified hit.
        let again = frozen.embed(&a, true);
        assert_eq!(got.to_vec(), again.to_vec());
        assert_eq!(frozen.cache_stats(), (1, 1));
        assert_eq!(frozen.collision_count(), 1);
    }

    #[test]
    fn colliding_keys_differing_only_in_modality_are_distinguished() {
        // Same ids, different modalities — the digest input differs here,
        // but force them onto one digest anyway to prove the full-key
        // comparison (not the hash) is what decides a hit.
        use crate::tokenizer::Modality;
        let (_, frozen) = setup();
        let a = [Token {
            id: 5,
            modality: Modality::Text,
        }];
        let b = [Token {
            id: 5,
            modality: Modality::Numeric,
        }];
        let dim = frozen.model().config().dim;
        frozen.inject_cache_entry_for_test(&a, &b, true, vec![-1.0; dim]);
        let got = frozen.embed(&a, true);
        assert_ne!(got.to_vec(), vec![-1.0; dim]);
        assert_eq!(frozen.collision_count(), 1);
    }

    /// Nine distinct corpus prompts of varied lengths.
    fn corpus(tok: &PromptTokenizer) -> Vec<Vec<Token>> {
        let mut rng = seeded_rng(11);
        (0..9)
            .map(|i| crate::sample_corpus_prompt(tok, 2 + i, &mut rng))
            .collect()
    }

    /// The cache as `digest -> (tokens, calibrated, embedding bits)`.
    fn cache_bits(frozen: &FrozenLm) -> HashMap<u64, (Vec<Token>, bool, Vec<u32>)> {
        frozen
            .cache
            .borrow()
            .iter()
            .map(|(&k, e)| {
                let bits = e.data.iter().map(|v| v.to_bits()).collect();
                (k, (e.tokens.clone(), e.calibrated, bits))
            })
            .collect()
    }

    #[test]
    fn fill_matches_sequential_embeds_at_any_thread_count() {
        let (tok, sequential) = setup();
        let prompts = corpus(&tok);
        for calibrated in [true, false] {
            for p in &prompts {
                sequential.embed(p, calibrated);
            }
        }
        for threads in [1, 2, 5] {
            let (_, filled) = setup();
            timekd_tensor::parallel::with_threads(threads, || {
                for calibrated in [true, false] {
                    filled.fill(prompts.iter().map(Vec::as_slice), calibrated);
                }
            });
            assert_eq!(
                cache_bits(&filled),
                cache_bits(&sequential),
                "{threads} threads"
            );
            assert_eq!(filled.cache_stats(), (0, 2 * prompts.len() as u64));
            // Every lookup after the fill is a hit.
            for p in &prompts {
                filled.embed(p, true);
            }
            assert_eq!(
                filled.cache_stats(),
                (prompts.len() as u64, 2 * prompts.len() as u64)
            );
        }
    }

    #[test]
    fn replica_shards_match_the_wrapped_model() {
        // Replicas are exercised whatever the host's core count: the
        // shard count is forced here rather than derived from it.
        let (tok, frozen) = setup();
        let prompts = corpus(&tok);
        let slices: Vec<&[Token]> = prompts.iter().map(Vec::as_slice).collect();
        let bits = |rows: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let want = bits(embed_sharded(&frozen.lm, &slices, true, 1));
        for shards in [2, 3, 9] {
            let got = timekd_tensor::parallel::with_threads(3, || {
                embed_sharded(&frozen.lm, &slices, true, shards)
            });
            assert_eq!(bits(got), want, "{shards} shards");
        }
    }

    #[test]
    fn fill_embeds_a_repeated_prompt_once() {
        let (tok, frozen) = setup();
        let prompts = corpus(&tok);
        let repeated = prompts.iter().chain(&prompts).chain(&prompts[..2]);
        timekd_tensor::parallel::with_threads(2, || {
            frozen.fill(repeated.map(Vec::as_slice), true);
        });
        assert_eq!(frozen.cache_stats(), (0, prompts.len() as u64));
        assert_eq!(frozen.cache_len(), prompts.len());
    }

    #[test]
    fn fill_skips_cached_prompts() {
        let (tok, frozen) = setup();
        let prompts = corpus(&tok);
        for p in &prompts[..4] {
            frozen.embed(p, true);
        }
        let before = cache_bits(&frozen);
        timekd_tensor::parallel::with_threads(2, || {
            frozen.fill(prompts.iter().map(Vec::as_slice), true);
        });
        assert_eq!(frozen.cache_stats(), (0, prompts.len() as u64));
        let after = cache_bits(&frozen);
        assert!(before.iter().all(|(k, v)| after.get(k) == Some(v)));
        // A second fill finds everything cached and runs no forward.
        frozen.fill(prompts.iter().map(Vec::as_slice), true);
        assert_eq!(frozen.cache_stats(), (0, prompts.len() as u64));
    }

    #[test]
    fn fill_recomputes_a_digest_collision() {
        let (tok, frozen) = setup();
        let a = tok.encode(&[PromptPiece::Number(1.0)]);
        let b = tok.encode(&[PromptPiece::Number(2.0)]);
        let dim = frozen.model().config().dim;
        let poison = vec![f32::MAX; dim];
        frozen.inject_cache_entry_for_test(&a, &b, true, poison.clone());
        frozen.fill([a.as_slice()], true);
        assert_eq!(frozen.collision_count(), 1);
        assert_eq!(frozen.cache_stats(), (0, 1), "a collision is a miss");
        let (_, fresh) = setup();
        let want = fresh.embed(&a, true).to_vec();
        let got = frozen.embed(&a, true).to_vec();
        assert_ne!(got, poison, "collision served the wrong prompt");
        assert_eq!(got, want);
        assert_eq!(frozen.cache_stats(), (1, 1));
    }

    #[test]
    fn fill_does_nothing_with_caching_disabled() {
        let (tok, frozen) = setup();
        frozen.set_caching(false);
        let prompts = corpus(&tok);
        frozen.fill(prompts.iter().map(Vec::as_slice), true);
        assert_eq!(frozen.cache_stats(), (0, 0));
        assert_eq!(frozen.cache_len(), 0);
        frozen.embed(&prompts[0], true);
        assert_eq!(frozen.cache_stats(), (0, 1), "embed still runs the LM");
    }
}
