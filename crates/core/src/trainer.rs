//! Stepwise, checkpointable fine-tuning with deterministic resume and
//! numerical self-healing (DESIGN.md §10).
//!
//! [`fine_tune_checkpointed`] replaces the closed epoch loop of
//! `train::fine_tune` with a trainer that:
//!
//! * shuffles each epoch with a **counter-based RNG stream**
//!   (`stream_rng(seed, epoch | bump << 32)`), so the batch order of any
//!   epoch is derivable from `(seed, epoch, stream_bump)` alone — the key
//!   to resuming mid-epoch without replaying prior epochs;
//! * writes a checkpoint (encoder parameters, Adam moments + step counts,
//!   trainer counters, loss history) into a two-slot [`CheckpointStore`]
//!   every `checkpoint_every` applied steps and at every epoch end, via
//!   the store's atomic temp/fsync/rename path;
//! * on start, loads the newest intact checkpoint whose fingerprint
//!   matches the training data + hyperparameters and resumes from it —
//!   the continued run is **bit-identical** to an uninterrupted one;
//! * watches the batch loss with an EMA spike detector and, on a spike or
//!   a non-finite loss, rolls back to the last good checkpoint and
//!   re-shuffles under the next RNG stream so the run does not replay the
//!   exact trajectory that diverged.

use rand::seq::SliceRandom;
use rand::stream::stream_rng;

use deepjoin_lake::tokenizer::TokenId;
use deepjoin_nn::encoder::{ColumnEncoder, EncoderOptimizer};
use deepjoin_nn::matrix::Matrix;
use deepjoin_nn::mnr::MnrLoss;

use crate::checkpoint::{
    decode_checkpoint, encode_checkpoint, training_fingerprint, CheckpointMeta, CheckpointStore,
    LoadedCheckpoint,
};
use crate::train::FineTuneConfig;

/// Robustness knobs of the stepwise trainer, separate from the model
/// hyperparameters in [`FineTuneConfig`] (which checkpoints fingerprint).
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Checkpoint every N applied optimizer steps; 0 checkpoints only at
    /// epoch boundaries. Also the cadence of the in-memory rollback
    /// snapshot, so it must match between runs being compared bit-for-bit.
    pub checkpoint_every: usize,
    /// A batch loss above `spike_factor × EMA` triggers a rollback once the
    /// detector is armed.
    pub spike_factor: f32,
    /// Applied batches the EMA must absorb before the detector arms.
    pub spike_warmup: usize,
    /// Rollbacks allowed before the trainer gives up (keeping the last good
    /// state) and returns `completed = false`.
    pub max_rollbacks: usize,
    /// Stop abruptly after this many applied steps *without* any extra
    /// checkpoint — simulates a kill at a step boundary for resume tests.
    pub max_steps: Option<u64>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 0,
            spike_factor: 8.0,
            spike_warmup: 20,
            max_rollbacks: 3,
            max_steps: None,
        }
    }
}

/// What a training run did — the loss history plus the robustness ledger.
#[derive(Debug, Clone, Default)]
pub struct TrainOutcome {
    /// Mean loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Optimizer steps applied over the whole run (including the resumed
    /// prefix).
    pub global_steps: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// `Some(step)` when the run resumed from a checkpoint at that step.
    pub resumed_from: Option<u64>,
    /// False when the run stopped early (`max_steps` hit or the rollback
    /// budget exhausted).
    pub completed: bool,
    /// Non-fatal anomalies: corrupt checkpoint slots skipped, fingerprint
    /// mismatches, checkpoint-write failures, rollbacks.
    pub warnings: Vec<String>,
}

/// The trainer's live state between step boundaries.
struct Trainer<'a, 'io> {
    loss_fn: MnrLoss,
    opt: EncoderOptimizer,
    meta: CheckpointMeta,
    /// Serialized last good checkpoint, kept in memory so rollback works
    /// even without a disk store. Refreshed at every checkpoint boundary.
    last_good: Vec<u8>,
    store: Option<&'a mut CheckpointStore<'io>>,
    max_rollbacks: u64,
    warnings: Vec<String>,
}

impl Trainer<'_, '_> {
    /// Snapshot the current state as the new last-good checkpoint and, if a
    /// store is attached, persist it. Write failures degrade to warnings:
    /// training continues on the in-memory snapshot.
    fn commit_checkpoint(&mut self, encoder: &ColumnEncoder) {
        self.last_good = encode_checkpoint(&self.meta, encoder, &self.opt.export_state());
        if let Some(store) = self.store.as_deref_mut() {
            if let Err(e) = store.save(&self.last_good) {
                self.warnings
                    .push(format!("checkpoint write failed ({e}); continuing without it"));
            }
        }
    }

    /// Restore encoder + optimizer + counters from the last good snapshot.
    fn restore_last_good(&mut self, encoder: &mut ColumnEncoder) {
        let ck = decode_checkpoint(&self.last_good).expect("in-memory checkpoint is intact");
        let adam = self.opt.config();
        apply_checkpoint(&ck, encoder, &mut self.opt, adam);
        self.meta = ck.meta;
    }

    /// Roll back to the last good checkpoint and move to the next RNG
    /// stream. Returns false when the rollback budget is exhausted (the
    /// state is still restored so the caller keeps the last good model).
    fn rollback(&mut self, encoder: &mut ColumnEncoder, reason: &str) -> bool {
        let budget_left = self.meta.rollbacks < self.max_rollbacks;
        self.restore_last_good(encoder);
        if !budget_left {
            self.warnings.push(format!(
                "rollback budget exhausted after {reason}; stopping at step {} with the last \
                 good model",
                self.meta.global_step
            ));
            return false;
        }
        self.meta.stream_bump += 1;
        self.meta.rollbacks += 1;
        self.meta.ema_loss = None;
        self.meta.ema_batches = 0;
        self.warnings.push(format!(
            "{reason} at step {}; rolled back (#{}) and re-shuffling on stream {}",
            self.meta.global_step, self.meta.rollbacks, self.meta.stream_bump
        ));
        // Re-commit immediately: the bumped (rollbacks, stream_bump) make
        // this snapshot win the slot tie-break at the same global_step, so
        // a crash right after rollback resumes on the *new* stream.
        self.commit_checkpoint(encoder);
        true
    }

    fn outcome(&mut self, completed: bool, resumed_from: Option<u64>) -> TrainOutcome {
        TrainOutcome {
            epoch_losses: self.meta.epoch_losses.clone(),
            global_steps: self.meta.global_step,
            rollbacks: self.meta.rollbacks,
            resumed_from,
            completed,
            warnings: std::mem::take(&mut self.warnings),
        }
    }
}

/// Restore encoder and optimizer from a decoded checkpoint. Panics only on
/// internal inconsistency — callers validate shape compatibility first via
/// [`checkpoint_matches`].
fn apply_checkpoint(
    ck: &LoadedCheckpoint,
    encoder: &mut ColumnEncoder,
    opt: &mut EncoderOptimizer,
    adam: deepjoin_nn::adam::AdamConfig,
) {
    *encoder = ColumnEncoder::try_from_raw_params(ck.encoder_config, ck.encoder_params.clone())
        .expect("validated checkpoint restores");
    *opt = EncoderOptimizer::restore_state(encoder, adam, ck.optimizer.clone())
        .expect("validated checkpoint restores");
}

/// Can `ck` be applied to this run? Checks the data/hyperparameter
/// fingerprint and that the tensors actually restore into an encoder +
/// optimizer of the right shape.
fn checkpoint_matches(
    ck: &LoadedCheckpoint,
    fingerprint: u64,
    config: &FineTuneConfig,
) -> Result<(), String> {
    if ck.meta.fingerprint != fingerprint {
        return Err(format!(
            "checkpoint fingerprint {:#x} does not match this training run {:#x} \
             (data or hyperparameters changed)",
            ck.meta.fingerprint, fingerprint
        ));
    }
    let mut probe = ColumnEncoder::try_from_raw_params(ck.encoder_config, ck.encoder_params.clone())
        .map_err(|e| format!("checkpoint encoder is inconsistent: {e}"))?;
    EncoderOptimizer::restore_state(&mut probe, config.adam, ck.optimizer.clone())
        .map_err(|e| format!("checkpoint optimizer is inconsistent: {e}"))?;
    Ok(())
}

/// Fine-tune `encoder` on tokenized pairs with checkpoint/resume/rollback.
///
/// With `store = None` and a default [`TrainerConfig`] this is the plain
/// training loop (`train::fine_tune` delegates here). With a store, the
/// run resumes from the newest intact matching checkpoint and the final
/// model is bit-identical to an uninterrupted run — see
/// `tests/train_resume.rs` for the property test.
pub fn fine_tune_checkpointed(
    encoder: &mut ColumnEncoder,
    pairs: &[(Vec<TokenId>, Vec<TokenId>)],
    config: &FineTuneConfig,
    trainer_config: &TrainerConfig,
    store: Option<&mut CheckpointStore<'_>>,
) -> TrainOutcome {
    assert!(!pairs.is_empty(), "no training pairs");
    let fingerprint = training_fingerprint(pairs, config);

    let mut t = Trainer {
        loss_fn: MnrLoss::new(config.mnr_scale),
        opt: EncoderOptimizer::new(encoder, config.adam),
        meta: CheckpointMeta {
            fingerprint,
            epoch: 0,
            batch_in_epoch: 0,
            global_step: 0,
            stream_bump: 0,
            rollbacks: 0,
            ema_loss: None,
            ema_batches: 0,
            partial_total: 0.0,
            partial_batches: 0,
            epoch_losses: Vec::new(),
        },
        last_good: Vec::new(),
        store,
        max_rollbacks: trainer_config.max_rollbacks as u64,
        warnings: Vec::new(),
    };

    // Resume from the newest intact, matching checkpoint if one exists.
    let mut resumed_from = None;
    if let Some(store) = t.store.as_deref_mut() {
        let (loaded, mut load_warnings) = store.load_latest();
        t.warnings.append(&mut load_warnings);
        if let Some(ck) = loaded {
            match checkpoint_matches(&ck, fingerprint, config) {
                Ok(()) => {
                    apply_checkpoint(&ck, encoder, &mut t.opt, config.adam);
                    t.meta = ck.meta.clone();
                    resumed_from = Some(ck.meta.global_step);
                    t.last_good = encode_checkpoint(&t.meta, encoder, &t.opt.export_state());
                }
                Err(why) => t
                    .warnings
                    .push(format!("ignoring checkpoint: {why}; starting fresh")),
            }
        }
    }
    if resumed_from.is_none() {
        // Step-0 snapshot: the rollback target before the first boundary,
        // and the resume point for a kill before the first checkpoint.
        t.commit_checkpoint(encoder);
    }

    let epochs = config.epochs as u64;
    'training: while t.meta.epoch < epochs {
        // The epoch's batch order depends only on (seed, epoch, bump):
        // resuming mid-epoch recomputes it and skips the consumed prefix.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let stream = t.meta.epoch | (t.meta.stream_bump << 32);
        order.shuffle(&mut stream_rng(config.seed, stream));

        let skip = t.meta.batch_in_epoch as usize;
        for chunk in order.chunks(config.batch_size).skip(skip) {
            if chunk.len() < 2 {
                // No in-batch negatives; consume the cursor and move on.
                t.meta.batch_in_epoch += 1;
                continue;
            }
            // One packed forward over `xs ++ ys`; the loss sees the halves.
            let seqs: Vec<&[TokenId]> = chunk
                .iter()
                .map(|&i| pairs[i].0.as_slice())
                .chain(chunk.iter().map(|&i| pairs[i].1.as_slice()))
                .collect();
            encoder.zero_grad();
            let out = encoder.encode_batch(&seqs);
            let (b, d) = (chunk.len(), out.cols);
            let out_x = Matrix::from_vec(b, d, out.data[..b * d].to_vec());
            let out_y = Matrix::from_vec(b, d, out.data[b * d..].to_vec());
            let Some((loss, dx, dy)) = t.loss_fn.forward_guarded(&out_x, &out_y) else {
                if t.rollback(encoder, "non-finite loss") {
                    continue 'training;
                }
                return t.outcome(false, resumed_from);
            };
            let armed = t.meta.ema_batches >= trainer_config.spike_warmup as u64;
            if let (true, Some(ema)) = (armed, t.meta.ema_loss) {
                if loss > trainer_config.spike_factor * ema.max(1e-6) {
                    if t.rollback(encoder, "loss spike") {
                        continue 'training;
                    }
                    return t.outcome(false, resumed_from);
                }
            }

            encoder.backward(&Matrix::from_vec(2 * b, d, [dx.data, dy.data].concat()));
            t.opt.step(encoder);

            t.meta.global_step += 1;
            t.meta.batch_in_epoch += 1;
            t.meta.partial_total += loss;
            t.meta.partial_batches += 1;
            t.meta.ema_loss = Some(match t.meta.ema_loss {
                Some(e) => 0.9 * e + 0.1 * loss,
                None => loss,
            });
            t.meta.ema_batches += 1;

            if trainer_config.checkpoint_every > 0
                && t.meta
                    .global_step
                    .is_multiple_of(trainer_config.checkpoint_every as u64)
            {
                t.commit_checkpoint(encoder);
            }
            if let Some(max) = trainer_config.max_steps {
                if t.meta.global_step >= max {
                    // Simulated kill: stop without any further checkpoint.
                    return t.outcome(false, resumed_from);
                }
            }
        }

        t.meta
            .epoch_losses
            .push(t.meta.partial_total / t.meta.partial_batches.max(1) as f32);
        t.meta.epoch += 1;
        t.meta.batch_in_epoch = 0;
        t.meta.partial_total = 0.0;
        t.meta.partial_batches = 0;
        t.commit_checkpoint(encoder);
    }

    t.outcome(true, resumed_from)
}
