//! A fine-tuning step's heap traffic does not grow with its batch: once the
//! encoder has seen its largest batch, `encode_batch` + `backward` + the
//! optimizer step allocate the same number of times for 4 sequences as for
//! 64. A counting allocator pins it, as a count, so it reads the same on
//! any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deepjoin_lake::tokenizer::TokenId;
use deepjoin_nn::adam::AdamConfig;
use deepjoin_nn::encoder::{ColumnEncoder, EncoderConfig, EncoderOptimizer};
use deepjoin_nn::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// `n` sequences of 1..=`max_len` tokens drawn from `vocab` ids.
fn batch(rng: &mut StdRng, n: usize, max_len: usize, vocab: u32) -> Vec<Vec<TokenId>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..vocab)).collect()
        })
        .collect()
}

/// Allocations of one step over `seqs`; the batch is built beforehand.
fn step_allocations(e: &mut ColumnEncoder, opt: &mut EncoderOptimizer, seqs: &[Vec<TokenId>]) -> u64 {
    let before = ALLOCS.get();
    e.zero_grad();
    let out = e.encode_batch(seqs);
    let grad = Matrix::from_vec(out.rows, out.cols, out.data.iter().map(|x| 0.1 * x).collect());
    e.backward(&grad);
    opt.step(e);
    ALLOCS.get() - before
}

#[test]
fn a_training_step_allocates_nothing_per_sequence_or_token() {
    for config in [EncoderConfig::distil_lite(40, 16, 1), EncoderConfig::mp_lite(40, 16, 2)] {
        let vocab = config.vocab_size as u32;
        let mut rng = StdRng::seed_from_u64(0xA110C);
        let mut e = ColumnEncoder::new(config);
        let mut opt = EncoderOptimizer::new(&e, AdamConfig::default());
        // Warm-up: the largest batch, every sequence at `max_len`, touching
        // every vocabulary row.
        let mut warm = batch(&mut rng, 64, config.max_len, vocab);
        warm.iter_mut().for_each(|s| s.resize(config.max_len, 0));
        warm[0][..vocab as usize].copy_from_slice(&(0..vocab).collect::<Vec<_>>());
        step_allocations(&mut e, &mut opt, &warm);

        let small = batch(&mut rng, 4, 8, vocab);
        let large = batch(&mut rng, 64, config.max_len, vocab);
        let (a, b) = (
            step_allocations(&mut e, &mut opt, &small),
            step_allocations(&mut e, &mut opt, &large),
        );
        assert_eq!(
            a, b,
            "{:?}: 4 short sequences allocate {a} times, 64 long ones {b}",
            config.pooling
        );
    }
}
