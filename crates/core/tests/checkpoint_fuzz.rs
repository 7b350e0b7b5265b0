//! Fuzz-style corruption tests for [`Checkpoint::from_bytes`].
//!
//! A checkpoint crosses a trust boundary like a serving artifact: it was
//! written by an earlier run and may have been truncated or bit-rotted
//! since. The decoder's contract is that any byte string either decodes
//! or returns a typed error, never a panic; and a decoded checkpoint
//! either resumes into a model that predicts on the dataset, or the
//! resume fails with a typed error.

use gbdt_core::config::TrainConfig;
use gbdt_core::trainer::GpuTrainer;
use gbdt_core::Checkpoint;
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::Device;

/// Deterministic splitmix64, as in `compiled_fuzz.rs`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 120 rows × 5 features, 3 classes, and the trainer that wrote the
/// checkpoint: 3 trees of depth 3, so a resume grows nothing new.
fn setup() -> (Dataset, GpuTrainer, Vec<u8>) {
    let ds = make_classification(&ClassificationSpec {
        instances: 120,
        features: 5,
        classes: 3,
        informative: 4,
        seed: 13,
        ..Default::default()
    });
    let cfg = TrainConfig {
        num_trees: 3,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    };
    let trainer = GpuTrainer::try_new(Device::rtx4090(), cfg).expect("valid config");
    let (_, checkpoints) = trainer.try_fit_checkpointed(&ds).expect("fit succeeds");
    let bytes = checkpoints
        .last()
        .expect("a checkpoint per round")
        .to_bytes();
    (ds, trainer, bytes.to_vec())
}

/// Decode `bytes`; if they decode, resume and predict. Returns whether
/// the checkpoint was accepted. Any panic fails the test.
fn exercise(ds: &Dataset, trainer: &GpuTrainer, bytes: &[u8]) -> bool {
    let Ok(ck) = Checkpoint::from_bytes(bytes) else {
        return false;
    };
    if let Ok(report) = trainer.try_fit_resumed(ds, &ck) {
        let scores = report.model.predict(ds.features());
        assert_eq!(scores.len(), ds.n() * ds.d());
    }
    true
}

/// Every strict prefix of a valid checkpoint is rejected; the whole of
/// it resumes.
#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let (ds, trainer, bytes) = setup();
    for len in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
    assert!(exercise(&ds, &trainer, &bytes));
}

/// 1,500 seeded mutations: 1–4 bit flips, a byte overwrite, a deleted or
/// an inserted byte. None panics in decode, resume or predict, and both
/// outcomes occur.
#[test]
fn seeded_mutations_never_panic() {
    let (ds, trainer, bytes) = setup();
    let mut rng = SplitMix(0x6BC4_F00D);
    let mut accepted = 0;
    for _ in 0..1500 {
        let mut m = bytes.clone();
        match rng.below(4) {
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(m.len());
                    m[at] ^= 1 << rng.below(8);
                }
            }
            1 => {
                let at = rng.below(m.len());
                m[at] = rng.next() as u8;
            }
            2 => {
                m.remove(rng.below(m.len()));
            }
            _ => {
                let at = rng.below(m.len() + 1);
                m.insert(at, rng.next() as u8);
            }
        }
        accepted += usize::from(exercise(&ds, &trainer, &m));
    }
    assert!(
        accepted > 0,
        "no mutant decoded; the fuzz misses the resume path"
    );
    assert!(
        accepted < 1500,
        "every mutant decoded; the fuzz misses the decoder's checks"
    );
}
