//! Train, serialize, reload and serve a multi-output model — the
//! deployment loop a downstream user of the library runs.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use gbdt_mo::core::{rmse, DeviceEnsemble, Model, PredictMode};
use gbdt_mo::prelude::*;

fn main() {
    // Multi-step traffic-style forecasting: 8 correlated regression
    // outputs (one of the paper's motivating applications).
    let dataset = make_regression(&RegressionSpec {
        instances: 3_000,
        features: 24,
        outputs: 8,
        informative: 16,
        noise: 0.1,
        seed: 21,
        ..Default::default()
    });
    let (train, test) = dataset.split(0.25, 4);

    let config = TrainConfig {
        num_trees: 25,
        max_depth: 5,
        max_bins: 64,
        learning_rate: 0.5,
        ..TrainConfig::default()
    };
    let model = GpuTrainer::new(Device::rtx4090(), config).fit(&train);
    let before = rmse(&model.predict(test.features()), test.targets());
    println!(
        "trained: {} trees, test RMSE {before:.4}",
        model.num_trees()
    );

    // --- persist ------------------------------------------------------
    let json = model.to_json();
    println!("serialized model: {} KiB of JSON", json.len() / 1024);
    let path = std::env::temp_dir().join("gbdt_mo_model.json");
    std::fs::write(&path, &json).expect("write model");

    // --- reload & verify ---------------------------------------------
    let reloaded = Model::from_json(&std::fs::read_to_string(&path).expect("read model"))
        .expect("parse model");
    let after = rmse(&reloaded.predict(test.features()), test.targets());
    assert_eq!(before, after, "reloaded model must predict identically");
    println!("reloaded from {} — predictions identical", path.display());

    // --- serve with both inference modes (paper §3.4.2) ---------------
    let ens = DeviceEnsemble::upload(Device::rtx4090(), &reloaded.compile());
    let a = ens.predict(PredictMode::InstanceLevel, test.features());
    let b = ens.predict(PredictMode::TreeLevel, test.features());
    let max_diff = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    println!(
        "instance-level vs tree-level inference agree to {max_diff:.1e} \
         across {} predictions",
        a.len()
    );
}
