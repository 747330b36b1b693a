//! Integration test: the LIBSVM I/O path feeds the trainers exactly like
//! in-memory generation — the drop-in-real-data workflow.

use mllib_star::core::{System, TrainConfig};
use mllib_star::data::{libsvm, SyntheticConfig};
use mllib_star::glm::LearningRate;
use mllib_star::sim::ClusterSpec;

#[test]
fn train_on_roundtripped_libsvm_data_matches_direct_training() {
    let ds = SyntheticConfig::small("libsvm-e2e", 300, 40).generate();

    // Write as LIBSVM text and parse it back.
    let text = libsvm::write_string(&ds);
    let reloaded = libsvm::read_str(&text, ds.num_features()).expect("roundtrip parses");
    assert_eq!(ds, reloaded);

    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        lr: LearningRate::Constant(0.05),
        max_rounds: 5,
        ..TrainConfig::default()
    };
    let direct = System::MllibStar.train_default(&ds, &cluster, &cfg);
    let via_file = System::MllibStar.train_default(&reloaded, &cluster, &cfg);
    assert_eq!(direct.trace, via_file.trace);
    assert_eq!(
        direct.model.weights().as_slice(),
        via_file.model.weights().as_slice()
    );
}

#[test]
fn libsvm_file_on_disk_roundtrips() {
    let ds = SyntheticConfig::small("libsvm-disk", 50, 20).generate();
    let dir = std::env::temp_dir().join("mlstar_it_libsvm");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.libsvm");
    std::fs::write(&path, libsvm::write_string(&ds)).unwrap();
    let loaded = libsvm::read_file(&path, ds.num_features()).expect("file parses");
    assert_eq!(ds, loaded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn dimension_inference_handles_trailing_empty_features() {
    // A dataset whose last features never fire still trains when the
    // dimension is given explicitly.
    let text = "+1 1:1\n-1 2:1\n";
    let ds = libsvm::read_str(text, 100).unwrap();
    assert_eq!(ds.num_features(), 100);
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        lr: LearningRate::Constant(0.5),
        max_rounds: 3,
        ..TrainConfig::default()
    };
    let out = System::MllibStar.train_default(&ds, &cluster, &cfg);
    assert!(out.trace.final_objective().unwrap().is_finite());
}
