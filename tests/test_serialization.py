"""Serialization tests: class paths, configs, detectors."""

import json

import numpy as np
import pytest

from repro.attacks import BIM
from repro.core import (
    ExtractionConfig,
    PtolemyDetector,
    config_from_dict,
    config_to_dict,
    load_class_paths,
    load_detector,
    save_class_paths,
    save_detector,
)


@pytest.fixture(scope="module")
def detector(trained_alexnet, small_dataset):
    det = PtolemyDetector(
        trained_alexnet, ExtractionConfig.bwcu(8, theta=0.5),
        n_trees=20, seed=0,
    )
    det.profile(small_dataset.x_train, small_dataset.y_train,
                max_per_class=10)
    adv = BIM(eps=0.08).generate(
        trained_alexnet, small_dataset.x_train[:20],
        small_dataset.y_train[:20],
    ).x_adv
    det.fit_classifier(small_dataset.x_train[20:40], adv)
    return det


class TestClassPathIO:
    def test_round_trip(self, detector, tmp_path):
        path = tmp_path / "paths.npz"
        save_class_paths(detector.class_paths, path)
        loaded = load_class_paths(path)
        assert loaded.layout == detector.class_paths.layout
        assert sorted(loaded.paths) == sorted(detector.class_paths.paths)
        for cid in loaded.paths:
            original = detector.class_paths.path_for(cid)
            restored = loaded.path_for(cid)
            assert restored.num_samples == original.num_samples
            for a, b in zip(restored.masks, original.masks):
                assert a == b


class TestConfigIO:
    @pytest.mark.parametrize("config", [
        ExtractionConfig.bwcu(8, theta=0.5),
        ExtractionConfig.bwab(8, phi=1.25, termination_layer=6),
        ExtractionConfig.fwab(4, phi=0.3, start_layer=2),
        ExtractionConfig.hybrid(6, theta=0.25, phi=0.1),
    ])
    def test_round_trip(self, config):
        restored = config_from_dict(config_to_dict(config))
        assert restored.direction == config.direction
        for a, b in zip(restored.layers, config.layers):
            assert a.mechanism == b.mechanism
            assert a.threshold == b.threshold
            assert a.extract == b.extract

    def test_json_safe(self, tmp_path):
        config = ExtractionConfig.hybrid(5, theta=0.5, phi=0.2)
        text = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(text)).num_layers == 5


class TestDetectorIO:
    def test_scores_preserved_exactly(self, detector, trained_alexnet,
                                      small_dataset, tmp_path):
        save_detector(detector, tmp_path / "det")
        restored = load_detector(trained_alexnet, tmp_path / "det")
        for i in range(5):
            x = small_dataset.x_test[i : i + 1]
            assert restored.score(x) == pytest.approx(detector.score(x),
                                                      abs=1e-12)

    @pytest.mark.parametrize("legacy", ["tiled", "numba", None])
    def test_legacy_backend_key_is_ignored(self, legacy, detector,
                                           trained_alexnet, small_dataset,
                                           tmp_path):
        # detectors saved while kernel backends were selectable carry a
        # "backend" key in their config; it no longer selects anything
        save_detector(detector, tmp_path / "legacy")
        meta_path = tmp_path / "legacy" / "detector.json"
        meta = json.loads(meta_path.read_text())
        assert "backend" not in meta["config"]
        meta["config"]["backend"] = legacy
        meta_path.write_text(json.dumps(meta))
        restored = load_detector(trained_alexnet, tmp_path / "legacy")
        xs = small_dataset.x_test[:16]
        assert np.array_equal(
            restored.scores_batch(xs), detector.scores_batch(xs)
        )

    def test_unprofiled_detector_rejected(self, trained_alexnet, tmp_path):
        det = PtolemyDetector(trained_alexnet, ExtractionConfig.bwcu(8))
        with pytest.raises(ValueError):
            save_detector(det, tmp_path / "nope")

    def test_unfitted_detector_round_trips(self, trained_alexnet,
                                           small_dataset, tmp_path):
        det = PtolemyDetector(trained_alexnet, ExtractionConfig.bwcu(8),
                              n_trees=10)
        det.profile(small_dataset.x_train[:20], small_dataset.y_train[:20])
        save_detector(det, tmp_path / "unfitted")
        restored = load_detector(trained_alexnet, tmp_path / "unfitted")
        assert restored.class_paths.num_classes == det.class_paths.num_classes
        with pytest.raises(RuntimeError):
            restored.score(small_dataset.x_test[:1])
