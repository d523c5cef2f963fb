"""The batched backward walk against the per-sample oracle.

``PathExtractor`` walks a whole batch at once; ``backward_oracle`` is
the original walk, one sample and one important neuron at a time on the
scalar layer protocol.  Both must give the same packed words and the
same per-sample unit traces, field for field, on every architecture
feature the walk handles (max/avg/global pooling, residual Add,
channel Concat, stride-2 convs, early termination) and on the
degenerate selections (all-zero totals, tied partial sums, negative
totals).
"""

from __future__ import annotations

import numpy as np
import pytest

from backward_oracle import extract_backward
from repro.core import ExtractionConfig, PathExtractor, calibrate_phi
from repro.core.config import Thresholding
from repro.core.path import ActivationPath, PackedPathBatch
from repro.nn import (
    build_mini_alexnet,
    build_mini_densenet,
    build_mini_resnet18,
    build_mlp,
)

NUM_CLASSES = 5

MODELS = {
    "mlp": (lambda: build_mlp(num_classes=NUM_CLASSES, seed=1), (64,)),
    "alexnet": (
        lambda: build_mini_alexnet(num_classes=NUM_CLASSES, width=4, seed=1),
        (3, 16, 16),
    ),
    "resnet18": (
        lambda: build_mini_resnet18(num_classes=NUM_CLASSES, width=4, seed=1),
        (3, 8, 8),  # stage 4: 3x3 convs on 1x1 maps, one in-bounds tap
    ),
    "densenet": (
        lambda: build_mini_densenet(num_classes=NUM_CLASSES, seed=1),
        (3, 8, 8),
    ),
}

CONFIGS = ("bwcu0.3", "bwcu0.5", "bwcu0.9", "bwab", "hybrid", "bwcu_term")


def _build(name):
    builder, shape = MODELS[name]
    model = builder()
    rng = np.random.default_rng(11)
    for param in model.parameters():
        if param.name == "bias":
            # nonzero, as after training: a zero image still lights up
            # deep layers, so the first units sort all-zero partial sums
            param.data[...] = rng.normal(0.0, 0.1, size=param.shape)
        elif param.name == "weight":
            # a coarse weight grid: on a constant image, many partial
            # sums of one neuron tie, and only a stable sort keeps the
            # selected set
            param.data[...] = np.round(param.data * 8.0) / 8.0
    return model, shape


def _config(model, name, calibration):
    n = model.num_extraction_units()
    if name.startswith("bwcu") and name != "bwcu_term":
        return ExtractionConfig.bwcu(n, theta=float(name[4:]))
    if name == "bwcu_term":
        return ExtractionConfig.bwcu(n, theta=0.5, termination_layer=n // 2 + 1)
    # phi at the 0.9 quantile: the default 0.98 leaves densenet's head
    # with no partial sum above phi, which would make its cases vacuous
    if name == "bwab":
        return calibrate_phi(model, ExtractionConfig.bwab(n), calibration, 0.9)
    return calibrate_phi(model, ExtractionConfig.hybrid(n), calibration, 0.9)


@pytest.fixture(scope="module")
def models():
    return {name: _build(name) for name in MODELS}


def _inputs(shape, batch_size, seed):
    return np.random.default_rng(seed).normal(size=(batch_size,) + shape)


EDGE_IMAGES = {"zero": 0.0, "constant": 0.5}


def assert_matches_oracle(extractor, x):
    """``extract_batch`` over ``x`` equals the oracle on every sample."""
    result = extractor.extract_batch(x)
    layout = extractor.layout
    assert len(result.traces) == len(x)
    for i in range(len(x)):
        masks, trace = extract_backward(
            extractor, int(result.predicted_classes[i]), sample=i
        )
        expected = PackedPathBatch.from_paths(
            layout, [ActivationPath(layout, masks)]
        )
        assert np.array_equal(result.packed.words[i], expected.words[0]), i
        assert result.traces[i].units == trace.units, i
    return result


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("model_name", list(MODELS))
def test_batched_walk_matches_oracle(models, model_name, config_name, batch_size):
    model, shape = models[model_name]
    config = _config(model, config_name, _inputs(shape, 8, 0))
    extractor = PathExtractor(model, config)
    x = _inputs(shape, batch_size, seed=batch_size)
    if batch_size > 1:  # the edge images ride along in every batch
        x[0], x[1] = EDGE_IMAGES["zero"], EDGE_IMAGES["constant"]
    result = assert_matches_oracle(extractor, x)
    if batch_size > 1:
        assert result.packed.popcounts().sum() > 0  # not vacuous
    # extract() is the batch of one
    single = extractor.extract(x[-1:])
    masks, trace = extract_backward(extractor, single.predicted_class)
    assert single.path == ActivationPath(extractor.layout, masks)
    assert single.trace.units == trace.units


@pytest.mark.parametrize("image", list(EDGE_IMAGES))
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("model_name", list(MODELS))
def test_edge_image(models, model_name, config_name, image):
    model, shape = models[model_name]
    config = _config(model, config_name, _inputs(shape, 8, 0))
    x = np.full((1,) + shape, EDGE_IMAGES[image])
    assert_matches_oracle(PathExtractor(model, config), x)


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("model_name", list(MODELS))
def test_negative_predicted_total(models, model_name, config_name):
    """The predicted logit's partial sums total below zero: cumulative
    selection keeps the single strongest positive contributor."""
    model, shape = models[model_name]
    config = _config(model, config_name, _inputs(shape, 8, 0))
    extractor = PathExtractor(model, config)
    head = extractor.units[-1].module
    saved = head.bias.data.copy()
    x = _inputs(shape, 7, seed=5)
    try:
        # make the most negative pre-bias logit of sample 0 the winner
        totals = model.forward(x[:1])[0] - saved
        target = int(totals.argmin())
        assert totals[target] < 0.0
        head.bias.data[target] = saved.max() + totals.max() - totals[target] + 1.0
        result = assert_matches_oracle(extractor, x)
        assert result.predicted_classes[0] == target
        last = result.traces[0].units[-1]
        assert last.index == len(extractor.units) - 1
        if config.layers[-1].mechanism is Thresholding.CUMULATIVE:
            assert last.n_important == 1  # keep-strongest rule
    finally:
        head.bias.data[...] = saved
