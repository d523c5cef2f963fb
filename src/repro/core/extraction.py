"""Important-neuron extraction (the paper's Sec. III algorithm).

Backward extraction starts from the predicted class in the last layer
and walks the network in reverse: for each important output neuron the
minimal set of receptive-field inputs covering ``theta`` of its value
(cumulative), or all inputs whose partial sum exceeds ``phi``
(absolute), becomes important in turn (Fig. 3).

Forward extraction instead selects important neurons per layer from
the layer's own output values the moment the layer finishes, which is
what lets the hardware overlap extraction with inference (Sec. III-C).

:meth:`PathExtractor.extract_batch` extracts a whole batch at once.
Backward, importance is one ``(N, size)`` boolean matrix per node: an
extraction unit gathers the partial sums of every important
``(sample, neuron)`` pair into equal-length row blocks, one per
receptive-field shape, and selects row-wise; transparent layers
re-index whole matrices.  :meth:`PathExtractor.extract` walks a batch of
one.  Forward, selection runs as matrix kernels over the stacked
feature maps.  Results carry the paths (packed per batch) and, per
sample, an :class:`~repro.core.trace.ExtractionTrace` of operation
counts for the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import Direction, ExtractionConfig, LayerSpec, Thresholding
from repro.core.path import ActivationPath, PackedPathBatch, PathLayout
from repro.core.trace import ExtractionTrace, UnitTrace
from repro.nn.graph import Graph, INPUT

__all__ = [
    "ExtractionResult",
    "BatchExtractionResult",
    "PathExtractor",
    "calibrate_phi",
]


@dataclass
class ExtractionResult:
    """Output of one online extraction."""

    path: ActivationPath
    predicted_class: int
    trace: ExtractionTrace
    logits: np.ndarray


@dataclass
class BatchExtractionResult:
    """Output of one batched extraction: N paths in packed-word form.

    ``traces`` is always populated for the backward direction (the walk
    counts its operations per sample as it goes) and for forward
    extraction only on request — the vectorized forward engine never
    materialises per-sample operation counts unless asked.
    """

    packed: PackedPathBatch
    predicted_classes: np.ndarray
    logits: np.ndarray
    traces: Optional[List[ExtractionTrace]] = None

    @property
    def batch_size(self) -> int:
        return self.packed.batch_size

    def paths(self) -> List[ActivationPath]:
        """Unpack into per-sample paths (equivalence tests, explain)."""
        return self.packed.to_paths()


def _select_cumulative(psums: np.ndarray, theta: float) -> np.ndarray:
    """Indices of the minimal descending-sorted prefix of ``psums``
    whose cumulative sum reaches ``theta`` times the total (Fig. 3).

    Returns indices *into psums*.  Degenerate neurons are handled so
    paths never silently vanish: a neuron whose psum total is negative
    (e.g. a low-confidence predicted logit) keeps its single strongest
    positive contributor; an exactly-zero total has no important
    inputs.  The ISS ``acum`` instruction implements the same rule.
    """
    total = psums.sum()
    target = theta * total
    # stable descending sort: matches the hardware sort-unit semantics
    # (and the ISS), so compiled programs are bit-identical on ties
    order = np.argsort(-psums, kind="stable")
    if target <= 0.0:
        if total < 0.0 and psums.size and psums[order[0]] > 0.0:
            return order[:1]
        return np.empty(0, dtype=np.int64)
    csum = np.cumsum(psums[order])
    # cumulative sums of a descending sequence rise then fall; take the
    # first index reaching the target (always exists: max(csum) >= total)
    k = int(np.argmax(csum >= target)) + 1
    return order[:k]


def _select_absolute(psums: np.ndarray, phi: float) -> np.ndarray:
    """Indices where the partial sum exceeds the absolute threshold."""
    return np.flatnonzero(psums > phi)


def _select_cumulative_batch(psums: np.ndarray, theta: float) -> np.ndarray:
    """Row-wise :func:`_select_cumulative` over an ``(N, L)`` matrix,
    returned as a boolean selection matrix.

    Every step is the vectorized twin of the scalar path — same stable
    sort, same cumulative-sum order, same degenerate-row rules — so the
    selected sets are bit-identical per row (asserted by the
    batch-equivalence tests).
    """
    n, length = psums.shape
    totals = psums.sum(axis=1)
    targets = theta * totals
    order = np.argsort(-psums, axis=1, kind="stable")
    sorted_psums = np.take_along_axis(psums, order, axis=1)
    csums = np.cumsum(sorted_psums, axis=1)
    k = np.argmax(csums >= targets[:, None], axis=1) + 1
    degenerate = targets <= 0.0
    if degenerate.any():
        keep_one = degenerate & (totals < 0.0) & (sorted_psums[:, 0] > 0.0)
        k = np.where(degenerate, np.where(keep_one, 1, 0), k)
    flags = np.zeros((n, length), dtype=bool)
    flags[np.arange(n)[:, None], order] = (
        np.arange(length)[None, :] < k[:, None]
    )
    return flags


class PathExtractor:
    """Extracts activation paths from a model under a given config."""

    def __init__(self, model: Graph, config: ExtractionConfig):
        self.model = model
        self.config = config
        self.units = model.extraction_units()
        if len(self.units) != config.num_layers:
            raise ValueError(
                f"config has {config.num_layers} layer specs but the model "
                f"has {len(self.units)} extraction units"
            )
        self._unit_index = {node.name: i for i, node in enumerate(self.units)}
        self._layout: Optional[PathLayout] = None

    # -- layout ----------------------------------------------------------
    @property
    def layout(self) -> PathLayout:
        if self._layout is None:
            raise RuntimeError(
                "layout unknown until the first extract()/warm_up() call"
            )
        return self._layout

    def warm_up(self, x: np.ndarray) -> PathLayout:
        """Run one forward pass to fix feature-map shapes and the layout."""
        self.model.forward(x[:1])
        self._layout = self._build_layout()
        return self._layout

    def _build_layout(self) -> PathLayout:
        names: List[str] = []
        sizes: List[int] = []
        for i in self.config.extracted_indices():
            node = self.units[i]
            names.append(node.name)
            if self.config.direction is Direction.BACKWARD:
                sizes.append(node.module.input_feature_size)
            else:
                sizes.append(node.module.output_feature_size)
        return PathLayout(tuple(names), tuple(sizes))

    # -- extraction ----------------------------------------------------
    def extract(self, x: np.ndarray,
                reuse_forward: bool = False) -> ExtractionResult:
        """Extract the activation path of a single input.

        ``x`` must be a batch of exactly one sample (extraction reads
        per-sample caches such as max-pool argmax indices).  With
        ``reuse_forward=True`` the extractor consumes the model's
        existing forward state instead of re-running inference — used
        by fault injection, where the faulty activations must not be
        recomputed (and matching how the hardware extracts from the
        feature maps the accelerator actually produced).
        """
        if x.shape[0] != 1:
            raise ValueError("extraction requires a batch of exactly one input")
        if reuse_forward:
            if not self.model.activations:
                raise RuntimeError("reuse_forward=True requires a prior forward")
            logits = self.model.activations[self.model.output_name]
        else:
            logits = self.model.forward(x)
        if self._layout is None:
            self._layout = self._build_layout()
        predicted = int(logits[0].argmax())
        if self.config.direction is Direction.BACKWARD:
            taps, traces = self._extract_backward(np.array([predicted]))
            packed = PackedPathBatch.from_tap_bools(self._layout, taps)
            path, trace = packed.to_paths()[0], traces[0]
        else:
            masks, trace = self._extract_forward()
            path = ActivationPath(self._layout, masks)
        return ExtractionResult(path, predicted, trace, logits[0].copy())

    def extract_batch(
        self,
        x: np.ndarray,
        reuse_forward: bool = False,
        collect_traces: bool = False,
    ) -> BatchExtractionResult:
        """Extract the activation paths of a whole batch at once.

        One batched inference feeds all samples.  Forward selection
        runs as matrix kernels over the stacked feature maps; backward
        extraction walks the graph once for the whole batch, selecting
        over row blocks of partial sums gathered from every sample's
        cached state (inputs, pooling argmaxes).  Results are
        bit-identical to calling :meth:`extract` per sample, and to the
        per-neuron walk on the scalar layer protocol: the model forward
        is batch-invariant, and every selection row holds the same
        partial sums in the same order as the scalar path, so its sum
        and stable sort are the scalar ones.
        """
        if x.ndim < 2:
            raise ValueError("extract_batch expects a batched input")
        if x.shape[0] == 0:
            if self._layout is None:
                raise RuntimeError(
                    "layout unknown; warm_up() before extracting an "
                    "empty batch"
                )
            num_classes = self.model.activations[
                self.model.output_name
            ].shape[1] if self.model.activations else 0
            return BatchExtractionResult(
                PackedPathBatch.from_paths(self._layout, []),
                np.empty(0, dtype=np.int64),
                np.empty((0, num_classes)),
                traces=[] if collect_traces else None,
            )
        if reuse_forward:
            if not self.model.activations:
                raise RuntimeError("reuse_forward=True requires a prior forward")
            logits = self.model.activations[self.model.output_name]
            if logits.shape[0] != x.shape[0]:
                raise ValueError(
                    "cached forward batch does not match the input batch"
                )
        else:
            logits = self.model.forward(x)
        if self._layout is None:
            self._layout = self._build_layout()
        predicted = logits.argmax(axis=1).astype(np.int64)
        traces: Optional[List[ExtractionTrace]] = None
        if self.config.direction is Direction.BACKWARD:
            # backward traces come for free (the walk counts them anyway)
            taps, traces = self._extract_backward(predicted)
            packed = PackedPathBatch.from_tap_bools(self._layout, taps)
        else:
            packed, traces = self._extract_forward_batch(
                x.shape[0], collect_traces
            )
        return BatchExtractionResult(
            packed, predicted, logits.copy(), traces=traces
        )

    # -- forward batch engine ---------------------------------------------
    def _extract_forward_batch(
        self, batch_size: int, collect_traces: bool
    ) -> Tuple[PackedPathBatch, Optional[List[ExtractionTrace]]]:
        """Vectorized forward extraction over the cached batch forward."""
        tap_flags: List[np.ndarray] = []
        unit_meta: List[Tuple] = []
        for unit_idx in self.config.extracted_indices():
            node = self.units[unit_idx]
            spec = self.config.layers[unit_idx]
            values = self.model.activations[node.name].reshape(
                batch_size, -1
            )
            if spec.mechanism is Thresholding.CUMULATIVE:
                # rank outputs by value; cover theta of the positive mass
                positive = np.clip(values, 0.0, None)
                flags = _select_cumulative_batch(positive, spec.threshold)
            else:
                flags = values > spec.threshold
            tap_flags.append(flags)
            unit_meta.append((node, unit_idx, spec, values.shape[1]))
        packed = PackedPathBatch.from_tap_bools(self._layout, tap_flags)
        if not collect_traces:
            return packed, None
        traces: List[ExtractionTrace] = []
        per_tap_ones = [flags.sum(axis=1) for flags in tap_flags]
        for i in range(batch_size):
            trace = ExtractionTrace(Direction.FORWARD)
            for tap, (node, unit_idx, spec, size) in enumerate(unit_meta):
                unit_trace = UnitTrace(
                    name=node.name,
                    index=unit_idx,
                    extracted=True,
                    mechanism=spec.mechanism,
                    in_size=node.module.input_feature_size,
                    out_size=node.module.output_feature_size,
                    rf_size=node.module.nominal_rf_size(),
                    mac_count=node.module.mac_count(),
                )
                if spec.mechanism is Thresholding.CUMULATIVE:
                    unit_trace.n_psums_sorted = size
                else:
                    unit_trace.n_compared = size
                unit_trace.n_out_processed = size
                unit_trace.n_important = int(per_tap_ones[tap][i])
                trace.units.append(unit_trace)
            traces.append(trace)
        return packed, traces

    # -- backward engine ---------------------------------------------------
    def _extract_backward(
        self, predicted: np.ndarray
    ) -> Tuple[List[np.ndarray], List[ExtractionTrace]]:
        """Walk the cached forward batch back from each sample's
        predicted class; returns one ``(N, in_size)`` boolean matrix per
        extracted unit and one trace per sample.  Sample ``i`` is row
        ``i`` of the cached batch (``N`` may be less than its size)."""
        batch_size = predicted.size
        traces = [ExtractionTrace(Direction.BACKWARD) for _ in range(batch_size)]
        num_classes = self.model.activations[self.model.output_name].shape[1]
        seed = np.zeros((batch_size, num_classes), dtype=bool)
        seed[np.arange(batch_size), predicted] = True
        importance: Dict[str, np.ndarray] = {self.model.output_name: seed}
        taps: Dict[int, np.ndarray] = {}
        for node in reversed(self.model.nodes):
            flags = importance.pop(node.name, None)
            if flags is None or not flags.any():
                continue
            if node.name in self._unit_index:
                unit_idx = self._unit_index[node.name]
                spec = self.config.layers[unit_idx]
                if not spec.extract:
                    continue  # early-termination: stop the walk here
                taps[unit_idx] = self._extract_unit_backward(
                    node, unit_idx, flags, spec, traces
                )
                self._merge(importance, node.inputs[0], taps[unit_idx])
            elif node.is_multi_input:
                split = node.module.propagate_back_multi_batch(flags)
                for input_name, part in zip(node.inputs, split):
                    self._merge(importance, input_name, part)
            else:
                mapped = node.module.propagate_back_batch(flags)
                self._merge(importance, node.inputs[0], mapped)
        for trace in traces:
            trace.units.sort(key=lambda u: u.index)
        ordered = []
        for i in self.config.extracted_indices():
            if i not in taps:  # the walk never reached this unit
                size = self.units[i].module.input_feature_size
                taps[i] = np.zeros((batch_size, size), dtype=bool)
            ordered.append(taps[i])
        return ordered, traces

    @staticmethod
    def _merge(importance: Dict[str, np.ndarray], name: str,
               flags: np.ndarray) -> None:
        if name == INPUT:
            return
        existing = importance.get(name)
        importance[name] = flags if existing is None else existing | flags

    def _extract_unit_backward(
        self,
        node,
        unit_idx: int,
        out_flags: np.ndarray,
        spec: LayerSpec,
        traces: List[ExtractionTrace],
    ) -> np.ndarray:
        """Important inputs of one unit for every sample, from the
        ``(N, out_size)`` important outputs; appends a unit trace to
        every sample that reached the unit."""
        module = node.module
        batch_size = out_flags.shape[0]
        in_size = module.input_feature_size
        cumulative = spec.mechanism is Thresholding.CUMULATIVE
        samples, out_positions = np.nonzero(out_flags)
        in_flags = np.zeros(batch_size * in_size, dtype=bool)
        scanned = np.zeros(batch_size, dtype=np.int64)
        for block in module.partial_sum_rows(samples, out_positions):
            rows = samples[block.members]
            length = block.psums.shape[1]
            scanned += np.bincount(rows, minlength=batch_size) * length
            if cumulative:
                chosen = _select_cumulative_batch(block.psums, spec.threshold)
            else:
                chosen = block.psums > spec.threshold
            row, col = np.nonzero(chosen)
            starts = rows * in_size + block.input_base
            in_flags[starts[row] + block.input_offsets[col]] = True
        in_flags = in_flags.reshape(batch_size, in_size)
        n_out = np.count_nonzero(out_flags, axis=1)
        n_important = np.count_nonzero(in_flags, axis=1)
        rf_size, mac_count = module.nominal_rf_size(), module.mac_count()
        for i in np.flatnonzero(n_out):
            unit_trace = UnitTrace(
                name=node.name,
                index=unit_idx,
                extracted=True,
                mechanism=spec.mechanism,
                in_size=in_size,
                out_size=module.output_feature_size,
                rf_size=rf_size,
                mac_count=mac_count,
                n_out_processed=int(n_out[i]),
                n_important=int(n_important[i]),
            )
            if cumulative:
                unit_trace.n_psums_sorted = int(scanned[i])
            else:
                unit_trace.n_compared = int(scanned[i])
            traces[i].units.append(unit_trace)
        return in_flags

    # -- forward engine ----------------------------------------------------
    def _extract_forward(self) -> Tuple[List[Bitmask], ExtractionTrace]:
        trace = ExtractionTrace(Direction.FORWARD)
        masks: List[Bitmask] = []
        for unit_idx in self.config.extracted_indices():
            node = self.units[unit_idx]
            spec = self.config.layers[unit_idx]
            values = self.model.activations[node.name][0].ravel()
            unit_trace = UnitTrace(
                name=node.name,
                index=unit_idx,
                extracted=True,
                mechanism=spec.mechanism,
                in_size=node.module.input_feature_size,
                out_size=node.module.output_feature_size,
                rf_size=node.module.nominal_rf_size(),
                mac_count=node.module.mac_count(),
            )
            if spec.mechanism is Thresholding.CUMULATIVE:
                # rank outputs by value; cover theta of the positive mass
                positive = np.clip(values, 0.0, None)
                chosen = _select_cumulative(positive, spec.threshold)
                unit_trace.n_psums_sorted = values.size
            else:
                chosen = _select_absolute(values, spec.threshold)
                unit_trace.n_compared = values.size
            unit_trace.n_out_processed = values.size
            unit_trace.n_important = int(chosen.size)
            masks.append(Bitmask.from_positions(values.size, chosen))
            trace.units.append(unit_trace)
        return masks, trace


def calibrate_phi(
    model: Graph,
    config: ExtractionConfig,
    x_sample: np.ndarray,
    quantile: float = 0.98,
    max_outputs_per_unit: int = 64,
    seed: int = 0,
) -> ExtractionConfig:
    """Choose per-layer absolute thresholds ``phi`` from data.

    The paper specifies ``phi`` per layer but not how to pick it; we
    set ``phi`` to a high quantile of the quantity each layer compares:
    partial sums for backward-absolute layers, output activations for
    forward-absolute layers.  Returns a config copy with thresholds
    filled in.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    rng = np.random.default_rng(seed)
    units = model.extraction_units()
    if len(units) != config.num_layers:
        raise ValueError("config/model layer count mismatch")
    phi: Dict[int, float] = {}
    absolute_units = [
        i
        for i, spec in enumerate(config.layers)
        if spec.extract and spec.mechanism is Thresholding.ABSOLUTE
    ]
    if not absolute_units:
        return config
    samples: Dict[int, List[np.ndarray]] = {i: [] for i in absolute_units}
    for row in range(min(len(x_sample), 8)):
        model.forward(x_sample[row : row + 1])
        for i in absolute_units:
            module = units[i].module
            if config.direction is Direction.BACKWARD:
                out_size = module.output_feature_size
                picks = rng.choice(
                    out_size,
                    size=min(max_outputs_per_unit, out_size),
                    replace=False,
                )
                collected = [module.partial_sums(int(p)) for p in picks]
                samples[i].append(np.concatenate(collected))
            else:
                samples[i].append(
                    model.activations[units[i].name][0].ravel()
                )
    for i in absolute_units:
        pooled = np.concatenate(samples[i])
        phi[i] = float(np.quantile(pooled, quantile))
    return config.with_phi(phi)
