"""Per-sample backward walk: the reference for the batched walk.

This is the original backward extraction, one sample and one important
neuron at a time, on the scalar layer protocol (``partial_sums``,
``receptive_field``, ``propagate_back``).  The extractor itself walks
the whole batch at once; the oracle tests check that walk against this
one, mask for mask and trace field for trace field.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.bitmask import Bitmask
from repro.core.config import Direction, LayerSpec, Thresholding
from repro.core.extraction import PathExtractor, _select_absolute, _select_cumulative
from repro.core.trace import ExtractionTrace, UnitTrace
from repro.nn.graph import INPUT

__all__ = ["extract_backward"]


def extract_backward(
    extractor: PathExtractor, predicted: int, sample: int = 0
) -> Tuple[List[Bitmask], ExtractionTrace]:
    """Masks (one per extracted unit) and trace of one sample of the
    model's cached forward batch."""
    trace = ExtractionTrace(Direction.BACKWARD)
    importance: Dict[str, np.ndarray] = {
        extractor.model.output_name: np.array([predicted], dtype=np.int64)
    }
    masks: Dict[int, Bitmask] = {}
    for node in reversed(extractor.model.nodes):
        positions = importance.pop(node.name, None)
        if positions is None or positions.size == 0:
            continue
        if node.name in extractor._unit_index:
            unit_idx = extractor._unit_index[node.name]
            spec = extractor.config.layers[unit_idx]
            if not spec.extract:
                continue  # early-termination: stop the walk here
            in_positions, unit_trace = _extract_unit_backward(
                node.module, unit_idx, node.name, positions, spec,
                sample=sample,
            )
            trace.units.append(unit_trace)
            masks[unit_idx] = Bitmask.from_positions(
                node.module.input_feature_size, in_positions
            )
            _merge(importance, node.inputs[0], in_positions)
        elif node.is_multi_input:
            split = node.module.propagate_back_multi(positions, sample)
            for input_name, pos in zip(node.inputs, split):
                _merge(importance, input_name, pos)
        else:
            mapped = node.module.propagate_back(positions, sample)
            _merge(importance, node.inputs[0], mapped)
    trace.units.sort(key=lambda u: u.index)
    ordered = [
        masks.get(i, Bitmask(extractor.units[i].module.input_feature_size))
        for i in extractor.config.extracted_indices()
    ]
    return ordered, trace


def _merge(importance: Dict[str, np.ndarray], name: str,
           positions: np.ndarray) -> None:
    if name == INPUT or positions.size == 0:
        return
    existing = importance.get(name)
    if existing is None:
        importance[name] = np.unique(positions)
    else:
        importance[name] = np.union1d(existing, positions)


def _extract_unit_backward(
    module,
    unit_idx: int,
    name: str,
    out_positions: np.ndarray,
    spec: LayerSpec,
    sample: int = 0,
) -> Tuple[np.ndarray, UnitTrace]:
    unit_trace = UnitTrace(
        name=name,
        index=unit_idx,
        extracted=True,
        mechanism=spec.mechanism,
        in_size=module.input_feature_size,
        out_size=module.output_feature_size,
        rf_size=module.nominal_rf_size(),
        mac_count=module.mac_count(),
    )
    collected: List[np.ndarray] = []
    for out_pos in out_positions:
        psums = module.partial_sums(int(out_pos), sample)
        rf = module.receptive_field(int(out_pos))
        unit_trace.n_out_processed += 1
        if spec.mechanism is Thresholding.CUMULATIVE:
            chosen = _select_cumulative(psums, spec.threshold)
            unit_trace.n_psums_sorted += psums.size
        else:
            chosen = _select_absolute(psums, spec.threshold)
            unit_trace.n_compared += psums.size
        if chosen.size:
            collected.append(rf[chosen])
    in_positions = (
        np.unique(np.concatenate(collected))
        if collected
        else np.empty(0, dtype=np.int64)
    )
    unit_trace.n_important = int(in_positions.size)
    return in_positions, unit_trace
