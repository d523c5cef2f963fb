"""Primitive layers.

Two layer families matter to Ptolemy:

* **Extraction units** (:class:`Linear`, :class:`Conv2d`) produce the
  partial sums that define important neurons.  They implement the
  introspection protocol: ``receptive_field`` / ``partial_sums`` per
  output neuron and ``partial_sum_rows`` for many (sample, neuron)
  pairs at once.
* **Transparent layers** (ReLU, pooling, batch-norm, flatten, merge)
  only re-index importance positions between units; they implement
  ``propagate_back`` per sample and ``propagate_back_batch`` over an
  ``(N, size)`` boolean importance matrix (``*_multi`` for merges).
"""

from repro.nn.layers.linear import Linear
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.simple import ReLU, Flatten, Dropout, Identity
from repro.nn.layers.pool import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.layers.norm import BatchNorm2d, BatchNorm1d
from repro.nn.layers.merge import Add, Concat

__all__ = [
    "Linear",
    "Conv2d",
    "ReLU",
    "Flatten",
    "Dropout",
    "Identity",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "BatchNorm1d",
    "Add",
    "Concat",
]
