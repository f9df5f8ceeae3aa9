"""Block stacks for tests: exact, input-independent block deltas."""

from typing import Sequence

import numpy as np

from flowcache.errors import DimensionError, DomainError
from flowcache.predictors import toy_block_forward
from flowcache.tensor import Tensor4


class ConstantDeltaNet:
    """Block stack whose every block adds a fixed tensor, independent of input and t."""

    def __init__(self, deltas: Sequence[Tensor4]):
        self._deltas = list(deltas)
        if not self._deltas:
            raise DomainError("need at least one delta")
        shape = self._deltas[0].shape
        for i, d in enumerate(self._deltas):
            if d.shape != shape:
                raise DimensionError(f"delta {i} shape {d.shape} does not match {shape}")

    @property
    def num_blocks(self) -> int:
        return len(self._deltas)

    def apply_block(self, index: int, features: np.ndarray, t: float) -> np.ndarray:
        if not 0 <= index < len(self._deltas):
            raise DomainError(f"block index {index} outside [0, {len(self._deltas)})")
        return features + self._deltas[index].data

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        return toy_block_forward(self, x, t)
