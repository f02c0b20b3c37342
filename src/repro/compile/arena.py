"""Pre-planned buffer arena: steady-state inference with zero fresh allocations.

Every stage of a compiled program writes its output into an arena slot
keyed by stage id, and takes its scratch (the BatchNorm affine's scale
and shift) from slots keyed off the stage's.  Slots are allocated on
first use, sized by *capacity* along the leading axis, and handed back
as ``buf[:batch]`` views on every subsequent call — so once the arena
has seen the largest batch, repeated inference performs **zero** numpy
allocations in the gemm/elementwise stages (opaque ``call_module``
stages still allocate inside their own ``forward_batch``).

Capacity grows by doubling when a larger batch arrives, which amortizes
replanning for workloads whose batch size ramps up (the serve layer's
micro-batcher coalesces 1..max_batch_size requests).  A slot whose
trailing shape or dtype no longer matches the request is re-allocated
rather than corrupted.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["BufferArena"]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class BufferArena:
    """Keyed, capacity-growing buffer pool returning ``buf[:batch]`` views."""

    def __init__(self):
        self._slots: Dict[str, np.ndarray] = {}
        self.allocations = 0  # fresh backing allocations (not views)

    def out(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """Return a writable buffer of ``shape`` backed by slot ``key``.

        The leading axis is treated as batch: the backing array keeps
        ``capacity >= shape[0]`` rows and the caller gets a
        ``backing[:shape[0]]`` view.  Contents are uninitialized — every
        caller fully overwrites its buffer.
        """
        batch, item = shape[0], tuple(shape[1:])
        backing = self._slots.get(key)
        if backing is None or backing.shape[1:] != item \
                or backing.dtype != dtype or backing.shape[0] < batch:
            backing = np.empty((_next_pow2(batch),) + item, dtype=dtype)
            self._slots[key] = backing
            self.allocations += 1
        return backing[:batch]

    def nbytes(self) -> int:
        return sum(backing.nbytes for backing in self._slots.values())

    def slot_count(self) -> int:
        return len(self._slots)
