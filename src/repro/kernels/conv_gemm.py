"""Dense convolution GEMM kernels (the contractions of ``Conv2d`` and
``ConvTranspose2d`` over an im2col patch matrix).

Every dense conv in ``repro.nn`` contracts a ``(o, f)`` weight matrix
with a batch of ``(n, f, p)`` patch columns in one of three forms:

* ``matmul``       — ``w · x``:     ``"of,nfp->nop"`` (conv forward, the
  transposed conv's input grad);
* ``matmul_t``     — ``wᵀ · g``:    ``"of,nop->nfp"`` (conv input grad,
  the transposed conv's forward);
* ``weight_grad``  — ``Σₙ g · xᵀ``: ``"nop,nfp->of"`` (both weight grads).

Reference: the original ``np.einsum`` contractions, unchanged.
``einsum`` does not call BLAS; its summation order is what the
committed goldens were recorded with, so this backend keeps them bit for
bit.

Vectorized: ``np.matmul``, one BLAS GEMM per batch row; the weight
grad multiplies each row by its patch columns' transposed view (no
copy) and sums the ``n`` products.  BLAS blocks and re-associates the
inner sums, so results differ from the reference in the last ulps;
``repro verify`` bounds that drift with the per-scenario kernel
tolerances.
"""

from __future__ import annotations

import numpy as np

from . import register_kernel


class ReferenceConvGemm:
    """The original einsum contractions (seed op order)."""

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.einsum("of,nfp->nop", w, x)

    def matmul_t(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.einsum("of,nop->nfp", w, g)

    def weight_grad(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.einsum("nop,nfp->of", g, x)


class VectorizedConvGemm:
    """BLAS GEMMs, one per batch row."""

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.matmul(w, x)

    def matmul_t(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.matmul(w.T, g)

    def weight_grad(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.matmul(g, x.transpose(0, 2, 1)).sum(axis=0)


register_kernel("conv_gemm", "reference", ReferenceConvGemm())
register_kernel("conv_gemm", "vectorized", VectorizedConvGemm())
