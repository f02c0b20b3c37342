"""``repro.nn`` — the from-scratch numpy neural-network substrate.

Implements parameters, layers, losses, optimizers (including the
gradient-free SPSA used by STARNet), VAEs, sparse 3-D convolution,
precision-reconfigurable quantization, and analytic MAC/FLOP counting.
"""

from .counting import OpCount, count_conv2d, count_dense, count_macs, count_module
from .layers import (
    BatchNorm,
    Conv2d,
    ConvTranspose2d,
    Dense,
    GRUCell,
    Module,
    ReLU,
)
from .losses import (
    bce_with_logits,
    cross_entropy_with_logits,
    gaussian_kl,
    info_nce,
    mse_loss,
    softmax,
)
from .optim import SGD, SPSA, Adam
from .quantize import SUPPORTED_BITS, PrecisionConfig, quantization_noise_power, quantize
from .sequential import Sequential, mlp
from .sparse3d import (
    SparseConv3d,
    SparseGlobalPool,
    SparseReLU,
    SparseSequential,
    SparseVoxelTensor,
)
from .tensor import Parameter, glorot_uniform, he_normal, zeros_init
from .vae import VAE, train_vae

__all__ = [
    "Parameter", "glorot_uniform", "he_normal", "zeros_init",
    "Module", "Dense", "ReLU", "BatchNorm", "Conv2d", "ConvTranspose2d",
    "GRUCell",
    "Sequential", "mlp",
    "mse_loss", "bce_with_logits", "softmax", "cross_entropy_with_logits",
    "info_nce", "gaussian_kl",
    "SGD", "Adam", "SPSA",
    "OpCount", "count_dense", "count_conv2d", "count_module", "count_macs",
    "quantize", "quantization_noise_power", "PrecisionConfig", "SUPPORTED_BITS",
    "VAE", "train_vae",
    "SparseVoxelTensor", "SparseConv3d", "SparseReLU", "SparseGlobalPool",
    "SparseSequential",
]
