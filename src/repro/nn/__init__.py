"""``repro.nn`` — a minimal, exact autograd + neural-network substrate.

Replaces PyTorch for this reproduction: reverse-mode autodiff over numpy,
dense layers, sparse message-passing primitives, optimisers and losses.
The element width and the executing kernels are governed by
:mod:`repro.nn.backend` (one numeric ``Policy`` + pluggable array backend).
"""

from . import backend
from . import functional
from . import init
from .backend import (
    ArrayBackend,
    NumpyBackend,
    Policy,
    default_dtype,
    get_backend,
    policy,
    resolve_dtype,
    set_policy,
)
from .layers import MLP, Dropout, Identity, Linear, Sequential
from .loss import bce_loss, bce_with_logits, masked_bce_with_logits, mse_loss
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialize import load_module, load_state, save_module, save_state
from .sparse import normalized_adjacency, row_normalized_adjacency, spmm
from .tensor import Tensor, as_tensor, full, is_grad_enabled, no_grad, ones, zeros

__all__ = [
    "backend",
    "functional",
    "init",
    "ArrayBackend",
    "NumpyBackend",
    "Policy",
    "policy",
    "set_policy",
    "default_dtype",
    "resolve_dtype",
    "get_backend",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "zeros",
    "ones",
    "full",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Dropout",
    "Identity",
    "MLP",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "bce_loss",
    "bce_with_logits",
    "masked_bce_with_logits",
    "mse_loss",
    "spmm",
    "normalized_adjacency",
    "row_normalized_adjacency",
    "save_module",
    "load_module",
    "save_state",
    "load_state",
]
