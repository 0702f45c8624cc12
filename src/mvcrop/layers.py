"""Minimal module system and reusable layers built on the tensor core.

Parameter names are hierarchical (``head.fc1.weight``) and derived from
attribute paths in insertion order, so collection order is deterministic.
Initialisation draws one independent RNG stream per parameter, keyed by
``(seed, parameter name)``: adding parameters to a model never perturbs the
initial values of existing ones.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .rngutil import named_stream
from .tensor import (
    Parameter,
    Tensor,
    batch_norm_infer,
    batch_norm_train,
    conv1d_same,
    dropout,
    layer_norm,
    linear,
)


class Module:
    """Base class: walks attributes to collect parameters, buffers, children."""

    mode: str = "train"

    def _walk(self, prefix: str = "") -> list:
        """Pre-order ``(path, node)`` pairs over the module tree.

        The tree is this module, at ``prefix``, every Parameter held
        directly in a public attribute and every Module held in one,
        directly or inside a list, tuple or dict, in attribute order. A
        Parameter's path is its name; a Module's path is the prefix of its
        members' names (``head.``).
        """
        out: list = [(prefix, self)]
        for attr, obj in self.__dict__.items():
            if attr.startswith("_"):
                continue
            if isinstance(obj, Module):
                out += obj._walk(f"{prefix}{attr}.")
            elif isinstance(obj, Parameter):
                out.append((prefix + attr, obj))
            elif isinstance(obj, (list, tuple, dict)):
                items = obj.items() if isinstance(obj, dict) else enumerate(obj)
                for key, item in items:
                    if isinstance(item, Module):
                        out += item._walk(f"{prefix}{attr}.{key}.")
        return out

    def named_parameters(self) -> dict[str, Parameter]:
        return {name: node for name, node in self._walk()
                if isinstance(node, Parameter)}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {f"{path}{key}": arr for path, node in self._walk()
                if isinstance(node, Module)
                for key, arr in getattr(node, "_buffers", {}).items()}

    def modules(self) -> list[Module]:
        return [node for _, node in self._walk() if isinstance(node, Module)]

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "infer"):
            raise ConfigError(f"unknown mode {mode!r}")
        for m in self.modules():
            m.mode = mode

    def initialize(self, seed: int) -> None:
        for name, p in self.named_parameters().items():
            if p.init == "zeros":
                p.data = np.zeros(p.data.shape)
            elif p.init == "ones":
                p.data = np.ones(p.data.shape)
            elif p.init == "fanin_uniform":
                fan = p.fan if p.fan else max(1, p.data.shape[0])
                bound = 1.0 / np.sqrt(fan)
                rng = named_stream(seed, f"init/{name}")
                p.data = rng.uniform(-bound, bound, size=p.data.shape)
            else:
                raise ConfigError(f"unknown init policy {p.init!r} on {name}")
            p.grad = None

    def load_buffers(self, values: dict[str, np.ndarray]) -> None:
        own = self.named_buffers()
        for name, arr in values.items():
            if name not in own:
                raise ShapeError(f"unknown buffer {name!r}")
            if own[name].shape != arr.shape:
                raise ShapeError(f"buffer {name!r} shape mismatch")
            own[name][...] = arr

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values())


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, zero_init: bool = False) -> None:
        w_init = "zeros" if zero_init else "fanin_uniform"
        self.weight = Parameter(np.zeros((in_dim, out_dim)), init=w_init, fan=in_dim)
        self.bias = Parameter(np.zeros(out_dim), init="zeros")

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    __call__ = forward


class Conv1dSame(Module):
    """Same-padded 1-D convolution along the time axis of ``[B, T, C]`` input."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int) -> None:
        if kernel < 1 or kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {kernel}")
        self.weight = Parameter(np.zeros((out_ch, in_ch, kernel)),
                                init="fanin_uniform", fan=in_ch * kernel)
        self.bias = Parameter(np.zeros(out_ch), init="zeros")

    def forward(self, x: Tensor) -> Tensor:
        return conv1d_same(x, self.weight, self.bias)

    __call__ = forward


# weight of the newest batch statistics in BatchNorm's running buffers
MOMENTUM = 0.1


class BatchNorm(Module):
    """Batch normalisation over all axes but the last (per-feature stats)."""

    def __init__(self, dim: int) -> None:
        self.gamma = Parameter(np.ones(dim), init="ones")
        self.beta = Parameter(np.zeros(dim), init="zeros")
        self._buffers = {
            "running_mean": np.zeros(dim),
            "running_var": np.ones(dim),
        }

    def forward(self, x: Tensor) -> Tensor:
        if self.mode == "train":
            out, mean, var = batch_norm_train(x, self.gamma, self.beta)
            buffers, m = self._buffers, MOMENTUM
            buffers["running_mean"] = (1 - m) * buffers["running_mean"] + m * mean
            buffers["running_var"] = (1 - m) * buffers["running_var"] + m * var
            return out
        return batch_norm_infer(
            x, self.gamma, self.beta,
            self._buffers["running_mean"], self._buffers["running_var"])

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, dim: int) -> None:
        self.gain = Parameter(np.ones(dim), init="ones")
        self.bias = Parameter(np.zeros(dim), init="zeros")

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)

    __call__ = forward


class Dropout(Module):
    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return dropout(x, self.rate, rng, self.mode)

    __call__ = forward
