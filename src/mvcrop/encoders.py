"""View encoders: map one input view to a fixed-width embedding.

Five temporal architectures (GRU, LSTM, TempCNN, TAE, L-TAE) handle series
views and one MLP handles static views. All encoders emit ``[B x d]``
embeddings (d = 64 by default) so any of them can feed the same merge and
prediction stages. Parameter shapes are chosen so the per-architecture totals
follow simple closed forms over the input channel width; see the unit tests
for the frozen totals.

Calling an encoder draws no random number: it returns the embedding before
the encoder's dropout, ``drop``, which the model applies with its generator.
So a model's encoders can run as concurrent branches while their masks are
drawn in a fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, check_fields
from .layers import BatchNorm, Conv1dSame, Dropout, LayerNorm, Linear, Module
from .tensor import (
    Parameter,
    Tensor,
    as_tensor,
    attention_pool,
    gru_sequence,
    lstm_sequence,
    narrow,
    reduce_mean,
    relu,
    reshape,
)
from .views import ViewSchema

ARCHITECTURES = ("LSTM", "GRU", "TempCNN", "TAE", "LTAE", "MLP")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture choice plus width settings shared by all encoders.

    ``attn_width`` is the concatenated multi-head value width of the
    attention encoders; ``value_split`` switches them to reading values
    directly from head-wise slices of the embedded input instead of a
    learned value projection.
    """

    architecture: str
    hidden: int = 64
    layers: int = 2
    embedding_dim: int = 64
    kernel: int = 5
    dense: int = 256
    heads: int = 4
    key_dim: int = 32
    attn_width: int = 256
    dropout: float = 0.2
    value_split: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(
                f"unknown architecture {self.architecture!r}; known: {ARCHITECTURES}"
            )
        for field in ("hidden", "layers", "embedding_dim", "dense", "heads",
                      "key_dim", "attn_width"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


class Encoder(Module):
    """Base class: holds the view schema and validates incoming batches."""

    def __init__(self, schema: ViewSchema, config: EncoderConfig) -> None:
        self.schema = schema
        self.config = config

    def _check_temporal(self, x) -> Tensor:
        x = as_tensor(x)
        shape = x.data.shape
        if len(shape) != 3:
            raise ShapeError(
                f"{self.schema.name}: expected [B, T, D] input, got shape {shape}"
            )
        if shape[1] < 1:
            raise ShapeError(f"{self.schema.name}: empty time series")
        if shape[2] != self.schema.channels:
            raise ShapeError(
                f"{self.schema.name}: expected {self.schema.channels} channels, "
                f"got {shape[2]}"
            )
        return x

    def _check_static(self, x) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.schema.channels:
            raise ShapeError(
                f"{self.schema.name}: expected [B, {self.schema.channels}] input, "
                f"got shape {x.shape}"
            )
        return x

    def forward(self, x) -> Tensor:
        """The embedding ``[B, d]`` before ``drop``."""
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        return self.forward(x)


class MLPEncoder(Encoder):
    """Static-view encoder: linear -> relu -> linear."""

    def __init__(self, schema: ViewSchema, config: EncoderConfig) -> None:
        if schema.temporal:
            raise ConfigError(f"MLP encoder requires a static view, got {schema.name!r}")
        super().__init__(schema, config)
        self.fc1 = Linear(schema.channels, config.hidden)
        self.fc2 = Linear(config.hidden, config.embedding_dim)
        self.drop = Dropout(config.dropout)

    def forward(self, x) -> Tensor:
        x = self._check_static(x)
        return self.fc2(relu(self.fc1(x)))


class _RecurrentCell(Module):
    """Fused gate weights of one recurrent layer, ``GATES`` blocks wide.

    ``outputs`` maps ``xs [B, T, D]`` to the hidden states ``[B, T, H]``
    from a zero state, as one tape record.
    """

    GATES = 0

    def __init__(self, in_dim: int, hidden: int) -> None:
        g = self.GATES * hidden
        self.w_in = Parameter(np.zeros((in_dim, g)), init="fanin_uniform", fan=in_dim)
        self.w_hid = Parameter(np.zeros((hidden, g)), init="fanin_uniform", fan=hidden)
        self.b_in = Parameter(np.zeros(g), init="zeros")
        self.b_hid = Parameter(np.zeros(g), init="zeros")
        self.hidden = hidden


class GRUCell(_RecurrentCell):
    """GRU layer with fused gate weights, order (z, r, n).

    Dual bias vectors (input-side and hidden-side) per gate block; the reset
    gate scales the hidden-side candidate term before the sum, and the new
    state is (1 - z) * n + z * h.
    """

    GATES = 3

    def outputs(self, xs: Tensor) -> Tensor:
        return gru_sequence(xs, self.w_in, self.w_hid, self.b_in, self.b_hid)


class LSTMCell(_RecurrentCell):
    """LSTM layer with fused gate weights, order (i, f, g, o)."""

    GATES = 4

    def outputs(self, xs: Tensor) -> Tensor:
        return lstm_sequence(xs, self.w_in, self.w_hid, self.b_in, self.b_hid)


class _RecurrentEncoder(Encoder):
    cell_cls: type | None = None

    def __init__(self, schema: ViewSchema, config: EncoderConfig) -> None:
        if not schema.temporal:
            raise ConfigError(f"{config.architecture} encoder requires a temporal view")
        super().__init__(schema, config)
        dims = [schema.channels] + [config.hidden] * (config.layers - 1)
        self.cells = [self.cell_cls(d, config.hidden) for d in dims]
        self.proj = Linear(config.hidden, config.embedding_dim)
        self.drop = Dropout(config.dropout)

    def forward(self, x) -> Tensor:
        x = self._check_temporal(x)
        batch, steps, _ = x.shape
        seq = x
        for cell in self.cells:
            seq = cell.outputs(seq)
        last = reshape(narrow(seq, steps - 1, steps, axis=1), (batch, self.config.hidden))
        return self.proj(last)


class GRUEncoder(_RecurrentEncoder):
    cell_cls = GRUCell


class LSTMEncoder(_RecurrentEncoder):
    cell_cls = LSTMCell


class _ConvBlock(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int) -> None:
        self.conv = Conv1dSame(in_ch, out_ch, kernel)
        self.norm = BatchNorm(out_ch)

    def forward(self, x: Tensor) -> Tensor:
        return relu(self.norm(self.conv(x)))

    __call__ = forward


class TempCNNEncoder(Encoder):
    """Three same-padded conv blocks, flatten, dense block, output projection.

    The flatten stage hard-wires the configured series length, so inputs of
    any other length are rejected.
    """

    BLOCKS = 3

    def __init__(self, schema: ViewSchema, config: EncoderConfig) -> None:
        if not schema.temporal:
            raise ConfigError("TempCNN encoder requires a temporal view")
        super().__init__(schema, config)
        chans = [schema.channels] + [config.hidden] * (self.BLOCKS - 1)
        self.blocks = [_ConvBlock(c, config.hidden, config.kernel) for c in chans]
        self.dense = Linear(schema.steps * config.hidden, config.dense)
        self.dense_norm = BatchNorm(config.dense)
        self.out = Linear(config.dense, config.embedding_dim)
        self.drop = Dropout(config.dropout)

    def forward(self, x) -> Tensor:
        x = self._check_temporal(x)
        if x.shape[1] != self.schema.steps:
            raise ShapeError(
                f"{self.schema.name}: TempCNN is fixed to {self.schema.steps} steps, "
                f"got {x.shape[1]}"
            )
        h = x
        for block in self.blocks:
            h = block(h)
        flat = reshape(h, (x.shape[0], self.schema.steps * self.config.hidden))
        dense = relu(self.dense_norm(self.dense(flat)))
        return self.out(dense)


def positional_encoding(steps: int, dim: int) -> np.ndarray:
    """Deterministic sinusoidal position table of shape ``[steps, dim]``.

    Even feature indices carry sine, odd carry cosine, with geometrically
    spaced wavelengths.
    """
    pos = np.arange(steps, dtype=np.float64)[:, None]
    idx = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (idx // 2)) / dim)
    return np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))


class AttentionEncoder(Encoder):
    """Multi-head temporal attention with a master query per head.

    The master query is either the time-average of per-step query projections
    (``learned_query=False``) or a single learnable vector shared across
    samples (``learned_query=True``).
    """

    def __init__(self, schema: ViewSchema, config: EncoderConfig,
                 learned_query: bool) -> None:
        if not schema.temporal:
            raise ConfigError("attention encoders require a temporal view")
        super().__init__(schema, config)
        heads, kd = config.heads, config.key_dim
        if config.value_split:
            if config.hidden % heads:
                raise ConfigError(
                    f"hidden width {config.hidden} not divisible by {heads} heads"
                )
            self.value_width = config.hidden // heads
        else:
            if config.attn_width % heads:
                raise ConfigError(
                    f"attention width {config.attn_width} not divisible by {heads} heads"
                )
            self.value_width = config.attn_width // heads
            self.w_v = Linear(config.hidden, config.attn_width)
        self.norm = LayerNorm(schema.channels)
        self.stem = Linear(schema.channels, config.hidden)
        self.w_k = Linear(config.hidden, heads * kd)
        if learned_query:
            self.q_master = Parameter(np.zeros((heads, kd)),
                                      init="fanin_uniform", fan=kd)
        else:
            self.w_q = Linear(config.hidden, heads * kd)
        self.out = Linear(heads * self.value_width, config.embedding_dim)
        self.drop = Dropout(config.dropout)
        self.learned_query = learned_query

    def forward(self, x) -> Tensor:
        x = self._check_temporal(x)
        batch, steps, _ = x.shape
        heads, kd = self.config.heads, self.config.key_dim
        e = self.stem(self.norm(x)) + Tensor(positional_encoding(steps, self.config.hidden))
        keys = reshape(self.w_k(e), (batch, steps, heads, kd))
        if self.config.value_split:
            values = reshape(e, (batch, steps, heads, self.value_width))
        else:
            values = reshape(self.w_v(e), (batch, steps, heads, self.value_width))
        if self.learned_query:
            q_master = reshape(self.q_master, (1, 1, heads, kd))
        else:
            per_step = reshape(self.w_q(e), (batch, steps, heads, kd))
            q_master = reduce_mean(per_step, axis=1, keepdims=True)
        pooled, _ = attention_pool(q_master, keys, values, kd)
        return self.out(reshape(pooled, (batch, heads * self.value_width)))


_TEMPORAL_CLASSES = {
    "GRU": GRUEncoder,
    "LSTM": LSTMEncoder,
    "TempCNN": TempCNNEncoder,
}


def build_encoder(schema: ViewSchema, config: EncoderConfig) -> Encoder:
    """Instantiate the encoder matching the schema/architecture pair."""
    arch = config.architecture
    if not schema.temporal:
        if arch != "MLP":
            raise ConfigError(
                f"static view {schema.name!r} requires the MLP encoder, got {arch}"
            )
        return MLPEncoder(schema, config)
    if arch == "MLP":
        raise ConfigError(
            f"temporal view {schema.name!r} cannot use the MLP encoder"
        )
    if arch in ("TAE", "LTAE"):
        return AttentionEncoder(schema, config, learned_query=(arch == "LTAE"))
    return _TEMPORAL_CLASSES[arch](schema, config)
