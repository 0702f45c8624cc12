"""Multi-view dataset container, file interchange, derived views,
spectral-entropy diagnostics, and a synthetic data generator.

Storage convention: view arrays are held (and serialized) as 32-bit floats;
all downstream computation promotes to 64-bit.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import container
from .errors import ConfigError, FormatError, ShapeError, check_structure
from .rngutil import named_stream
from .views import ViewSchema

__all__ = [
    "Dataset",
    "EntropyReport",
    "SynthSpec",
    "entropy_report",
    "import_csv",
    "load_dataset",
    "save_dataset",
    "spectral_entropy",
    "stratified_split",
    "synth_generate",
    "with_ndvi",
]

_TASK_CLASSES = {"binary": 2, "multicrop": 10}


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Column-oriented multi-view dataset.

    ``arrays`` maps each schema name to a ``[N, steps, channels]`` (temporal)
    or ``[N, channels]`` (static) float32 array; ``labels`` is ``[N]`` int64;
    ``metadata`` maps keys to length-``N`` arrays (string or numeric).
    """

    task: str
    classes: int
    schemas: tuple
    arrays: dict
    labels: np.ndarray
    metadata: dict = field(default_factory=dict)
    split: str = "full"

    def __post_init__(self) -> None:
        if self.task not in _TASK_CLASSES:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.classes != _TASK_CLASSES[self.task]:
            raise ConfigError(
                f"task {self.task!r} requires {_TASK_CLASSES[self.task]} classes, "
                f"got {self.classes}"
            )
        schemas = tuple(self.schemas)
        if not schemas:
            raise ConfigError("dataset needs at least one view schema")
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate view names in schemas")
        object.__setattr__(self, "schemas", schemas)

        if set(self.arrays) != set(names):
            missing = set(names) - set(self.arrays)
            extra = set(self.arrays) - set(names)
            raise ConfigError(
                f"arrays do not match schemas (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})"
            )
        arrays = {}
        n = None
        for schema in schemas:
            arr = np.ascontiguousarray(self.arrays[schema.name], dtype=np.float32)
            want = schema.shape
            if arr.ndim != 1 + len(want) or arr.shape[1:] != want:
                raise ShapeError(
                    f"view {schema.name!r} expects trailing shape {want}, "
                    f"got array of shape {arr.shape}"
                )
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ShapeError(
                    f"view {schema.name!r} has {arr.shape[0]} samples, expected {n}"
                )
            arrays[schema.name] = arr
        object.__setattr__(self, "arrays", arrays)

        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
        if n and (labels.min() < 0 or labels.max() >= self.classes):
            raise ConfigError(
                f"labels must lie in [0, {self.classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)

        metadata = {}
        for key, value in self.metadata.items():
            arr = np.asarray(value)
            if arr.dtype.kind in "US":
                arr = np.asarray(value, dtype=str)
            elif arr.dtype.kind in "iub":
                arr = arr.astype(np.int64)
            elif arr.dtype.kind == "f":
                arr = arr.astype(np.float64)
            else:
                raise ConfigError(f"metadata {key!r} has unsupported dtype {arr.dtype}")
            if arr.shape != (n,):
                raise ShapeError(
                    f"metadata {key!r} must have shape ({n},), got {arr.shape}"
                )
            metadata[key] = arr
        object.__setattr__(self, "metadata", metadata)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def view_names(self) -> tuple:
        return tuple(s.name for s in self.schemas)

    def schema(self, name: str) -> ViewSchema:
        for schema in self.schemas:
            if schema.name == name:
                return schema
        raise ConfigError(f"unknown view {name!r}")

    # -- derived datasets ----------------------------------------------------

    def batch(self, index) -> dict:
        """``{view: array[index]}`` for a slice or an index array."""
        return {name: self.arrays[name][index] for name in self.view_names}

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeError("indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise ConfigError(f"subset indices out of range for {len(self)} samples")
        return replace(
            self,
            arrays=self.batch(idx),
            labels=self.labels[idx],
            metadata={key: arr[idx] for key, arr in self.metadata.items()},
        )

    def restrict(self, names: Sequence[str]) -> "Dataset":
        names = list(names)
        for name in names:
            if name not in self.view_names:
                raise ConfigError(f"unknown view {name!r}")
        return replace(
            self,
            schemas=tuple(self.schema(name) for name in names),
            arrays={name: self.arrays[name] for name in names},
        )


# ---------------------------------------------------------------------------
# NDVI
# ---------------------------------------------------------------------------


# channels of the red and near-infrared bands in the canonical optical view
_RED, _NIR = 2, 6


def with_ndvi(dataset: Dataset) -> Dataset:
    """Return a copy of ``dataset`` with a derived one-channel ``ndvi`` view:
    ``(nir - red) / (nir + red)`` of the canonical ``optical`` view at every
    step, and 0 where that denominator is zero."""
    if "optical" not in dataset.view_names:
        raise ConfigError("ndvi derivation requires an 'optical' view")
    if "ndvi" in dataset.view_names:
        raise ConfigError("dataset already has an 'ndvi' view")
    optical = dataset.arrays["optical"].astype(np.float64)
    red, nir = optical[..., _RED], optical[..., _NIR]
    den = nir + red
    safe = np.where(den == 0.0, 1.0, den)
    ndvi = np.where(den == 0.0, 0.0, (nir - red) / safe)[..., None]
    schema = ViewSchema("ndvi", True, 1, dataset.schema("optical").steps)
    return replace(
        dataset,
        schemas=dataset.schemas + (schema,),
        arrays={**dataset.arrays, "ndvi": ndvi},
    )


# ---------------------------------------------------------------------------
# spectral entropy
# ---------------------------------------------------------------------------


def spectral_entropy(series, segments: int = 2) -> float:
    """Normalized Shannon entropy of the averaged periodogram, in ``[0, 1]``.

    The mean-removed series is cut into ``segments`` equal windows whose
    power spectra are averaged (the DC bin is dropped); the entropy of the
    normalized power distribution is divided by ``ln(bin count)``. Constant
    input returns 0 by convention.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"series must be one-dimensional, got shape {x.shape}")
    if x.shape[0] < 4:
        raise ShapeError(f"series needs at least 4 samples, got {x.shape[0]}")
    if segments < 1:
        raise ConfigError("segments must be >= 1")
    seg_len = x.shape[0] // segments
    if seg_len < 2:
        raise ConfigError(f"{segments} segments leave only {seg_len} samples each")
    bins = seg_len // 2  # positive-frequency bins after dropping DC
    if bins < 2:
        raise ConfigError(
            f"{segments} segments of {seg_len} samples leave {bins} spectral bin(s); "
            "need at least 2"
        )

    scale = max(1.0, float(np.max(np.abs(x))))
    centered = x - x.mean()
    if float(np.max(np.abs(centered))) <= 1e-12 * scale:
        return 0.0

    power = np.zeros(seg_len // 2 + 1, dtype=np.float64)
    for s in range(segments):
        window = centered[s * seg_len : (s + 1) * seg_len]
        power += np.abs(np.fft.rfft(window)) ** 2
    power = power[1:]  # drop DC
    total = power.sum()
    if total <= 0.0:
        return 0.0
    p = power / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    value = float(-terms.sum() / np.log(p.shape[0]))
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class EntropyReport:
    """Per-view, per-feature spectral-entropy means with summary statistics."""

    per_feature: dict
    summary: dict


def entropy_report(dataset: Dataset, segments: int = 2) -> EntropyReport:
    """Mean spectral entropy of every (temporal view, feature) pair."""
    per_feature = {}
    summary = {}
    for schema in dataset.schemas:
        if not schema.temporal:
            continue
        arr = dataset.arrays[schema.name].astype(np.float64)
        values = []
        for d in range(schema.channels):
            vals = [spectral_entropy(arr[i, :, d], segments) for i in range(arr.shape[0])]
            values.append(float(np.mean(vals)) if vals else 0.0)
        per_feature[schema.name] = tuple(values)
        flat = np.asarray(values, dtype=np.float64)
        summary[schema.name] = {
            "min": float(flat.min()),
            "max": float(flat.max()),
            "mean": float(flat.mean()),
            "std": float(flat.std()),
        }
    return EntropyReport(per_feature=per_feature, summary=summary)


# ---------------------------------------------------------------------------
# MVDS binary container
# ---------------------------------------------------------------------------

_MAGIC = b"MVDS"
_BLOCK_DTYPES = {"<f4", "<f8", "<i8"}
_MANIFEST_SPEC = {
    "task": str,
    "classes": int,
    "split": str,
    "schemas": [{"name": str, "temporal": bool, "channels": int, "steps": (int, None)}],
    "blocks": [
        {"name": str, "kind": str, "dtype": str, "shape": [int], "offset": int, "nbytes": int}
    ],
    "strings": dict,
}


def _schema_dict(schema: ViewSchema) -> dict:
    return {
        "name": schema.name,
        "temporal": schema.temporal,
        "channels": schema.channels,
        "steps": schema.steps,
    }


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path`` in the MVDS binary container layout."""
    blocks = []
    arrays = []

    def add_block(name: str, kind: str, arr: np.ndarray, dtype: str) -> None:
        arr = np.asarray(arr, dtype=dtype)
        blocks.append(
            {
                "name": name,
                "kind": kind,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": sum(a.nbytes for a in arrays),
                "nbytes": arr.nbytes,
            }
        )
        arrays.append(arr)

    for schema in dataset.schemas:
        add_block(schema.name, "view", dataset.arrays[schema.name], "<f4")
    add_block("labels", "labels", dataset.labels, "<i8")

    strings = {}
    for key in sorted(dataset.metadata):
        arr = dataset.metadata[key]
        if arr.dtype.kind == "U":
            strings[key] = [str(v) for v in arr]
        elif arr.dtype.kind == "i":
            add_block(key, "metadata", arr, "<i8")
        else:
            add_block(key, "metadata", arr, "<f8")

    manifest = {
        "task": dataset.task,
        "classes": dataset.classes,
        "split": dataset.split,
        "schemas": [_schema_dict(s) for s in dataset.schemas],
        "blocks": blocks,
        "strings": strings,
    }
    container.write(path, _MAGIC, (len(dataset),), manifest, arrays)


def load_dataset(path) -> Dataset:
    """Read an MVDS container back into a :class:`Dataset` (bit-exact)."""
    (count,), manifest, payload = container.read(
        path, _MAGIC, 1, _MANIFEST_SPEC, "container")
    for key, values in manifest["strings"].items():
        check_structure(values, [str], f"container manifest.strings.{key}")

    table = []
    for block in manifest["blocks"]:
        name, dtype, shape = block["name"], block["dtype"], tuple(block["shape"])
        if dtype not in _BLOCK_DTYPES:
            raise FormatError(f"block {name!r} has unsupported dtype {dtype!r}")
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        if block["nbytes"] != expected:
            raise FormatError(
                f"block {name!r}: manifest says {block['nbytes']} bytes "
                f"but shape {shape} needs {expected}"
            )
        if shape and shape[0] != count:
            raise FormatError(f"block {name!r} has {shape[0]} samples, header says {count}")
        table.append(((block["kind"], name), dtype, shape, block["offset"]))
    decoded = container.blocks(payload, table)
    if len(decoded) != len(table):
        raise FormatError("container repeats a block")

    metadata = {name: arr for (kind, name), arr in decoded.items() if kind == "metadata"}
    metadata.update(
        (key, np.asarray(values, dtype=str)) for key, values in manifest["strings"].items()
    )
    try:
        schemas = tuple(
            ViewSchema(s["name"], s["temporal"], s["channels"], s["steps"])
            for s in manifest["schemas"]
        )
        read = {("view", s.name) for s in schemas} | {("labels", "labels")}
        for kind, name in decoded:
            if kind != "metadata" and (kind, name) not in read:
                raise FormatError(f"block {name!r} of kind {kind!r} is not a "
                                  "schema's view, the labels or metadata")
        return Dataset(
            task=manifest["task"],
            classes=manifest["classes"],
            schemas=schemas,
            arrays={s.name: decoded[("view", s.name)] for s in schemas},
            labels=decoded[("labels", "labels")],
            metadata=metadata,
            split=manifest["split"],
        )
    except KeyError as exc:
        kind, name = exc.args[0]
        raise FormatError(f"container has no {kind} block {name!r}") from exc
    except (ConfigError, ShapeError) as exc:
        raise FormatError(f"inconsistent container: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

# label-file metadata columns, typed alike when a run reads them back:
# (parser, value when the file omits the column)
METADATA_COLUMNS = {
    "country": (str, "unknown"),
    "continent": (str, "unknown"),
    "year": (int, 0),
    "latitude": (float, 0.0),
    "longitude": (float, 0.0),
    "is_test": (int, 0),
}
# Magnitudes a numeric cell must stay below: an int64 for integers, and for
# floats the smallest magnitude that rounds to infinity in float32, the
# storage type of view values.
_CELL_LIMITS = {int: 2 ** 63, float: 2.0 ** 128 - 2.0 ** 103}


def read_csv(path, required=()) -> tuple[list, list]:
    """A UTF-8 CSV file's header and ``(line, cells)`` pairs, a leading
    byte-order mark and blank rows skipped. FormatError names the file, and
    the line where there is one, for undecodable bytes, a malformed or
    over-long field, a header that lacks a ``required`` column or names a
    column twice, and a row whose length differs from the header's."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = [(reader.line_num, cells) for cells in reader if cells]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable CSV ({exc})") from None
    missing = [column for column in required if column not in header]
    if missing:
        raise FormatError(f"{path} line 1: missing column(s) {missing}")
    if len(set(header)) != len(header):
        raise FormatError(f"{path} line 1: a column name repeats")
    for line, cells in rows:
        if len(cells) != len(header):
            raise FormatError(f"{path} line {line}: {len(cells)} cells, but "
                              f"the header has {len(header)} columns")
    return header, rows


def parse_cell(path, line: int, column: str, convert, text):
    """``convert(text)`` for ``convert`` ``int`` or ``float``; FormatError
    names the file, line and column unless ``text`` is an integer that
    int64 holds or a number that float32 holds finitely."""
    try:
        value = convert(text)
        if abs(value) < _CELL_LIMITS[convert]:
            return value
    except ValueError:
        pass
    kind = "an integer" if convert is int else "a finite number"
    raise FormatError(f"{path} line {line}: cannot read {column} {text!r} as {kind}")


def _read_keyed(path, required=()) -> tuple[list, dict]:
    """An id-keyed CSV: its header and ``{id: (line, cells)}`` in file
    order. ``id`` must be the first column and each id must be unique."""
    header, rows = read_csv(path, required)
    if header[:1] != ["id"]:
        raise FormatError(f"{path} line 1: first column must be 'id'")
    table = {}
    for line, cells in rows:
        if cells[0] in table:
            raise FormatError(f"{path} line {line}: duplicate id {cells[0]!r}")
        table[cells[0]] = (line, cells)
    return header, table


def _read_view(path, schema: ViewSchema) -> dict:
    """``{id: values}`` of one view file, each row shaped ``schema.shape``."""
    header, table = _read_keyed(path)
    width = math.prod(schema.shape)
    if len(header) != 1 + width:
        raise FormatError(
            f"{path} line 1: expected {width} value columns for view "
            f"{schema.name!r}, got {len(header) - 1}")
    return {sid: np.reshape([parse_cell(path, line, column, float, cell)
                             for column, cell in zip(header[1:], cells[1:])],
                            schema.shape)
            for sid, (line, cells) in table.items()}


def import_csv(
    view_files: Mapping[str, object],
    label_file,
    schemas: Sequence[ViewSchema],
    task: str = "binary",
    classes: int = 2,
) -> Dataset:
    """Assemble a :class:`Dataset` from one wide CSV per view plus a label CSV.

    Samples missing at least one view are dropped with a counted warning;
    a label id absent from every view, or a label file none of whose ids
    has every view, is a FormatError; view rows without a label are ignored.
    """
    schemas = tuple(schemas)
    if set(view_files) != {s.name for s in schemas}:
        raise ConfigError("view files do not match the declared schemas")

    view_rows = {s.name: _read_view(view_files[s.name], s) for s in schemas}

    header, table = _read_keyed(label_file, ("label",))
    extra = [c for c in header[1:] if c != "label" and c not in METADATA_COLUMNS]
    if extra:
        raise FormatError(f"{label_file} line 1: unknown columns {extra}")
    kept, labels, records = [], [], []
    for sid, (line, cells) in table.items():
        record = {key: default for key, (_, default) in METADATA_COLUMNS.items()}
        for name, cell in zip(header[1:], cells[1:]):
            convert = int if name == "label" else METADATA_COLUMNS[name][0]
            record[name] = (cell if convert is str
                            else parse_cell(label_file, line, name, convert, cell))
        if not 0 <= record["label"] < classes:
            raise FormatError(f"{label_file} line {line}: label "
                              f"{record['label']} is outside [0, {classes})")
        present = sum(sid in rows for rows in view_rows.values())
        if not present:
            raise FormatError(f"{label_file} line {line}: label id {sid!r} "
                              "is absent from every view file")
        if present == len(view_rows):
            kept.append(sid)
            labels.append(record.pop("label"))
            records.append(record)
    if len(kept) < len(table):
        warnings.warn(
            f"dropped {len(table) - len(kept)} sample(s) missing at least one view",
            stacklevel=2,
        )
    if not kept:
        raise FormatError(f"{label_file}: no label id has a row in every view file")

    return Dataset(
        task=task,
        classes=classes,
        schemas=schemas,
        arrays={s.name: np.stack([view_rows[s.name][sid] for sid in kept])
                for s in schemas},
        labels=np.asarray(labels, dtype=np.int64),
        metadata={key: np.asarray([record[key] for record in records])
                  for key in METADATA_COLUMNS},
    )


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("complementary", "redundant", "noisy-view")
_SYNTH_STEPS = 12
_CONTINENT_CYCLE = ("africa", "america", "asia", "europe")
_COUNTRY_CYCLE = ("kenya", "brazil", "india", "france")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for the synthetic two-view binary generator.

    ``complementary`` encodes one class bit as a phase flip in the optical
    view and an independent bit as an amplitude step in the radar view; the
    label is their XOR, so neither view alone is informative. ``redundant``
    writes the same phase-coded label into both views; ``noisy-view`` leaves
    the radar view as pure noise.
    """

    kind: str
    samples: int = 400
    noise: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.samples < 8:
            raise ConfigError("synthetic dataset needs at least 8 samples")
        if self.noise < 0:
            raise ConfigError("noise level must be non-negative")


def _synth_template() -> np.ndarray:
    t = np.arange(_SYNTH_STEPS, dtype=np.float64)
    return np.sin(2.0 * np.pi * 2.0 * t / _SYNTH_STEPS)


def synth_generate(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministically generate a two-view binary dataset per ``spec``."""
    n = spec.samples
    template = _synth_template()
    bits = named_stream(seed, "synth/bits").integers(0, 2, size=(n, 2))
    noise_rng = named_stream(seed, "synth/noise")
    geo = named_stream(seed, "synth/geo")

    optical = noise_rng.normal(0.0, spec.noise, size=(n, _SYNTH_STEPS, 11))
    radar = noise_rng.normal(0.0, spec.noise, size=(n, _SYNTH_STEPS, 2))

    if spec.kind == "complementary":
        b1, b2 = bits[:, 0], bits[:, 1]
        labels = np.bitwise_xor(b1, b2)
        optical[:, :, 0] += (1.0 - 2.0 * b1)[:, None] * template
        radar[:, :, 0] += (0.5 + b2)[:, None] * template
    elif spec.kind == "redundant":
        labels = bits[:, 0]
        sign = (1.0 - 2.0 * labels)[:, None]
        optical[:, :, 0] += sign * template
        radar[:, :, 0] += sign * template
    else:  # noisy-view
        labels = bits[:, 0]
        optical[:, :, 0] += (1.0 - 2.0 * labels)[:, None] * template

    idx = np.arange(n)
    metadata = {
        "country": np.asarray(_COUNTRY_CYCLE)[idx % len(_COUNTRY_CYCLE)],
        "continent": np.asarray(_CONTINENT_CYCLE)[idx % len(_CONTINENT_CYCLE)],
        "year": (2016 + idx % 3).astype(np.int64),
        "latitude": geo.uniform(-60.0, 60.0, size=n),
        "longitude": geo.uniform(-180.0, 180.0, size=n),
        "is_test": np.zeros(n, dtype=np.int64),
    }
    schemas = (
        ViewSchema("optical", True, 11, _SYNTH_STEPS),
        ViewSchema("radar", True, 2, _SYNTH_STEPS),
    )
    return Dataset(
        task="binary",
        classes=2,
        schemas=schemas,
        arrays={"optical": optical, "radar": radar},
        labels=labels.astype(np.int64),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# stratified split
# ---------------------------------------------------------------------------


def stratified_split(dataset: Dataset, test_fraction: float, seed: int):
    """Seeded class-stratified split into ``(train, test)`` datasets."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    if n < 2:
        raise ConfigError("need at least two samples to split")

    total_test = int(np.floor(test_fraction * n + 0.5))
    total_test = min(max(total_test, 1), n - 1)

    labels = dataset.labels
    present = np.unique(labels)
    counts = {int(k): int(np.sum(labels == k)) for k in present}

    quotas = {k: test_fraction * c for k, c in counts.items()}
    take = {k: int(np.floor(q)) for k, q in quotas.items()}
    # never negative: the floors sum to at most floor(f·n), and each is
    # below its class count, so to at most n - 1
    remaining = total_test - sum(take.values())
    order = sorted(
        counts,
        key=lambda k: (-(quotas[k] - np.floor(quotas[k])), -counts[k], k),
    )
    i = 0
    while remaining > 0:
        k = order[i % len(order)]
        if take[k] < counts[k]:
            take[k] += 1
            remaining -= 1
        i += 1

    # keep every class represented on both sides when counts allow
    for k in sorted(counts):
        if counts[k] >= 2 and take[k] == 0:
            donor = max(take, key=lambda j: take[j])
            if take[donor] > 1:
                take[donor] -= 1
                take[k] = 1
        if counts[k] >= 2 and take[k] == counts[k]:
            take[k] -= 1
            receiver = min(
                (j for j in counts if take[j] < counts[j]),
                key=lambda j: take[j] / counts[j],
                default=None,
            )
            if receiver is not None:
                take[receiver] += 1

    rng = named_stream(seed, "split")
    test_idx = []
    for k in sorted(counts):
        members = np.flatnonzero(labels == k)
        perm = rng.permutation(members)
        test_idx.extend(perm[: take[k]].tolist())
    test_mask = np.zeros(n, dtype=bool)
    test_mask[np.asarray(test_idx, dtype=np.int64)] = True

    train = dataset.subset(np.flatnonzero(~test_mask))
    test = dataset.subset(np.flatnonzero(test_mask))
    return replace(train, split="train"), replace(test, split="test")
