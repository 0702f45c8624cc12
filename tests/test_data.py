"""Oracle tests for the data module: containers, ingestion, derived views,
resampling, spectral entropy, the synthetic generator, and splits."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcrop import container
from mvcrop.cli import main
from mvcrop.data import (
    Dataset,
    EntropyReport,
    SynthSpec,
    entropy_report,
    import_csv,
    load_dataset,
    save_dataset,
    spectral_entropy,
    stratified_split,
    synth_generate,
    with_ndvi,
)
from mvcrop.errors import ConfigError, FormatError, ShapeError
from mvcrop.views import ViewSchema, canonical_schema
from reference import resample_monthly


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def tiny_dataset(n=6, steps=12):
    """Two temporal views plus one static view, deterministic contents."""
    schemas = (
        ViewSchema("optical", True, 11, steps),
        ViewSchema("radar", True, 2, steps),
        ViewSchema("topography", False, 2, None),
    )
    arrays = {
        "optical": np.arange(n * steps * 11, dtype=np.float32).reshape(n, steps, 11) / 7.0,
        "radar": np.arange(n * steps * 2, dtype=np.float32).reshape(n, steps, 2) / 3.0,
        "topography": np.arange(n * 2, dtype=np.float32).reshape(n, 2),
    }
    labels = (np.arange(n) % 2).astype(np.int64)
    metadata = {
        "country": np.array(["kenya", "brazil", "india", "france", "kenya", "brazil"][:n]),
        "continent": np.array(["africa", "america", "asia", "europe", "africa", "america"][:n]),
        "year": 2016 + (np.arange(n) % 3).astype(np.int64),
        "latitude": np.linspace(-10.0, 40.0, n),
        "longitude": np.linspace(3.0, 9.0, n),
        "is_test": np.zeros(n, dtype=np.int64),
    }
    return Dataset(
        task="binary",
        classes=2,
        schemas=schemas,
        arrays=arrays,
        labels=labels,
        metadata=metadata,
    )


def assert_datasets_equal(a, b):
    assert a.task == b.task
    assert a.classes == b.classes
    assert a.split == b.split
    assert a.schemas == b.schemas
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        assert a.arrays[name].dtype == b.arrays[name].dtype
        assert np.array_equal(a.arrays[name], b.arrays[name])
    assert np.array_equal(a.labels, b.labels)
    assert set(a.metadata) == set(b.metadata)
    for key in a.metadata:
        assert list(a.metadata[key]) == list(b.metadata[key])


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


class TestDataset:
    def test_basic_construction(self):
        ds = tiny_dataset()
        assert len(ds) == 6
        assert ds.view_names == ("optical", "radar", "topography")
        assert ds.schema("radar").channels == 2
        assert ds.split == "full"

    def test_views_stored_as_float32(self):
        ds = tiny_dataset()
        for name in ds.view_names:
            assert ds.arrays[name].dtype == np.float32
        assert ds.labels.dtype == np.int64

    def test_float64_input_is_coerced(self):
        ds = tiny_dataset()
        arrays = {k: v.astype(np.float64) for k, v in ds.arrays.items()}
        built = Dataset("binary", 2, ds.schemas, arrays, ds.labels, ds.metadata)
        assert built.arrays["optical"].dtype == np.float32

    def test_binary_task_requires_two_classes(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            Dataset("binary", 3, ds.schemas, ds.arrays, ds.labels, ds.metadata)

    def test_multicrop_task_requires_ten_classes(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            Dataset("multicrop", 5, ds.schemas, ds.arrays, ds.labels, ds.metadata)

    def test_unknown_task_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            Dataset("regression", 2, ds.schemas, ds.arrays, ds.labels, ds.metadata)

    def test_missing_view_array_rejected(self):
        ds = tiny_dataset()
        arrays = dict(ds.arrays)
        del arrays["radar"]
        with pytest.raises(ConfigError):
            Dataset("binary", 2, ds.schemas, arrays, ds.labels, ds.metadata)

    def test_unexpected_view_array_rejected(self):
        ds = tiny_dataset()
        arrays = dict(ds.arrays)
        arrays["extra"] = np.zeros((6, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            Dataset("binary", 2, ds.schemas, arrays, ds.labels, ds.metadata)

    def test_shape_mismatch_rejected(self):
        ds = tiny_dataset()
        arrays = dict(ds.arrays)
        arrays["radar"] = arrays["radar"][:, :, :1]
        with pytest.raises(ShapeError):
            Dataset("binary", 2, ds.schemas, arrays, ds.labels, ds.metadata)

    def test_label_out_of_range_rejected(self):
        ds = tiny_dataset()
        labels = ds.labels.copy()
        labels[0] = 2
        with pytest.raises(ConfigError):
            Dataset("binary", 2, ds.schemas, ds.arrays, labels, ds.metadata)

    def test_label_length_mismatch_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ShapeError):
            Dataset("binary", 2, ds.schemas, ds.arrays, ds.labels[:-1], ds.metadata)

    def test_metadata_length_mismatch_rejected(self):
        ds = tiny_dataset()
        metadata = dict(ds.metadata)
        metadata["year"] = metadata["year"][:-1]
        with pytest.raises(ShapeError):
            Dataset("binary", 2, ds.schemas, ds.arrays, ds.labels, metadata)

    def test_subset(self):
        ds = tiny_dataset()
        sub = ds.subset([5, 1, 3])
        assert len(sub) == 3
        assert np.array_equal(sub.labels, ds.labels[[5, 1, 3]])
        assert np.array_equal(sub.arrays["optical"], ds.arrays["optical"][[5, 1, 3]])
        assert list(sub.metadata["country"]) == ["brazil", "brazil", "france"]
        assert sub.schemas == ds.schemas

    @pytest.mark.parametrize("index", [slice(1, 4), np.array([5, 1, 3])],
                             ids=["slice", "array"])
    def test_batch_indexes_every_view(self, index):
        ds = tiny_dataset()
        batch = ds.batch(index)
        assert list(batch) == list(ds.view_names)
        for name, arr in batch.items():
            assert np.array_equal(arr, ds.arrays[name][index])

    def test_subset_out_of_range(self):
        with pytest.raises(ConfigError):
            tiny_dataset().subset([0, 6])

    def test_restrict_to_single_view(self):
        ds = tiny_dataset()
        solo = ds.restrict(["radar"])
        assert solo.view_names == ("radar",)
        assert np.array_equal(solo.arrays["radar"], ds.arrays["radar"])
        assert np.array_equal(solo.labels, ds.labels)
        assert list(solo.metadata["continent"]) == list(ds.metadata["continent"])

    def test_restrict_unknown_view(self):
        with pytest.raises(ConfigError):
            tiny_dataset().restrict(["thermal"])


# ---------------------------------------------------------------------------
# NDVI
# ---------------------------------------------------------------------------


def _with_optical(ds: Dataset, optical: np.ndarray) -> Dataset:
    """``ds`` with its optical view replaced by ``optical``."""
    return Dataset("binary", 2, ds.schemas, {**ds.arrays, "optical": optical},
                   ds.labels, ds.metadata)


def _hand_ndvi(optical: np.ndarray) -> np.ndarray:
    """NDVI of the red (2) and near-infrared (6) bands, 0 on a zero sum."""
    red, nir = optical[..., 2].astype(np.float64), optical[..., 6].astype(np.float64)
    den = nir + red
    return np.where(den == 0.0, 0.0, (nir - red) / np.where(den == 0.0, 1.0, den))


class TestNdvi:
    def test_hand_values(self):
        optical = np.zeros((6, 12, 11), dtype=np.float32)
        optical[0, 0, 2], optical[0, 0, 6] = 0.1, 0.5  # red, nir -> 0.4/0.6
        optical[0, 1, 2], optical[0, 1, 6] = 0.3, 0.3  # nir == red -> 0
        # step 2: nir == red == 0 -> 0 by convention
        out = with_ndvi(_with_optical(tiny_dataset(), optical)).arrays["ndvi"]
        red, nir = np.float64(np.float32(0.1)), np.float64(np.float32(0.5))
        assert out[0, 0, 0] == np.float32((nir - red) / (nir + red))
        assert abs(out[0, 0, 0] - 0.4 / 0.6) < 1e-7
        assert out[0, 1, 0] == 0.0
        assert out[0, 2, 0] == 0.0

    def test_range_for_nonnegative_bands(self):
        rng = np.random.default_rng(5)
        optical = rng.uniform(0.0, 1.0, size=(6, 12, 11))
        out = with_ndvi(_with_optical(tiny_dataset(), optical)).arrays["ndvi"]
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_with_ndvi_appends_canonical_view(self):
        ds = tiny_dataset()
        # make the optical bands non-negative so NDVI stays in range
        ds = _with_optical(ds, np.abs(ds.arrays["optical"]) + 0.1)
        out = with_ndvi(ds)
        assert "ndvi" in out.view_names
        assert out.schema("ndvi") == canonical_schema("ndvi")
        assert out.arrays["ndvi"].shape == (6, 12, 1)
        want = _hand_ndvi(ds.arrays["optical"][3])
        assert np.array_equal(out.arrays["ndvi"][3, :, 0], want.astype(np.float32))
        # source dataset is untouched
        assert "ndvi" not in ds.view_names

    def test_with_ndvi_requires_optical(self):
        ds = tiny_dataset().restrict(["radar"])
        with pytest.raises(ConfigError):
            with_ndvi(ds)

    def test_with_ndvi_rejects_duplicate(self):
        ds = tiny_dataset()
        once = with_ndvi(_with_optical(ds, np.abs(ds.arrays["optical"]) + 0.1))
        with pytest.raises(ConfigError):
            with_ndvi(once)


# ---------------------------------------------------------------------------
# monthly resampling
# ---------------------------------------------------------------------------

MONTH_MID_DAYS = [16, 45, 75, 105, 136, 166, 197, 228, 258, 289, 319, 350]


class TestResampleMonthly:
    def test_one_observation_per_month_is_identity(self):
        series = np.arange(24, dtype=np.float64).reshape(12, 2)
        out = resample_monthly(series, np.array(MONTH_MID_DAYS))
        assert out.shape == (12, 2)
        assert np.array_equal(out, series)

    def test_two_observations_in_one_month_average(self):
        series = np.array([[2.0], [4.0]])
        out = resample_monthly(series, np.array([3, 28]))  # both January
        assert out[0, 0] == 3.0

    def test_middle_gap_linear_interpolation(self):
        # observations in January and March only -> February is the midpoint
        series = np.array([[1.0], [3.0]])
        out = resample_monthly(series, np.array([15, 75]))
        assert out[0, 0] == 1.0
        assert out[1, 0] == 2.0
        assert out[2, 0] == 3.0

    def test_edge_months_extend_nearest(self):
        # observations only in April (month 3) and September (month 8)
        series = np.array([[4.0], [9.0]])
        out = resample_monthly(series, np.array([105, 258]))
        assert np.all(out[:4, 0][:3] == 4.0)  # Jan-Mar take the April value
        assert out[3, 0] == 4.0
        assert np.all(out[9:, 0] == 9.0)  # Oct-Dec take the September value

    def test_columns_resampled_independently(self):
        series = np.array([[1.0, 10.0], [3.0, 30.0]])
        out = resample_monthly(series, np.array([15, 75]))
        assert out[1, 0] == 2.0
        assert out[1, 1] == 20.0

    def test_empty_series_rejected(self):
        with pytest.raises(ShapeError):
            resample_monthly(np.zeros((0, 2)), np.zeros(0))

    def test_day_out_of_range(self):
        series = np.array([[1.0]])
        with pytest.raises(ConfigError):
            resample_monthly(series, np.array([0]))
        with pytest.raises(ConfigError):
            resample_monthly(series, np.array([367]))

    def test_leap_day_lands_in_december(self):
        series = np.array([[7.0]])
        out = resample_monthly(series, np.array([366]))
        assert np.all(out == 7.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            resample_monthly(np.zeros((3, 1)), np.array([10, 20]))


# ---------------------------------------------------------------------------
# spectral entropy
# ---------------------------------------------------------------------------


class TestSpectralEntropy:
    def test_constant_series_is_zero(self):
        assert spectral_entropy(np.full(64, 0.1)) == 0.0
        assert spectral_entropy(np.zeros(64)) == 0.0

    def test_aligned_sinusoid_is_zero(self):
        # 8 cycles over 256 samples = 4 cycles per 128-sample segment:
        # an exact bin of the two-segment estimator.
        t = np.arange(256)
        x = np.sin(2 * np.pi * 8 * t / 256)
        assert spectral_entropy(x) < 1e-9

    def test_white_noise_calibration(self):
        rng = np.random.default_rng(2024)
        vals = [spectral_entropy(rng.standard_normal(256)) for _ in range(1000)]
        mean = float(np.mean(vals))
        assert 0.92 <= mean <= 0.98

    def test_single_segment_periodogram_baseline(self):
        rng = np.random.default_rng(99)
        vals = [spectral_entropy(rng.standard_normal(256), segments=1) for _ in range(1000)]
        mean = float(np.mean(vals))
        assert 0.90 <= mean <= 0.925

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = spectral_entropy(rng.standard_normal(48))
            assert 0.0 <= v <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        assert abs(spectral_entropy(x) - spectral_entropy(3.5 * x)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(128)
        assert abs(spectral_entropy(x) - spectral_entropy(x + 2.0)) < 1e-6

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            spectral_entropy(np.ones(3))

    def test_too_few_bins_rejected(self):
        # T=4 with two segments leaves a single positive-frequency bin
        with pytest.raises(ConfigError):
            spectral_entropy(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_four_samples_single_segment_ok(self):
        v = spectral_entropy(np.array([1.0, 2.0, 0.5, 3.0]), segments=1)
        assert 0.0 <= v <= 1.0

    def test_invalid_segments(self):
        with pytest.raises(ConfigError):
            spectral_entropy(np.ones(16), segments=0)


class TestEntropyReport:
    def test_report_on_synthetic_dataset(self):
        ds = synth_generate(SynthSpec("redundant", samples=16), seed=3)
        report = entropy_report(ds)
        assert isinstance(report, EntropyReport)
        assert set(report.per_feature) == {"optical", "radar"}
        assert len(report.per_feature["optical"]) == 11
        assert len(report.per_feature["radar"]) == 2
        for values in report.per_feature.values():
            for v in values:
                assert 0.0 <= v <= 1.0
        for name, stats in report.summary.items():
            assert abs(stats["mean"] - np.mean(report.per_feature[name])) < 1e-12
        assert set(report.summary["optical"]) == {"min", "max", "mean", "std"}

    def test_static_views_are_skipped(self):
        ds = tiny_dataset()
        report = entropy_report(ds)
        assert "topography" not in report.per_feature

    def test_signal_channel_less_entropic_than_noise(self):
        ds = synth_generate(SynthSpec("redundant", samples=32, noise=0.05), seed=5)
        per = report = entropy_report(ds).per_feature["optical"]
        # channel 0 carries a near-periodic signal, the rest is white noise
        assert per[0] < min(per[1:]) - 0.2


# ---------------------------------------------------------------------------
# MVDS container
# ---------------------------------------------------------------------------


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.mvds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert_datasets_equal(ds, back)

    def test_round_trip_synthetic(self, tmp_path):
        ds = synth_generate(SynthSpec("complementary", samples=20), seed=9)
        path = tmp_path / "synth.mvds"
        save_dataset(ds, path)
        assert_datasets_equal(ds, load_dataset(path))

    def test_save_is_idempotent_bytes(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "a.mvds", tmp_path / "b.mvds"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        assert path.read_bytes()[:4] == b"MVDS"

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord(b"X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_block_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_manifest_block_disagreement_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        raw = path.read_bytes()
        manifest_len = struct.unpack("<Q", raw[16:24])[0]
        manifest = json.loads(raw[24 : 24 + manifest_len].decode("utf-8"))
        # lie about a block length without changing the manifest size
        nbytes = manifest["blocks"][0]["nbytes"]
        manifest["blocks"][0]["nbytes"] = nbytes - 4
        body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body = body.ljust(manifest_len, b" ")
        assert len(body) == manifest_len
        path.write_bytes(raw[:24] + body + raw[24 + manifest_len :])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "absent.mvds")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_view_block_no_schema_names_rejected(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        (count,), manifest, payload = container.read(path, b"MVDS", 1, dict, "container")
        ghost = np.ones((count, 3), dtype="<f4")
        manifest["blocks"].append({"name": "ghost", "kind": "view", "dtype": "<f4",
                                   "shape": [count, 3], "offset": len(payload),
                                   "nbytes": ghost.nbytes})
        container.write(path, b"MVDS", (count,), manifest,
                        [np.frombuffer(payload, np.uint8), ghost])
        with pytest.raises(FormatError, match="ghost"):
            load_dataset(path)


def rewrite_manifest(path, edit):
    """Replace the JSON manifest of the container at ``path`` with
    ``edit(manifest)``, fixing the header's manifest length."""
    raw = path.read_bytes()
    manifest_len = struct.unpack("<Q", raw[16:24])[0]
    manifest = json.loads(raw[24 : 24 + manifest_len].decode("utf-8"))
    body = json.dumps(edit(manifest)).encode("utf-8")
    path.write_bytes(raw[:16] + struct.pack("<Q", len(body)) + body
                     + raw[24 + manifest_len :])


def _set_block(**fields):
    def edit(manifest):
        manifest["blocks"][0].update(fields)
        return manifest
    return edit


def _move_block(name, onto):
    def edit(manifest):
        blocks = {block["name"]: block for block in manifest["blocks"]}
        blocks[name]["offset"] = blocks[onto]["offset"]
        return manifest
    return edit


def _set_named_block(block_name, **fields):
    def edit(manifest):
        next(b for b in manifest["blocks"] if b["name"] == block_name).update(fields)
        return manifest
    return edit


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


# Each edit must end in FormatError; most once escaped load_dataset as a
# ValueError, KeyError or TypeError.
MALFORMED_MANIFESTS = {
    "negative_offset": _set_block(offset=-4),
    "no_blocks": _drop("blocks"),
    "json_list": lambda manifest: [manifest],
    "non_integer_shape": _set_block(shape=["x", 11, 12]),
    "fractional_shape": _set_block(shape=[2.5, 11, 12]),
    "bool_offset": _set_block(offset=True),
    "block_not_object": lambda m: {**m, "blocks": [7]},
    "schema_not_object": lambda m: {**m, "schemas": ["optical"]},
    "task_not_string": lambda m: {**m, "task": ["binary"]},
    "strings_not_lists": lambda m: {**m, "strings": {"country": 3}},
    "offset_past_payload": _set_block(offset=1 << 40),
    # 2**64 elements wrap to 0 in int64 arithmetic
    "overflowing_shape": _set_block(shape=[1 << 32, 1 << 32, 1], nbytes=0),
    "zero_size_oversized_shape": _set_block(shape=[0, 1 << 70], nbytes=0),
    # same size as the labels block, so only the overlap is wrong
    "overlapping_blocks": _move_block("year", onto="labels"),
    # both once loaded without error, silently dropping a metadata column
    "unknown_block_kind": _set_named_block("year", kind="junk"),
    "repeated_block": _set_named_block("is_test", name="year"),
}


class TestMalformedManifest:
    def test_untouched_rewrite_loads(self, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        rewrite_manifest(path, lambda manifest: manifest)
        assert_datasets_equal(tiny_dataset(), load_dataset(path))

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_rejected_as_format_error(self, case, tmp_path):
        path = tmp_path / "d.mvds"
        save_dataset(tiny_dataset(), path)
        rewrite_manifest(path, MALFORMED_MANIFESTS[case])
        with pytest.raises(FormatError):
            load_dataset(path)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def write_view_csv(path, ids, arrays):
    """arrays: list of flattened per-sample value rows (time-major)."""
    width = len(arrays[0]) if arrays else 0
    header = "id," + ",".join(f"v{i:03d}" for i in range(width))
    lines = [header]
    for sid, row in zip(ids, arrays):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_label_csv(path, rows):
    header = "id,label,country,continent,year,latitude,longitude,is_test"
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


SMALL_SCHEMAS = (
    ViewSchema("spectra", True, 2, 3),
    ViewSchema("terrain", False, 2, None),
)


def small_csv_corpus(tmp_path, drop_view_row=False, extra_view_row=False):
    rng = np.random.default_rng(0)
    spectra = rng.normal(size=(3, 6)).round(3)
    terrain = rng.normal(size=(3, 2)).round(3)
    ids = ["a1", "b2", "c3"]
    spectra_ids, spectra_rows = list(ids), [spectra[i] for i in range(3)]
    if drop_view_row:
        spectra_ids, spectra_rows = spectra_ids[:2], spectra_rows[:2]
    if extra_view_row:
        spectra_ids.append("zz")
        spectra_rows.append(spectra[0])
    write_view_csv(tmp_path / "spectra.csv", spectra_ids, spectra_rows)
    write_view_csv(tmp_path / "terrain.csv", ids, [terrain[i] for i in range(3)])
    write_label_csv(
        tmp_path / "labels.csv",
        [
            ("a1", 0, "kenya", "africa", 2016, 1.5, 36.8, 0),
            ("b2", 1, "brazil", "america", 2017, -10.2, -48.3, 0),
            ("c3", 1, "india", "asia", 2018, 20.0, 77.0, 1),
        ],
    )
    return (
        {"spectra": tmp_path / "spectra.csv", "terrain": tmp_path / "terrain.csv"},
        tmp_path / "labels.csv",
        spectra,
        terrain,
    )


class TestImportCsv:
    def test_happy_path(self, tmp_path):
        views, labels_path, spectra, terrain = small_csv_corpus(tmp_path)
        ds = import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)
        assert len(ds) == 3
        assert ds.view_names == ("spectra", "terrain")
        assert np.allclose(ds.arrays["spectra"][1], spectra[1].reshape(3, 2), atol=1e-6)
        assert np.allclose(ds.arrays["terrain"][2], terrain[2], atol=1e-6)
        assert np.array_equal(ds.labels, [0, 1, 1])
        assert list(ds.metadata["country"]) == ["kenya", "brazil", "india"]
        assert list(ds.metadata["year"]) == [2016, 2017, 2018]
        assert list(ds.metadata["is_test"]) == [0, 0, 1]
        assert abs(ds.metadata["latitude"][1] + 10.2) < 1e-12

    def test_sample_missing_one_view_dropped_with_warning(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path, drop_view_row=True)
        with pytest.warns(UserWarning, match="1 sample"):
            ds = import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)
        assert len(ds) == 2
        assert list(ds.metadata["country"]) == ["kenya", "brazil"]

    def test_label_absent_from_every_view_is_hard_error(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        with open(labels_path, "a") as fh:
            fh.write("d4,0,kenya,africa,2016,0.0,0.0,0\n")
        with pytest.raises(FormatError):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    def test_unlabelled_view_rows_are_ignored(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path, extra_view_row=True)
        ds = import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)
        assert len(ds) == 3

    def test_non_numeric_cell_rejected(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        text = (tmp_path / "spectra.csv").read_text().replace("id,", "id,", 1)
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[2] = "oops"
        lines[1] = ",".join(cells)
        (tmp_path / "spectra.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    def test_wrong_column_count_rejected(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        lines = (tmp_path / "spectra.csv").read_text().splitlines()
        lines[1] = lines[1] + ",0.5"
        (tmp_path / "spectra.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    def test_import_then_container_round_trip(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        ds = import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)
        path = tmp_path / "imported.mvds"
        save_dataset(ds, path)
        assert_datasets_equal(ds, load_dataset(path))

    def test_repeated_label_id_rejected(self, tmp_path):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        with open(labels_path, "a") as fh:
            fh.write("a1,1,kenya,africa,2016,1.5,36.8,0\n")
        with pytest.raises(FormatError, match=r"labels\.csv line 5: duplicate id 'a1'"):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "3.5e38", "1e400"])
    def test_view_value_the_dataset_cannot_hold_rejected(self, tmp_path, text):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        lines = (tmp_path / "spectra.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = text
        lines[2] = ",".join(cells)
        (tmp_path / "spectra.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"spectra\.csv line 3: cannot read v002"):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    @pytest.mark.parametrize("column, text", [
        ("latitude", "nan"), ("longitude", "-inf"), ("year", "9223372036854775808"),
        ("is_test", "1.0")])
    def test_metadata_value_the_dataset_cannot_hold_rejected(self, tmp_path, column, text):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        lines = labels_path.read_text().splitlines()
        index = lines[0].split(",").index(column)
        cells = lines[3].split(",")
        cells[index] = text
        lines[3] = ",".join(cells)
        labels_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"labels\.csv line 4: cannot read {column}"):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    @pytest.mark.parametrize("label", ["2", "7", "-1"])
    def test_label_out_of_range_names_file_and_line(self, tmp_path, label):
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        text = labels_path.read_text().replace("b2,1,", f"b2,{label},")
        labels_path.write_text(text)
        with pytest.raises(FormatError, match=r"labels\.csv line 3: label"):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A view CSV and a labels CSV that start with a UTF-8 byte-order
        mark, as spreadsheet exports often do, import to the same bytes as
        the same files without one."""
        views, labels_path, _, _ = small_csv_corpus(tmp_path)
        plain, marked = tmp_path / "plain.mvds", tmp_path / "marked.mvds"
        save_dataset(import_csv(views, labels_path, SMALL_SCHEMAS, task="binary",
                                classes=2), plain)
        for path in (views["spectra"], labels_path):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        save_dataset(import_csv(views, labels_path, SMALL_SCHEMAS, task="binary",
                                classes=2), marked)
        assert marked.read_bytes() == plain.read_bytes()

    def test_no_label_id_with_every_view_names_the_label_file(self, tmp_path):
        views, labels_path, spectra, terrain = small_csv_corpus(tmp_path)
        write_view_csv(views["spectra"], ["a1"], [spectra[0]])
        write_view_csv(views["terrain"], ["b2", "c3"], [terrain[1], terrain[2]])
        with pytest.warns(UserWarning, match="3 sample"), \
                pytest.raises(FormatError, match=r"labels\.csv: no label id"):
            import_csv(views, labels_path, SMALL_SCHEMAS, task="binary", classes=2)


def _mutation_corpus() -> dict:
    """File name -> rows of cells (header first) of a valid CSV corpus."""
    rng = np.random.default_rng(11)
    ids = ["a1", "b2", "c3", "d4"]
    corpus = {}
    for name, width in (("spectra.csv", 6), ("terrain.csv", 2)):
        values = rng.normal(size=(len(ids), width)).round(4)
        corpus[name] = [["id", *(f"v{i}" for i in range(width))]] + [
            [sid, *map(repr, row.tolist())] for sid, row in zip(ids, values)]
    corpus["labels.csv"] = [
        ["id", "label", "country", "continent", "year", "latitude", "longitude",
         "is_test"],
        ["a1", "0", "kenya", "africa", "2016", "1.5", "36.8", "0"],
        ["b2", "1", "brazil", "america", "2017", "-10.25", "-48.3", "0"],
        ["c3", "1", "india", "asia", "2018", "20.0", "77.0", "1"],
        ["d4", "0", "france", "europe", "2019", "46.5", "2.25", "1"],
    ]
    return corpus


MUTATION_CORPUS = _mutation_corpus()
# Texts that no cell of the given column kind may hold.
_BAD_FLOATS = ["", "x", "1.2.3", "nan", "-NaN", "inf", "-Infinity", "3.5e38",
               "-1e39", "1e400", "0x1p3"]
_BAD_INTS = ["", "x", "1.5", "1e3", "nan", "0x1", "9223372036854775808",
             "-9223372036854775809"]
_BAD_CELLS = {"latitude": _BAD_FLOATS, "longitude": _BAD_FLOATS,
              "year": _BAD_INTS, "is_test": _BAD_INTS,
              "label": _BAD_INTS + ["2", "7", "-1"]}
MUTATIONS = ("cell", "drop-column", "drop-header-cell", "extra-column",
             "repeat-column", "ragged-row", "duplicate-id", "non-utf8",
             "long-field", "empty", "blank-lines", "crlf", "no-final-newline")
BENIGN = ("blank-lines", "crlf", "no-final-newline")


@st.composite
def mutated_file(draw, kind):
    """(file name, bytes) of one corpus file mutated by ``kind``."""
    name = draw(st.sampled_from(sorted(MUTATION_CORPUS)))
    table = [list(row) for row in MUTATION_CORPUS[name]]
    header, n = table[0], len(table)
    row = draw(st.integers(1, n - 1))
    if kind == "cell":
        columns = ([c for c in header if c in _BAD_CELLS] if name == "labels.csv"
                   else header[1:])
        column = header.index(draw(st.sampled_from(columns)))
        table[row][column] = draw(st.sampled_from(
            _BAD_CELLS.get(header[column], _BAD_FLOATS)))
    elif kind == "drop-column":
        # a labels file without a metadata column is valid, so drop id or label
        column = draw(st.integers(0, 1 if name == "labels.csv" else len(header) - 1))
        for cells in table:
            del cells[column]
    elif kind == "drop-header-cell":
        del header[draw(st.integers(0, len(header) - 1))]
    elif kind in ("extra-column", "repeat-column"):
        column = draw(st.integers(0, len(header) - 1))
        for cells in table:
            cells.append(cells[column] if kind == "repeat-column"
                         else "extra" if cells is header else "0")
    elif kind == "ragged-row":
        table[row] = table[row][:-1] if draw(st.booleans()) else table[row] + ["0"]
    elif kind == "duplicate-id":
        other = draw(st.integers(1, n - 1).filter(lambda i: i != row))
        table[row][0] = table[other][0]
    elif kind == "long-field":
        table[row][draw(st.integers(0, len(header) - 1))] = "1" * 140_000
    lines = [",".join(cells) for cells in table]
    if kind == "blank-lines":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    text = "\n".join(lines) + "\n"
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "no-final-newline":
        text = text[:-1]
    blob = text.encode()
    if kind == "non-utf8":
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at:]
    elif kind == "empty":
        blob = b""
    return name, blob


def _import_corpus(directory, files):
    for name, blob in files.items():
        (directory / name).write_bytes(blob)
    return import_csv({"spectra": directory / "spectra.csv",
                       "terrain": directory / "terrain.csv"},
                      directory / "labels.csv", SMALL_SCHEMAS, task="binary",
                      classes=2)


def _corpus_bytes():
    return {name: ("\n".join(",".join(cells) for cells in table) + "\n").encode()
            for name, table in MUTATION_CORPUS.items()}


class TestImportCsvMutations:
    """``import_csv`` over one mutated file of a valid corpus either loads
    what the corpus loads (the mutation is benign) or raises FormatError."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_outcome_is_the_corpus_load_or_format_error(self, kind, data):
        name, blob = data.draw(mutated_file(kind))
        with tempfile.TemporaryDirectory() as tmp:
            reference = _import_corpus(Path(tmp), _corpus_bytes())
            files = {**_corpus_bytes(), name: blob}
            if kind in BENIGN:
                assert_datasets_equal(_import_corpus(Path(tmp), files), reference)
            else:
                with pytest.raises(FormatError, match=re.escape(name)):
                    _import_corpus(Path(tmp), files)

    def test_mutated_import_exits_1_through_the_cli(self, capsys, tmp_path):
        files = {**_corpus_bytes(), "terrain.csv": b"id,v0,v1\nb2,0.5,\xff\n"}
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "labels": "labels.csv",
            "views": {"spectra": "spectra.csv", "terrain": "terrain.csv"},
            "schemas": {"spectra": {"channels": 2, "steps": 3},
                        "terrain": {"temporal": False, "channels": 2}}}))
        code = main(["import", "--manifest", str(manifest), "--out",
                     str(tmp_path / "x.mvds")])
        assert code == 1
        assert "terrain.csv" in capsys.readouterr().err
        assert not (tmp_path / "x.mvds").exists()


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

TEMPLATE = np.sin(2 * np.pi * 2.0 * np.arange(12) / 12.0)
TEMPLATE_POWER = float(np.dot(TEMPLATE, TEMPLATE))  # = 6


def phase_bit(view_channel):
    """Decode a phase-flip bit from [N,12] series: 1 when anti-correlated."""
    return (view_channel.astype(np.float64) @ TEMPLATE < 0.0).astype(np.int64)


def amplitude_bit(view_channel):
    """Decode an amplitude bit: 1 when the fitted amplitude exceeds 1."""
    amp = np.abs(view_channel.astype(np.float64) @ TEMPLATE) / TEMPLATE_POWER
    return (amp > 1.0).astype(np.int64)


class TestSynthGenerate:
    def test_schemas_and_shapes(self):
        ds = synth_generate(SynthSpec("complementary", samples=40), seed=1)
        assert ds.task == "binary"
        assert ds.classes == 2
        assert ds.view_names == ("optical", "radar")
        assert ds.arrays["optical"].shape == (40, 12, 11)
        assert ds.arrays["radar"].shape == (40, 12, 2)
        assert ds.arrays["optical"].dtype == np.float32
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_metadata_population(self):
        ds = synth_generate(SynthSpec("complementary", samples=9), seed=1)
        assert list(ds.metadata["year"]) == [2016 + i % 3 for i in range(9)]
        assert ds.metadata["continent"][0] == "africa"
        assert ds.metadata["continent"][1] == "america"
        assert np.all(np.abs(ds.metadata["latitude"]) <= 60.0)
        assert np.all(np.abs(ds.metadata["longitude"]) <= 180.0)

    def test_determinism(self):
        a = synth_generate(SynthSpec("complementary", samples=30), seed=7)
        b = synth_generate(SynthSpec("complementary", samples=30), seed=7)
        assert_datasets_equal(a, b)

    def test_seed_changes_data(self):
        a = synth_generate(SynthSpec("complementary", samples=30), seed=7)
        b = synth_generate(SynthSpec("complementary", samples=30), seed=8)
        assert not np.array_equal(a.arrays["optical"], b.arrays["optical"])

    def test_complementary_is_exact_xor(self):
        ds = synth_generate(SynthSpec("complementary", samples=400), seed=2)
        b1 = phase_bit(ds.arrays["optical"][:, :, 0])
        b2 = amplitude_bit(ds.arrays["radar"][:, :, 0])
        assert np.array_equal(ds.labels, b1 ^ b2)

    def test_complementary_single_view_uninformative(self):
        ds = synth_generate(SynthSpec("complementary", samples=400), seed=2)
        b1 = phase_bit(ds.arrays["optical"][:, :, 0])
        b2 = amplitude_bit(ds.arrays["radar"][:, :, 0])
        # each decoded bit alone agrees with the label about half the time
        assert abs(np.mean(b1 == ds.labels) - 0.5) < 0.15
        assert abs(np.mean(b2 == ds.labels) - 0.5) < 0.15

    def test_complementary_label_balance(self):
        ds = synth_generate(SynthSpec("complementary", samples=400), seed=2)
        assert abs(np.mean(ds.labels) - 0.5) < 0.15

    def test_redundant_both_views_decode_label(self):
        ds = synth_generate(SynthSpec("redundant", samples=200), seed=4)
        assert np.array_equal(phase_bit(ds.arrays["optical"][:, :, 0]), ds.labels)
        assert np.array_equal(phase_bit(ds.arrays["radar"][:, :, 0]), ds.labels)

    def test_noisy_view_radar_carries_nothing(self):
        ds = synth_generate(SynthSpec("noisy-view", samples=200), seed=6)
        assert np.array_equal(phase_bit(ds.arrays["optical"][:, :, 0]), ds.labels)
        amp = np.abs(ds.arrays["radar"][:, :, 0].astype(np.float64) @ TEMPLATE)
        assert np.max(amp) / TEMPLATE_POWER < 0.45

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SynthSpec("mystery", samples=40)
        with pytest.raises(ConfigError):
            SynthSpec("redundant", samples=4)
        with pytest.raises(ConfigError):
            SynthSpec("redundant", samples=40, noise=-0.1)


# ---------------------------------------------------------------------------
# stratified split
# ---------------------------------------------------------------------------


class TestStratifiedSplit:
    def test_seventy_thirty(self):
        ds = synth_generate(SynthSpec("complementary", samples=100), seed=3)
        train, test = stratified_split(ds, 0.3, seed=0)
        assert len(train) == 70
        assert len(test) == 30
        assert train.split == "train"
        assert test.split == "test"

    def test_disjoint_and_exhaustive(self):
        ds = synth_generate(SynthSpec("complementary", samples=50), seed=3)
        train, test = stratified_split(ds, 0.3, seed=1)
        key = ds.metadata["latitude"]  # unique per sample with prob 1
        train_keys = set(train.metadata["latitude"])
        test_keys = set(test.metadata["latitude"])
        assert train_keys.isdisjoint(test_keys)
        assert sorted(list(train_keys) + list(test_keys)) == sorted(key)

    def test_stratification_keeps_minority_class(self):
        base = synth_generate(SynthSpec("redundant", samples=300), seed=5)
        zeros = np.flatnonzero(base.labels == 0)[:90]
        ones = np.flatnonzero(base.labels == 1)[:10]
        ds = base.subset(np.concatenate([zeros, ones]))
        train, test = stratified_split(ds, 0.3, seed=2)
        assert set(np.unique(train.labels)) == {0, 1}
        assert set(np.unique(test.labels)) == {0, 1}
        assert int(np.sum(test.labels == 1)) == 3
        assert int(np.sum(test.labels == 0)) == 27

    def test_minority_class_taken_from_the_largest_test_quota(self):
        """With 98 and 2 labels at fraction 0.1 the rounded quotas give the
        test side 10 and 0; one test place moves from the majority class to
        the minority class, so each class is on both sides."""
        labels = np.array([0] * 98 + [1] * 2, dtype=np.int64)
        ds = Dataset(task="binary", classes=2,
                     schemas=(ViewSchema("sample_id", False, 1, None),),
                     arrays={"sample_id": np.arange(100, dtype=np.float32)[:, None]},
                     labels=labels, metadata={})
        train, test = stratified_split(ds, 0.1, seed=0)
        assert np.bincount(test.labels).tolist() == [9, 1]
        assert np.bincount(train.labels).tolist() == [89, 1]

    def test_determinism(self):
        ds = synth_generate(SynthSpec("complementary", samples=60), seed=3)
        a_train, a_test = stratified_split(ds, 0.25, seed=9)
        b_train, b_test = stratified_split(ds, 0.25, seed=9)
        assert_datasets_equal(a_train, b_train)
        assert_datasets_equal(a_test, b_test)

    def test_seed_changes_membership(self):
        ds = synth_generate(SynthSpec("complementary", samples=60), seed=3)
        _, t1 = stratified_split(ds, 0.25, seed=1)
        _, t2 = stratified_split(ds, 0.25, seed=2)
        assert list(t1.metadata["latitude"]) != list(t2.metadata["latitude"])

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_test_side_size_and_partition(self, classes, fraction):
        for n in (2, 3, 5, 8, 13, 40, 99, 256):
            labels = (np.arange(n) ** 2 % classes).astype(np.int64)
            ds = Dataset(
                task="binary" if classes == 2 else "multicrop",
                classes=2 if classes == 2 else 10,
                schemas=(ViewSchema("sample_id", False, 1, None),),
                arrays={"sample_id": np.arange(n, dtype=np.float32)[:, None]},
                labels=labels, metadata={})
            train, test = stratified_split(ds, fraction, seed=n)
            expected = min(max(int(np.floor(fraction * n + 0.5)), 1), n - 1)
            assert len(test) == expected
            ids = np.concatenate([train.arrays["sample_id"][:, 0],
                                  test.arrays["sample_id"][:, 0]])
            assert np.array_equal(np.sort(ids), np.arange(n))

    def test_fraction_out_of_range(self):
        ds = synth_generate(SynthSpec("complementary", samples=20), seed=3)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                stratified_split(ds, bad, seed=0)
