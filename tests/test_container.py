"""The framed container behind ``.mvds`` datasets and ``.mvlc`` checkpoints:
header fields, block tiling, and a mutation fuzz over both formats."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcrop import container
from mvcrop.data import SynthSpec, load_dataset, save_dataset, synth_generate
from mvcrop.encoders import EncoderConfig
from mvcrop.errors import FormatError
from mvcrop.fusion import build_model
from mvcrop.training import load_checkpoint, save_checkpoint
from mvcrop.views import canonical_schema


class TestFraming:
    def test_round_trip(self, tmp_path):
        a = np.arange(6, dtype="<f8").reshape(2, 3)
        b = np.arange(4, dtype="<i8")
        path = tmp_path / "x.bin"
        container.write(path, b"TEST", (7,), {"k": 1}, [a, b])
        fields, manifest, payload = container.read(path, b"TEST", 1, {"k": int}, "test")
        assert fields == (7,)
        assert manifest == {"k": 1}
        out = container.blocks(payload, [("b", "<i8", (4,), 48), ("a", "<f8", (2, 3), 0)])
        assert np.array_equal(out["a"], a) and np.array_equal(out["b"], b)
        assert all(arr.flags.owndata and arr.flags.writeable for arr in out.values())

    def test_manifest_is_compact_sorted_json(self, tmp_path):
        path = tmp_path / "x.bin"
        container.write(path, b"TEST", (), {"b": [1, 2], "a": None}, [])
        assert path.read_bytes()[16:] == b'{"a":null,"b":[1,2]}'

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        container.write(path, b"TEST", (), {}, [])
        with pytest.raises(FormatError):
            container.read(path, b"ELSE", 0, dict, "test")

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        body = b"[" * 100_000
        path = tmp_path / "x.bin"
        path.write_bytes(struct.pack("<4sIQ", b"TEST", container.VERSION, len(body)) + body)
        with pytest.raises(FormatError):
            container.read(path, b"TEST", 0, dict, "test")


TWO_BLOCKS = [("a", "<f8", (1,), 0), ("b", "<f8", (1,), 8)]


class _FailingHandle:
    """A file handle whose ``fail_at``-th write raises, as a full disk does."""

    def __init__(self, handle, fail_at: int) -> None:
        self.handle, self.fail_at = handle, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def write(self, data):
        self.fail_at -= 1
        if self.fail_at == 0:
            raise OSError("No space left on device")
        return self.handle.write(data)


class TestAtomicWrite:
    @pytest.mark.parametrize("fail_at", [1, 3, 5])
    def test_failed_checkpoint_write_keeps_the_old_bytes(
            self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "m.mvlc"
        model = tiny_model()
        save_checkpoint(model, path, extra={"seed": 0})
        before = path.read_bytes()
        monkeypatch.setattr(
            container, "open",
            lambda *args, **kw: _FailingHandle(open(*args, **kw), fail_at),
            raising=False)
        model.initialize(1)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(model, path, extra={"seed": 1})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.mvlc"]

    def test_text_and_binary_handles(self, tmp_path):
        with container.replacing(tmp_path / "a.csv") as handle:
            handle.write("x\r\n")
        with container.replacing(tmp_path / "b.bin", binary=True) as handle:
            handle.write(b"\x00\n")
        assert (tmp_path / "a.csv").read_bytes() == b"x\r\n"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.bin"]


class TestTiling:
    @pytest.mark.parametrize("payload, table", [
        (bytes(24), [("a", "<f8", (1,), 0), ("b", "<f8", (1,), 16)]),
        (bytes(16), [("a", "<f8", (1,), 0), ("b", "<f8", (1,), 0)]),
        (bytes(24), TWO_BLOCKS),
        (bytes(8), TWO_BLOCKS),
        (bytes(0), [("a", "<f8", (0, 1 << 70), 0)]),
    ], ids=["gap", "overlap", "trailing_bytes", "truncated", "unbuildable_shape"])
    def test_rejected(self, payload, table):
        with pytest.raises(FormatError):
            container.blocks(memoryview(payload), table)

    def test_zero_size_blocks_fit_anywhere_in_order(self):
        payload = np.arange(2, dtype="<f8").tobytes()
        table = [("b", "<f8", (1,), 8), ("empty", "<f8", (0, 3), 8), ("a", "<f8", (1,), 0)]
        out = container.blocks(memoryview(payload), table)
        assert list(out) == ["b", "empty", "a"]
        assert out["empty"].shape == (0, 3)
        assert out["a"][0] == 0.0 and out["b"][0] == 1.0


# ---------------------------------------------------------------------------
# mutation fuzz: a mutated file either loads or raises FormatError
# ---------------------------------------------------------------------------

# byte offset of the header's u64 manifest length in each format
MANIFEST_LENGTH_AT = {"mvds": 16, "mvlc": 8}


def tiny_model():
    config = EncoderConfig("TempCNN", hidden=4, layers=1, embedding_dim=4,
                           kernel=3, dense=4, dropout=0.0)
    model = build_model([canonical_schema("radar")], "Feature", config, classes=2)
    model.initialize(0)
    return model


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(synth_generate(SynthSpec("complementary", samples=8), seed=1),
                 root / "d.mvds")
    model = tiny_model()
    save_checkpoint(model, root / "m.mvlc", extra={"seed": 0})
    raw = {"mvds": (root / "d.mvds").read_bytes(),
           "mvlc": (root / "m.mvlc").read_bytes()}
    return root, raw, model


def mutate(draw, raw, length_at):
    how = draw(st.sampled_from(["flip", "truncate", "number"]))
    if how == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        out = bytearray(raw)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    # rewrite one number of the manifest and fix the header's manifest length
    start = length_at + 8
    (length,) = struct.unpack_from("<Q", raw, length_at)
    body = raw[start:start + length].decode("utf-8")
    match = draw(st.sampled_from(list(re.finditer(r"\d+", body))))
    old = int(match.group())
    new = draw(st.sampled_from([0, 1, 1 << 31, 1 << 63, 1 << 70])
               | st.integers(max(0, old - 16), old + 16))
    body = (body[:match.start()] + str(new) + body[match.end():]).encode("utf-8")
    return raw[:length_at] + struct.pack("<Q", len(body)) + body + raw[start + length:]


@settings(max_examples=600, deadline=None)
@given(fmt=st.sampled_from(sorted(MANIFEST_LENGTH_AT)), data=st.data())
def test_mutated_file_loads_or_raises_format_error(originals, fmt, data):
    root, raw, model = originals
    path = root / f"mutated.{fmt}"
    path.write_bytes(mutate(data.draw, raw[fmt], MANIFEST_LENGTH_AT[fmt]))
    try:
        if fmt == "mvds":
            load_dataset(path)
        else:
            load_checkpoint(model, path)
    except FormatError:
        pass
