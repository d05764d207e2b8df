import json
import struct
import warnings

import numpy as np
import pytest

from titletag.errors import FormatError
from titletag.model_io import Unfilled, file_hash, load_model, save_model
from titletag.neural import LstmCrfModel, TrainableEmbeddings
from titletag.title2vec import BiLmModel, Vocab


def test_roundtrip(tmp_path):
    path = tmp_path / "m.bin"
    arrays = {
        "weights": np.arange(12, dtype=float).reshape(3, 4),
        "bias": np.array([1.5, -2.25]),
        "scalar_row": np.zeros((1,)),
    }
    meta = {"labels": ["O", "S-RES"], "note": "fixture"}
    save_model(path, "crf", meta, arrays)
    kind, meta2, arrays2 = load_model(path)
    assert kind == "crf"
    assert meta2["labels"] == ["O", "S-RES"]
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].shape == arrays[name].shape
        np.testing.assert_allclose(arrays2[name], arrays[name], atol=1e-6)
        assert arrays2[name].dtype == np.float32 and arrays2[name].flags.writeable


def test_float32_quantization(tmp_path):
    path = tmp_path / "m.bin"
    value = np.array([1 / 3])
    save_model(path, "crf", {}, {"v": value})
    _, _, arrays = load_model(path)
    assert arrays["v"][0] == np.float32(1 / 3)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_model(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"IPODMDL1" + struct.pack("<Q", 10**6))
    with pytest.raises(FormatError):
        load_model(path)


def test_corrupt_json_header(tmp_path):
    path = tmp_path / "m.bin"
    blob = b"{not json"
    path.write_bytes(b"IPODMDL1" + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError):
        load_model(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "crf", {}, {"v": np.zeros(8)})
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(FormatError):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "crf", {}, {"v": np.zeros(4)})
    path.write_bytes(path.read_bytes() + b"JUNK")
    with pytest.raises(FormatError):
        load_model(path)


def test_missing_header_keys(tmp_path):
    path = tmp_path / "m.bin"
    blob = json.dumps({"kind": "crf"}).encode()
    path.write_bytes(b"IPODMDL1" + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError):
        load_model(path)


def test_file_hash_tracks_content(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_model(a, "crf", {"x": 1}, {"v": np.ones(3)})
    save_model(b, "crf", {"x": 1}, {"v": np.ones(3)})
    assert file_hash(a) == file_hash(b)
    save_model(b, "crf", {"x": 2}, {"v": np.ones(3)})
    assert file_hash(a) != file_hash(b)
    assert len(file_hash(a)) == 64


def test_save_deterministic_bytes(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    arrays = {"z": np.linspace(0, 1, 7), "a": np.eye(2)}
    save_model(a, "lstm", {"k": [3, 2, 1]}, arrays)
    save_model(b, "lstm", {"k": [3, 2, 1]}, arrays)
    assert a.read_bytes() == b.read_bytes()


def write_container(path, header, payload=b""):
    blob = json.dumps(header).encode()
    path.write_bytes(b"IPODMDL1" + struct.pack("<Q", len(blob)) + blob + payload)


def container_header(arrays):
    return {"format_version": 1, "kind": "crf", "meta": {}, "arrays": arrays}


@pytest.mark.parametrize(
    "header,payload",
    [
        pytest.param([1, 2], b"", id="header-list"),
        pytest.param("just a string", b"", id="header-string"),
        pytest.param({"format_version": 1, "kind": "crf", "meta": [], "arrays": []}, b"",
                     id="meta-list"),
        pytest.param(container_header({"name": "a", "shape": [1]}), b"\x00" * 4,
                     id="arrays-object"),
        pytest.param(container_header(["a"]), b"", id="entry-string"),
        pytest.param(container_header([{"shape": [2]}]), b"\x00" * 8, id="no-name"),
        pytest.param(container_header([{"name": 7, "shape": [2]}]), b"\x00" * 8,
                     id="int-name"),
        pytest.param(container_header([{"name": "a"}]), b"", id="no-shape"),
        pytest.param(container_header([{"name": "a", "shape": "2"}]), b"\x00" * 8,
                     id="string-shape"),
        pytest.param(container_header([{"name": "a", "shape": 2}]), b"\x00" * 8,
                     id="int-shape"),
        pytest.param(container_header([{"name": "a", "shape": [2.0]}]), b"\x00" * 8,
                     id="float-dim"),
        pytest.param(container_header([{"name": "a", "shape": [True]}]), b"\x00" * 4,
                     id="bool-dim"),
        pytest.param(container_header([{"name": "a", "shape": [None]}]), b"", id="null-dim"),
        # a negative count would move the read offset back into the header
        pytest.param(
            container_header([{"name": "a", "shape": [-1]}, {"name": "b", "shape": [2]}]),
            b"\x00" * 4, id="negative-dim",
        ),
    ],
)
def test_malformed_manifest_rejected(tmp_path, header, payload):
    path = tmp_path / "m.bin"
    write_container(path, header, payload)
    with pytest.raises(FormatError):
        load_model(path)


def test_zero_sized_array_roundtrip(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "crf", {}, {"empty": np.zeros((0, 13)), "v": np.ones(2)})
    _, _, arrays = load_model(path)
    assert arrays["empty"].shape == (0, 13)
    np.testing.assert_array_equal(arrays["v"], [1.0, 1.0])


@pytest.mark.parametrize("kind", [5, ["crf"], None, {"kind": "crf"}])
def test_non_string_kind_is_a_format_error(tmp_path, kind):
    path = tmp_path / "m.bin"
    save_model(path, kind, {}, {"v": np.zeros(2)})
    with pytest.raises(FormatError, match="model kind") as info:
        load_model(path)
    assert str(path) in str(info.value)


# The BiLSTM's 13-label head, the one part of a recurrent model kept in float64.
HEAD = {"proj.W", "proj.b", "trans", "start", "stop"}


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm", "bilm"])
def test_loading_draws_no_random_numbers(tmp_path, monkeypatch, kind):
    """A loaded model is built without drawing initial weights, and every
    one of its arrays holds the saved float32 values: its cells and tables
    are the payload's float32 arrays bit for bit, and saving it again
    writes the same bytes."""
    vocab = Vocab.from_counts({"chief": 2, "officer": 1})
    rng = np.random.default_rng(5)
    if kind == "bilm":
        cls, model = BiLmModel, BiLmModel(vocab, 3, 4, 2, rng=rng)
    else:
        cls, model = LstmCrfModel, LstmCrfModel(TrainableEmbeddings(vocab, 3, rng), hidden_size=4,
                                                layers=2, kind=kind, rng=rng)
    if kind == "lstm-crf":
        for weights in (model.trans, model.start, model.stop):
            weights[...] = rng.normal(size=weights.shape)
    path = tmp_path / "m.model"
    model.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading created a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = cls.load(path)
    monkeypatch.undo()
    saved, got = model._arrays(), loaded._arrays()
    _, _, payload = load_model(path)
    assert list(got) == list(saved)
    for name, arr in got.items():
        np.testing.assert_array_equal(arr, saved[name].astype(np.float32), err_msg=name)
        if name in HEAD:
            assert arr.dtype == np.float64, name
        else:
            assert arr.dtype == np.float32 and arr.tobytes() == payload[name].tobytes(), name
    loaded.save(tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


def test_unfilled_arrays_widen_without_a_warning():
    """The BiLSTM widens its unfilled head to float64 before the file's
    values fill it. Leftover bytes that hold signalling NaNs would warn
    there, on stderr, by chance; the freed block below is one numpy hands
    out again for the next array of its size."""
    poison = np.full((16, 13), 0x7FA00000, dtype=np.uint32).view(np.float32)
    del poison
    stand_in = Unfilled("m.model", {"proj.W": np.zeros((16, 13), np.float32)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stand_in.uniform(-1.0, 1.0, (16, 13)).astype(np.float64)
