"""Named-tensor container round-trips and corruption handling."""

import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from longspan import checkpoint as ckpt
from longspan.attention import ToyModelConfig, ToySeq2Seq, load_toy_model
from longspan.autodiff import GruParams, parameter
from longspan.cli import main
from longspan.corpus import Document, Example, Vocab, write_corpus
from longspan.errors import FormatError
from longspan.mcs import McsConfig, McsModel


class TestRoundTrip:
    def test_values_shapes_meta(self, tmp_path):
        path = tmp_path / "model.lsnt"
        rng = np.random.default_rng(0)
        tensors = {
            "a.w": rng.normal(size=(3, 4)),
            "a.b": rng.normal(size=4),
            "scalarish": np.array(2.5),
        }
        meta = {"kind": "demo", "config": {"d": 4}}
        ckpt.save_tensors(path, tensors, meta)
        loaded, got_meta = ckpt.load_tensors(path)
        assert got_meta == meta
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == np.asarray(arr).shape
            np.testing.assert_array_equal(loaded[name], np.asarray(arr))

    def test_accepts_tensor_objects(self, tmp_path):
        path = tmp_path / "p.lsnt"
        t = parameter(np.arange(6.0).reshape(2, 3))
        ckpt.save_tensors(path, {"p": t})
        loaded, _ = ckpt.load_tensors(path)
        np.testing.assert_array_equal(loaded["p"], t.data)

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"x": np.arange(5.0), "y": np.ones((2, 2))}
        a, b = tmp_path / "a.lsnt", tmp_path / "b.lsnt"
        ckpt.save_tensors(a, tensors, {"seed": 1})
        ckpt.save_tensors(b, tensors, {"seed": 1})
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lsnt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            ckpt.load_tensors(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.lsnt"
        path.write_bytes(ckpt.MAGIC + struct.pack("<I", 9) + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="version"):
            ckpt.load_tensors(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.lsnt"
        ckpt.save_tensors(path, {"x": np.ones(8)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated"):
            ckpt.load_tensors(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "g.lsnt"
        ckpt.save_tensors(path, {"x": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FormatError, match="trailing"):
            ckpt.load_tensors(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            ckpt.load_tensors(tmp_path / "absent.lsnt")


def _bit_flips(blob: bytes):
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


class TestFuzz:
    @staticmethod
    def small_container(path):
        ckpt.save_tensors(path, {"w": np.ones((2, 3)), "s": np.array(1.5)},
                          {"kind": "demo", "config": {"d": 4}})
        return path.read_bytes()

    def test_every_bit_flip_loads_or_raises_format_error(self, tmp_path):
        path = tmp_path / "c.lsnt"
        for blob in _bit_flips(self.small_container(path)):
            path.write_bytes(blob)
            try:
                ckpt.load_tensors(path)
            except FormatError:
                pass

    def test_every_truncation_raises_format_error(self, tmp_path):
        path = tmp_path / "c.lsnt"
        blob = self.small_container(path)
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError):
                ckpt.load_tensors(path)

    def test_oversized_dimension_is_not_read(self, tmp_path):
        path = tmp_path / "big.lsnt"
        ckpt.save_tensors(path, {"x": np.ones(1)})
        blob = bytearray(path.read_bytes())
        dim_at = len(blob) - 8 - 8  # the one u64 dimension precedes one float64
        blob[dim_at : dim_at + 8] = struct.pack("<Q", 2**61)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated"):
            ckpt.load_tensors(path)

    def test_non_object_metadata_rejected(self, tmp_path):
        path = tmp_path / "m.lsnt"
        ckpt.save_tensors(path, {"x": np.ones(1)}, [1, 2])
        with pytest.raises(FormatError, match="JSON object"):
            ckpt.load_tensors(path)


def _small_mcs():
    vocab = Vocab(["a", "b"])
    config = McsConfig(vocab_size=len(vocab), embed_dim=2, hidden_dim=2, word_layers=1,
                       sent_layers=1, max_sentences=2, max_words=2, max_target=2)
    return McsModel.init(config, vocab), McsModel.load


def _small_toy():
    config = ToyModelConfig(vocab=4, d_model=2, n_heads=1, enc_layers=1, dec_layers=1,
                            ffn_dim=2, pos_base_len=2, max_src=2, max_tgt=2, window=3)
    return ToySeq2Seq.init(config), load_toy_model


def _replace(**values):
    """A spoil that overwrites those of ``values`` the stored config has."""
    def spoil(meta):
        meta["config"].update({k: v for k, v in values.items() if k in meta["config"]})
    return spoil


def _spoiled(model, path, spoil):
    model.save(path)
    tensors, meta = ckpt.load_tensors(path)
    spoil(meta)
    ckpt.save_tensors(path, tensors, meta)
    return path


# The config keys a checkpoint stores: a field added, removed or renamed in
# McsConfig or ToyModelConfig changes the checkpoint format.
STORED_CONFIG_KEYS = {
    "McsConfig": ["dropout", "embed_dim", "gamma", "hidden_dim", "max_sentences",
                  "max_target", "max_words", "sent_layers", "vocab_size", "word_layers"],
    "ToyModelConfig": ["bos_id", "d_model", "dec_layers", "enc_layers", "ffn_dim", "max_src",
                       "max_tgt", "n_heads", "pos_base_len", "vocab", "window"],
}


@pytest.mark.parametrize("make", [_small_mcs, _small_toy], ids=["mcs", "toy"])
class TestModelRestore:
    def test_config_round_trips_through_asdict(self, make):
        model, _ = make()
        assert type(model.config)(**asdict(model.config)) == model.config

    def test_stored_config_keys_are_pinned(self, tmp_path, make):
        model, _ = make()
        model.save(tmp_path / "m.lsnt")
        _, meta = ckpt.load_tensors(tmp_path / "m.lsnt")
        assert sorted(meta["config"]) == STORED_CONFIG_KEYS[type(model.config).__name__]

    def test_round_trip(self, tmp_path, make):
        model, load = make()
        model.save(tmp_path / "m.lsnt")
        loaded = load(tmp_path / "m.lsnt")
        assert loaded.config == model.config
        assert list(loaded.params) == list(model.params)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, tensor.data)

    @pytest.mark.parametrize("spoil", [
        lambda meta: meta.pop("config"),
        lambda meta: meta.update(config=[1, 2]),
        lambda meta: meta["config"].update(bogus=1),
        _replace(window="wide", gamma="high"),
        _replace(max_sentences=0, max_src=0),
        _replace(hidden_dim=None, d_model=None),
        lambda meta: meta.update(kind="other"),
    ], ids=["no-config", "config-list", "unknown-key", "bad-value", "zero-size",
            "null-size", "other-kind"])
    def test_bad_metadata_raises_format_error(self, tmp_path, make, spoil):
        model, load = make()
        with pytest.raises(FormatError):
            load(_spoiled(model, tmp_path / "m.lsnt", spoil))

    def test_shape_mismatch_raises_format_error(self, tmp_path, make):
        model, load = make()
        path = tmp_path / "m.lsnt"
        model.save(path)
        tensors, meta = ckpt.load_tensors(path)
        name = next(iter(tensors))
        tensors[name] = np.ones(tensors[name].size + 1)
        ckpt.save_tensors(path, tensors, meta)
        with pytest.raises(FormatError, match="shape"):
            load(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bit_flip_loads_or_raises_format_error(self, tmp_path, make, data):
        model, load = make()
        path = tmp_path / "m.lsnt"
        model.save(path)
        blob = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            loaded = load(path)
        except FormatError:
            return
        assert all(np.isfinite(t.data).all() for t in loaded.params.values())

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_value_raises_format_error(self, tmp_path, make, data, value):
        model, load = make()
        path = tmp_path / "m.lsnt"
        model.save(path)
        tensors, meta = ckpt.load_tensors(path)
        name = data.draw(st.sampled_from(sorted(tensors)))
        tensors[name].flat[data.draw(st.integers(0, tensors[name].size - 1))] = value
        ckpt.save_tensors(path, tensors, meta)
        with pytest.raises(FormatError, match=f"tensor {re.escape(name)} holds a non-finite"):
            load(path)


def test_nine_tensor_gru_layout_is_refused(tmp_path, capsys):
    """A checkpoint with each GRU as nine per-gate tensors (wx_r ... b_n) does not load."""
    model, load = _small_mcs()
    path = tmp_path / "m.lsnt"
    model.save(path)
    tensors, meta = ckpt.load_tensors(path)
    grus = {name.rpartition(".")[0] for name in tensors if name.endswith(".wx")}
    assert len(grus) == 5  # word.0.f/b, sent.0.f/b, dec.gru
    split = {}
    for name, arr in tensors.items():
        prefix, _, field = name.rpartition(".")
        if prefix not in grus:
            split[name] = arr
            continue
        for gate, block in zip("rzn", np.split(arr, 3, axis=-1)):
            split[f"{prefix}.{field}_{gate}"] = block
    assert len(split) == len(tensors) + 2 * len(grus) * len(GruParams.FIELDS)
    ckpt.save_tensors(path, split, meta)
    with pytest.raises(FormatError, match="do not match the model layout"):
        load(path)

    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, [Example(Document([["a", "b"]]), ["a"])])
    code = main(["score", "--input", str(corpus), "--checkpoint", str(path),
                 "--output", str(tmp_path / "scores.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == "error: checkpoint tensors do not match the model layout\n"


@pytest.mark.parametrize("vocab", [7, ["a", "a"], ["a"]], ids=["int", "duplicate", "short"])
def test_bad_mcs_vocab_raises_format_error(tmp_path, vocab):
    model, load = _small_mcs()
    with pytest.raises(FormatError):
        load(_spoiled(model, tmp_path / "m.lsnt", lambda meta: meta.update(vocab=vocab)))
