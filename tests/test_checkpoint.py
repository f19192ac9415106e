import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rewrite_header
from prunelab import flops
from prunelab.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from prunelab.model import Architecture, ConvSpec, apply_mask, build_model, forward


@pytest.fixture
def model():
    arch = Architecture(
        (1, 6, 6), (ConvSpec(1, 4, 3, 1, 1), ConvSpec(4, 6, 3, 2, 1)), num_classes=6
    )
    m = build_model(arch, seed=13)
    masks = [m.copy() for m in m.masks]
    masks[1][2] = False
    return apply_mask(m, masks)


class TestRoundTrip:
    def test_bit_exact_weights_and_masks(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p, seed=13, epoch=7)
        loaded, header = load_checkpoint(p)
        for a, b in zip(model.conv_weights, loaded.conv_weights):
            assert np.array_equal(a, b)
        assert np.array_equal(model.fc_weight, loaded.fc_weight)
        assert np.array_equal(model.fc_bias, loaded.fc_bias)
        for a, b in zip(model.masks, loaded.masks):
            assert np.array_equal(a, b)
        assert header["seed"] == 13 and header["epoch"] == 7

    def test_same_model_same_bytes(self, model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, seed=1, epoch=1)
        save_checkpoint(model, p2, seed=1, epoch=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_reload(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        loaded, _ = load_checkpoint(p)
        batch = np.random.default_rng(0).normal(size=(2, 1, 6, 6))
        assert np.array_equal(forward(model, batch), forward(loaded, batch))


class TestFormat:
    def test_magic_bytes(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        assert p.read_bytes()[:4] == MAGIC == b"MFPC"

    def test_bad_magic_rejected(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(p)

    def test_truncated_header_rejected(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_weights_little_endian_float64(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        raw = p.read_bytes()
        hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        first = np.frombuffer(raw[12 + hlen : 12 + hlen + 8], dtype="<f8")[0]
        assert first == model.conv_weights[0].ravel()[0]


class TestHeaderMasks:
    @pytest.fixture
    def saved(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        return p

    def test_untouched_header_loads(self, saved):
        rewrite_header(saved, lambda h: None)
        load_checkpoint(saved)

    def test_missing_masks_rejected(self, saved):
        rewrite_header(saved, lambda h: h.pop("masks"))
        with pytest.raises(CheckpointError, match="masks"):
            load_checkpoint(saved)

    def test_short_mask_list_rejected(self, saved):
        rewrite_header(saved, lambda h: h["masks"].pop())
        with pytest.raises(CheckpointError, match="masks"):
            load_checkpoint(saved)

    def test_wrong_length_mask_rejected(self, saved):
        rewrite_header(saved, lambda h: h["masks"][1].append(1))
        with pytest.raises(CheckpointError, match="mask 1"):
            load_checkpoint(saved)

    def test_non_binary_mask_rejected(self, saved):
        rewrite_header(saved, lambda h: h["masks"][0].__setitem__(0, 2))
        with pytest.raises(CheckpointError, match="mask 0"):
            load_checkpoint(saved)


class TestHeaderArch:
    @pytest.fixture
    def saved(self, model, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        return p

    @pytest.mark.parametrize("field,value", [
        ("kernel", 3.0), ("stride", True), ("out_channels", "4"), ("pad", None),
    ])
    def test_non_integer_conv_field_named(self, saved, field, value):
        rewrite_header(saved, lambda h: h["arch"]["conv_layers"][0].__setitem__(field, value))
        with pytest.raises(CheckpointError, match=f"'{field}' must be an integer"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("shape", [[1], [1, 6], [1, 6, 6, 6], [1, 6, 0], [1, 6.0, 6], [1, True, 6]])
    def test_bad_input_shape_named(self, saved, shape):
        rewrite_header(saved, lambda h: h["arch"].__setitem__("input_shape", shape))
        with pytest.raises(CheckpointError, match="input_shape"):
            load_checkpoint(saved)

    def test_non_integer_num_classes_named(self, saved):
        rewrite_header(saved, lambda h: h["arch"].__setitem__("num_classes", 6.0))
        with pytest.raises(CheckpointError, match="'num_classes' must be an integer"):
            load_checkpoint(saved)


def small_checkpoint_bytes() -> bytes:
    arch = Architecture((1, 6, 6), (ConvSpec(1, 2, 3, 1, 1), ConvSpec(2, 3, 3, 2, 1)), num_classes=2)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.ckpt"
        save_checkpoint(build_model(arch, seed=0), p)
        return p.read_bytes()


SMALL = small_checkpoint_bytes()
HEADER_END = 12 + int(np.frombuffer(SMALL[8:12], dtype="<u4")[0])
# replacing this byte with "0" turns the input shape [1,6,6] into [1,606]
SHAPE_COMMA = SMALL.index(b'"input_shape":[1,6,6]') + len(b'"input_shape":[1,6')


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(SMALL) - 1)),
        # the header and the first weights
        st.tuples(st.just("replace"), st.integers(0, HEADER_END + 16), st.integers(0, 255)),
    )
)
@example(("replace", SHAPE_COMMA, ord("0")))
def test_corrupted_checkpoint_loads_or_is_rejected(edit):
    """Any one-byte replacement or truncation either loads a model that
    flops.model_flops accepts or raises ValueError (CheckpointError is one)."""
    raw = bytearray(SMALL)
    if edit[0] == "truncate":
        raw = raw[: edit[1]]
    else:
        raw[edit[1]] = edit[2]
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.ckpt"
        p.write_bytes(bytes(raw))
        try:
            loaded, _ = load_checkpoint(p)
            flops.model_flops(loaded, loaded.masks)
        except ValueError:
            pass
