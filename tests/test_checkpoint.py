import numpy as np
import pytest

from conftest import rewrite_header
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
