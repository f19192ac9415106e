import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import theoretical_reduction
from prunelab import flops, model as mdl
from prunelab.flops import layer_flops, model_flops
from prunelab.model import Architecture, ConvSpec, build_model


def counted_naive_conv_macs(x, w, stride, pad):
    """Instrumented naive-loop convolution: returns executed multiply-add count."""
    b, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    macs = 0
    for _ in range(b):
        for _ in range(c_out):
            for _ in range(oh):
                for _ in range(ow):
                    macs += c_in * k * k
    return macs // b  # per-image count


class TestLayerFlops:
    def test_unit_layer(self):
        assert layer_flops(1, 1, 1, 1, 1) == 1

    def test_cifar_style_layer(self):
        assert layer_flops(3, 16, 3, 32, 32) == 16 * 3 * 9 * 1024 == 442368

    def test_linear_in_out_channels(self):
        assert layer_flops(4, 8, 3, 10, 10) == 2 * layer_flops(4, 4, 3, 10, 10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            layer_flops(0, 1, 1, 1, 1)


class TestTheoreticalReduction:
    def test_zero_rates(self):
        assert theoretical_reduction(0.0, 0.0) == 0.0

    def test_paper_arithmetic_exact(self):
        assert theoretical_reduction(0.3, 0.3) == 0.51
        assert theoretical_reduction(0.4, 0.4) == 0.64

    def test_range_check(self):
        with pytest.raises(ValueError):
            theoretical_reduction(1.0, 0.2)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 0.99), st.floats(0, 0.99))
    def test_symmetric_and_monotone(self, a, b):
        assert theoretical_reduction(a, b) == pytest.approx(theoretical_reduction(b, a))
        assert theoretical_reduction(a, b) >= theoretical_reduction(a, 0.0) - 1e-15


@pytest.fixture
def three_layer_model():
    arch = Architecture(
        (1, 8, 8),
        (
            ConvSpec(1, 6, 3, 1, 1),
            ConvSpec(6, 10, 3, 2, 1),
            ConvSpec(10, 10, 3, 1, 1),
        ),
        num_classes=6,
    )
    return build_model(arch, seed=9)


class TestModelFlops:
    def test_all_keep_equals_baseline(self, three_layer_model):
        rep = model_flops(three_layer_model)
        assert rep.pruned_total == rep.baseline_total
        assert rep.theoretical_reduction_ratio == 0.0

    def test_baseline_equals_closed_form(self, three_layer_model):
        rep = model_flops(three_layer_model)
        sizes = three_layer_model.arch.spatial_sizes()
        expected = sum(
            layer_flops(s.in_channels, s.out_channels, s.kernel, h, w)
            for s, (h, w) in zip(three_layer_model.arch.conv_layers, sizes)
        )
        assert rep.baseline_total == expected

    def test_equals_instrumented_naive_loop_on_compacted_model(self, three_layer_model):
        rng = np.random.default_rng(0)
        masks = [rng.random(s.out_channels) > 0.4 for s in three_layer_model.arch.conv_layers]
        masks = [m if m.any() else np.ones_like(m) for m in masks]
        rep = model_flops(three_layer_model, masks)
        compacted = mdl.compact(three_layer_model, masks)
        x = np.zeros((1, *compacted.arch.input_shape))
        total = 0
        for spec, w in zip(compacted.arch.conv_layers, compacted.conv_weights):
            total += counted_naive_conv_macs(x, w, spec.stride, spec.pad)
            h = (x.shape[2] + 2 * spec.pad - spec.kernel) // spec.stride + 1
            ww = (x.shape[3] + 2 * spec.pad - spec.kernel) // spec.stride + 1
            x = np.zeros((1, spec.out_channels, h, ww))
        assert rep.pruned_total == total

    def test_masked_equals_compacted_all_keep(self, three_layer_model):
        rng = np.random.default_rng(1)
        masks = [rng.random(s.out_channels) > 0.3 for s in three_layer_model.arch.conv_layers]
        masks = [m if m.any() else np.ones_like(m) for m in masks]
        masked_rep = model_flops(three_layer_model, masks)
        compacted = mdl.compact(three_layer_model, masks)
        compact_rep = model_flops(compacted)
        assert masked_rep.pruned_total == compact_rep.baseline_total

    def test_uniform_rate_matches_reduction_formula(self):
        # interior layer with rate P on inputs and outputs: exact identity
        arch = Architecture(
            (1, 8, 8),
            (ConvSpec(1, 10, 3, 1, 1), ConvSpec(10, 10, 3, 1, 1)),
            num_classes=6,
        )
        m = build_model(arch, seed=2)
        p = 0.4
        masks = []
        for s in arch.conv_layers:
            keep = np.ones(s.out_channels, dtype=bool)
            keep[: int(p * s.out_channels)] = False
            masks.append(keep)
        rep = model_flops(m, masks)
        interior = rep.layers[1]
        got = 1.0 - interior.pruned_macs / interior.baseline_macs
        assert got == pytest.approx(theoretical_reduction(p, p), abs=1e-12)

    def test_empty_mask_zeroes_its_layer_and_the_next(self, three_layer_model):
        masks = [np.ones(s.out_channels, dtype=bool) for s in three_layer_model.arch.conv_layers]
        masks[1][:] = False
        rep = model_flops(three_layer_model, masks)
        assert [l.pruned_macs for l in rep.layers][1:] == [0, 0]
        assert rep.layers[0].pruned_macs == rep.layers[0].baseline_macs > 0
        assert rep.pruned_total == rep.layers[0].baseline_macs

    def test_wrong_length_mask_rejected(self, three_layer_model):
        masks = [m.copy() for m in three_layer_model.masks]
        masks[1] = masks[1][:-1]
        with pytest.raises(ValueError, match="mask 1"):
            model_flops(three_layer_model, masks)

    def test_json_fields(self, three_layer_model):
        d = model_flops(three_layer_model).to_dict()
        assert set(d) == {
            "layers", "baseline_macs", "pruned_macs", "theoretical_reduction",
        }
        assert {"index", "baseline_macs", "pruned_macs"} == set(d["layers"][0])

