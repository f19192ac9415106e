import math

import numpy as np
import pytest

from conftest import momentum_buffers
from prunelab import model as mdl
from prunelab.data import gen_synthetic_dataset
from prunelab.model import Architecture, ConvSpec, build_model


def two_layer_arch(out1=4, out2=6, classes=6):
    return Architecture(
        (1, 6, 6),
        (ConvSpec(1, out1, 3, 1, 1), ConvSpec(out1, out2, 3, 2, 1)),
        num_classes=classes,
    )


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(two_layer_arch(), seed=7)
        b = build_model(two_layer_arch(), seed=7)
        for wa, wb in zip(a.conv_weights, b.conv_weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.fc_weight, b.fc_weight)

    def test_broken_channel_chain_rejected(self):
        with pytest.raises(ValueError, match="channel chain"):
            Architecture(
                (1, 6, 6),
                (ConvSpec(1, 4, 3), ConvSpec(5, 6, 3)),
                num_classes=6,
            )

    def test_init_mean_within_three_sigma(self):
        # uniform on [-b, b]: mean 0, sd b/sqrt(3); standard error sd/sqrt(n)
        arch = Architecture(
            (1, 8, 8),
            (ConvSpec(1, 32, 3, 1, 1), ConvSpec(32, 32, 3, 1, 1)),
            num_classes=6,
        )
        m = build_model(arch, seed=123)
        for spec, w in zip(arch.conv_layers, m.conv_weights):
            b = math.sqrt(6.0 / (spec.in_channels * spec.kernel**2))
            se = (b / math.sqrt(3)) / math.sqrt(w.size)
            assert abs(w.mean()) < 3 * se

    def test_bounds_respected(self):
        m = build_model(two_layer_arch(), seed=3)
        for spec, w in zip(m.arch.conv_layers, m.conv_weights):
            b = math.sqrt(6.0 / (spec.in_channels * spec.kernel**2))
            assert np.all(np.abs(w) <= b)


class TestForward:
    def test_zero_input_zero_bias(self, small_model):
        logits = mdl.forward(small_model, np.zeros((2, 1, 6, 6)))
        assert np.all(logits == 0.0)

    def test_all_keep_masks_are_identity(self, small_model):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(3, 1, 6, 6))
        before = mdl.forward(small_model, batch)
        mdl.apply_mask(small_model, [m.copy() for m in small_model.masks])
        assert np.array_equal(mdl.forward(small_model, batch), before)

    def test_shape_mismatch_rejected(self, small_model):
        with pytest.raises(ValueError, match="batch shape"):
            mdl.forward(small_model, np.zeros((2, 1, 7, 7)))


class TestApplyMask:
    def test_pruned_filter_channel_is_zero(self, small_model):
        masks = [m.copy() for m in small_model.masks]
        masks[0][1] = False
        mdl.apply_mask(small_model, masks)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(2, 1, 6, 6))
        from prunelab import ops

        spec = small_model.arch.conv_layers[0]
        out = ops.conv2d_forward(batch, small_model.conv_weights[0], spec.stride, spec.pad)
        assert np.all(out[:, 1] == 0.0)

    def test_length_mismatch_rejected(self, small_model):
        with pytest.raises(ValueError, match="mask"):
            mdl.apply_mask(small_model, [np.ones(3, dtype=bool), small_model.masks[1]])

    def test_pruned_filter_can_recover_after_sgd(self, small_model):
        masks = [m.copy() for m in small_model.masks]
        masks[0][0] = False
        mdl.apply_mask(small_model, masks)
        assert np.all(small_model.conv_weights[0][0] == 0.0)
        ds = gen_synthetic_dataset(seed=2, n_train=24, n_eval=6, classes=6, image_size=6)
        mdl.train_epoch(
            small_model, momentum_buffers(small_model), ds.train_x, ds.train_y,
            lr=0.1, momentum=0.9, weight_decay=0.0, batch_size=8,
            rng=np.random.default_rng(0),
        )
        assert np.any(small_model.conv_weights[0][0] != 0.0)

    def test_stale_pruned_value_never_leaks_into_forward(self, small_model):
        masks = [m.copy() for m in small_model.masks]
        masks[0][2] = False
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(2, 1, 6, 6))
        small_model.conv_weights[0][2] = 123.0
        a = mdl.forward(mdl.apply_mask(small_model.copy(), masks), batch)
        small_model.conv_weights[0][2] = -55.0
        b = mdl.forward(mdl.apply_mask(small_model.copy(), masks), batch)
        assert np.array_equal(a, b)


class TestCompact:
    def test_all_keep_identity(self, small_model):
        compacted = mdl.compact(small_model, small_model.masks)
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(2, 1, 6, 6))
        assert compacted.arch == small_model.arch
        assert np.array_equal(mdl.forward(compacted, batch), mdl.forward(small_model, batch))

    @pytest.mark.parametrize("seed", range(4))
    def test_soft_hard_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        m = build_model(two_layer_arch(out1=6, out2=8), seed=seed)
        masks = [
            rng.random(6) > 0.4,
            rng.random(8) > 0.4,
        ]
        masks = [mk if mk.any() else np.ones_like(mk) for mk in masks]
        soft = mdl.apply_mask(m.copy(), masks)
        hard = mdl.compact(m, masks)
        batch = rng.normal(size=(3, 1, 6, 6))
        diff = np.abs(mdl.forward(soft, batch) - mdl.forward(hard, batch))
        assert diff.max() < 1e-9

    def test_floor_semantics_40_percent_of_10(self):
        arch = Architecture(
            (1, 6, 6), (ConvSpec(1, 10, 3, 1, 1),), num_classes=6
        )
        m = build_model(arch, seed=0)
        from prunelab.criteria import Criterion
        from prunelab.meta import candidate_prune

        masks = candidate_prune(m, Criterion("norm", 1), rate=0.4)
        assert int(masks[0].sum()) == 6
        assert mdl.compact(m, masks).arch.conv_layers[0].out_channels == 6

    def test_empty_layer_rejected(self, small_model):
        masks = [np.zeros(4, dtype=bool), small_model.masks[1]]
        with pytest.raises(ValueError, match="every filter"):
            mdl.compact(small_model, masks)

    def test_partition_invariant(self, small_model):
        masks = [np.array([True, False, True, False]), small_model.masks[1]]
        mdl.apply_mask(small_model, masks)
        for m in small_model.masks:
            keep = set(np.flatnonzero(m))
            pruned = set(np.flatnonzero(~m))
            assert keep | pruned == set(range(len(m)))
            assert keep & pruned == set()


class TestFlattenFilters:
    def test_single_value(self):
        assert mdl.flatten_filters(np.full((1, 1, 1, 1), 5.0)).tolist() == [[5.0]]

    def test_row_length(self):
        w = np.zeros((4, 3, 3, 3))
        assert mdl.flatten_filters(w).shape == (4, 27)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 2, 3, 3))
        assert np.array_equal(mdl.flatten_filters(w).reshape(w.shape), w)


class TestEvaluate:
    def test_empty_set_rejected(self, small_model):
        with pytest.raises(ValueError, match="empty"):
            mdl.evaluate(small_model, np.zeros((0, 1, 6, 6)), np.zeros(0, dtype=int))


class TestTrainEpoch:
    def test_lr_zero_leaves_weights(self, small_model):
        ds = gen_synthetic_dataset(seed=0, n_train=24, n_eval=6, classes=6, image_size=6)
        before = [w.copy() for w in small_model.conv_weights]
        loss, _ = mdl.train_epoch(
            small_model, momentum_buffers(small_model), ds.train_x, ds.train_y,
            lr=0.0, momentum=0.9, weight_decay=1e-4, batch_size=8,
            rng=np.random.default_rng(1),
        )
        for a, b in zip(before, small_model.conv_weights):
            assert np.array_equal(a, b)
        stats = mdl.evaluate(small_model, ds.train_x, ds.train_y)
        assert loss == pytest.approx(stats["loss"], abs=1e-12)

    def test_deterministic_given_seed(self):
        ds = gen_synthetic_dataset(seed=0, n_train=24, n_eval=6, classes=6, image_size=6)

        def run():
            m = build_model(two_layer_arch(), seed=5)
            mdl.train_epoch(
                m, momentum_buffers(m), ds.train_x, ds.train_y,
                lr=0.05, momentum=0.9, weight_decay=5e-4, batch_size=8,
                rng=np.random.default_rng(42),
            )
            return m

        a, b = run(), run()
        for wa, wb in zip(a.conv_weights, b.conv_weights):
            assert np.array_equal(wa, wb)

    def test_learns_two_class_separable_set(self):
        ds = gen_synthetic_dataset(seed=1, n_train=80, n_eval=20, classes=2, image_size=8)
        arch = Architecture(
            (1, 8, 8), (ConvSpec(1, 4, 3, 1, 1), ConvSpec(4, 8, 3, 2, 1)), num_classes=2
        )
        m = build_model(arch, seed=0)
        rng = np.random.default_rng(0)
        velocity = momentum_buffers(m)
        acc = 0.0
        for _ in range(20):
            _, acc = mdl.train_epoch(
                m, velocity, ds.train_x, ds.train_y,
                lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=16, rng=rng,
            )
        assert acc >= 0.95
