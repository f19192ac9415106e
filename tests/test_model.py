import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import ODD_SHAPES_ARCH, momentum_buffers, random_architecture, traced_peak_mb
from prunelab import model as mdl, ops
from prunelab.checkpoint import load_checkpoint, save_checkpoint
from prunelab.data import gen_synthetic_dataset
from prunelab.experiment import DEFAULT_ARCH, ExperimentConfig, run_experiment
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
        spec = small_model.arch.conv_layers[0]
        out = ops.conv2d_forward(batch, small_model.conv_weights[0], spec.stride, spec.pad)
        assert np.all(out[:, 1] == 0.0)

    def test_length_mismatch_rejected(self, small_model):
        with pytest.raises(ValueError, match="mask"):
            mdl.apply_mask(small_model, [np.ones(3, dtype=bool), small_model.masks[1]])

    def test_non_binary_mask_rejected(self, small_model):
        with pytest.raises(ValueError, match="mask 1"):
            mdl.apply_mask(small_model, [small_model.masks[0], np.full(6, 2)])

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

    def test_parameters_c_contiguous(self, small_model):
        # w[:, keep] alone returns a copy whose layout is not C order
        masks = [np.array([True, False, True, True]), np.array([True, True, False, True, True, False])]
        assert all(p.flags.c_contiguous for p in mdl.compact(small_model, masks).parameters())

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


class TestPatchMatrixReuse:
    """Every conv call gets its patch matrix from the caller: one staging and
    one gather per conv layer per batch in training, where the patch matrix
    goes on to the backward, and per forward in inference."""

    def spy(self, monkeypatch):
        calls = {"stage": 0, "gather": 0, "forward_cols": [], "backward": [], "backward_x_shape": []}
        stage, gather = ops.stage_rows, ops.gather_patches
        forward, backward = ops.conv2d_forward, ops.conv2d_backward

        def count_stage(*args, **kwargs):
            calls["stage"] += 1
            return stage(*args, **kwargs)

        def count_gather(*args, **kwargs):
            calls["gather"] += 1
            return gather(*args, **kwargs)

        def spy_forward(*args, **kwargs):
            calls["forward_cols"].append(kwargs.get("cols") is not None)
            return forward(*args, **kwargs)

        def spy_backward(*args, **kwargs):
            calls["backward_x_shape"].append(args[0].shape)
            grad_x, grad_w = backward(*args, **kwargs)
            calls["backward"].append((kwargs.get("cols") is not None, grad_x is None))
            return grad_x, grad_w

        monkeypatch.setattr(ops, "stage_rows", count_stage)
        monkeypatch.setattr(ops, "gather_patches", count_gather)
        monkeypatch.setattr(ops, "conv2d_forward", spy_forward)
        monkeypatch.setattr(ops, "conv2d_backward", spy_backward)
        return calls

    def test_one_build_per_layer_per_batch(self, small_model, monkeypatch):
        ds = gen_synthetic_dataset(seed=0, n_train=24, n_eval=6, classes=6, image_size=6)
        calls = self.spy(monkeypatch)
        mdl.train_epoch(
            small_model, momentum_buffers(small_model), ds.train_x, ds.train_y,
            lr=0.05, momentum=0.9, weight_decay=0.0, batch_size=8,
            rng=np.random.default_rng(0),
        )
        batches, layers = 3, len(small_model.conv_weights)
        assert calls["stage"] == batches * layers
        assert calls["gather"] == batches * layers
        assert calls["forward_cols"] == [True] * (batches * layers)
        # backward runs last layer first; only layer 0 skips its input gradient
        assert calls["backward"] == [(True, False), (True, True)] * batches

    def test_backward_x_is_positional_with_the_input_shape(self, small_model, monkeypatch):
        # the input reaches backward as a zero-byte stand-in; perfbench's
        # tracer reads args[0].shape of each call, so it must be the input's
        x = np.random.default_rng(5).normal(size=(3, 1, 6, 6))
        calls = self.spy(monkeypatch)
        mdl.loss_and_gradients(small_model, x, np.array([0, 1, 2]))
        assert calls["backward_x_shape"] == [(3, 4, 6, 6), (3, 1, 6, 6)]

    def test_inference_gathers_once_per_layer(self, small_model, monkeypatch):
        calls = self.spy(monkeypatch)
        mdl.evaluate(small_model, np.zeros((5, 1, 6, 6)), np.zeros(5, dtype=int))
        assert calls["forward_cols"] == [True, True]
        assert calls["stage"] == 2 and calls["gather"] == 2 and calls["backward"] == []

    def test_gradients_match_unshared_backward(self, small_model):
        # the same gradients as conv passes that each build their own patch matrix
        x = np.random.default_rng(3).normal(size=(4, 1, 6, 6))
        y = np.array([0, 1, 2, 3])
        _, _, grads = mdl.loss_and_gradients(small_model, x, y)
        _, _, expected = oracles.loss_and_gradients(small_model, x, y)
        for i in range(len(small_model.conv_weights) - 1, -1, -1):
            assert np.array_equal(expected[i], grads[i])


WIDE_TRAIN_ARCH = Architecture(  # perfbench's wide-train workload
    (1, 32, 32),
    (ConvSpec(1, 32, 3, 1, 1), ConvSpec(32, 32, 3, 2, 1),
     ConvSpec(32, 64, 3, 1, 1), ConvSpec(64, 64, 3, 2, 1)),
    num_classes=10,
)

WIDE_SELECT_ARCH = Architecture(  # perfbench's wide-select workload
    (1, 4, 4),
    (ConvSpec(1, 128, 3, 1, 1),) + (ConvSpec(128, 128, 3, 1, 1),) * 3,
    num_classes=10,
)


def layer_sizes(arch: Architecture, batch: int) -> list[dict]:
    """Per conv layer, float64 element counts of its input, patch matrix,
    output and zero-padded input, for a batch."""
    h, w = arch.input_shape[1:]
    sizes = []
    for spec, (oh, ow) in zip(arch.conv_layers, arch.spatial_sizes()):
        sizes.append({
            "input": batch * spec.in_channels * h * w,
            "cols": batch * oh * ow * spec.in_channels * spec.kernel**2,
            "output": batch * spec.out_channels * oh * ow,
            "padded": batch * spec.in_channels * (h + 2 * spec.pad) * (w + 2 * spec.pad),
        })
        h, w = oh, ow
    return sizes


def first_layers(model: mdl.ModelState, n: int) -> mdl.ModelState:
    """The model cut to its first n conv layers, with the same weights. Its
    classifier no longer fits, so only _conv_stack may run it."""
    arch = dataclasses.replace(model.arch, conv_layers=model.arch.conv_layers[:n])
    return dataclasses.replace(model, arch=arch, conv_weights=model.conv_weights[:n], masks=model.masks[:n])


class TestHeldActivations:
    """forward holds one layer at a time, and at most two of its input,
    staged rows, patch matrix and output; training holds no float
    activation, only a bool ReLU mask and a patch matrix per layer, and
    frees each patch matrix before its layer's input gradient; both give the
    three-array pass's bytes."""

    @staticmethod
    def check_against_oracle(model, x, y):
        layers, _, logits = oracles.forward_activations(model, x)
        assert mdl.forward(model, x).tobytes() == logits.tobytes()
        # a batch of one: a GEMM's bits may change when its rows are split
        for i, (_, _, post) in enumerate(oracles.forward_activations(model, x[:1])[0]):
            assert mdl._conv_stack(first_layers(model, i + 1), x[:1])[0].tobytes() == post[0].tobytes()
        loss, train_logits, grads = mdl.loss_and_gradients(model, x, y)
        exp_loss, exp_logits, expected = oracles.loss_and_gradients(model, x, y)
        assert loss == exp_loss and train_logits.tobytes() == exp_logits.tobytes()
        for got, want in zip(grads, expected, strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_architectures_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        arch = random_architecture(rng)
        model = build_model(arch, seed=seed)
        x = rng.normal(size=(5,) + arch.input_shape)
        self.check_against_oracle(model, x, rng.integers(0, arch.num_classes, size=5))

    def test_odd_shapes_match_oracle(self):
        arch = Architecture.from_dict(ODD_SHAPES_ARCH)
        rng = np.random.default_rng(9)
        model = build_model(arch, seed=9)
        x = rng.normal(size=(6,) + arch.input_shape)
        self.check_against_oracle(model, x, rng.integers(0, arch.num_classes, size=6))

    def test_zeroed_filter_gets_gradient(self):
        # a soft-pruned filter's pre-ReLU output is exactly 0 and must still
        # pass gradient (ReLU subgradient 1 at 0), so it can recover
        arch = Architecture.from_dict(ODD_SHAPES_ARCH)
        model = build_model(arch, seed=4)
        model.conv_weights[1][5] = 0.0
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6,) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, size=6)
        _, _, grads = mdl.loss_and_gradients(model, x, y)
        _, _, expected = oracles.loss_and_gradients(model, x, y)
        assert np.any(grads[1][5] != 0.0)
        assert grads[1][5].tobytes() == expected[1][5].tobytes()

    @pytest.mark.parametrize("arch,batch", [
        pytest.param(Architecture.from_dict(DEFAULT_ARCH), 256, id="default-256"),
        pytest.param(WIDE_TRAIN_ARCH, 64, id="wide-train-64"),
    ])
    def test_forward_peak_is_one_layer(self, arch, batch):
        # a layer's working set: input, its channel-last copy (one extra slot
        # per image), patch matrix and output
        bound = max(
            (2 * s["input"] + batch + s["cols"] + s["output"]) * 8 for s in layer_sizes(arch, batch)
        ) / 1e6 + 1.0
        model = build_model(arch, seed=0)
        x = np.random.default_rng(0).normal(size=(batch,) + arch.input_shape)
        mdl.forward(model, x[:1])  # builds the cached gather indices
        assert traced_peak_mb(mdl.forward, model, x) <= bound

    @pytest.mark.parametrize("arch,batch", [
        pytest.param(Architecture.from_dict(DEFAULT_ARCH), 256, id="default-256"),
        pytest.param(WIDE_TRAIN_ARCH, 64, id="wide-train-64"),
    ])
    def test_forward_peak_is_one_working_set(self, arch, batch):
        # the largest of a layer's three working sets: input and its staged
        # rows (one extra slot per image), rows and patch matrix, patch
        # matrix and output
        bound = max(
            max(2 * s["input"] + batch, s["input"] + batch + s["cols"], s["cols"] + s["output"]) * 8
            for s in layer_sizes(arch, batch)
        ) / 1e6 + 1.0
        model = build_model(arch, seed=0)
        x = np.random.default_rng(0).normal(size=(batch,) + arch.input_shape)
        mdl.forward(model, x[:1])  # builds the cached gather indices
        assert traced_peak_mb(mdl.forward, model, x) <= bound

    def test_training_peak_holds_one_float_activation_per_layer(self):
        # the forward keeps every layer's output (float) and ReLU mask (bool)
        # and the patch matrices of the layers not yet through backward; a
        # layer's backward adds its input-gradient patch matrix, padded input
        # gradient and three output-sized arrays
        batch = 32
        sizes = layer_sizes(WIDE_TRAIN_ARCH, batch)
        outputs = sum(s["output"] * 9 for s in sizes)
        bound = max(
            outputs + 8 * (sum(t["cols"] for t in sizes[: i + 1])
                           + s["cols"] + s["padded"] + 3 * s["output"])
            for i, s in enumerate(sizes)
        ) / 1e6 + 1.0
        model = build_model(WIDE_TRAIN_ARCH, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch,) + WIDE_TRAIN_ARCH.input_shape)
        y = rng.integers(0, 10, size=batch)
        mdl.loss_and_gradients(model, x[:2], y[:2])  # builds the cached gather indices
        assert traced_peak_mb(mdl.loss_and_gradients, model, x, y) <= bound

    @pytest.mark.parametrize("arch", [
        pytest.param(WIDE_TRAIN_ARCH, id="wide-train"),
        pytest.param(WIDE_SELECT_ARCH, id="wide-select"),
    ])
    def test_training_peak_holds_no_float_activation(self, arch):
        # held throughout: every layer's bool ReLU mask and the patch matrices
        # of the layers not yet through backward. A layer's forward adds its
        # input and either its channel-last copy (one extra slot per image) or
        # its output; this phase sets the wide-train peak. A layer's backward
        # adds its dcols (its own patch matrix is freed first), padded input
        # gradient, three output-sized arrays and the weight gradients made so
        # far; this phase sets the wide-select peak, where the 128-filter
        # weight gradients are too large to leave to the 1 MB slack. A float
        # activation held per layer exceeds the bound on both.
        batch = 32
        sizes = layer_sizes(arch, batch)
        weights = [s.out_channels * s.in_channels * s.kernel**2 for s in arch.conv_layers]
        forward = [
            sum(t["cols"] for t in sizes[: i + 1]) + s["input"] + max(s["input"] + batch, s["output"])
            for i, s in enumerate(sizes)
        ]
        backward = [
            sum(t["cols"] for t in sizes[:i]) + s["cols"] + s["padded"] + 3 * s["output"] + sum(weights[i:])
            for i, s in enumerate(sizes)
        ]
        masks = sum(s["output"] for s in sizes)
        bound = (masks + 8 * max(forward + backward)) / 1e6 + 1.0
        model = build_model(arch, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch,) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, size=batch)
        mdl.loss_and_gradients(model, x[:2], y[:2])  # builds the cached gather indices
        assert traced_peak_mb(mdl.loss_and_gradients, model, x, y) <= bound

    @pytest.mark.parametrize("arch", [
        pytest.param(WIDE_TRAIN_ARCH, id="wide-train"),
        pytest.param(WIDE_SELECT_ARCH, id="wide-select"),
    ])
    def test_training_forward_holds_no_input(self, arch, monkeypatch):
        # the forward phase, up to the loss: every layer's bool ReLU mask,
        # the patch matrices so far, and the live layer's staged rows or its
        # output, never its input beside them. While an output is staged for
        # the next layer, output and rows sit within that layer's term: its
        # patch matrix is at least the output's size on these archs
        batch = 32
        sizes = layer_sizes(arch, batch)
        forward = [
            sum(t["cols"] for t in sizes[: i + 1]) + max(s["input"] + batch, s["output"])
            for i, s in enumerate(sizes)
        ]
        masks = sum(s["output"] for s in sizes)
        bound = (masks + 8 * max(forward)) / 1e6 + 1.0
        model = build_model(arch, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch,) + arch.input_shape)
        y = rng.integers(0, arch.num_classes, size=batch)
        mdl.loss_and_gradients(model, x[:2], y[:2])  # builds the cached gather indices
        at_loss = []
        loss_fn = ops.softmax_cross_entropy

        def note_peak(*args):
            at_loss.append(tracemalloc.get_traced_memory()[1] / 1e6)
            return loss_fn(*args)

        monkeypatch.setattr(ops, "softmax_cross_entropy", note_peak)
        traced_peak_mb(mdl.loss_and_gradients, model, x, y)
        assert at_loss[0] <= bound


class TestParamShapes:
    """param_shapes is the one statement of which arrays a model has; the
    model, the training loop's momentum buffers and a checkpoint follow it."""

    ARCHS = [
        pytest.param(Architecture.from_dict(DEFAULT_ARCH), id="default"),
        pytest.param(Architecture.from_dict(ODD_SHAPES_ARCH), id="odd_shapes"),
        pytest.param(WIDE_SELECT_ARCH, id="wide-select"),
    ]

    def test_default_arch_list(self):
        assert mdl.param_shapes(Architecture.from_dict(DEFAULT_ARCH)) == [
            (8, 1, 3, 3), (16, 8, 3, 3), (16, 16, 3, 3), (16, 16, 3, 3), (10, 16), (10,),
        ]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_model_arrays_follow(self, arch):
        m = build_model(arch, seed=0)
        params = m.parameters()
        assert [p.shape for p in params] == mdl.param_shapes(arch)
        expected = m.conv_weights + [m.fc_weight, m.fc_bias]
        assert len(params) == len(expected) and all(p is e for p, e in zip(params, expected))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_gradients_follow(self, arch):
        m = build_model(arch, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2,) + arch.input_shape)
        _, _, grads = mdl.loss_and_gradients(m, x, rng.integers(0, arch.num_classes, size=2))
        assert all(isinstance(g, np.ndarray) for g in grads)
        assert [g.shape for g in grads] == mdl.param_shapes(arch)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_momentum_buffers_follow(self, arch, monkeypatch):
        class Stop(Exception):
            pass

        seen = []

        def first_epoch(model, velocity, *args, **kwargs):
            seen.append([(v.shape, bool(v.any())) for v in velocity])
            raise Stop

        monkeypatch.setattr(mdl, "train_epoch", first_epoch)
        config = ExperimentConfig(arch=arch.to_dict(), image_size=arch.input_shape[1], n_train=8, n_eval=4)
        with pytest.raises(Stop):
            run_experiment(config)
        assert seen == [[(shape, False) for shape in mdl.param_shapes(arch)]]

    @pytest.mark.parametrize("arch", ARCHS)
    def test_checkpoint_payload_follows(self, arch, tmp_path):
        m = build_model(arch, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        body = raw[12 + int(np.frombuffer(raw[8:12], dtype="<u4")[0]):]
        loaded, _ = load_checkpoint(path)
        offset = 0
        for shape, p, q in zip(mdl.param_shapes(arch), m.parameters(), loaded.parameters(), strict=True):
            n = math.prod(shape)
            assert np.array_equal(np.frombuffer(body, "<f8", count=n, offset=8 * offset).reshape(shape), p)
            assert q.shape == shape and np.array_equal(q, p)
            offset += n
        assert 8 * offset == len(body)
