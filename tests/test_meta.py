from dataclasses import asdict

import numpy as np
import pytest

from prunelab import flops, meta, model as mdl
from prunelab.criteria import DEFAULT_CRITERIA, Criterion
from prunelab.data import gen_synthetic_dataset
from prunelab.experiment import ExperimentConfig, run_experiment
from prunelab.meta import candidate_prune, meta_attribute, select_criterion
from prunelab.model import Architecture, ConvSpec, build_model

ABC = np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0], [0.5, 0.3, 0.2]]).reshape(3, 3, 1, 1)


def abc_model():
    """Single conv layer holding the A, B, C filters (3 input channels, 1x1)."""
    arch = Architecture((3, 4, 4), (ConvSpec(3, 3, 1),), num_classes=6)
    m = build_model(arch, seed=0)
    m.conv_weights[0][:] = ABC
    return m


@pytest.fixture(scope="module")
def tiny_setup():
    ds = gen_synthetic_dataset(seed=0, n_train=60, n_eval=36, classes=6, image_size=6)
    arch = Architecture(
        (1, 6, 6), (ConvSpec(1, 5, 3, 1, 1), ConvSpec(5, 6, 3, 2, 1)), num_classes=6
    )
    return ds, arch


class TestMetaAttribute:
    def test_perfect_model_has_zero_losses(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=1)
        # force logits to always rank the true class first: bias trick via fc
        m.conv_weights = [np.zeros_like(w) for w in m.conv_weights]
        m.fc_weight[:] = 0.0
        x, y = ds.eval_x[:6], ds.eval_y[:6]
        m.fc_bias[:] = 0.0
        # zero model always predicts class 0 (argmax tie -> 0); craft labels 0
        y0 = np.zeros_like(y)
        assert meta_attribute(m, x, y0, "top1_loss") == 0.0
        assert meta_attribute(m, x, y0, "top5_loss") == 0.0

    def test_mean_weight_of_zero_model(self, tiny_setup):
        _, arch = tiny_setup
        m = build_model(arch, seed=1)
        for w in m.conv_weights:
            w[:] = 0.0
        assert meta_attribute(m, None, None, "mean_weight") == 0.0

    def test_top5_rejected_below_six_classes(self):
        arch = Architecture((1, 6, 6), (ConvSpec(1, 4, 3, 1, 1),), num_classes=5)
        m = build_model(arch, seed=0)
        x = np.zeros((2, 1, 6, 6))
        y = np.zeros(2, dtype=int)
        with pytest.raises(ValueError, match="top5"):
            meta_attribute(m, x, y, "top5_loss")

    def test_random_is_seeded(self):
        arch = Architecture((1, 6, 6), (ConvSpec(1, 4, 3, 1, 1),), num_classes=6)
        m = build_model(arch, seed=0)
        a = meta_attribute(m, None, None, "random", np.random.default_rng(7))
        b = meta_attribute(m, None, None, "random", np.random.default_rng(7))
        assert a == b and 0.0 <= a < 1.0

    def test_unknown_attribute(self, tiny_setup):
        _, arch = tiny_setup
        with pytest.raises(ValueError, match="meta-attribute"):
            meta_attribute(build_model(arch, seed=0), None, None, "entropy")


class TestCandidatePrune:
    def test_rate_zero_all_keep(self, tiny_setup):
        _, arch = tiny_setup
        m = build_model(arch, seed=3)
        masks = candidate_prune(m, Criterion("norm", 1), rate=0.0)
        assert all(mask.all() for mask in masks)

    def test_deterministic(self, tiny_setup):
        _, arch = tiny_setup
        m = build_model(arch, seed=3)
        a = candidate_prune(m, Criterion("cosine"), 0.4)
        b = candidate_prune(m, Criterion("cosine"), 0.4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_abc_model_norm_prunes_c_distance_prunes_a(self):
        m = abc_model()
        norm_masks = candidate_prune(m, Criterion("norm", 1), rate=1 / 3)
        assert list(norm_masks[0]) == [True, True, False]
        dist_masks = candidate_prune(m, Criterion("minkowski", 1), rate=1 / 3)
        assert list(dist_masks[0]) == [False, True, True]

    def test_keep_count_matches_floor(self, tiny_setup):
        _, arch = tiny_setup
        m = build_model(arch, seed=4)
        masks = candidate_prune(m, Criterion("norm", 2), rate=0.4)
        for mask, spec in zip(masks, arch.conv_layers):
            expected_pruned = int(0.4 * spec.out_channels)
            assert int((~mask).sum()) == expected_pruned

    def test_rate_just_under_one_keeps_one_filter_per_layer(self, tiny_setup):
        _, arch = tiny_setup
        m = build_model(arch, seed=4)
        for crit in DEFAULT_CRITERIA:
            assert [int(mask.sum()) for mask in candidate_prune(m, crit, 1 - 1e-12)] == [1, 1]


class TestSelectCriterion:
    def eval_batch(self, ds):
        return ds.eval_x[:24], ds.eval_y[:24]

    def test_single_candidate_wins(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=5)
        x, y = self.eval_batch(ds)
        crit, _, record = select_criterion(
            m, x, y, [Criterion("cosine")], 0.3, "top1_loss", np.random.default_rng(0)
        )
        assert crit.name == "cosine" and record.selected == "cosine"
        assert record.action == [1]

    def test_rate_zero_ties_break_to_first(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=5)
        x, y = self.eval_batch(ds)
        crit, _, record = select_criterion(
            m, x, y, list(DEFAULT_CRITERIA), 0.0, "top1_loss", np.random.default_rng(0)
        )
        assert all(g == 0.0 for g in record.candidate_gaps)
        assert crit.name == DEFAULT_CRITERIA[0].name

    def test_no_side_effects_on_model(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=7)
        x, y = self.eval_batch(ds)
        batch = ds.eval_x[:4]
        before = mdl.forward(m, batch)
        select_criterion(
            m, x, y, list(DEFAULT_CRITERIA), 0.4, "top5_loss", np.random.default_rng(0)
        )
        assert np.array_equal(mdl.forward(m, batch), before)

    def test_selected_gap_is_minimal(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=8)
        x, y = self.eval_batch(ds)
        _, _, record = select_criterion(
            m, x, y, list(DEFAULT_CRITERIA), 0.4, "mean_weight", np.random.default_rng(0)
        )
        sel_gap = record.candidate_gaps[record.candidate_names.index(record.selected)]
        assert sel_gap <= min(record.candidate_gaps)
        assert sum(record.action) == 1

    def test_random_attribute_still_records_gaps(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=9)
        x, y = self.eval_batch(ds)
        _, _, record = select_criterion(
            m, x, y, list(DEFAULT_CRITERIA), 0.4, "random", np.random.default_rng(3)
        )
        assert len(record.candidate_gaps) == len(DEFAULT_CRITERIA)
        assert record.selected in record.candidate_names

    def test_empty_candidates_rejected(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=9)
        x, y = self.eval_batch(ds)
        with pytest.raises(ValueError, match="empty"):
            select_criterion(m, x, y, [], 0.4, "top1_loss", np.random.default_rng(0))

class TestDistinctCandidates:
    """Candidates with identical masks are scored on one shared trial."""

    def spy_evaluate(self, monkeypatch):
        calls = []
        evaluate = mdl.evaluate

        def spy(model, *args, **kwargs):
            calls.append(model)
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(mdl, "evaluate", spy)
        return calls

    @pytest.mark.parametrize("attribute", ["top1_loss", "top5_loss"])
    def test_one_evaluation_per_distinct_mask_set(self, tiny_setup, monkeypatch, attribute):
        ds, arch = tiny_setup
        m = build_model(arch, seed=10)  # five default criteria, two distinct mask sets
        distinct = {
            b"".join(k.tobytes() for k in candidate_prune(m, c, 0.4)) for c in DEFAULT_CRITERIA
        }
        assert len(distinct) == 2
        calls = self.spy_evaluate(monkeypatch)
        copies, compacted = [], []  # trials are compacted models, never copies
        copy, compact = mdl.ModelState.copy, mdl.compact
        monkeypatch.setattr(mdl.ModelState, "copy", lambda self: copies.append(self) or copy(self))
        monkeypatch.setattr(
            mdl, "compact", lambda model, masks: compacted.append(masks) or compact(model, masks)
        )
        _, masks, record = select_criterion(
            m, ds.eval_x[:24], ds.eval_y[:24], list(DEFAULT_CRITERIA), 0.4, attribute,
            np.random.default_rng(0),
        )
        assert len(calls) == 1 + len(distinct)
        assert copies == []
        assert sorted(b"".join(k.tobytes() for k in c) for c in compacted) == sorted(distinct)
        trial = mdl.apply_mask(m.copy(), masks)
        assert record.selected_eval == mdl.evaluate(trial, ds.eval_x[:24], ds.eval_y[:24])

    @pytest.mark.parametrize("attribute", ["mean_weight"])
    def test_weight_attributes_score_masked_copies(self, tiny_setup, monkeypatch, attribute):
        # mean_weight counts weights that compact drops: zeroed filters, and the
        # input channels that feed from them
        _, arch = tiny_setup
        m = build_model(arch, seed=10)
        monkeypatch.setattr(mdl, "compact", None)
        _, _, record = select_criterion(
            m, None, None, list(DEFAULT_CRITERIA), 0.4, attribute, np.random.default_rng(0)
        )
        assert record.candidate_values == [
            meta_attribute(mdl.apply_mask(m.copy(), candidate_prune(m, c, 0.4)), None, None, attribute)
            for c in DEFAULT_CRITERIA
        ]

    @pytest.mark.parametrize("attribute", meta.META_ATTRIBUTES)
    def test_no_model_copies(self, tiny_setup, monkeypatch, attribute):
        # each attribute reads the weights and masks, or a compacted model
        ds, arch = tiny_setup
        m = build_model(arch, seed=10)
        copies, masked = [], []
        copy, apply_mask = mdl.ModelState.copy, mdl.apply_mask
        monkeypatch.setattr(mdl.ModelState, "copy", lambda self: copies.append(self) or copy(self))
        monkeypatch.setattr(
            mdl, "apply_mask", lambda model, masks: masked.append(masks) or apply_mask(model, masks)
        )
        select_criterion(
            m, ds.eval_x[:24], ds.eval_y[:24], list(DEFAULT_CRITERIA), 0.4, attribute,
            np.random.default_rng(0),
        )
        assert copies == [] and masked == []

    def test_shared_scores_equal_separate_scores(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=10)
        x, y = ds.eval_x[:24], ds.eval_y[:24]
        _, _, record = select_criterion(
            m, x, y, list(DEFAULT_CRITERIA), 0.4, "top1_loss", np.random.default_rng(0)
        )
        separate = [
            meta_attribute(mdl.apply_mask(m.copy(), candidate_prune(m, c, 0.4)), x, y, "top1_loss")
            for c in DEFAULT_CRITERIA
        ]
        assert record.candidate_values == separate

    def test_one_shared_minkowski_pass_per_layer(self, tiny_setup, monkeypatch):
        ds, arch = tiny_setup
        m = build_model(arch, seed=10)
        passes, scored, pruned = [], [], []
        shared, single, prune = meta.minkowski_scores, meta.criterion_scores, meta.candidate_prune
        monkeypatch.setattr(
            meta, "minkowski_scores", lambda w, ps: passes.append((w, list(ps))) or shared(w, ps)
        )
        monkeypatch.setattr(
            meta, "criterion_scores", lambda w, c: scored.append(c.kind) or single(w, c)
        )

        def spy_prune(*args):
            masks = prune(*args)
            pruned.append((args[1], b"".join(k.tobytes() for k in masks)))
            return masks

        monkeypatch.setattr(meta, "candidate_prune", spy_prune)
        select_criterion(
            m, ds.eval_x[:24], ds.eval_y[:24], list(DEFAULT_CRITERIA), 0.4, "top1_loss",
            np.random.default_rng(0),
        )
        assert len(passes) == len(m.conv_weights)
        assert all(w is layer and ps == [1, 2] for (w, ps), layer in zip(passes, m.conv_weights))
        # the norms and cosine once per layer each, Minkowski never on its own
        assert sorted(scored) == sorted(["norm", "norm", "cosine"] * len(m.conv_weights))
        monkeypatch.undo()
        assert pruned == [
            (c, b"".join(k.tobytes() for k in candidate_prune(m, c, 0.4))) for c in DEFAULT_CRITERIA
        ]

    def test_random_draws_once_per_candidate(self, tiny_setup):
        ds, arch = tiny_setup
        m = build_model(arch, seed=10)  # masks coincide, the draws must not
        _, _, record = select_criterion(
            m, None, None, list(DEFAULT_CRITERIA), 0.4, "random", np.random.default_rng(3)
        )
        stream = np.random.default_rng(3)
        assert record.reference_value == stream.uniform()
        assert record.candidate_values == [stream.uniform() for _ in DEFAULT_CRITERIA]
        assert record.action.index(1) == stream.integers(len(DEFAULT_CRITERIA))
        assert record.selected_eval is None

    def test_epoch_row_reuses_winning_evaluation(self, monkeypatch):
        # per step: the reference plus one per distinct mask set, and no
        # separate evaluation for the epoch row that follows the step
        cfg = ExperimentConfig(epochs=6, meta_attribute="top1_loss")
        calls = self.spy_evaluate(monkeypatch)
        select, prune = meta.select_criterion, meta.candidate_prune
        step_masks = []  # per prune step, the distinct candidate mask sets

        def spy_select(*args, **kwargs):
            step_masks.append(set())
            return select(*args, **kwargs)

        def spy_prune(*args):
            masks = prune(*args)
            step_masks[-1].add(b"".join(k.tobytes() for k in masks))
            return masks

        monkeypatch.setattr(meta, "select_criterion", spy_select)
        monkeypatch.setattr(meta, "candidate_prune", spy_prune)
        res = run_experiment(cfg)
        steps = len(res["records"])
        assert steps == 3 and any(len(s) < len(cfg.criteria) for s in step_masks)
        assert len(calls) == sum(1 + len(s) for s in step_masks) + cfg.epochs - steps


class TestRunPruningTraining:
    """The train -> select -> soft-prune loop, driven through run_experiment."""

    def run(self, arch, **kwargs):
        args = dict(
            seed=21, arch=arch.to_dict(), image_size=6, n_train=60, n_eval=24,
            epochs=4, interval=2, prune_rate=0.3, meta_attribute="top1_loss",
            lr=0.05, batch_size=16,
        )
        args.update(kwargs)
        res = run_experiment(ExperimentConfig(**args))
        return res["model"], res["records"], res["reports"]

    def test_step_count(self, tiny_setup):
        _, arch = tiny_setup
        _, records, reports = self.run(arch, epochs=6, interval=2)
        assert len(records) == 3
        assert len(reports) == 6

    def test_trailing_partial_interval_gets_final_step(self, tiny_setup):
        _, arch = tiny_setup
        _, records, _ = self.run(arch, epochs=5, interval=2)
        assert [r.epoch for r in records] == [2, 4, 5]  # the final step at 5

    def test_rate_zero_is_noop(self, tiny_setup):
        _, arch = tiny_setup
        final, records, _ = self.run(arch, epochs=2, interval=2, prune_rate=0.0)
        assert len(records) == 1
        total = sum(s.out_channels for s in final.arch.conv_layers)
        assert total == sum(s.out_channels for s in arch.conv_layers)
        rep = flops.model_flops(final)
        assert rep.pruned_total == rep.baseline_total

    def test_deterministic_records(self, tiny_setup):
        _, arch = tiny_setup
        _, rec_a, rep_a = self.run(arch)
        _, rec_b, rep_b = self.run(arch)
        assert [r.to_dict() for r in rec_a] == [r.to_dict() for r in rec_b]
        assert [asdict(r) for r in rep_a] == [asdict(r) for r in rep_b]

    def test_greedy_invariant_over_full_run(self, tiny_setup):
        _, arch = tiny_setup
        _, records, _ = self.run(arch, epochs=6, meta_attribute="top1_loss")
        for rec in records:
            sel = rec.candidate_gaps[rec.candidate_names.index(rec.selected)]
            assert sel <= min(rec.candidate_gaps)
            assert sum(rec.action) == 1 and set(rec.action) <= {0, 1}

    def test_final_model_is_compacted(self, tiny_setup):
        _, arch = tiny_setup
        final, _, _ = self.run(arch, prune_rate=0.4)
        expected = sum(
            s.out_channels - int(0.4 * s.out_channels) for s in arch.conv_layers
        )
        assert sum(s.out_channels for s in final.arch.conv_layers) == expected
        assert all(m.all() for m in final.masks)

    def test_pruned_filters_restart_from_rest(self, tiny_setup, monkeypatch):
        _, arch = tiny_setup
        train_epoch = mdl.train_epoch
        entering = []  # momentum buffers as each epoch starts

        def spy(model, velocity, *args, **kwargs):
            entering.append([v.copy() for v in velocity])
            return train_epoch(model, velocity, *args, **kwargs)

        monkeypatch.setattr(mdl, "train_epoch", spy)
        _, records, _ = self.run(arch, epochs=3, interval=2)
        for v, keep in zip(entering[2], records[0].masks):  # pruned after epoch 2
            keep = np.asarray(keep, dtype=bool)
            assert np.all(v[~keep] == 0.0)
            assert np.all(v[keep].any(axis=(1, 2, 3)))

    def test_reference_is_the_pre_step_model(self, tiny_setup, monkeypatch):
        # every step measures its gap against the model as it is before the step
        _, arch = tiny_setup
        select, before = meta.select_criterion, []

        def spy(model, *args, **kwargs):
            before.append(meta_attribute(model, None, None, "mean_weight"))
            return select(model, *args, **kwargs)

        monkeypatch.setattr(meta, "select_criterion", spy)
        _, records, _ = self.run(arch, meta_attribute="mean_weight")
        assert len(records) == 2 and before[0] != before[1]
        assert [r.reference_value for r in records] == before

    def test_invalid_plan_rejected(self, tiny_setup):
        _, arch = tiny_setup
        with pytest.raises(ValueError, match="interval"):
            self.run(arch, epochs=1, interval=2)
