"""Trainer: schedules, EMA, variant contracts, determinism."""

import hashlib
import math
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import data as D
from relcon import models
from relcon import trainer as TR
from relcon.errors import ConfigError, ContractError
from relcon.models import ArchSpec
from relcon.perturb import PerturbConfig, perturb_pair


def small_splits(seed=0, n=240, noise=0.05):
    ds = D.gen_blob_images(n, 3, 8, 1.0, np.random.default_rng(seed), noise_sd=noise)
    return D.split_labeled(ds, D.SplitSpec(0.15, True, seed))


ARCH = ArchSpec(input_shape=(1, 8, 8), num_classes=3, conv_channels=(4, 5),
                dropout_rate=0.2)


def quick_config(**kw):
    defaults = dict(variant="mt", total_epochs=2, ramp_epochs=2, seed=0,
                    batch_labeled=6, batch_unlabeled=12, learning_rate=1e-3)
    defaults.update(kw)
    return TR.TrainConfig(**defaults)


def train_all(cfg, arch, splits, probe):
    """Every epoch of a fresh trainer, with ``probe`` watching each step."""
    state = TR.init_trainer(cfg, arch, splits.labeled)
    for _ in range(cfg.total_epochs):
        TR.train_epoch(state, splits, probe)


def params_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()


class TestRampUp:
    def test_endpoint_at_ramp(self):
        assert TR.lambda_rampup(30, 30) == 1.0

    def test_start_value(self):
        assert abs(TR.lambda_rampup(0, 30) - math.exp(-5)) <= 1e-15

    def test_midpoint(self):
        assert abs(TR.lambda_rampup(15, 30) - math.exp(-1.25)) <= 1e-12
        assert abs(TR.lambda_rampup(15, 30) - 0.28650) <= 1e-5

    def test_after_ramp_exactly_one(self):
        for t in (31, 50, 1000):
            assert TR.lambda_rampup(t, 30) == 1.0

    def test_monotone_nondecreasing(self):
        values = [TR.lambda_rampup(t, 30) for t in np.linspace(0, 60, 1000)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEmaUpdate:
    def test_simple_step(self):
        out = models.Params({"w": np.array([1.0])})
        TR.ema_update(out, models.Params({"w": np.array([0.0])}), 0.99)
        assert out["w"][0] == 0.99

    def test_alpha_zero_copies_student(self):
        student = models.Params({"w": np.array([3.0, 4.0])})
        out = models.Params({"w": np.zeros(2)})
        TR.ema_update(out, student, 0.0)
        assert np.array_equal(out["w"], student["w"])

    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    def test_constant_student_geometric_gap(self, alpha):
        rng = np.random.default_rng(0)
        student = models.Params({"w": rng.normal(size=(4, 3))})
        gap = rng.normal(size=(4, 3))
        teacher = models.Params({"w": student["w"] + gap})
        for t in range(1, 1001):
            TR.ema_update(teacher, student, alpha)
            expected = alpha ** t * gap
            assert np.abs(teacher["w"] - student["w"] - expected).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            TR.ema_update(models.Params({"w": np.zeros(2)}), models.Params({"w": np.zeros(3)}), 0.5)


def _per_name_adam(student, m, v, t, grads, lr):
    """The per-parameter Adam update the flat one replaced, kept as its reference."""
    b1, b2 = TR.ADAM_BETA1, TR.ADAM_BETA2
    for name, p in student.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        student[name] = p - lr * m_hat / (np.sqrt(v_hat) + TR.ADAM_EPS)


def _per_name_ema(teacher, student, alpha):
    return {name: alpha * t + (1.0 - alpha) * student[name] for name, t in teacher.items()}


def _bytes(arrays):
    return b"".join(a.tobytes() for a in arrays)


class TestFlatUpdates:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shapes=st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1,
                           max_size=6),
           seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 6),
           lr=st.sampled_from([1e-4, 1e-3, 0.3]), alpha=st.sampled_from([0.0, 0.5, 0.99]),
           data=st.data())
    def test_adam_and_ema_equal_the_per_name_loops(self, shapes, seed, steps, lr, alpha, data):
        """Bit for bit, over several steps in which any gradient may be
        missing, as a parameter the loss does not reach is."""
        rng = np.random.default_rng(seed)
        names = [f"p{i}" for i in range(len(shapes))]
        init = {name: rng.normal(size=shape) for name, shape in zip(names, shapes)}
        state = SimpleNamespace(student=models.Params(init), adam_steps=0,
                                adam_m=np.zeros(sum(a.size for a in init.values())),
                                adam_v=np.zeros(sum(a.size for a in init.values())))
        teacher = models.Params({k: v + rng.normal(size=v.shape) for k, v in init.items()})
        ref_student = dict(init)
        ref_teacher = {k: v.copy() for k, v in teacher.items()}
        ref_m = {k: np.zeros_like(v) for k, v in init.items()}
        ref_v = {k: np.zeros_like(v) for k, v in init.items()}
        for t in range(1, steps + 1):
            present = data.draw(st.lists(st.booleans(), min_size=len(names),
                                         max_size=len(names)))
            scale = 10.0 ** rng.integers(-6, 3)
            grads = {name: scale * rng.normal(size=init[name].shape)
                     for name, keep in zip(names, present) if keep}
            TR._adam_step(state, grads, lr)
            TR.ema_update(teacher, state.student, alpha)
            _per_name_adam(ref_student, ref_m, ref_v, t, grads, lr)
            ref_teacher = _per_name_ema(ref_teacher, ref_student, alpha)
            assert state.adam_steps == t
            for name in names:
                assert state.student[name].tobytes() == ref_student[name].tobytes()
                assert teacher[name].tobytes() == ref_teacher[name].tobytes()
            assert state.adam_m.tobytes() == _bytes(ref_m.values())
            assert state.adam_v.tobytes() == _bytes(ref_v.values())
        # the updates wrote into the buffers that the dicts view
        assert state.student.flat.tobytes() == _bytes(ref_student.values())
        assert teacher.flat.tobytes() == _bytes(ref_teacher.values())

    @pytest.mark.parametrize("teacher_side", [True, False], ids=["teacher", "student"])
    @pytest.mark.parametrize("make", [
        lambda p: {k: v.copy() for k, v in p.items()},
        lambda p: dict(reversed(list(p.items()))),
        lambda p: dict(list(p.items())[:-1]),
        lambda p: {**p, "head.b": p["head.b"].copy()},
        lambda p: {},
    ], ids=["plain-copies", "reordered", "partial", "one-replaced", "empty"])
    def test_ema_rejects_a_dict_that_is_not_params(self, make, teacher_side):
        params = models.init_params(ARCH, np.random.default_rng(0))
        other = make(params)
        with pytest.raises(ContractError):
            if teacher_side:
                TR.ema_update(other, params, 0.5)
            else:
                TR.ema_update(params, other, 0.5)

    @pytest.mark.parametrize("variant", TR.VARIANTS)
    def test_trainer_state_shares_one_layout(self, variant):
        state = TR.init_trainer(quick_config(variant=variant), ARCH, small_splits().labeled)
        assert isinstance(state.student, models.Params)
        buf = state.student.flat
        assert state.adam_m.shape == state.adam_v.shape == buf.shape
        if TR.VARIANT_TABLE[variant][0] == "ema":
            assert isinstance(state.teacher, models.Params)
            assert state.teacher.flat.tobytes() == buf.tobytes()
            assert not np.shares_memory(state.teacher.flat, buf)
        else:
            assert state.teacher is None


class TestCombineLosses:
    def test_arithmetic(self):
        from relcon import tensor as T
        total, bd = TR.combine_losses(T.constant([1.0]), T.constant([0.5]),
                                      T.constant([0.2]), 1.0, 1.0)
        assert abs(bd.total - 1.7) <= 1e-12
        assert bd.total == total.item()

    def test_identity_invariant(self):
        from relcon import tensor as T
        rng = np.random.default_rng(1)
        for _ in range(50):
            s, c, r = rng.uniform(0, 2, size=3)
            lam, beta = rng.uniform(0, 1), rng.uniform(0, 5)
            total, bd = TR.combine_losses(T.constant([s]), T.constant([c]),
                                          T.constant([r]), lam, max(beta, 1e-3))
            expected = bd.supervised + lam * (bd.consistency + max(beta, 1e-3) * bd.relation)
            assert abs(bd.total - expected) <= 1e-12

    def test_lambda_zero(self):
        from relcon import tensor as T
        total, bd = TR.combine_losses(T.constant([1.0]), T.constant([9.0]), None, 0.0, 0.0)
        assert bd.total == 1.0

    def test_zero_weight_relation_must_be_skipped(self):
        from relcon import tensor as T
        with pytest.raises(ContractError):
            TR.combine_losses(T.constant([1.0]), T.constant([1.0]),
                              T.constant([1.0]), 1.0, 0.0)


class TestPseudoLabels:
    @staticmethod
    def select(probs, threshold):
        rows, labels = TR.pseudo_label_select(np.array(probs), threshold)
        return rows.tolist(), labels.tolist()

    def test_selected_above_threshold(self):
        assert self.select([[0.95, 0.05]], 0.9) == ([0], [0])

    def test_below_threshold(self):
        assert self.select([[0.6, 0.4]], 0.9) == ([], [])

    def test_boundary_is_strict(self):
        assert self.select([[0.9, 0.1]], 0.9) == ([], [])

    def test_tie_takes_lowest_class(self):
        assert self.select([[0.46, 0.46, 0.08]], 0.4) == ([0], [0])


def te_epoch(store, ids, predictions):
    """One epoch of the temporal store: record, update, read the targets."""
    store.record(ids, predictions)
    store.apply_epoch_update()
    return store.targets(ids, np.zeros_like(predictions))


class TestTemporalTargets:
    def test_first_update_bias_corrected(self):
        z = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
        targets = te_epoch(TR.TemporalStore(0.99, 3, 4), np.arange(4), z)
        assert np.abs(targets - z).max() <= 1e-15

    def test_rate_zero_tracks_epoch(self):
        rng = np.random.default_rng(3)
        store = TR.TemporalStore(0.0, 3, 4)
        for _ in range(5):
            z = rng.dirichlet(np.ones(3), size=4)
            targets = te_epoch(store, np.arange(4), z)
        assert np.array_equal(targets, z)

    def test_constant_predictions_fixed_point(self):
        z = np.random.default_rng(4).dirichlet(np.ones(4), size=2)
        store = TR.TemporalStore(0.99, 4, 2)
        for _ in range(1, 200):
            targets = te_epoch(store, np.arange(2), z)
            assert np.abs(targets - z).max() <= 1e-9

    def test_unseen_rows_get_current_prediction(self):
        z = np.random.default_rng(5).dirichlet(np.ones(3), size=2)
        store = TR.TemporalStore(0.99, 3, 8)
        te_epoch(store, np.array([0, 1]), z)
        current = np.full((2, 3), 0.25)
        targets = store.targets(np.array([1, 7]), current)
        assert np.abs(targets[0] - z[1]).max() <= 1e-15
        assert np.array_equal(targets[1], current[1])

    def test_store_counts_ids_up_to_its_size(self):
        z = np.random.default_rng(6).dirichlet(np.ones(3), size=2)
        store = TR.TemporalStore(0.5, 3, 41)
        te_epoch(store, np.array([0, 1]), z)
        te_epoch(store, np.array([40, 1]), z)
        assert store.update_counts[[0, 1, 40]].tolist() == [1, 2, 1]
        assert store.update_counts.sum() == 4
        assert store.ensemble.shape == (41, 3) and store.update_counts.size == 41

    def test_matches_per_sample_reference(self):
        # per-sample dict loop: the latest prediction of an epoch wins, the
        # update folds it in, targets divide by 1 - rate**t
        rng = np.random.default_rng(8)
        rate = 0.9
        store = TR.TemporalStore(rate, 3, 30)
        ensemble, counts = {}, {}
        for _ in range(6):
            pending = {}
            for _ in range(4):
                ids = rng.integers(0, 30, size=9)
                current = rng.dirichlet(np.ones(3), size=9)
                expected = current.copy()
                for i, sid in enumerate(ids):
                    if counts.get(sid, 0):
                        expected[i] = ensemble[sid] / (1.0 - rate ** counts[sid])
                assert np.array_equal(store.targets(ids, current), expected)
                store.record(ids, current)
                pending.update(zip(ids, current))
            for sid, pred in pending.items():
                ensemble[sid] = rate * ensemble[sid] + (1.0 - rate) * pred \
                    if sid in ensemble else (1.0 - rate) * pred
                counts[sid] = counts.get(sid, 0) + 1
            store.apply_epoch_update()

    def test_repeated_id_keeps_last_row(self):
        z = np.random.default_rng(7).dirichlet(np.ones(3), size=3)
        store = TR.TemporalStore(0.0, 3, 3)
        targets = te_epoch(store, np.array([2, 2, 2]), z)
        assert np.array_equal(targets, np.stack([z[2]] * 3))


class TestConfigValidation:
    def test_variant_registry_has_nine_names(self):
        assert len(TR.VARIANTS) == 9
        assert set(TR.VARIANTS) == {
            "baseline", "self_training", "pi", "te", "mt", "fc_mt",
            "src_pi", "src_te", "src_mt"}

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(variant="mystery")

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(alpha=1.5)

    def test_paper_defaults(self):
        cfg = TR.TrainConfig()
        assert cfg.alpha == 0.99
        assert cfg.beta == 1.0
        assert cfg.batch_labeled == 12 and cfg.batch_unlabeled == 36
        assert cfg.learning_rate == 1e-4
        assert cfg.te_ensemble_rate == 0.99
        assert cfg.pseudo_label_threshold == 0.9

    def test_target_views(self):
        assert [v for v in TR.VARIANTS if TR.has_target_view(v)] == [
            "pi", "mt", "fc_mt", "src_pi", "src_te", "src_mt"]

    def test_variant_table_covers_registry(self):
        assert set(TR.VARIANT_TABLE) == set(TR.VARIANTS)
        sources = {src for src, _ in TR.VARIANT_TABLE.values()}
        extras = {extra for _, extra in TR.VARIANT_TABLE.values()}
        assert sources == {None, "pi", "te", "ema"}
        assert extras == {None, "relation", "feature"}

    def test_learning_rate_schedule(self):
        cfg = TR.TrainConfig(total_epochs=60)
        for e in range(60):
            expected = 1e-4 * (1 - e / 60) ** 0.9
            assert abs(TR.learning_rate_for_epoch(cfg, e) - expected) <= 1e-12


class TestTrainingContracts:
    def test_baseline_never_reads_unlabeled(self):
        splits = small_splits()
        cfg = quick_config(variant="baseline")
        TR.run_variant(cfg, ARCH, splits)
        assert splits.unlabeled.reads == 0

    def test_consistency_variants_read_unlabeled(self):
        splits = small_splits()
        TR.run_variant(quick_config(variant="mt"), ARCH, splits)
        assert splits.unlabeled.reads > 0

    def test_baseline_curves_have_zero_consistency(self):
        res = TR.run_variant(quick_config(variant="baseline"), ARCH, small_splits())
        assert all(c.loss_consistency == 0.0 and c.loss_relation == 0.0
                   for c in res.curves)

    def test_identical_seeds_identical_state(self):
        r1 = TR.run_variant(quick_config(variant="src_mt"), ARCH, small_splits())
        r2 = TR.run_variant(quick_config(variant="src_mt"), ARCH, small_splits())
        assert params_digest(r1.state.student) == params_digest(r2.state.student)
        assert r1.curves == r2.curves

    def test_mt_equals_relation_variant_with_zero_weight(self):
        r_mt = TR.run_variant(quick_config(variant="mt"), ARCH, small_splits())
        r_src = TR.run_variant(quick_config(variant="src_mt", beta=0.0), ARCH,
                               small_splits())
        assert params_digest(r_mt.state.student) == params_digest(r_src.state.student)
        assert params_digest(r_mt.state.teacher) == params_digest(r_src.state.teacher)
        assert r_mt.curves == r_src.curves

    def test_pi_has_no_teacher(self):
        res = TR.run_variant(quick_config(variant="pi"), ARCH, small_splits())
        assert res.state.teacher is None

    def test_teacher_changes_only_through_ema(self):
        splits = small_splits()
        cfg = quick_config(variant="mt", alpha=0.99)
        state = TR.init_trainer(cfg, ARCH, splits.labeled)
        seen = []

        def probe(info):
            seen.append(True)

        batches = D.epoch_batches(splits.labeled, splits.unlabeled, cfg.plan,
                                  np.random.default_rng(0))
        views = perturb_pair(batches[0].inputs, cfg.perturb, (cfg.seed, TR._TAG_PERTURB, 0, 0),
                             sample_ids=batches[0].sample_ids)
        expected = models.Params(state.teacher)
        TR._train_step(state, batches[0], *views, 0, 0, 1.0, 1e-3, probe)
        # the new teacher must equal ema(old teacher, new student) exactly
        TR.ema_update(expected, state.student, cfg.alpha)
        assert params_digest(expected) == params_digest(state.teacher)

    def test_probabilities_sum_to_one_throughout(self):
        worst = [0.0]

        def probe(info):
            p = info["probs_student"]
            worst[0] = max(worst[0], np.abs(p.sum(axis=1) - 1).max())
            if info["probs_teacher"] is not None:
                worst[0] = max(worst[0],
                               np.abs(info["probs_teacher"].sum(axis=1) - 1).max())

        train_all(quick_config(variant="src_mt", total_epochs=2), ARCH, small_splits(), probe)
        assert worst[0] <= 1e-9

    def test_no_perturbation_identical_models_zero_consistency(self):
        # teacher mirrors the student exactly when alpha=0; with no input
        # perturbation and no dropout both views coincide at every step
        arch = ArchSpec(input_shape=(1, 8, 8), num_classes=3, conv_channels=(4, 5),
                        dropout_rate=0.0)
        cfg = quick_config(variant="src_mt", alpha=0.0,
                           perturb=PerturbConfig(rotation_deg_max=0.0, translate_frac_max=0.0,
                                                 flip_prob=0.0),
                           total_epochs=2)
        seen = []

        def probe(info):
            bd = info["breakdown"]
            seen.append((bd.consistency, bd.relation))

        train_all(cfg, arch, small_splits(), probe)
        assert seen
        assert all(c == 0.0 and r == 0.0 for c, r in seen)

    def test_training_stops_at_total_epochs(self):
        splits = small_splits()
        cfg = quick_config(variant="mt", total_epochs=2)
        state = TR.init_trainer(cfg, ARCH, splits.labeled)
        for _ in range(cfg.total_epochs):
            TR.train_epoch(state, splits)
        with pytest.raises(ContractError):
            TR.train_epoch(state, splits)
        assert state.epoch == cfg.total_epochs

    def test_empty_labeled_split_rejected(self):
        splits = small_splits()
        empty = splits.labeled.subset(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            TR.init_trainer(quick_config(), ARCH, empty)

    def test_self_training_adds_pseudo_labels(self):
        splits = small_splits(noise=0.02)
        cfg = quick_config(variant="self_training", total_epochs=4,
                           pseudo_label_threshold=0.5, learning_rate=3e-3)
        res = TR.run_variant(cfg, ARCH, splits)
        assert splits.unlabeled.reads > 0          # pseudo-label passes read inputs
        assert res.state.pseudo is not None or res.test_metrics.accuracy >= 0

    def test_te_store_sized_once_to_the_largest_split_id(self):
        splits = small_splits()
        cfg = quick_config(variant="te")
        state = TR.init_trainer(cfg, ARCH, splits.labeled)
        TR.train_epoch(state, splits)
        store = state.temporal
        TR.train_epoch(state, splits)
        assert state.temporal is store
        largest = max(splits.labeled.ids.max(), splits.unlabeled.ids.max())
        assert store.ensemble.shape == (largest + 1, 3)
        assert store.update_counts.size == store.has_pending.size == largest + 1

    def test_te_variant_runs_and_uses_store(self):
        res = TR.run_variant(quick_config(variant="te", total_epochs=3), ARCH,
                             small_splits())
        assert res.state.temporal is not None
        counts = res.state.temporal.update_counts
        assert counts.max() == 3
        # every sample the epochs fed through the store has an ensemble row
        assert np.all(res.state.temporal.ensemble[counts > 0].sum(axis=1) > 0)

    @pytest.mark.parametrize("variant", TR.VARIANTS)
    def test_every_variant_trains(self, variant):
        res = TR.run_variant(quick_config(variant=variant), ARCH, small_splits(),
                             relation_dump_epochs=(1,))
        assert len(res.curves) == 2
        assert np.isfinite([c.loss_supervised for c in res.curves]).all()
        # relation matrices exist exactly where a step runs the target view
        assert (1 in res.relation_dumps) == TR.has_target_view(variant)

    def test_pre_pool_tap_trains_and_differs(self):
        # pre-pool relations see spatial structure, so the optimized loss
        # trajectory must differ from the pooled tap's
        res_post = TR.run_variant(quick_config(variant="src_mt"), ARCH, small_splits())
        res_pre = TR.run_variant(quick_config(variant="src_mt", feature_tap="pre_pool"),
                                 ARCH, small_splits())
        assert all(np.isfinite(c.loss_relation) for c in res_pre.curves)
        assert res_pre.curves != res_post.curves

    def test_multilabel_training(self):
        ds = D.gen_multiblob_images(120, 8, np.random.default_rng(5), noise_sd=0.02)
        splits = D.split_labeled(ds, D.SplitSpec(0.3, False, 1))
        arch = ArchSpec(input_shape=(1, 8, 8), num_classes=3, conv_channels=(4, 5),
                        dropout_rate=0.2)
        res = TR.run_variant(quick_config(variant="src_mt"), arch, splits)
        assert len(res.test_metrics.per_class_auc) == 3

    def test_self_training_multilabel_pseudo_labels_are_multi_hot(self):
        ds = D.gen_multiblob_images(120, 8, np.random.default_rng(5), noise_sd=0.02)
        splits = D.split_labeled(ds, D.SplitSpec(0.3, False, 1))
        arch = ArchSpec(input_shape=(1, 8, 8), num_classes=3, conv_channels=(4, 5),
                        dropout_rate=0.2)
        cfg = quick_config(variant="self_training", total_epochs=5,
                           pseudo_label_threshold=0.5, learning_rate=3e-3)
        res = TR.run_variant(cfg, arch, splits)
        assert res.state.pseudo is not None
        rows, labels = res.state.pseudo
        assert labels.shape == (rows.size, 3)
        assert set(np.unique(labels)) <= {0, 1}


def _per_batch_perturb_pair(x, cfg, keys, sample_ids):
    """perturb_pair as one tuple-keyed call per run of rows that share a key,
    the way a step drew its own batch's views."""
    keys = np.asarray(keys)
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    stops = np.r_[starts[1:], len(x)]
    parts = [perturb_pair(x[a:b], cfg, tuple(int(k) for k in keys[a]),
                          sample_ids=sample_ids[a:b]) for a, b in zip(starts, stops)]
    return tuple(np.concatenate([part[v] for part in parts]) for v in (0, 1))


class TestGroupedPerturbation:
    @pytest.mark.parametrize("bound", [1100, 2240, 2880, None])
    def test_epoch_views_independent_of_grouping(self, monkeypatch, bound):
        """8x8 images in 11 batches of 18 rows (1152 values) and a last one
        of 17 rows (1088). A bound of 1100 sits between the two sizes, so
        every batch is a call of its own; 2240 is exactly the last two
        batches, 2880 groups batches in twos, and the default puts a whole
        epoch in one call. Training matches the per-batch draws bit for bit."""
        splits = small_splits()
        cfg = quick_config(variant="src_mt", perturb=PerturbConfig(noise_enabled=True))
        if bound is not None:
            monkeypatch.setattr(TR, "PERTURB_BLOCK_VALUES", bound)
        calls = []

        def recording(x, *args, **kwargs):
            calls.append(len(np.unique(args[1], axis=0)))
            assert x.size <= TR.PERTURB_BLOCK_VALUES or calls[-1] == 1
            return perturb_pair(x, *args, **kwargs)

        runs = []
        for draw in (recording, _per_batch_perturb_pair):
            monkeypatch.setattr(TR, "perturb_pair", draw)
            state = TR.init_trainer(cfg, ARCH, splits.labeled)
            curves = [TR.train_epoch(state, splits) for _ in range(cfg.total_epochs)]
            runs.append((curves, params_digest(state.student), params_digest(state.teacher)))
        assert runs[0] == runs[1]
        steps = len(D.epoch_batches(splits.labeled, splits.unlabeled, cfg.plan,
                                    np.random.default_rng(0)))
        assert sum(calls) == cfg.total_epochs * steps
        assert steps == 12
        per_epoch = {1100: [1] * steps, 2240: [1] * (steps - 2) + [2],
                     2880: [2] * (steps // 2), None: [steps]}[bound]
        assert calls == per_epoch * cfg.total_epochs


def _cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


class TestDrawAhead:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("bound, groups", [(None, 1), (6912, 2), (2304, 6)])
    def test_views_equal_one_inline_call_per_group(self, monkeypatch, cores, bound, groups):
        """11 batches of 18 8x8 images and one of 17: the default bound makes
        one group, 6912 values two of six batches, 2304 six of two.
        ``train_epoch`` steps on every batch in order, and each view it
        passes equals its group's perturb_pair call drawn in line; with two
        cores and two or more groups, every group after the first is drawn
        on one helper thread."""
        if bound is not None:
            monkeypatch.setattr(TR, "PERTURB_BLOCK_VALUES", bound)
        _cores(monkeypatch, cores)
        threads, stepped = [], []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return perturb_pair(*args, **kwargs)

        step = TR._train_step

        def recording_step(state, batch, view_s, view_t, epoch, batch_idx, *args):
            stepped.append((batch_idx, batch, view_s, view_t))
            return step(state, batch, view_s, view_t, epoch, batch_idx, *args)

        monkeypatch.setattr(TR, "perturb_pair", recording)
        monkeypatch.setattr(TR, "_train_step", recording_step)
        splits = small_splits()
        cfg = quick_config(variant="src_mt", perturb=PerturbConfig(noise_enabled=True))
        state = TR.init_trainer(cfg, ARCH, splits.labeled)
        state.epoch = 1
        TR.train_epoch(state, splits)
        assert [row[0] for row in stepped] == list(range(12))
        batches = [row[1] for row in stepped]

        per_group = -(-len(batches) // groups)
        for start in range(0, len(batches), per_group):
            group = range(start, min(start + per_group, len(batches)))
            keys = np.concatenate([np.tile([cfg.seed, TR._TAG_PERTURB, 1, i],
                                           (batches[i].size, 1)) for i in group])
            views = perturb_pair(np.concatenate([batches[i].inputs for i in group]),
                                 cfg.perturb, keys.astype(np.uint64),
                                 sample_ids=np.concatenate([batches[i].sample_ids
                                                            for i in group]))
            got = [np.concatenate([stepped[i][2 + v] for i in group]) for v in (0, 1)]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, views))
        main = threading.get_ident()
        assert len(threads) == groups and threads[0] == main
        if cores == 2 and groups > 1:
            assert len(set(threads[1:])) == 1 and main not in threads[1:]
        else:
            assert set(threads) == {main}

    @pytest.mark.parametrize("fail_at", [None, 3])
    def test_no_thread_outlives_train_epoch(self, monkeypatch, fail_at):
        """With a group per batch, the helper is drawing the next group when
        a step on batch 3 raises; train_epoch leaves no thread behind either
        way."""
        monkeypatch.setattr(TR, "PERTURB_BLOCK_VALUES", 1)
        _cores(monkeypatch, 2)
        step, steps = TR._train_step, []

        def failing(state, batch, view_s, view_t, epoch, batch_idx, *args):
            steps.append(batch_idx)
            if batch_idx == fail_at:
                raise RuntimeError("step failed")
            return step(state, batch, view_s, view_t, epoch, batch_idx, *args)

        monkeypatch.setattr(TR, "_train_step", failing)
        splits = small_splits()
        state = TR.init_trainer(quick_config(variant="src_mt"), ARCH, splits.labeled)
        alive = set(threading.enumerate())
        if fail_at is None:
            TR.train_epoch(state, splits)
            assert len(steps) == 12
        else:
            with pytest.raises(RuntimeError, match="step failed"):
                TR.train_epoch(state, splits)
            assert steps == [0, 1, 2, 3]
        assert set(threading.enumerate()) == alive


class TestPredictProbsThreads:
    def test_same_bits_for_any_core_count(self, monkeypatch):
        """Multi-chunk predictions have the same bits on one core (all chunks
        on the caller) and on two (the caller and one pool thread), and no
        thread outlives the call."""
        x = small_splits(n=240).unlabeled.read()
        params = models.init_params(ARCH, np.random.default_rng(3))
        forward, threads_used = models.forward, []
        both_threads = threading.Barrier(2)

        def traced_forward(*args, **kwargs):
            if threading.get_ident() not in threads_used and cores == 2:
                both_threads.wait(timeout=10)   # each thread's first chunk waits for the other's
            threads_used.append(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(models, "forward", traced_forward)
        runs = {}
        for cores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
            threads_used.clear()
            alive = set(threading.enumerate())
            runs[cores] = TR.predict_probs(ARCH, params, x, False, chunk=37)
            assert set(threading.enumerate()) <= alive
            assert len(threads_used) == -(-len(x) // 37) >= 4
            assert threading.get_ident() in threads_used
            assert len(set(threads_used)) == cores
        assert runs[1].view(np.int64).tobytes() == runs[2].view(np.int64).tobytes()
