"""Trainer: schedules, EMA, variant contracts, determinism."""

import hashlib
import math

import numpy as np
import pytest

from relcon import data as D
from relcon import trainer as TR
from relcon.errors import ConfigError, ContractError
from relcon.models import ArchSpec
from relcon.perturb import PerturbConfig


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
        out = TR.ema_update({"w": np.array([1.0])}, {"w": np.array([0.0])}, 0.99)
        assert out["w"][0] == 0.99

    def test_alpha_zero_copies_student(self):
        student = {"w": np.array([3.0, 4.0])}
        out = TR.ema_update({"w": np.zeros(2)}, student, 0.0)
        assert np.array_equal(out["w"], student["w"])

    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    def test_constant_student_geometric_gap(self, alpha):
        rng = np.random.default_rng(0)
        student = {"w": rng.normal(size=(4, 3))}
        gap = rng.normal(size=(4, 3))
        teacher = {"w": student["w"] + gap}
        for t in range(1, 1001):
            teacher = TR.ema_update(teacher, student, alpha)
            expected = alpha ** t * gap
            assert np.abs(teacher["w"] - student["w"] - expected).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            TR.ema_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.5)


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
            expected = bd.supervised + bd.ramp_weight * (
                bd.consistency + bd.relation_weight * bd.relation)
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
    def test_selected_above_threshold(self):
        assert TR.pseudo_label_select(np.array([[0.95, 0.05]]), 0.9) == [(0, 0)]

    def test_below_threshold(self):
        assert TR.pseudo_label_select(np.array([[0.6, 0.4]]), 0.9) == []

    def test_boundary_is_strict(self):
        assert TR.pseudo_label_select(np.array([[0.9, 0.1]]), 0.9) == []

    def test_tie_takes_lowest_class(self):
        out = TR.pseudo_label_select(np.array([[0.46, 0.46, 0.08]]), 0.4)
        assert out == [(0, 0)]


def te_epoch(store, ids, predictions):
    """One epoch of the temporal store: record, update, read the targets."""
    store.record(ids, predictions)
    store.apply_epoch_update()
    return store.targets(ids, np.zeros_like(predictions))


class TestTemporalTargets:
    def test_first_update_bias_corrected(self):
        z = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
        targets = te_epoch(TR.TemporalStore(0.99, 3), np.arange(4), z)
        assert np.abs(targets - z).max() <= 1e-15

    def test_rate_zero_tracks_epoch(self):
        rng = np.random.default_rng(3)
        store = TR.TemporalStore(0.0, 3)
        for _ in range(5):
            z = rng.dirichlet(np.ones(3), size=4)
            targets = te_epoch(store, np.arange(4), z)
        assert np.array_equal(targets, z)

    def test_constant_predictions_fixed_point(self):
        z = np.random.default_rng(4).dirichlet(np.ones(4), size=2)
        store = TR.TemporalStore(0.99, 4)
        for _ in range(1, 200):
            targets = te_epoch(store, np.arange(2), z)
            assert np.abs(targets - z).max() <= 1e-9

    def test_misaligned_rejected(self):
        with pytest.raises(ContractError):
            TR.TemporalStore(0.99, 3).record(np.arange(2), np.zeros((3, 3)))

    def test_unseen_rows_get_current_prediction(self):
        z = np.random.default_rng(5).dirichlet(np.ones(3), size=2)
        store = TR.TemporalStore(0.99, 3)
        te_epoch(store, np.array([0, 1]), z)
        current = np.full((2, 3), 0.25)
        targets = store.targets(np.array([1, 7]), current)
        assert np.abs(targets[0] - z[1]).max() <= 1e-15
        assert np.array_equal(targets[1], current[1])

    def test_store_grows_to_larger_ids(self):
        z = np.random.default_rng(6).dirichlet(np.ones(3), size=2)
        store = TR.TemporalStore(0.5, 3)
        te_epoch(store, np.array([0, 1]), z)
        te_epoch(store, np.array([40, 1]), z)
        assert store.update_counts[[0, 1, 40]].tolist() == [1, 2, 1]
        assert store.update_counts.sum() == 4

    def test_matches_per_sample_reference(self):
        # per-sample dict loop: the latest prediction of an epoch wins, the
        # update folds it in, targets divide by 1 - rate**t
        rng = np.random.default_rng(8)
        rate = 0.9
        store = TR.TemporalStore(rate, 3)
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
        store = TR.TemporalStore(0.0, 3)
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
        before = {k: v.copy() for k, v in state.teacher.items()}
        TR._train_step(state, batches[0], 0, 0, 1.0, 1e-3, probe)
        # the new teacher must equal ema(old teacher, new student) exactly
        expected = TR.ema_update(before, state.student, cfg.alpha)
        assert params_digest(expected) == params_digest(state.teacher)

    def test_probabilities_sum_to_one_throughout(self):
        worst = [0.0]

        def probe(info):
            p = info["probs_student"]
            worst[0] = max(worst[0], np.abs(p.sum(axis=1) - 1).max())
            if info["probs_teacher"] is not None:
                worst[0] = max(worst[0],
                               np.abs(info["probs_teacher"].sum(axis=1) - 1).max())

        TR.run_variant(quick_config(variant="src_mt", total_epochs=2), ARCH,
                       small_splits(), probe=probe)
        assert worst[0] <= 1e-9

    def test_no_perturbation_identical_models_zero_consistency(self):
        # teacher mirrors the student exactly when alpha=0; with no input
        # perturbation and no dropout both views coincide at every step
        arch = ArchSpec(input_shape=(1, 8, 8), num_classes=3, conv_channels=(4, 5),
                        dropout_rate=0.0)
        cfg = quick_config(variant="src_mt", alpha=0.0,
                           perturb=PerturbConfig.zero(), total_epochs=2)
        seen = []

        def probe(info):
            bd = info["breakdown"]
            seen.append((bd.consistency, bd.relation))

        TR.run_variant(cfg, arch, small_splits(), probe=probe)
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
        with pytest.raises((ConfigError, Exception)):
            TR.init_trainer(quick_config(), ARCH, empty)

    def test_self_training_adds_pseudo_labels(self):
        splits = small_splits(noise=0.02)
        cfg = quick_config(variant="self_training", total_epochs=4,
                           pseudo_label_threshold=0.5, learning_rate=3e-3)
        res = TR.run_variant(cfg, ARCH, splits)
        assert splits.unlabeled.reads > 0          # pseudo-label passes read inputs
        assert res.state.pseudo is not None or res.test_metrics.accuracy >= 0

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
        res = TR.run_variant(quick_config(variant=variant), ARCH, small_splits())
        assert len(res.curves) == 2
        assert np.isfinite([c.loss_supervised for c in res.curves]).all()

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
