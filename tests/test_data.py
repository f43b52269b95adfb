"""Dataset generators, splitting, batching, and file IO."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcon import data as D
from relcon.errors import ContractError, DimensionError, FormatError, SplitError


class TestTwoMoons:
    def test_no_noise_on_unit_circles(self):
        ds = D.gen_two_moons(100, 0.0, np.random.default_rng(0))
        upper = ds.inputs[ds.labels == 0]
        assert np.abs(np.linalg.norm(upper, axis=1) - 1.0).max() <= 1e-12
        lower = ds.inputs[ds.labels == 1]
        radii = np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_balanced_classes(self):
        ds = D.gen_two_moons(1000, 0.1, np.random.default_rng(1))
        assert (ds.labels == 0).sum() == 500
        assert (ds.labels == 1).sum() == 500

    def test_deterministic(self):
        a = D.gen_two_moons(50, 0.2, np.random.default_rng(3))
        b = D.gen_two_moons(50, 0.2, np.random.default_rng(3))
        assert np.array_equal(a.inputs, b.inputs)

    def test_odd_n_rejected(self):
        with pytest.raises(ContractError):
            D.gen_two_moons(7, 0.1, np.random.default_rng(0))

    def test_class_means_separated(self):
        noise_sd = 0.1
        ds = D.gen_two_moons(2000, noise_sd, np.random.default_rng(4))
        m0 = ds.inputs[ds.labels == 0].mean(axis=0)
        m1 = ds.inputs[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 4 * noise_sd


def _reference_blob_images(n, num_classes, size, imbalance_ratio, rng, noise_sd, center_jitter):
    """``gen_blob_images`` one image at a time, as first written: the oracle
    its draw order and per-pixel arithmetic must match bit for bit."""
    counts = D.geometric_class_counts(n, num_classes, imbalance_ratio)
    grid_y, grid_x = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((n, 1, size, size))
    labels = np.zeros(n, dtype=int)
    row = 0
    for k in range(num_classes):
        frac = (k + 1) / (num_classes + 1)
        sigma = size * (0.08 + 0.10 * frac)
        intensity = 0.55 + 0.45 * frac
        for _ in range(counts[k]):
            cy = size / 2.0 + rng.uniform(-center_jitter * size, center_jitter * size)
            cx = size / 2.0 + rng.uniform(-center_jitter * size, center_jitter * size)
            blob = intensity * np.exp(-((grid_y - cy) ** 2 + (grid_x - cx) ** 2) / (2 * sigma ** 2))
            if noise_sd > 0:
                blob = blob + rng.normal(0.0, noise_sd, size=(size, size))
            images[row, 0] = blob
            labels[row] = k
            row += 1
    return images, labels


def _reference_multiblob_images(n, size, rng, noise_sd, num_types):
    """``gen_multiblob_images`` one image at a time, as first written."""
    present = rng.random((n, num_types)) < 0.5
    for c in range(num_types):
        if not present[:, c].any():
            present[c % n, c] = True
        if present[:, c].all():
            present[c % n, c] = False
    grid_y, grid_x = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((n, 1, size, size))
    for i in range(n):
        canvas = np.zeros((size, size))
        for c in range(num_types):
            cy = size / 2.0 + rng.uniform(-0.2 * size, 0.2 * size)
            cx = size / 2.0 + rng.uniform(-0.2 * size, 0.2 * size)
            if not present[i, c]:
                continue
            frac = (c + 1) / (num_types + 1)
            sigma = size * (0.06 + 0.08 * frac)
            intensity = 0.5 + 0.5 * frac
            canvas += intensity * np.exp(
                -((grid_y - cy) ** 2 + (grid_x - cx) ** 2) / (2 * sigma ** 2))
        if noise_sd > 0:
            canvas = canvas + rng.normal(0.0, noise_sd, size=(size, size))
        images[i, 0] = canvas
    return images, present.astype(int)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_ZERO_OR_POSITIVE = st.sampled_from([0.0, 0.05, 0.3])


class TestBlobImages:
    def test_balanced_when_ratio_one(self):
        ds = D.gen_blob_images(90, 3, 8, 1.0, np.random.default_rng(0))
        assert all((ds.labels == k).sum() == 30 for k in range(3))

    def test_geometric_partition(self):
        counts = D.geometric_class_counts(70, 3, 2.0)
        assert counts.tolist() == [40, 20, 10]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 100_000),
           st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12).filter(lambda w: sum(w) > 0))
    def test_largest_remainder_sums_to_total_within_one_of_share(self, total, weights):
        weights = np.array(weights)
        exact = total * weights / weights.sum()
        counts = D._largest_remainder(exact, total)
        assert counts.sum() == total
        assert (np.abs(counts - exact) < 1).all()

    def test_within_class_identical_without_jitter(self):
        ds = D.gen_blob_images(12, 2, 8, 1.0, np.random.default_rng(1),
                               noise_sd=0.0, center_jitter=0.0)
        for k in range(2):
            imgs = ds.inputs[ds.labels == k]
            assert np.array_equal(imgs[0], imgs[1])

    def test_flip_preserves_class_distribution(self):
        # blob classes differ in radius and intensity, both flip-invariant
        ds = D.gen_blob_images(10, 2, 8, 1.0, np.random.default_rng(2),
                               noise_sd=0.0, center_jitter=0.0)
        flipped = ds.inputs[:, :, :, ::-1]
        assert np.abs(np.sort(flipped.reshape(10, -1), axis=1)
                      - np.sort(ds.inputs.reshape(10, -1), axis=1)).max() <= 1e-15

    def test_deterministic(self):
        a = D.gen_blob_images(20, 2, 8, 1.5, np.random.default_rng(5))
        b = D.gen_blob_images(20, 2, 8, 1.5, np.random.default_rng(5))
        assert np.array_equal(a.inputs, b.inputs)

    def test_multiblob_every_type_nondegenerate(self):
        ds = D.gen_multiblob_images(40, 8, np.random.default_rng(6))
        assert ds.labels.shape == (40, 3)
        assert (ds.labels.sum(axis=0) > 0).all()
        assert (ds.labels.sum(axis=0) < 40).all()

    # the generators render many images per array expression; the bytes must
    # not move, since every digest and criterion-7 figure rests on them
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 5), st.integers(0, 700), st.integers(8, 13),
           st.sampled_from([1.0, 0.6, 1.7, 4.0]), _ZERO_OR_POSITIVE,
           st.sampled_from([0.0, 0.15, 0.4]), st.integers(0, 2**32 - 1))
    @example(2, 0, 8, 1.0, 0.0, 0.0, 0)
    @example(3, 1000, 12, 1.0, 0.25, 0.15, 17)
    def test_blob_images_match_one_image_at_a_time_reference(
            self, classes, extra, size, ratio, noise_sd, jitter, seed):
        weights = ratio ** np.arange(classes)
        n = math.ceil(weights.sum() / weights.min()) + extra   # every class keeps a sample
        ds = D.gen_blob_images(n, classes, size, ratio, np.random.default_rng(seed),
                               noise_sd=noise_sd, center_jitter=jitter)
        images, labels = _reference_blob_images(n, classes, size, ratio,
                                                np.random.default_rng(seed), noise_sd, jitter)
        _assert_same_bytes(ds.inputs, images)
        _assert_same_bytes(ds.labels, labels)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 600), st.integers(8, 13), _ZERO_OR_POSITIVE, st.integers(2, 5),
           st.integers(0, 2**32 - 1))
    @example(2, 8, 0.0, 2, 0)
    def test_multiblob_images_match_one_image_at_a_time_reference(
            self, n, size, noise_sd, types, seed):
        ds = D.gen_multiblob_images(n, size, np.random.default_rng(seed),
                                    noise_sd=noise_sd, num_types=types)
        images, labels = _reference_multiblob_images(n, size, np.random.default_rng(seed),
                                                     noise_sd, types)
        _assert_same_bytes(ds.inputs, images)
        _assert_same_bytes(ds.labels, labels)


class TestDataset:
    def test_kind_follows_input_shape(self):
        y = np.zeros(4, dtype=int)
        assert D.Dataset(np.zeros((4, 2)), y, 2).kind == "vector"
        assert D.Dataset(np.zeros((4, 1, 3, 3)), y, 2).kind == "image"

    @pytest.mark.parametrize("shape", [(4,), (4, 2, 2), (4, 1, 2, 2, 2)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(DimensionError):
            D.Dataset(np.zeros(shape), np.zeros(4, dtype=int), 2)


class TestSplit:
    def test_fractions(self):
        ds = D.gen_two_moons(1000, 0.1, np.random.default_rng(7))
        splits = D.split_labeled(ds, D.SplitSpec(0.2, True, 0))
        n_train = len(splits.labeled) + len(splits.unlabeled)
        assert n_train == 700
        assert len(splits.validation) == 100
        assert len(splits.test) == 200
        assert len(splits.labeled) == 140

    def test_full_fraction_empties_unlabeled(self):
        ds = D.gen_two_moons(100, 0.1, np.random.default_rng(8))
        splits = D.split_labeled(ds, D.SplitSpec(1.0, True, 0))
        assert len(splits.unlabeled) == 0

    def test_stratified_within_one(self):
        ds = D.gen_two_moons(1000, 0.1, np.random.default_rng(9))
        splits = D.split_labeled(ds, D.SplitSpec(0.1, True, 1))
        counts = np.bincount(splits.labeled.labels)
        pool = np.concatenate([splits.labeled.labels, ds.labels[splits.unlabeled.ids]])
        pool_counts = np.bincount(pool)
        for k in range(2):
            assert abs(counts[k] - 0.1 * pool_counts[k]) <= 1.0

    def test_disjoint_and_covering(self):
        ds = D.gen_blob_images(200, 2, 8, 1.0, np.random.default_rng(10))
        splits = D.split_labeled(ds, D.SplitSpec(0.25, True, 2))
        all_ids = np.concatenate([
            splits.labeled.ids, splits.unlabeled.ids,
            splits.validation.ids, splits.test.ids])
        assert sorted(all_ids.tolist()) == list(range(200))

    def test_unlabeled_keeps_training_order(self):
        ds = D.gen_blob_images(200, 2, 8, 1.0, np.random.default_rng(10))
        splits = D.split_labeled(ds, D.SplitSpec(0.25, True, 2))
        train = np.random.default_rng(2).permutation(200)[:140]
        labeled = set(splits.labeled.ids.tolist())
        assert splits.unlabeled.ids.tolist() == [i for i in train if i not in labeled]

    def test_tiny_fraction_raises_when_class_lost(self):
        ds = D.gen_blob_images(200, 4, 8, 1.0, np.random.default_rng(11))
        with pytest.raises(SplitError):
            D.split_labeled(ds, D.SplitSpec(0.01, True, 3))

    def test_unlabeled_view_hides_labels(self):
        ds = D.gen_two_moons(100, 0.1, np.random.default_rng(12))
        splits = D.split_labeled(ds, D.SplitSpec(0.5, True, 4))
        view = splits.unlabeled
        assert not any("label" in name for name in vars(view))
        assert view.reads == 0
        view.read()
        assert view.reads == 1


def _reference_batch_ids(labeled, unlabeled, plan, rng):
    """Sample ids per batch, drawing the labeled stream one sample at a time
    from a generator that reshuffles whenever a pass runs out."""
    u_order = rng.permutation(len(unlabeled))

    def cycler():
        while True:
            yield from rng.permutation(len(labeled))

    stream = cycler()
    out = []
    for start in range(0, len(u_order), plan.n_unlabeled):
        lab = [next(stream) for _ in range(plan.n_labeled)]
        out.append(labeled.ids[lab].tolist()
                   + unlabeled.ids[u_order[start:start + plan.n_unlabeled]].tolist())
    return out


class TestBatching:
    def make(self, n=200, fraction=0.3):
        ds = D.gen_two_moons(n, 0.1, np.random.default_rng(13))
        return D.split_labeled(ds, D.SplitSpec(fraction, True, 5))

    def test_paper_batch_size(self):
        splits = self.make(600, 0.5)
        plan = D.BatchPlan(12, 36)
        batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                  np.random.default_rng(0))
        assert batches[0].size == 48
        assert batches[0].n_labeled == 12

    def test_pure_supervised_plan(self):
        splits = self.make()
        plan = D.BatchPlan(8, 0)
        batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                  np.random.default_rng(0))
        assert all(b.n_labeled == b.size for b in batches)
        seen = np.concatenate([b.sample_ids for b in batches])
        assert sorted(seen.tolist()) == sorted(splits.labeled.ids.tolist())

    def test_unlabeled_covered_exactly_once_when_divisible(self):
        ds = D.gen_two_moons(200, 0.1, np.random.default_rng(14))
        splits = D.split_labeled(ds, D.SplitSpec(0.5, True, 6))
        n_unl = len(splits.unlabeled)
        size = n_unl // 2
        plan = D.BatchPlan(4, size)
        batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                  np.random.default_rng(1))
        assert len(batches) == 2
        seen = np.concatenate([b.sample_ids[b.n_labeled:] for b in batches])
        assert sorted(seen.tolist()) == sorted(splits.unlabeled.ids.tolist())

    def test_labeled_stream_cycles(self):
        splits = self.make(400, 0.05)  # few labeled, many unlabeled
        plan = D.BatchPlan(12, 36)
        batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                  np.random.default_rng(2))
        seen = np.concatenate([b.sample_ids[:b.n_labeled] for b in batches])
        assert len(seen) == 12 * len(batches)
        assert set(seen.tolist()) == set(splits.labeled.ids.tolist())

    @pytest.mark.parametrize("n, fraction, plan, seed", [
        (60, 0.1, (1, 1), 0), (120, 0.5, (3, 7), 1), (300, 0.9, (12, 36), 2),
        (200, 0.3, (50, 5), 3), (300, 0.1, (12, 36), 4)])
    def test_matches_one_at_a_time_reference(self, n, fraction, plan, seed):
        splits = self.make(n, fraction)
        plan = D.BatchPlan(*plan)
        batches = D.epoch_batches(splits.labeled, splits.unlabeled, plan,
                                  np.random.default_rng(seed))
        expected = _reference_batch_ids(splits.labeled, splits.unlabeled, plan,
                                        np.random.default_rng(seed))
        assert [b.sample_ids.tolist() for b in batches] == expected


class TestFileIO:
    def test_round_trip_image(self, tmp_path):
        ds = D.gen_blob_images(30, 3, 8, 2.0, np.random.default_rng(15))
        path = tmp_path / "blobs.bin"
        D.save_dataset(ds, path)
        back = D.load_dataset(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)
        assert back.kind == "image" and back.num_classes == 3

    def test_round_trip_vector(self, tmp_path):
        ds = D.gen_two_moons(40, 0.1, np.random.default_rng(16))
        path = tmp_path / "moons.bin"
        D.save_dataset(ds, path)
        back = D.load_dataset(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert back.kind == "vector"

    def test_round_trip_multilabel(self, tmp_path):
        ds = D.gen_multiblob_images(20, 8, np.random.default_rng(17))
        path = tmp_path / "multi.bin"
        D.save_dataset(ds, path)
        back = D.load_dataset(path)
        assert np.array_equal(back.labels, ds.labels)
        assert back.multilabel

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            D.load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            D.load_dataset(path)

    def test_truncation_reports_offset(self, tmp_path):
        ds = D.gen_two_moons(10, 0.1, np.random.default_rng(18))
        path = tmp_path / "trunc.bin"
        D.save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="offset"):
            D.load_dataset(path)

    def test_class_index_out_of_range(self, tmp_path):
        ds = D.gen_two_moons(4, 0.1, np.random.default_rng(19))
        path = tmp_path / "labels.bin"
        D.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        label_block = len(blob) - 2 * len(ds)
        blob[label_block + 6:label_block + 8] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="out of range"):
            D.load_dataset(path)

    def test_multi_hot_entry_not_binary(self, tmp_path):
        path = tmp_path / "multi.bin"
        D.save_dataset(D.gen_multiblob_images(4, 8, np.random.default_rng(1)), path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"offset {len(blob) - 1}"):
            D.load_dataset(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,2.5,0\n3.5,4.5,1\n0.5,0.5,1\n1.0,1.0,0\n")
        ds = D.load_csv_dataset(path)
        assert ds.inputs.shape == (4, 2)
        assert ds.labels.tolist() == [0, 1, 1, 0]
        assert ds.num_classes == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_feature(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"1.5,2.5,0\n3.5,{value},1\n")
        with pytest.raises(FormatError, match="row 2 feature 2"):
            D.load_csv_dataset(path)

    @pytest.mark.parametrize("label", ["0.7", "1.9", "-0.5", "nan", "inf"])
    def test_csv_labels_must_be_whole_numbers(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"1.5,2.5,0\n3.5,4.5,{label}\n0.5,0.5,1\n")
        with pytest.raises(FormatError, match=f"row 2 label {label} is not a whole number"):
            D.load_csv_dataset(path)

    @pytest.mark.parametrize("label, shown", [("1e12", "1e+12"), ("1e300", "1e+300"),
                                              ("65536", "65536"), ("-1", "-1")])
    def test_csv_labels_must_fit_the_label_field(self, tmp_path, label, shown):
        """Class indices above 65535 (the largest a dataset file's u16 label
        holds) are rejected by row, before any cast that could warn."""
        path = tmp_path / "data.csv"
        path.write_text(f"1.5,2.5,0\n3.5,4.5,{label}\n0.5,0.5,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError,
                               match=rf"row 2 label {re.escape(shown)} is not a whole number "
                                     r"in \[0, 65535\]"):
                D.load_csv_dataset(path)

    def test_csv_largest_class_index_loads(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,2.5,0\n3.5,4.5,65535\n")
        ds = D.load_csv_dataset(path)
        assert ds.labels.tolist() == [0, 65535]
        assert ds.num_classes == 65536


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    """A single-label and a multi-label dataset file, small enough that
    headers and label blocks are a large share of their bytes."""
    tmp = tmp_path_factory.mktemp("corrupt")
    rng = np.random.default_rng(31)
    D.save_dataset(D.gen_two_moons(6, 0.1, rng), tmp / "single.bin")
    multi = D.Dataset(rng.normal(size=(3, 1, 2, 2)), rng.integers(0, 2, size=(3, 3)), 3)
    D.save_dataset(multi, tmp / "multi.bin")
    return {name: (tmp / f"{name}.bin").read_bytes()
            for name in ("single", "multi")}, tmp


def _load_checked(path):
    """Load a dataset file and check that what loaded is well formed."""
    ds = D.load_dataset(path)
    assert np.isfinite(ds.inputs).all()
    if ds.multilabel:
        assert ds.labels.shape == (len(ds), ds.num_classes)
        assert np.isin(ds.labels, (0, 1)).all()
    else:
        assert ((ds.labels >= 0) & (ds.labels < ds.num_classes)).all()


class TestCorruptFiles:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["single", "multi"]), data=st.data())
    def test_one_byte_change_or_truncation_loads_or_raises_format_error(
            self, clean_files, name, data):
        blobs, tmp = clean_files
        blob = bytearray(blobs[name])
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[offset] = data.draw(st.integers(0, 255), label="byte")
        path = tmp / f"mutated-{name}.bin"
        path.write_bytes(bytes(blob))
        try:
            _load_checked(path)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["single", "multi"]),
           extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes_raise_format_error_at_first_extra_byte(
            self, clean_files, name, extra):
        blobs, tmp = clean_files
        path = tmp / f"appended-{name}.bin"
        path.write_bytes(blobs[name] + extra)
        with pytest.raises(FormatError) as info:
            _load_checked(path)
        assert info.value.offset == len(blobs[name])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["single", "multi"]), data=st.data(),
           negative=st.booleans(), mantissa=st.integers(0, 2 ** 52 - 1))
    def test_non_finite_input_raises_at_its_offset(self, clean_files, name, data,
                                                   negative, mantissa):
        """Any infinity or NaN (payload and sign included) in the input block."""
        blobs, tmp = clean_files
        blob = bytearray(blobs[name])
        count = D.load_dataset(tmp / f"{name}.bin").inputs.size
        index = data.draw(st.integers(0, count - 1), label="index")
        offset = 29 + 8 * index
        bits = (negative << 63) | (0x7FF << 52) | mantissa
        blob[offset:offset + 8] = bits.to_bytes(8, "little")
        path = tmp / f"non-finite-{name}.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not finite") as info:
            D.load_dataset(path)
        assert info.value.offset == offset

    def test_garbage_after_a_small_file(self, tmp_path):
        path = tmp_path / "dataset.bin"
        D.save_dataset(D.gen_two_moons(4, 0.1, np.random.default_rng(0)), path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        with pytest.raises(FormatError, match=f"7 bytes after .* offset {size}\\)"):
            D.load_dataset(path)
