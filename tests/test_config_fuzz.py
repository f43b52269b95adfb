"""Config fuzz: every failure a committed config can be mutated into is a relcon error.

Each example takes one of ``tests/identity/*.cfg`` and changes the values
or the keys of up to three of its ``key = value`` lines. A text that
``parse_config_text`` rejects must raise ``ConfigError``. A text that
parses goes through a cell's set-up as ``run_experiment`` and ``run_cell``
do it (dataset, architecture, split) and then ``init_trainer`` and one
``train_epoch``; any exception must be a subclass of a ``relcon.errors``
class. The one other error allowed is an ``OSError`` from reading the
dataset file a mutated ``path`` names, which ``relcon run`` reports as a
data error.

Mutated numbers stay small, and parsed configs with ``n``, ``size``,
``hidden`` or ``conv_channels`` above the bounds below are skipped, so an
example runs in well under a second and a few MiB: the test is about the
kind of error, not about how large a run can get.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcon import data as D
from relcon import errors
from relcon import experiments as E
from relcon import trainer as TR

CONFIGS = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted((Path(__file__).resolve().parent / "identity").glob("*.cfg"))}
KEYS = sorted({key for keys in E._KEYS.values() for key in keys})
RELCON_ERRORS = tuple(cls for cls in vars(errors).values()
                      if isinstance(cls, type) and issubclass(cls, Exception)
                      and cls.__module__ == errors.__name__)

MAX_N = 1400          # the largest committed config, self_training.cfg
MAX_SIZE = 16
MAX_WIDTH = 64        # hidden layer width
MAX_CHANNELS = 16     # conv channels

_WORDS = ["", "x", "moons", "blobs", "multiblobs", "file", "csv", "post_pool", "pre_pool",
          *TR.VARIANTS]
_SCALARS = {
    int: st.integers(-3, 48).map(str),
    float: st.one_of(st.floats(-2.0, 2.0).map(repr),
                     st.sampled_from(["0", "1e-9", "1e300", "nan", "inf", "-inf"])),
    bool: st.sampled_from(["true", "false", "no", "1", "2"]),
}


@pytest.fixture(scope="module")
def data_files(tmp_path_factory) -> list[str]:
    """Dataset files a config can be pointed at: vector and image files, one
    with a NaN input, a CSV, a one-class CSV and one with a label too large
    for the label field."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    moons = D.gen_two_moons(40, 0.1, rng)
    D.save_dataset(moons, tmp / "moons.bin")
    D.save_dataset(D.gen_blob_images(40, 2, 8, 1.0, rng), tmp / "blobs.bin")
    moons.inputs[3, 1] = np.nan
    D.save_dataset(moons, tmp / "nan.bin")
    table = np.column_stack([moons.inputs[4:], moons.labels[4:]])
    np.savetxt(tmp / "moons.csv", table, delimiter=",")
    table[:, -1] = 0
    np.savetxt(tmp / "one_class.csv", table, delimiter=",")
    table[0, -1] = 1e12
    np.savetxt(tmp / "huge_label.csv", table, delimiter=",")
    return sorted(str(path) for path in tmp.iterdir())


@st.composite
def mutated_configs(draw, paths: list[str]) -> str:
    """One committed config, a quarter of the time reading its dataset from
    one of ``paths``, with up to three ``key = value`` lines changed:
    a value of the key's type (most often), any value, or another key of
    the same section or of any section."""
    words = st.sampled_from(_WORDS + paths)
    text = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    if draw(st.integers(0, 3)) == 0:   # read the dataset from a file instead
        path = draw(st.sampled_from(paths))
        generator = "csv" if path.endswith(".csv") else "file"
        text = re.sub(r"^generator = \w+$", f"generator = {generator}\npath = {path}", text,
                      flags=re.M)
    lines = text.splitlines()
    sections, section = {}, None
    for i, line in enumerate(lines):
        line = line.partition("#")[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            sections[i] = section
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(sorted(sections)))
        key, _, value = (part.strip() for part in lines[i].partition("="))
        keys = E._KEYS[sections[i]]
        how = draw(st.sampled_from(["typed", "typed", "any", "key"]))
        if how == "key":
            key = draw(st.one_of(st.sampled_from(sorted(keys)), st.sampled_from(KEYS)))
        elif how == "any" or key not in keys:
            value = draw(st.one_of(*_SCALARS.values(), words))
        else:
            _, kind, is_list = keys[key]
            scalar = _SCALARS.get(kind, words)
            value = draw(st.lists(scalar, max_size=3).map(", ".join) if is_list else scalar)
        lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _one_epoch(cfg: E.ExperimentConfig) -> None:
    """The first cell's set-up, as run_experiment and run_cell do it, then
    init_trainer and one train_epoch."""
    variant, beta, fraction, seed = E.sweep_cells(cfg)[0]
    try:
        dataset = E.build_dataset(cfg.dataset)
    except OSError:
        assert cfg.dataset.generator in ("file", "csv")
        return
    arch = E.arch_for(dataset, cfg.model)
    split_spec = dataclasses.replace(cfg.split, labeled_fraction=fraction,
                                     seed=E._split_seed(cfg.split.seed, seed))
    splits = D.split_labeled(dataset, split_spec)
    train_cfg = dataclasses.replace(cfg.train, variant=variant, beta=beta, seed=seed)
    TR.train_epoch(TR.init_trainer(train_cfg, arch, splits.labeled), splits)


# extreme learning rates overflow the forward pass; only the error that follows counts
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=3000, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_configs_fail_only_with_relcon_errors(data, data_files):
    text = data.draw(mutated_configs(data_files))
    try:
        cfg = E.parse_config_text(text)
    except errors.ConfigError:
        return
    assume(cfg.dataset.n <= MAX_N and cfg.dataset.size <= MAX_SIZE
           and max(cfg.model.hidden, default=0) <= MAX_WIDTH
           and max(cfg.model.conv_channels, default=0) <= MAX_CHANNELS)
    try:
        _one_epoch(cfg)
    except RELCON_ERRORS:
        pass
