"""Sweeping the relation-loss weight: what the regularizer actually does.

Trains the relation variant at several weights (weight 0 is the plain mean
teacher; the relation loss is then measured but not optimized) and prints
the converged relation-loss level next to the test metrics. Expected
pattern: a larger weight pushes the converged relation loss lower, i.e.
the batch similarity structure becomes more stable under perturbation,
while moderate weights keep accuracy at or above the weight-0 level.
"""

import numpy as np

from relcon import data as D
from relcon.models import ArchSpec
from relcon.perturb import PerturbConfig
from relcon.trainer import TrainConfig, run_variant

dataset = D.gen_blob_images(700, 3, 12, 1.0, np.random.default_rng(7), noise_sd=0.25)
splits = D.split_labeled(dataset, D.SplitSpec(0.12, seed=11))
arch = ArchSpec(input_shape=(1, 12, 12), num_classes=3, conv_channels=(6, 8),
                dropout_rate=0.2)
perturb = PerturbConfig(noise_enabled=True, noise_variance=0.09, noise_clip=0.5)

print("weight | converged relation loss | test acc | test auc")
for weight in (0.0, 0.1, 1.0, 5.0):
    variant = "mt" if weight == 0.0 else "src_mt"
    cfg = TrainConfig(variant=variant, beta=weight, total_epochs=30, ramp_epochs=12,
                      learning_rate=3e-3, seed=1, perturb=perturb)
    result = run_variant(cfg, arch, splits)
    tail = float(np.mean([c.loss_relation for c in result.curves[-5:]]))
    m = result.test_metrics
    print(f"{weight:6g} | {tail:23.5f} | {m.accuracy:8.3f} | {m.auc:8.3f}"
          + ("   <- not optimized" if weight == 0.0 else ""))
