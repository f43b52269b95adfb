"""Semi-supervised training on the two-moons dataset.

Trains the supervised baseline, the mean-teacher variant, and the
relation-consistency variant on vector data with only a small labeled
fraction, then compares test metrics. Uses the MLP with Gaussian input
noise as the perturbation (geometric transforms do not apply to vectors).
"""

import numpy as np

from relcon import data as D
from relcon.models import ArchSpec
from relcon.perturb import PerturbConfig
from relcon.trainer import TrainConfig, run_variant

dataset = D.gen_two_moons(1000, 0.12, np.random.default_rng(42))
splits = D.split_labeled(dataset, D.SplitSpec(labeled_fraction=0.03, seed=5))
print(f"labeled {len(splits.labeled)}, unlabeled {len(splits.unlabeled)}, "
      f"val {len(splits.validation)}, test {len(splits.test)}")

arch = ArchSpec(input_shape=(2,), num_classes=2, hidden=(32, 32), dropout_rate=0.2)
perturb = PerturbConfig(noise_enabled=True, noise_variance=0.01, noise_clip=0.2)

for variant in ("baseline", "mt", "src_mt"):
    cfg = TrainConfig(variant=variant, total_epochs=30, ramp_epochs=10,
                      learning_rate=3e-3, batch_labeled=8, batch_unlabeled=24,
                      seed=0, perturb=perturb)
    result = run_variant(cfg, arch, splits)
    m = result.test_metrics
    print(f"{variant:9s} test acc {m.accuracy:.3f}  auc {m.auc:.3f}  f1 {m.f1:.3f}")

# the loop's last run is the relation variant
print("\nlearning curve of the relation variant (last 5 epochs):")
for c in result.curves[-5:]:
    print(f"  epoch {c.epoch:2d}: supervised {c.loss_supervised:.4f}  "
          f"consistency {c.loss_consistency:.5f}  relation {c.loss_relation:.5f}  "
          f"val acc {c.val_accuracy:.3f}")
