"""Watch the batch-relation structure stabilize during training.

Trains the relation-consistency variant on blob images, dumping the
student/teacher relation matrices and their amplified distance at several
epochs. Early in training the two views disagree; as training converges the
distance matrix empties out. Dumps land in demo_relations/ as plain CSV.
"""

from pathlib import Path

import numpy as np

from relcon import data as D
from relcon import losses
from relcon.models import ArchSpec
from relcon.perturb import PerturbConfig
from relcon.trainer import TrainConfig, run_variant

dataset = D.gen_blob_images(400, 3, 10, 1.0, np.random.default_rng(9), noise_sd=0.2)
splits = D.split_labeled(dataset, D.SplitSpec(0.15, seed=4))
arch = ArchSpec(input_shape=(1, 10, 10), num_classes=3, conv_channels=(5, 6),
                dropout_rate=0.2)
cfg = TrainConfig(variant="src_mt", total_epochs=24, ramp_epochs=10,
                  learning_rate=3e-3, seed=1,
                  perturb=PerturbConfig(noise_enabled=True, noise_variance=0.09,
                                        noise_clip=0.5))

dump_epochs = (0, 8, 16, 23)
result = run_variant(cfg, arch, splits, relation_dump_epochs=dump_epochs)

outdir = Path("demo_relations")
outdir.mkdir(exist_ok=True)
print("epoch | mean |R_student - R_teacher| entry | max distance entry")
for epoch in dump_epochs:
    dump = result.relation_dumps[epoch]
    losses.write_matrix_csv(dump["student"], outdir / f"relation_epoch{epoch}_student.csv")
    losses.write_matrix_csv(dump["teacher"], outdir / f"relation_epoch{epoch}_teacher.csv")
    losses.write_matrix_csv(dump["distance"], outdir / f"distance_epoch{epoch}.csv")
    gap = np.abs(dump["student"] - dump["teacher"])
    print(f"  {epoch:3d} | {gap.mean():29.5f} | {dump['distance'].max():.3f}")

print(f"\nCSV dumps written to {outdir}/")
print("relation curve across training:")
for c in result.curves:
    if c.epoch % 4 == 0 or c.epoch == cfg.total_epochs - 1:
        print(f"  epoch {c.epoch:2d}: relation loss {c.loss_relation:.5f}  "
              f"ramp weight {c.ramp_weight:.3f}")
