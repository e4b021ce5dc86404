"""End-to-end miniature: generate data, train with the consistency term,
evaluate, and drop a localization heatmap for one detected fake.

Finishes in well under a minute; the point is the workflow, not the score.

Usage: python3 demos/train_and_evaluate.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from twoview.imgops import bilinear_resize, write_pgm, write_ppm
from twoview.metrics import compute_report
from twoview.model import ModelConfig, cam, encoder_forward
from twoview.ndgrad import Tensor
from twoview.synthdata import gen_dataset
from twoview.trainer import TrainConfig, params_from_checkpoint, score_samples, train


def main(out_dir: str = "demo_out/mini_run"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset = gen_dataset(n_real=40, ratio=2, seed=3)
    print(f"dataset: {len(dataset.train)} train / {len(dataset.val)} val / {len(dataset.test)} test")

    config = TrainConfig(
        seed=3,
        alpha=1.0,
        penalty="cos",
        aug="raaug",
        pairs_per_batch=8,
        max_epochs=10,
        patience=10,
        lr=3e-3,
        model=ModelConfig(input_size=64, channels=(8, 16, 32, 64)),
    )
    ckpt, history = train(
        config,
        dataset,
        on_epoch=lambda r: print(
            f"epoch {r.epoch:2d}  ce {r.ce_loss:.4f}  consistency {r.consistency_loss:.4f}"
            f"  val auc {r.val_auc:.3f}"
        ),
    )
    enc, cls = params_from_checkpoint(ckpt)

    scored = score_samples(enc, cls, dataset.test)
    report = compute_report(scored)
    print(f"\ntest auc {report.auc:.3f}  (best checkpoint: epoch {ckpt.epoch})")

    # Heatmap for the fake with the highest P(fake), the score `twoview eval`
    # reports, upsampled as `twoview cam` does: classifier-weighted feature
    # maps, next to the input and the true tamper mask.
    fake_rows = np.flatnonzero(scored.labels == 1)
    fake = dataset.test[fake_rows[np.argmax(scored.scores[fake_rows])]]
    _, maps = encoder_forward(Tensor(fake.image.transpose(2, 0, 1)[None]), enc)
    heat = cam(maps.data[0], cls)

    write_ppm(out / "fake_input.ppm", fake.image)
    write_pgm(out / "fake_mask.pgm", fake.mask)
    side = fake.image.shape[0]
    write_pgm(out / "fake_cam.pgm", np.clip(bilinear_resize(heat, side, side), 0.0, 1.0))
    print(f"wrote input / mask / heatmap for {fake.source_id} to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
