"""End-to-end miniature: generate data, train with the consistency term,
evaluate, and drop a localization heatmap for one detected fake.

Finishes in well under a minute; the point is the workflow, not the score.

Usage: python3 demos/train_and_evaluate.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from twoview.imgops import write_pgm, write_ppm
from twoview.model import ModelConfig, cam, encoder_forward
from twoview.ndgrad import Tensor
from twoview.synthdata import gen_dataset
from twoview.trainer import TrainConfig, evaluate, params_from_checkpoint, train


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

    report = evaluate(enc, cls, dataset.test)
    print(f"\ntest auc {report.auc:.3f}  (best checkpoint: epoch {ckpt.epoch})")

    # Heatmap for the highest-scoring fake: upscaled classifier-weighted
    # feature maps, next to the input and the true tamper mask.
    fakes = [s for s in dataset.test if s.label == 1]
    x = Tensor(np.stack([s.image for s in fakes]).transpose(0, 3, 1, 2))
    reps, maps = encoder_forward(x, enc)
    pick = int(np.argmax((reps.data @ cls["classifier/weight"].data.T)[:, 1]))
    heat = cam(maps.data[pick], cls)

    write_ppm(out / "fake_input.ppm", fakes[pick].image)
    write_pgm(out / "fake_mask.pgm", fakes[pick].mask)
    side = fakes[pick].image.shape[0]
    up = np.clip(np.kron(heat, np.ones((side // heat.shape[0],) * 2)), 0.0, 1.0)
    write_pgm(out / "fake_cam.pgm", up)
    print(f"wrote input / mask / heatmap for {fakes[pick].source_id} to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
