"""Consistency-penalty ablation: cosine vs l1 vs l2 at fixed alpha.

Trains three miniature models that differ only in the penalty applied to the
two views' representations, then reports test AUC and the measured
cross-view distance.  The cosine form operates on directions, the lp forms
on raw coordinates; all should drive the view pair together, none should
break training.  The no-penalty baseline is alpha = 0 (see alpha_sweep.py).
"""

import time

from twoview.model import ModelConfig
from twoview.synthdata import gen_dataset
from twoview.trainer import (
    TrainConfig,
    cross_view_distance,
    evaluate,
    params_from_checkpoint,
    train,
)

PENALTIES = ("cos", "l1", "l2")


def main():
    dataset = gen_dataset(n_real=40, ratio=2, seed=5)
    print(f"{'penalty':8s} {'test auc':>9s} {'cross-view dist':>16s} {'seconds':>8s}")
    for penalty in PENALTIES:
        config = TrainConfig(
            seed=5,
            alpha=1.0,
            penalty=penalty,
            aug="raaug",
            pairs_per_batch=8,
            max_epochs=10,
            patience=10,
            lr=3e-3,
            model=ModelConfig(input_size=64, channels=(8, 16, 32, 64)),
        )
        t0 = time.time()
        ckpt, _ = train(config, dataset)
        enc, cls = params_from_checkpoint(ckpt)
        auc = evaluate(enc, cls, dataset.test).auc
        cvd = cross_view_distance(enc, dataset.test, "raaug", seed=999)
        print(f"{penalty:8s} {auc:9.3f} {cvd:16.3e} {time.time() - t0:8.1f}")


if __name__ == "__main__":
    main()
