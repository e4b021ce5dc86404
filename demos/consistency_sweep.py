"""Consistency sweep: the balance weight alpha and the penalty's form.

Trains one miniature model per (alpha, penalty) row and reports test AUC
plus measured cross-view distance.  alpha = 0 is the plain cross-entropy
baseline; large alpha buys view invariance at the price of drowning the
classification gradient.  The l1 and l2 rows change only the penalty: the
cosine form operates on directions, the lp forms on raw coordinates; all
should drive the view pair together, none should break training.
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

ROWS = (
    (0.0, "cos"),
    (1.0, "cos"),
    (2.0, "cos"),
    (5.0, "cos"),
    (10.0, "cos"),
    (100.0, "cos"),
    (1.0, "l1"),
    (1.0, "l2"),
)


def main():
    dataset = gen_dataset(n_real=40, ratio=2, seed=5)
    print(f"{'alpha':>6s} {'penalty':8s} {'test auc':>9s} {'cross-view dist':>16s} {'seconds':>8s}")
    for alpha, penalty in ROWS:
        config = TrainConfig(
            seed=5,
            alpha=alpha,
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
        print(f"{alpha:6g} {penalty:8s} {auc:9.3f} {cvd:16.3e} {time.time() - t0:8.1f}")


if __name__ == "__main__":
    main()
