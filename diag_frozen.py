"""Classifier-only dynamics: freeze the encoder at init, train the head.

Grid over augmentation kind and batch size.  The head's achievable val AUC
under each condition bounds what full training can ignite from: the head
gradient at the balanced plateau points along the class-mean difference,
and its per-coordinate sign quality is set by signal size vs augmentation
noise / sqrt(batch).
"""

import sys
import time

sys.path.insert(0, "src")

import numpy as np

from twoview.augment import RngStream, apply_augment, derive_seed
from twoview.losses import batch_ce
from twoview.model import ModelConfig, encoder_forward, classifier_forward, init_params
from twoview.metrics import ScoredSet, auc
from twoview.ndgrad import Tensor
from twoview.synthdata import gen_dataset
from twoview.trainer import Adam

ds = gen_dataset(n_real=100, ratio=4, seed=1000, size=64)
cfg = ModelConfig(input_size=64, channels=(8, 16, 32, 64))
aug_cache: dict = {}


def rep_of(enc, images):
    batch = np.stack(images).transpose(0, 3, 1, 2)
    reps, _ = encoder_forward(Tensor(batch, requires_grad=False), enc)
    return reps.data


def run(aug_kind: str, batch_views: int, epochs: int = 10, lr: float = 3e-3):
    enc, cls = init_params(cfg, seed=0)
    val_reps = rep_of(enc, [s.image for s in ds.val])
    val_labels = np.array([s.label for s in ds.val])
    opt = Adam(cls, lr=lr)
    order_gen = np.random.default_rng(derive_seed(0, "order"))
    train = list(ds.train)
    t0 = time.time()
    best = 0.0
    for epoch in range(epochs):
        order = order_gen.permutation(len(train))
        for start in range(0, len(order) - batch_views + 1, batch_views):
            views, labels = [], []
            for j in order[start : start + batch_views]:
                s = train[j]
                key = (aug_kind, epoch, int(j))
                if key not in aug_cache:
                    aug_cache[key] = apply_augment(
                        s.image, aug_kind, RngStream(0, epoch=epoch, index=int(j), view=0)
                    )
                views.append(aug_cache[key])
                labels.append(s.label)
            reps = Tensor(rep_of(enc, views), requires_grad=False)
            probs = classifier_forward(reps, cls)
            loss = batch_ce(probs, probs, np.array(labels))
            opt.zero_grad()
            loss.backward()
            opt.step()
        val_probs = classifier_forward(Tensor(val_reps, requires_grad=False), cls).data
        a = auc(ScoredSet(val_probs, val_labels))
        best = max(best, a)
        print(f"  {aug_kind:9s} B={batch_views:3d} ep{epoch} val={a:.4f}", flush=True)
    print(f"{aug_kind} B={batch_views}: best {best:.4f} ({time.time()-t0:.0f}s)", flush=True)


run("none", 16)
run("raaug", 64)
run("re", 16)
run("randcrop", 16)
run("raaug", 16, epochs=3)  # sanity: should match the earlier 0.545 plateau
