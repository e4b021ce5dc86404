"""Criterion 6/7/8 pilot: 3 seeds x {baseline, core} plus l1/l2 and CAM stats."""
import time

import numpy as np

from twoview.augment import RngStream, derive_seed, dfdc_selim
from twoview.imgops import bilinear_resize
from twoview.metrics import ScoredSet, auc
from twoview.model import ModelConfig, cam, encoder_forward, init_params
from twoview.ndgrad import Tensor
from twoview.synthdata import Sample, gen_dataset
from twoview.trainer import (
    TrainConfig, cross_view_distance, evaluate, params_from_checkpoint, score_samples, train,
)

CHANNELS = (8, 16, 32, 64)
LR = 3e-3
PAIRS = 8
PROBE = "raaug"


def shifted_copy(samples, shift_seed):
    out = []
    for i, s in enumerate(samples):
        img = dfdc_selim(s.image, RngStream(shift_seed, 0, i, 0))
        out.append(Sample(image=img, label=s.label, mask=s.mask, source_id=s.source_id))
    return out


def disk_dilate(mask, r):
    out = mask.copy()
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy * dy + dx * dx <= r * r:
                out |= np.roll(np.roll(mask, dy, 0), dx, 1)
    return out


def cam_hits(enc, cls, samples, size):
    """(hits, total, mean mask-area fraction) over correctly classified fakes."""
    fakes = [s for s in samples if s.label == 1]
    x = Tensor(np.stack([s.image for s in fakes]).transpose(0, 3, 1, 2))
    reps, maps = encoder_forward(x, enc)
    w, b = cls["classifier/weight"].data, cls["classifier/bias"].data
    logits = reps.data @ w.T + b
    correct = logits[:, 1] > logits[:, 0]
    hits = total = 0
    fracs = []
    for i, s in enumerate(fakes):
        fracs.append(s.mask.mean())
        if not correct[i]:
            continue
        heat = cam(maps.data[i], cls, class_index=1)
        up = bilinear_resize(heat[:, :, None], size, size)[:, :, 0]
        flat = int(np.argmax(up))
        yy, xx = divmod(flat, size)
        total += 1
        if disk_dilate(s.mask, 4)[yy, xx]:
            hits += 1
    return hits, total, float(np.mean(fracs))


t_all = time.time()
results = {}
for seed in (0, 1, 2):
    ds = gen_dataset(n_real=100, ratio=4, seed=seed)
    shift = shifted_copy(ds.test, derive_seed(seed, "shifted-test"))
    for alpha, tag in ((0.0, "base"), (1.0, "core")):
        t0 = time.time()
        cfg = TrainConfig(
            seed=seed, alpha=alpha, penalty="cos", aug="raaug",
            pairs_per_batch=PAIRS, max_epochs=30, patience=5, lr=LR,
            model=ModelConfig(input_size=64, channels=CHANNELS),
        )
        ckpt, hist = train(cfg, ds)
        enc, cls = params_from_checkpoint(ckpt)
        te = evaluate(enc, cls, ds.test).auc
        sh = auc(score_samples(enc, cls, shift))
        cvd = cross_view_distance(enc, ds.test, PROBE, seed=12345)
        dt = time.time() - t0
        results[(seed, tag)] = dict(te=te, sh=sh, cvd=cvd, epochs=len(hist.epochs), best=ckpt.epoch)
        print(f"seed {seed} {tag}: test {te:.3f} shifted {sh:.3f} cvd {cvd:.3e} "
              f"epochs {len(hist.epochs)} best {ckpt.epoch} ({dt:.0f}s)", flush=True)
        if tag == "core":
            h, n, frac = cam_hits(enc, cls, ds.test, 64)
            r_enc, r_cls = init_params(cfg.model, seed=derive_seed(seed, "rand-null"))
            rh, rn, _ = cam_hits(r_enc, r_cls, ds.test, 64)
            results[(seed, "cam")] = dict(h=h, n=n, frac=frac, rh=rh, rn=rn)
            print(f"  cam: core {h}/{n}  random {rh}/{rn}  mask frac {frac:.3f}", flush=True)

print("\ncriterion 6a (core cvd < 0.5x base cvd per seed):", flush=True)
for seed in (0, 1, 2):
    b, c = results[(seed, "base")]["cvd"], results[(seed, "core")]["cvd"]
    print(f"  seed {seed}: core {c:.3e} vs 0.5*base {0.5*b:.3e}  {'OK' if c < 0.5*b else 'FAIL'}")
b_mean = np.mean([results[(s, 'base')]['sh'] for s in (0, 1, 2)])
c_mean = np.mean([results[(s, 'core')]['sh'] for s in (0, 1, 2)])
wins = sum(results[(s, 'core')]['sh'] > results[(s, 'base')]['sh'] for s in (0, 1, 2))
print(f"criterion 6b: core mean {c_mean:.4f} vs base mean - 0.005 = {b_mean - 0.005:.4f}, wins {wins}/3")

# criterion 7: l1 and l2 complete with finite losses (short runs)
for pen in ("l1", "l2"):
    cfg = TrainConfig(
        seed=0, alpha=1.0, penalty=pen, aug="raaug",
        pairs_per_batch=PAIRS, max_epochs=6, patience=6, lr=LR,
        model=ModelConfig(input_size=64, channels=CHANNELS),
    )
    ckpt, hist = train(cfg, gen_dataset(n_real=100, ratio=4, seed=0))
    finite = all(np.isfinite([r.ce_loss, r.consistency_loss, r.val_auc]) for r in hist.epochs)
    print(f"criterion 7 {pen}: {len(hist.epochs)} epochs, finite={finite}", flush=True)

pooled_h = sum(results[(s, "cam")]["h"] for s in (0, 1, 2))
pooled_n = sum(results[(s, "cam")]["n"] for s in (0, 1, 2))
pooled_rh = sum(results[(s, "cam")]["rh"] for s in (0, 1, 2))
pooled_rn = sum(results[(s, "cam")]["rn"] for s in (0, 1, 2))
frac_mean = np.mean([results[(s, "cam")]["frac"] for s in (0, 1, 2)])
print(f"criterion 8: core {pooled_h}/{pooled_n} = {pooled_h/max(pooled_n,1):.2f} (need >= 0.50); "
      f"random {pooled_rh}/{pooled_rn} = {pooled_rh/max(pooled_rn,1):.2f} "
      f"(need <= {frac_mean + 0.10:.2f})")
print(f"total wall time {time.time() - t_all:.0f}s")
