"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with -v to get one pass/fail line per criterion.  Criteria 6-8 (the
consistency-vs-baseline experiment, the l1/l2 penalties, CAM localization)
are not here yet; ROADMAP.md items 2 and 3 track them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import auc_pair_count, group_norm_ref, rel_err, steps_cross_a_kink, tdr_exhaustive, trapezoid_area
from twoview.augment import CROP, RngStream, _sample_rect, apply_augment
from twoview.cli import main as cli_main
from twoview.losses import batch_ce, batch_consistency
from twoview.metrics import ScoredSet, auc, roc_points, tdr_at_fdr
from twoview.model import (
    ModelConfig,
    classifier_forward,
    encoder_forward,
    init_params,
    named_parameters,
)
from twoview.ndgrad import (
    Adam,
    Tensor,
    avg_pool2,
    conv2d,
    dense,
    depthwise_conv2d,
    finite_diff_grad,
    global_avg_pool,
    group_norm_relu,
    l2_normalize,
    pointwise_conv2d,
    relu,
    separable_conv2d,
    softmax,
)
from twoview.trainer import (
    CheckpointError,
    EarlyStopper,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
    snapshot_checkpoint,
)

# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences
# ---------------------------------------------------------------------------

H_FD = 1e-4
TOL_GRAD = 1e-4
# Inputs to standalone kinked ops (relu, abs, clamp) keep this distance from
# the kink so the h = 1e-4 probe cannot cross it.
KINK_MARGIN = 1e-2
# Inside the full network a batch with every pre-activation 1e-2 from a kink
# does not exist (the minimum over ~1e4 units is ~1e-5).  A crossing once
# moved the difference quotient by a relative ~2.5e-5, inside tolerance, but
# GroupNorm downstream of the stem scales a stem unit's slope change by its
# rstd (up to ~40 here), so one crossing now costs up to ~1e-2.  The full
# loss is therefore probed on a batch where no +-h step crosses any kink.


def _away_from(rng, shape, gap: float, lo: float = -1.0, hi: float = 1.0):
    """Uniform draw on [lo, hi] with |value| >= gap (for kink-bearing ops)."""
    x = rng.uniform(gap, hi, shape) * np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return np.clip(x, lo, hi) if lo < 0 else np.abs(x)


def _op_cases(rng):
    """(name, params dict, forward) triples covering every differentiable op.

    Each forward projects the op output onto a fixed random direction so the
    upstream gradient is non-uniform.
    """
    cases = []

    def add(name, params, forward):
        cases.append((name, params, forward))

    def proj(t: Tensor, r: np.ndarray) -> Tensor:
        return (t * Tensor(r)).sum()

    x34 = rng.normal(0, 1, (3, 4))
    r34 = rng.normal(0, 1, (3, 4))
    y34 = rng.normal(0, 1, (3, 4))

    p = {"x": Tensor(x34.copy(), requires_grad=True), "y": Tensor(y34.copy(), requires_grad=True)}
    add("add", p, lambda p=p: proj(p["x"] + p["y"], r34))
    p = {"x": Tensor(x34.copy(), requires_grad=True), "y": Tensor(y34.copy(), requires_grad=True)}
    add("sub", p, lambda p=p: proj(p["x"] - p["y"], r34))
    p = {"x": Tensor(x34.copy(), requires_grad=True)}
    add("neg", p, lambda p=p: proj(-p["x"], r34))
    p = {"x": Tensor(x34.copy(), requires_grad=True), "y": Tensor(y34.copy(), requires_grad=True)}
    add("mul", p, lambda p=p: proj(p["x"] * p["y"], r34))
    p = {"x": Tensor(x34.copy(), requires_grad=True)}
    add("mul_scalar", p, lambda p=p: proj(p["x"] * 2.5, r34))
    p = {"x": Tensor(np.abs(x34) + 0.5, requires_grad=True)}
    add("pow_2", p, lambda p=p: proj(p["x"] ** 2, r34))
    p = {"x": Tensor(np.abs(x34) + 0.5, requires_grad=True)}
    add("pow_half", p, lambda p=p: proj(p["x"] ** 0.5, r34))
    p = {"x": Tensor(_away_from(rng, (3, 4), KINK_MARGIN), requires_grad=True)}
    add("abs", p, lambda p=p: proj(p["x"].abs(), r34))
    p = {"x": Tensor(np.abs(x34) + 0.5, requires_grad=True)}
    add("log", p, lambda p=p: proj(p["x"].log(), r34))
    clamp_in = rng.uniform(0.0, 1.0, (3, 4))
    clamp_in = np.where(np.abs(clamp_in - 0.2) < KINK_MARGIN, 0.5, clamp_in)
    clamp_in = np.where(np.abs(clamp_in - 0.8) < KINK_MARGIN, 0.5, clamp_in)
    p = {"x": Tensor(clamp_in, requires_grad=True)}
    add("clamp", p, lambda p=p: proj(p["x"].clamp(0.2, 0.8), r34))
    p = {"x": Tensor(x34.copy(), requires_grad=True)}
    add("sum_axis0", p, lambda p=p: proj(p["x"].sum(axis=0), r34[0]))
    p = {"x": Tensor(x34.copy(), requires_grad=True)}
    add("mean_axis1", p, lambda p=p: proj(p["x"].mean(axis=1), r34[:, 0]))
    p = {"x": Tensor(x34.copy(), requires_grad=True)}
    add("getitem", p, lambda p=p: proj(p["x"][1:, ::2], r34[1:, ::2]))
    p = {"x": Tensor(_away_from(rng, (3, 4), KINK_MARGIN), requires_grad=True)}
    add("relu", p, lambda p=p: proj(relu(p["x"]), r34))

    rx = rng.normal(0, 1, (2, 5))
    p = {
        "x": Tensor(rx.copy(), requires_grad=True),
        "w": Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True),
        "b": Tensor(rng.normal(0, 1, 3), requires_grad=True),
    }
    r23 = rng.normal(0, 1, (2, 3))
    add("dense", p, lambda p=p: proj(dense(p["x"], p["w"], p["b"]), r23))

    xc = rng.uniform(0, 1, (2, 3, 6, 6))
    p = {
        "x": Tensor(xc.copy(), requires_grad=True),
        "k": Tensor(rng.normal(0, 0.4, (4, 3, 3, 3)), requires_grad=True),
        "b": Tensor(rng.normal(0, 0.1, 4), requires_grad=True),
    }
    rc = rng.normal(0, 1, (2, 4, 6, 6))
    add("conv2d_pad1", p, lambda p=p: proj(conv2d(p["x"], p["k"], p["b"], pad=1), rc))
    p = {
        "x": Tensor(xc.copy(), requires_grad=True),
        "k": Tensor(rng.normal(0, 0.4, (4, 3, 3, 3)), requires_grad=True),
        "b": Tensor(rng.normal(0, 0.1, 4), requires_grad=True),
    }
    rs = rng.normal(0, 1, (2, 4, 2, 2))
    add("conv2d_stride2", p, lambda p=p: proj(conv2d(p["x"], p["k"], p["b"], stride=2), rs))
    p = {
        "x": Tensor(xc.copy(), requires_grad=True),
        "k": Tensor(rng.normal(0, 0.4, (3, 3, 3)), requires_grad=True),
    }
    rd = rng.normal(0, 1, (2, 3, 6, 6))
    add("depthwise_pad1", p, lambda p=p: proj(depthwise_conv2d(p["x"], p["k"], pad=1), rd))
    p = {
        "x": Tensor(xc.copy(), requires_grad=True),
        "w": Tensor(rng.normal(0, 0.4, (5, 3)), requires_grad=True),
        "b": Tensor(rng.normal(0, 0.1, 5), requires_grad=True),
    }
    rp = rng.normal(0, 1, (2, 5, 6, 6))
    add("pointwise", p, lambda p=p: proj(pointwise_conv2d(p["x"], p["w"], p["b"]), rp))
    p = {
        "x": Tensor(xc.copy(), requires_grad=True),
        "dw": Tensor(rng.normal(0, 0.4, (3, 3, 3)), requires_grad=True),
        "pw": Tensor(rng.normal(0, 0.4, (5, 3)), requires_grad=True),
        "b": Tensor(rng.normal(0, 0.1, 5), requires_grad=True),
    }
    rsep = rng.normal(0, 1, (2, 5, 6, 6))
    add(
        "separable",
        p,
        lambda p=p: proj(separable_conv2d(p["x"], p["dw"], p["pw"], p["b"]), rsep),
    )
    p = {"x": Tensor(xc.copy(), requires_grad=True)}
    rpool = rng.normal(0, 1, (2, 3, 3, 3))
    add("avg_pool2", p, lambda p=p: proj(avg_pool2(p["x"]), rpool))
    p = {"x": Tensor(xc.copy(), requires_grad=True)}
    rg = rng.normal(0, 1, (2, 3))
    add("global_avg_pool", p, lambda p=p: proj(global_avg_pool(p["x"]), rg))
    p = {"x": Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)}
    rsm = rng.normal(0, 1, (3, 5))
    add("softmax", p, lambda p=p: proj(softmax(p["x"]), rsm))
    p = {"x": Tensor(rng.normal(0, 1, (3, 6)) + 2.0, requires_grad=True)}
    rn = rng.normal(0, 1, (3, 6))
    add("l2_normalize", p, lambda p=p: proj(l2_normalize(p["x"]), rn))
    # its own generator, so the draws of the cases after it stay as they were;
    # every pre-activation keeps KINK_MARGIN from the kink
    gn_rng = np.random.default_rng(18)
    while True:
        xg, gg, bg = gn_rng.normal(0, 1, (2, 4, 3, 3)), gn_rng.uniform(0.5, 1.5, 4), gn_rng.uniform(-0.5, 0.5, 4)
        if np.abs(group_norm_ref(xg, gg, bg, 2)).min() >= KINK_MARGIN:
            break
    p = {name: Tensor(v, requires_grad=True) for name, v in (("x", xg), ("gamma", gg), ("beta", bg))}
    rgn = gn_rng.normal(0, 1, (2, 4, 3, 3))
    add("group_norm_relu", p, lambda p=p: proj(group_norm_relu(p["x"], p["gamma"], p["beta"], 2), rgn))

    v = rng.normal(0, 1, (2, 8))
    w = rng.normal(0, 1, (2, 8))
    for kind in ("cos", "l1", "l2"):
        f2 = w.copy()
        if kind == "l1":
            sep = np.abs(v - w) < KINK_MARGIN  # keep |f1 - f2| off the abs kink
            f2 = np.where(sep, w + 3 * KINK_MARGIN, w)
        p = {"f1": Tensor(v.copy(), requires_grad=True), "f2": Tensor(f2, requires_grad=True)}
        add(
            f"batch_consistency_{kind}",
            p,
            lambda p=p, kind=kind: batch_consistency(p["f1"], p["f2"], kind),
        )
    # one real and one fake pair, so both class weights are probed
    p = {
        "p1": Tensor(np.array([0.37, 0.37]), requires_grad=True),
        "p2": Tensor(np.array([0.61, 0.61]), requires_grad=True),
    }
    add("batch_ce", p, lambda p=p: batch_ce(p["p1"], p["p2"], np.array([0, 1])))

    return cases


def _full_loss_setup():
    """Tiny model plus a kink-safe random 4-pair micro-batch."""
    config = ModelConfig(input_size=16, channels=(4, 6))
    enc, cls = init_params(config, seed=29)
    params = named_parameters(enc, cls)
    for attempt in range(50):
        rng = np.random.default_rng(1000 + attempt)
        batch = Tensor(rng.uniform(0.05, 0.95, (8, 3, 16, 16)))
        if not steps_cross_a_kink(batch, enc, params, H_FD):
            break
    else:
        raise AssertionError("no kink-safe micro-batch found in 50 draws")
    labels = np.array([0, 1, 0, 1])

    def full_loss() -> Tensor:
        reps, _ = encoder_forward(batch, enc)
        probs = classifier_forward(reps, cls)  # per-sample P(fake), both views stacked
        ce = batch_ce(probs[:4], probs[4:], labels)
        consistency = batch_consistency(reps[:4], reps[4:], "cos")
        return ce + consistency * 1.0  # alpha = 1, as train_step combines them

    return params, full_loss


def test_01_gradients_match_finite_differences():
    """Every op and the full two-view loss vs central differences, h=1e-4."""
    t0 = time.monotonic()
    rng = np.random.default_rng(17)

    for name, params, forward in _op_cases(rng):
        for p in params.values():
            p.zero_grad()
        forward().backward()
        fd = finite_diff_grad(lambda f=forward: f().item(), params, h=H_FD)
        for key, p in params.items():
            err = rel_err(p.grad, fd[key])
            assert err < TOL_GRAD, f"{name}/{key}: gradient error {err:.2e}"

    params, full_loss = _full_loss_setup()
    full_loss().backward()
    fd = finite_diff_grad(lambda: full_loss().item(), params, h=H_FD)
    for key, p in params.items():
        err = rel_err(p.grad, fd[key])
        assert err < TOL_GRAD, f"full loss/{key}: gradient error {err:.2e}"

    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 2: consistency-loss invariants
# ---------------------------------------------------------------------------


def _cos_penalty(a, b) -> float:
    """The cosine penalty of one pair: a batch of one [1, d] row per view."""
    return batch_consistency(Tensor(a[None]), Tensor(b[None]), "cos").item()


def test_02_consistency_loss_invariants():
    """Range, zero-iff-aligned, symmetry, scale invariance, gradient orthogonality."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(2, 33))
        v1 = rng.normal(0, 1, d)
        v2 = rng.normal(0, 1, d)

        f1 = Tensor(v1[None], requires_grad=True)
        loss = batch_consistency(f1, Tensor(v2[None]), "cos")
        value = loss.item()
        assert 0.0 <= value <= 4.0

        # symmetric, and invariant to positive rescaling of either side
        assert _cos_penalty(v2, v1) == value
        a, b = rng.uniform(0.1, 10, 2)
        scaled = _cos_penalty(a * v1, b * v2)
        assert abs(scaled - value) < 1e-12

        # the penalty depends on directions only, so its gradient has no
        # radial component
        loss.backward()
        radial = abs(float(np.dot(f1.grad[0], v1)))
        assert radial <= 1e-9 * np.linalg.norm(f1.grad) * np.linalg.norm(v1)

    # zero iff the directions coincide
    rng2 = np.random.default_rng(24)
    for _ in range(100):
        d = int(rng2.integers(2, 33))
        v = rng2.normal(0, 1, d)
        aligned = _cos_penalty(v, float(rng2.uniform(0.1, 10)) * v)
        assert aligned < 1e-12
        u = rng2.normal(0, 1, d)
        cos_uv = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        if cos_uv < 0.999:  # genuinely different directions
            assert _cos_penalty(v, u) > 0.0

    # extremes: opposite directions hit the upper bound
    v = np.array([1.0, -2.0, 0.5])
    assert abs(_cos_penalty(v, -v) - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: metrics agree with brute-force oracles
# ---------------------------------------------------------------------------


def _random_scored_set(rng, n_max: int) -> ScoredSet:
    n = int(rng.integers(4, n_max + 1))
    labels = np.zeros(n, dtype=int)
    labels[: int(rng.integers(1, n))] = 1
    rng.shuffle(labels)
    if rng.uniform() < 0.5:
        scores = rng.choice(np.linspace(0, 1, 7), size=n)  # heavy ties
    else:
        scores = rng.uniform(0, 1, n)
        dup = int(rng.integers(0, n // 2 + 1))  # inject exact duplicates
        if dup:
            scores[:dup] = scores[rng.integers(0, n, dup)]
    return ScoredSet(scores=scores, labels=labels)


def test_03_metrics_match_oracles():
    """auc/tdr equal brute-force pair counting and threshold sweeps exactly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(31)

    for _ in range(200):
        ss = _random_scored_set(rng, n_max=200)
        assert auc(ss) == auc_pair_count(ss.scores, ss.labels)
        pts = roc_points(ss)
        assert abs(trapezoid_area(pts) - auc(ss)) < 1e-12

    for _ in range(1000):
        ss = _random_scored_set(rng, n_max=100)
        target = float(rng.choice([0.001, 0.01, 0.05, 0.1, 0.25]))
        assert tdr_at_fdr(ss, target) == tdr_exhaustive(ss.scores, ss.labels, target)

    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4: augmentation draw statistics
# ---------------------------------------------------------------------------


def test_04_augmentation_statistics():
    """Realized RE/crop geometry stays in range; RaAug branches are uniform."""
    t0 = time.monotonic()
    n_draws = 10_000
    side = 64
    base = np.full((side, side, 3), 0.5)

    misses = 0
    for k in range(n_draws):
        out = apply_augment(base, "re", RngStream(51, index=k))
        changed = np.nonzero((out != base).any(axis=2))
        if changed[0].size == 0:
            misses += 1
            continue
        rh = int(changed[0].max() - changed[0].min() + 1)
        rw = int(changed[1].max() - changed[1].min() + 1)
        frac = rh * rw / (side * side)
        assert 0.02 <= frac <= 0.2, f"draw {k}: erased fraction {frac:.4f}"
        assert 0.5 <= rh / rw <= 2.0, f"draw {k}: erased aspect {rh / rw:.3f}"
    assert misses < n_draws * 0.01  # sampler rarely exhausts its attempts

    for k in range(n_draws):
        gen = RngStream(52, index=k).generator()
        rect = _sample_rect(side, side, gen, CROP)
        assert rect is not None
        _, _, ch, cw = rect
        frac = ch * cw / (side * side)
        assert 1.0 / 1.3 <= frac <= 1.0, f"draw {k}: crop fraction {frac:.4f}"

    # Branch frequencies: the strategy consumes one uniform first, so the
    # branch a draw lands in is read off the same addressed stream.
    counts = np.zeros(3, dtype=int)
    for k in range(n_draws):
        u = RngStream(53, index=k).generator().random()
        counts[min(int(u * 3), 2)] += 1
    freqs = counts / n_draws
    assert np.all(np.abs(freqs - 1.0 / 3.0) <= 0.02), f"branch frequencies {freqs}"

    # Spot-check that outputs really follow the predicted branch.
    small = np.ascontiguousarray(base[:32, :32])
    for k in range(300):
        stream = RngStream(53, index=k)
        u = stream.generator().random()
        out = apply_augment(small, "raaug", stream)
        frac = float(((out != small).any(axis=2)).mean())
        if u < 1.0 / 3.0:
            assert frac == 0.0
        elif u < 2.0 / 3.0:
            assert 0.0 < frac <= 0.21
        else:
            assert frac > 0.21 or np.array_equal(out, small)  # full-area crop is identity

    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 5: training is bitwise deterministic
# ---------------------------------------------------------------------------


def test_05_training_is_bitwise_deterministic(tmp_path):
    """Same config, same seed, two runs: identical checkpoint and history bytes."""
    data_dir = tmp_path / "data"
    rc = cli_main(
        ["gen-data", "--out", str(data_dir), "--seed", "7", "--n-real", "12", "--ratio", "1", "--size", "32"]
    )
    assert rc == 0

    def run(out: Path) -> tuple[bytes, bytes]:
        rc = cli_main(
            [
                "train",
                "--out", str(out),
                "--data", str(data_dir),
                "--seed", "11",
                "--epochs", "3",
                "--pairs-per-batch", "4",
                "--channels", "4,6",
                "--lr", "0.001",
            ]
        )
        assert rc == 0
        return (out / "model.ckpt").read_bytes(), (out / "history.csv").read_bytes()

    ckpt_a, hist_a = run(tmp_path / "run_a")
    ckpt_b, hist_b = run(tmp_path / "run_b")
    assert ckpt_a == ckpt_b
    assert hist_a == hist_b


# ---------------------------------------------------------------------------
# criterion 9: early-stopping contract
# ---------------------------------------------------------------------------


def test_09_early_stopping_contract():
    """Stops after exactly 5 non-improving epochs; keeps the best epoch."""
    stopper = EarlyStopper(patience=5)
    sequence = [0.50, 0.60, 0.58, 0.59, 0.60, 0.55, 0.52]
    improvements = []
    stopped_at = None
    for epoch, value in enumerate(sequence, start=1):
        improvements.append(stopper.update(value))
        if stopper.should_stop:
            stopped_at = epoch
            break
    # epochs 3-7 do not improve on 0.60 (ties are not improvements), so the
    # fifth consecutive miss lands exactly on epoch 7, and the last call that
    # returned True, the best epoch, is epoch 2
    assert improvements == [True, True, False, False, False, False, False]
    assert stopped_at == 7

    # one miss short of the patience budget must keep going
    stopper = EarlyStopper(patience=5)
    for value in [0.5, 0.4, 0.4, 0.4, 0.4]:
        stopper.update(value)
    assert not stopper.should_stop
    # ...and an improvement resets the count, making epoch 6 the best
    assert stopper.update(0.6)
    assert not stopper.should_stop


# ---------------------------------------------------------------------------
# criterion 10: checkpoint round trips and corruption handling
# ---------------------------------------------------------------------------


def test_10_checkpoint_round_trip(tmp_path):
    """20 random models survive save->load bitwise; corrupt files raise."""
    rng = np.random.default_rng(41)
    for i in range(20):
        n_stages = int(rng.integers(1, 4))
        channels = tuple(int(rng.integers(2, 9)) for _ in range(n_stages + 1))
        config = ModelConfig(input_size=16, channels=channels)
        enc, cls = init_params(config, seed=int(rng.integers(0, 2**32)))
        params = named_parameters(enc, cls)
        opt = Adam(params, lr=1e-3)
        for p in params.values():  # one step so optimizer state is non-trivial
            p.grad = rng.normal(0, 1, p.shape)
        opt.step()

        ckpt = snapshot_checkpoint(
            enc, cls, opt, config, epoch=i + 1, best_val_auc=float(rng.uniform()), seed=i
        )
        path = tmp_path / f"model_{i}.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)

        assert loaded.config == ckpt.config
        assert loaded.epoch == ckpt.epoch
        assert loaded.best_val_auc == ckpt.best_val_auc
        assert loaded.seed == ckpt.seed
        enc2, cls2 = params_from_checkpoint(loaded)
        params2 = named_parameters(enc2, cls2)
        assert params.keys() == params2.keys()
        for name in params:
            a, b = params[name].data, params2[name].data
            assert a.dtype == b.dtype and np.array_equal(a, b), f"tensor {name} drifted"
        assert loaded.adam_t == opt.t
        for name in params:
            assert np.array_equal(opt.m[name], loaded.adam_m[name])
            assert np.array_equal(opt.v[name], loaded.adam_v[name])

    good = (tmp_path / "model_0.ckpt").read_bytes()

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(good[: len(good) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    flipped = tmp_path / "flipped.ckpt"
    body = bytearray(good)
    body[len(body) // 2] ^= 0xFF
    flipped.write_bytes(bytes(body))
    with pytest.raises(CheckpointError):
        load_checkpoint(flipped)

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    empty = tmp_path / "empty.ckpt"
    empty.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(empty)

    missing = tmp_path / "missing.ckpt"
    with pytest.raises(CheckpointError):
        load_checkpoint(missing)
