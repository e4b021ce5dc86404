"""Tests for the batch consistency penalties and the batch weighted CE.

Single-pair properties are checked on batches of one ([1, d] rows, length-1
views): both losses sum over pairs, so a batch of one is the pair loss.
"""

import numpy as np
import pytest

from twoview.losses import batch_ce, batch_consistency
from twoview.ndgrad import (
    ContractError,
    DegenerateVectorError,
    ShapeError,
    Tensor,
    finite_diff_grad,
)

import oracles


def vec(arr, rg=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


def row(arr, rg=False):
    """One [1, d] batch row."""
    return vec(np.asarray(arr, dtype=np.float64)[None], rg)


def pair_penalty(a, b, kind="cos"):
    return batch_consistency(row(a), row(b), kind).item()


def pair_ce(p, y, weights=(4.0, 1.0)):
    """CE of one view: a batch of one pair whose two views agree, halved."""
    return batch_ce(vec([p]), vec([p]), np.array([y]), weights).item() / 2.0


class TestCosConsistency:
    def test_identical_direction_zero(self):
        f = [0.3, -0.2, 1.5]
        assert abs(pair_penalty(f, [0.6, -0.4, 3.0])) < 1e-12
        assert pair_penalty(f, f) < 1e-12

    def test_orthogonal_gives_one(self):
        assert abs(pair_penalty([1.0, 0.0], [0.0, 2.0]) - 1.0) < 1e-12

    def test_opposite_gives_four(self):
        assert abs(pair_penalty([0.5, -1.0, 2.0], [-0.5, 1.0, -2.0]) - 4.0) < 1e-12

    def test_range_symmetry_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.uniform(-1, 1, 6)
            b = rng.uniform(-1, 1, 6)
            val = pair_penalty(a, b)
            assert 0.0 <= val <= 4.0
            assert abs(val - pair_penalty(b, a)) < 1e-12
            s, t = rng.uniform(0.1, 10, 2)
            assert abs(val - pair_penalty(s * a, t * b)) < 1e-12

    def test_gradient_orthogonal_to_input(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f1 = row(rng.uniform(-1, 1, 8), rg=True)
            f2 = row(rng.uniform(-1, 1, 8))
            batch_consistency(f1, f2, "cos").backward()
            g = f1.grad[0]
            bound = 1e-9 * np.linalg.norm(g) * np.linalg.norm(f1.data)
            assert abs(np.dot(g, f1.data[0])) <= max(bound, 1e-300)

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVectorError):
            pair_penalty([0.0, 0.0], [1.0, 0.0])


class TestL1L2:
    def test_zero_at_equality(self):
        f = [1.0, 2.0]
        assert pair_penalty(f, f, "l1") == 0.0
        assert pair_penalty(f, f, "l2") == 0.0

    def test_hand_values(self):
        f1, f2 = [1.0, 0.0], [0.0, 1.0]
        assert abs(pair_penalty(f1, f2, "l1") - 1.0) < 1e-15
        assert abs(pair_penalty(f1, f2, "l2") - 1.0) < 1e-15

    def test_homogeneity_distinguishes_penalties(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        l1 = pair_penalty(a, b, "l1")
        l2 = pair_penalty(a, b, "l2")
        assert abs(pair_penalty(2 * a, 2 * b, "l1") - 2 * l1) < 1e-12
        assert abs(pair_penalty(2 * a, 2 * b, "l2") - 4 * l2) < 1e-12
        cos = pair_penalty(a, b)
        assert abs(pair_penalty(2 * a, 2 * b) - cos) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            batch_consistency(row([1.0, 2.0]), row([1.0, 2.0, 3.0]), "l1")


def rowwise_reference(kind, F1, F2):
    """Plain numpy per-row penalties, written independently of the library."""
    if kind == "cos":
        cos = (F1 * F2).sum(axis=1) / (np.linalg.norm(F1, axis=1) * np.linalg.norm(F2, axis=1))
        return (1.0 - cos) ** 2
    if kind == "l1":
        return np.abs(F1 - F2).mean(axis=1)
    return ((F1 - F2) ** 2).mean(axis=1)


class TestBatchConsistency:
    @pytest.mark.parametrize("kind", ["cos", "l1", "l2"])
    def test_equals_sum_of_pairs(self, kind):
        rng = np.random.default_rng(3)
        F1 = rng.uniform(0.1, 1, (3, 6))
        F2 = rng.uniform(0.1, 1, (3, 6))
        batch = batch_consistency(vec(F1), vec(F2), kind).item()
        assert abs(batch - rowwise_reference(kind, F1, F2).sum()) < 1e-12

    def test_identical_batches_zero(self):
        F = vec(np.random.default_rng(4).uniform(0.1, 1, (4, 5)))
        assert batch_consistency(F, F, "cos").item() < 1e-12

    def test_single_pair_reduces_to_per_pair(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0.1, 1, 7), rng.uniform(0.1, 1, 7)
        batch = batch_consistency(vec(a[None]), vec(b[None]), "cos").item()
        assert abs(batch - rowwise_reference("cos", a[None], b[None])[0]) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            batch_consistency(vec(np.ones((1, 2))), vec(np.ones((1, 2))), "hinge")


class TestWeightedCe:
    def test_hand_values(self):
        assert abs(pair_ce(0.5, 1, (1.0, 1.0)) - np.log(2.0)) < 1e-12
        assert abs(pair_ce(0.5, 0, (4.0, 1.0)) - 4.0 * np.log(2.0)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        assert pair_ce(1.0 - 1e-13, 1) < 1e-11
        assert pair_ce(1e-13, 0) < 4e-11

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(pair_ce(0.0, 1))
        assert np.isfinite(pair_ce(1.0, 0))

    def test_monotonicity(self):
        ps = np.linspace(0.01, 0.99, 25)
        fake_losses = [pair_ce(p, 1) for p in ps]
        real_losses = [pair_ce(p, 0) for p in ps]
        assert all(a > b for a, b in zip(fake_losses, fake_losses[1:]))
        assert all(a < b for a, b in zip(real_losses, real_losses[1:]))

    def test_bad_label(self):
        with pytest.raises(ContractError):
            pair_ce(0.5, 2)


class TestBatchCe:
    def test_equals_loop_of_per_sample_calls(self):
        rng = np.random.default_rng(6)
        p1 = rng.uniform(0.05, 0.95, 5)
        p2 = rng.uniform(0.05, 0.95, 5)
        labels = np.array([0, 1, 1, 0, 1])
        batch = batch_ce(vec(p1), vec(p2), labels, (4.0, 1.0)).item()
        loop = sum(
            batch_ce(vec([p1[i]]), vec([p2[i]]), labels[i : i + 1], (4.0, 1.0)).item()
            for i in range(5)
        )
        assert abs(batch - loop) < 1e-12

    def test_single_pair_identical_views(self):
        # -w_fake * log(p) per view, two views
        batch = batch_ce(vec([0.3]), vec([0.3]), np.array([1])).item()
        assert abs(batch - 2 * -np.log(0.3)) < 1e-12

    def test_saturated_correct_is_near_zero(self):
        labels = np.array([1, 0])
        p = vec([1.0 - 1e-13, 1e-13])
        assert batch_ce(p, p, labels).item() < 1e-10

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            batch_ce(vec([0.5]), vec([0.5, 0.5]), np.array([1]))


class TestLossGradients:
    def test_fd_check_all_penalties(self):
        rng = np.random.default_rng(8)
        F1 = Tensor(rng.uniform(0.2, 1.0, (3, 5)), requires_grad=True)
        F2 = Tensor(rng.uniform(0.2, 1.0, (3, 5)), requires_grad=True)
        for kind in ("cos", "l1", "l2"):
            if kind == "l1":
                # Keep the difference away from zero so |.| is smooth.
                F2.data = F1.data + np.sign(rng.uniform(-1, 1, (3, 5))) * rng.uniform(
                    0.05, 0.3, (3, 5)
                )
            for p in (F1, F2):
                p.zero_grad()
            batch_consistency(F1, F2, kind).backward()
            analytic = [F1.grad.copy(), F2.grad.copy()]
            numeric = finite_diff_grad(
                lambda: batch_consistency(F1, F2, kind).item(), [F1, F2], h=1e-5
            )
            for a, n in zip(analytic, numeric):
                assert oracles.rel_err(a, n) < 1e-6, kind

    def test_fd_check_batch_ce(self):
        rng = np.random.default_rng(9)
        P1 = Tensor(rng.uniform(0.1, 0.9, 4), requires_grad=True)
        P2 = Tensor(rng.uniform(0.1, 0.9, 4), requires_grad=True)
        labels = np.array([0, 1, 0, 1])
        batch_ce(P1, P2, labels).backward()
        analytic = [P1.grad.copy(), P2.grad.copy()]
        numeric = finite_diff_grad(lambda: batch_ce(P1, P2, labels).item(), [P1, P2], h=1e-6)
        for a, n in zip(analytic, numeric):
            assert oracles.rel_err(a, n) < 1e-6
