"""Tests for seed-addressable augmentations: determinism, locality, statistics."""

from collections import deque

import numpy as np
import pytest

from twoview.augment import (
    CORRUPT,
    CROP,
    ERASE,
    RngStream,
    ViewPair,
    _dfdc_selim_impl,
    _erase_rect,
    _ra_aug,
    _resized_crop,
    _sample_rect,
    apply_augment,
    dfdc_selim,
    make_pair,
)
from twoview.ndgrad import ContractError


class ScriptedGen:
    """Duck-typed generator whose first draws are scripted, then a real one."""

    def __init__(self, uniform=(), random=(), integers=(), seed=0):
        self.u = deque(uniform)
        self.r = deque(random)
        self.i = deque(integers)
        self.gen = np.random.default_rng(seed)

    def uniform(self, low=0.0, high=1.0, size=None):
        if self.u and size is None:
            return self.u.popleft()
        return self.gen.uniform(low, high, size)

    def random(self, size=None):
        if self.r and size is None:
            return self.r.popleft()
        return self.gen.random(size)

    def integers(self, low, high=None):
        if self.i:
            return self.i.popleft()
        return self.gen.integers(low, high)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)


def sample_image(seed=0, size=64):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, (size, size, 3))


class TestRngStream:
    def test_same_address_same_sequence(self):
        a = RngStream(seed=7, epoch=2, index=5, view=1)
        b = RngStream(seed=7, epoch=2, index=5, view=1)
        assert np.array_equal(a.generator().random(16), b.generator().random(16))

    def test_distinct_addresses_differ(self):
        base = RngStream(seed=7, epoch=2, index=5, view=1).generator().random(8)
        for other in (
            RngStream(8, 2, 5, 1),
            RngStream(7, 3, 5, 1),
            RngStream(7, 2, 6, 1),
            RngStream(7, 2, 5, 0),
        ):
            assert not np.array_equal(base, other.generator().random(8))

    def test_streams_look_independent(self):
        # Crude cross-correlation check over many sibling addresses.
        draws = np.array(
            [RngStream(seed=1, epoch=0, index=i, view=0).generator().random(4) for i in range(500)]
        )
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.15

    def test_negative_fields_rejected(self):
        with pytest.raises(ContractError):
            RngStream(seed=-1)
        with pytest.raises(ContractError):
            RngStream(seed=0, epoch=-2)


class TestSampleRect:
    # realized (rounded) geometry, checked against the module records'
    # ranges, which are spelled out here
    @pytest.mark.parametrize(
        "params,area,aspect,max_misses,seed,epoch",
        [
            (ERASE, (0.02, 0.2), (0.5, 2.0), 19, 5, 0),
            (CROP, (1.0 / 1.3, 1.0), (0.9, 1.1), 0, 6, 1),
        ],
        ids=["erase", "crop"],
    )
    def test_realized_stats_within_ranges(self, params, area, aspect, max_misses, seed, epoch):
        misses = 0
        for idx in range(2000):
            gen = RngStream(seed=seed, epoch=epoch, index=idx, view=0).generator()
            rect = _sample_rect(64, 64, gen, params)
            if rect is None:
                misses += 1
                continue
            _, _, rh, rw = rect
            assert area[0] <= (rh * rw) / 4096.0 <= area[1]
            assert aspect[0] <= rh / rw <= aspect[1]
        assert misses <= max_misses


class TestRandomErase:
    def test_deterministic_per_address(self):
        img = sample_image(1)
        rng = RngStream(seed=3, epoch=0, index=4, view=1)
        assert np.array_equal(apply_augment(img, "re", rng), apply_augment(img, "re", rng))

    def test_forced_rect_locality(self):
        img = sample_image(2)
        out = _erase_rect(img, (0, 0, 8, 8), np.random.default_rng(0))
        assert np.array_equal(out[8:, :], img[8:, :])
        assert np.array_equal(out[:, 8:], img[:, 8:])
        assert not np.array_equal(out[:8, :8], img[:8, :8])

    def test_changes_confined_to_sampled_rect(self):
        img = sample_image(3)
        for idx in range(50):
            rng = RngStream(seed=11, epoch=0, index=idx, view=0)
            out = apply_augment(img, "re", rng)
            rect = _sample_rect(64, 64, rng.generator(), ERASE)
            assert rect is not None
            top, left, rh, rw = rect
            outside = np.ones((64, 64), dtype=bool)
            outside[top : top + rh, left : left + rw] = False
            assert np.array_equal(out[outside], img[outside])

    def test_values_stay_valid(self):
        img = sample_image(4)
        out = apply_augment(img, "re", RngStream(seed=9))
        assert out.min() >= 0.0 and out.max() <= 1.0 and out.shape == img.shape


class TestRandomResizedCrop:
    def test_forced_full_crop_is_identity(self):
        img = sample_image(5)
        gen = ScriptedGen(uniform=[1.0, 0.0], integers=[0, 0])
        out = _resized_crop(img, gen, CROP)
        assert np.max(np.abs(out - img)) < 1e-12

    def test_constant_image_preserved(self):
        img = np.full((64, 64, 3), 0.6)
        out = apply_augment(img, "randcrop", RngStream(seed=2))
        np.testing.assert_allclose(out, 0.6, atol=1e-12)

    def test_deterministic_and_shape_preserving(self):
        img = sample_image(6)
        rng = RngStream(seed=8, index=3)
        a = apply_augment(img, "randcrop", rng)
        b = apply_augment(img, "randcrop", rng)
        assert np.array_equal(a, b) and a.shape == img.shape


class TestRaAug:
    def test_identity_branch(self):
        img = sample_image(7)
        out = _ra_aug(img, ScriptedGen(random=[0.1]), ERASE, CROP)
        assert np.array_equal(out, img)

    def test_erase_branch_locality(self):
        img = sample_image(8)
        out = _ra_aug(img, ScriptedGen(random=[0.5], seed=3), ERASE, CROP)
        diff = np.any(out != img, axis=2)
        rows = np.flatnonzero(diff.any(axis=1))
        cols = np.flatnonzero(diff.any(axis=0))
        changed_box = diff[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        assert changed_box.all()  # the changed region is one solid rectangle
        assert diff.sum() == changed_box.size

    def test_branch_frequencies(self):
        counts = {"id": 0, "re": 0, "crop": 0}
        n = 3000
        for idx in range(n):
            gen = RngStream(seed=10, epoch=0, index=idx, view=0).generator()
            u = gen.random()
            if u < 1 / 3:
                counts["id"] += 1
            elif u < 2 / 3:
                counts["re"] += 1
            else:
                counts["crop"] += 1
        for v in counts.values():
            assert abs(v / n - 1 / 3) < 0.05

    def test_deterministic(self):
        img = sample_image(9)
        rng = RngStream(seed=12, epoch=2, index=7, view=1)
        assert np.array_equal(apply_augment(img, "raaug", rng), apply_augment(img, "raaug", rng))


class TestDfdcSelim:
    def test_no_stage_fires_identity(self):
        img = sample_image(10)
        out = _dfdc_selim_impl(img, ScriptedGen(random=[0.9] * 5), CORRUPT)
        assert np.array_equal(out, img)

    def test_blur_sigma_zero_identity(self):
        img = sample_image(11)
        # Only the blur stage fires, with sigma forced to 0.
        gen = ScriptedGen(random=[0.9, 0.9, 0.1, 0.9, 0.9], uniform=[0.0])
        out = _dfdc_selim_impl(img, gen, CORRUPT)
        assert np.array_equal(out, img)

    def test_constant_survives_noise_free_realizations(self):
        img = np.full((64, 64, 3), 0.45)
        # Fire quality, blur, shift, scale; skip the noise stage.
        gen = ScriptedGen(random=[0.1, 0.9, 0.1, 0.1, 0.1], seed=5)
        out = _dfdc_selim_impl(img, gen, CORRUPT)
        np.testing.assert_allclose(out, 0.45, atol=1e-12)

    def test_deterministic_and_valid(self):
        img = sample_image(12)
        rng = RngStream(seed=13, epoch=1, index=2, view=0)
        a = dfdc_selim(img, rng)
        b = dfdc_selim(img, rng)
        assert np.array_equal(a, b)
        assert a.shape == img.shape and a.min() >= 0.0 and a.max() <= 1.0


class TestApplyAugmentAndPairs:
    @pytest.mark.parametrize("kind", ["none", "re", "randcrop", "raaug", "dfdc"])
    def test_type_contract_sweep(self, kind):
        img = sample_image(13)
        for idx in range(25):
            out = apply_augment(img, kind, RngStream(seed=14, index=idx))
            assert out.shape == img.shape
            assert out.dtype == np.float64
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_strategy_none_identity(self):
        img = sample_image(14)
        pair = make_pair(img, 0, "none", RngStream(1), RngStream(2))
        assert np.array_equal(pair.x1, img) and np.array_equal(pair.x2, img)

    def test_identical_addresses_identical_views(self):
        img = sample_image(15)
        rng = RngStream(seed=4, epoch=1, index=9, view=0)
        pair = make_pair(img, 1, "raaug", rng, rng)
        assert np.array_equal(pair.x1, pair.x2)

    def test_label_copied_not_altered(self):
        img = sample_image(16)
        for label in (0, 1):
            pair = make_pair(
                img, label, "raaug", RngStream(5, view=0), RngStream(5, view=1)
            )
            assert isinstance(pair, ViewPair) and pair.label == label

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError, match="jpeg"):
            apply_augment(sample_image(17), "jpeg", RngStream(0))
