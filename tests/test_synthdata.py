"""Dataset generator: locality of tampering, split hygiene, lossless IO."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twoview.augment import RngStream, dfdc_selim
from twoview.imgops import read_ppm, write_ppm
from twoview.metrics import ScoredSet, auc
from twoview.ndgrad import ContractError
from twoview.synthdata import (
    RECT_SIDE_MAX,
    RECT_SIDE_MIN,
    SPLIT_NAMES,
    DatasetError,
    DatasetSplit,
    Sample,
    _blend_patch,
    _feather_alpha,
    ellipse_interior,
    gen_dataset,
    gen_fake,
    gen_real,
    load_dataset,
    save_dataset,
    shift_split,
    stack_images,
)


def real(seed=0, index=0, size=64):
    return gen_real(RngStream(seed, 0, index, 0), size=size)


def held_as_float64(sample):
    """The same sample, its image given as the float64 array `.image` reads."""
    return replace(sample, image=sample.image)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestEllipse:
    def test_centered_and_symmetric(self):
        e = ellipse_interior(64)
        assert e[32, 32]
        assert not e[0, 0] and not e[0, 63] and not e[63, 0] and not e[63, 63]
        assert np.array_equal(e, e[::-1, :])
        assert np.array_equal(e, e[:, ::-1])

    def test_area_matches_half_axes(self):
        # pi * (0.35*64) * (0.40*64) with O(perimeter) discretization slack
        e = ellipse_interior(64)
        expected = np.pi * (0.35 * 64) * (0.40 * 64)
        assert abs(e.sum() - expected) < 64

    def test_read_only(self):
        e = ellipse_interior(64)
        with pytest.raises(ValueError):
            e[0, 0] = True


class TestGenReal:
    def test_shape_range_and_grid(self):
        s = real()
        assert s.image.shape == s.shape == (64, 64, 3)
        assert s.image.dtype == np.float64
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert np.array_equal(s.image, np.round(s.image * 255.0) / 255.0)
        assert s.label == 0 and s.mask is None

    def test_deterministic(self):
        a = gen_real(RngStream(7, 0, 3, 0))
        b = gen_real(RngStream(7, 0, 3, 0))
        assert np.array_equal(a.image, b.image)

    def test_distinct_addresses_differ(self):
        a = real(index=0)
        b = real(index=1)
        frac = np.mean(np.any(a.image != b.image, axis=2))
        assert frac > 0.5

    def test_pristine_interior_curvature_is_quiet(self):
        # Tampering is detected through curvature anomalies inside the
        # ellipse, so a pristine interior must stay near the quantization
        # floor; seams push well above it.
        e = ellipse_interior(64)
        core = e[2:-2, 2:-2] & e[:-4, 2:-2] & e[4:, 2:-2] & e[2:-2, :-4] & e[2:-2, 4:]
        for i in range(10):
            img = real(index=i).image.mean(axis=2)
            lap = 4 * img[1:-1, 1:-1] - img[:-2, 1:-1] - img[2:, 1:-1] - img[1:-1, :-2] - img[1:-1, 2:]
            assert np.abs(lap[1:-1, 1:-1][core]).mean() < 0.012

    def test_subjects_have_distinct_texture_statistics(self):
        # Per-subject texture draws must actually vary, otherwise donor
        # patches would blend in invisibly.
        e = ellipse_interior(64)
        inner = e[:-1, :-1] & e[1:, :-1] & e[:-1, 1:]
        energies = []
        for i in range(12):
            img = real(index=i).image.mean(axis=2)
            gy = np.abs(np.diff(img, axis=0))[:, :-1]
            gx = np.abs(np.diff(img, axis=1))[:-1, :]
            energies.append((gy + gx)[inner].mean())
        assert max(energies) > 1.3 * min(energies)

    def test_size_contract(self):
        with pytest.raises(ContractError):
            gen_real(RngStream(0, 0, 0, 0), size=16)


class TestGenFake:
    def test_changes_confined_to_mask(self):
        base = real(index=0)
        donor = real(index=1)
        fake = gen_fake(base, donor, RngStream(0, 1, 0, 1))
        changed = np.any(fake.image != base.image, axis=2)
        assert not np.any(changed & ~fake.mask)
        # the rect interior (past the feather) is dominated by donor content
        assert changed.sum() > 0

    def test_mask_is_a_rectangle_within_bounds(self):
        for i in range(20):
            base = real(index=2 * i)
            donor = real(index=2 * i + 1)
            fake = gen_fake(base, donor, RngStream(3, 1, i, 1))
            rows = np.flatnonzero(fake.mask.any(axis=1))
            cols = np.flatnonzero(fake.mask.any(axis=0))
            rh = rows[-1] - rows[0] + 1
            rw = cols[-1] - cols[0] + 1
            assert fake.mask.sum() == rh * rw
            assert RECT_SIDE_MIN <= rh <= RECT_SIDE_MAX
            assert RECT_SIDE_MIN <= rw <= RECT_SIDE_MAX

    def test_mask_inside_ellipse(self):
        e = ellipse_interior(64)
        for i in range(20):
            fake = gen_fake(real(index=2 * i), real(index=2 * i + 1), RngStream(9, 1, i, 1))
            assert not np.any(fake.mask & ~e)

    def test_mask_area_bounds(self):
        for i in range(10):
            fake = gen_fake(real(index=i), real(index=i + 50), RngStream(5, 1, i, 1))
            assert RECT_SIDE_MIN**2 <= fake.mask.sum() <= RECT_SIDE_MAX**2

    def test_label_and_fields(self):
        fake = gen_fake(real(index=0), real(index=1), RngStream(0, 1, 7, 1))
        assert fake.label == 1
        assert fake.mask is not None and fake.mask.dtype == bool
        assert fake.source_id == "fake_00007"

    def test_deterministic(self):
        base, donor = real(index=0), real(index=1)
        a = gen_fake(base, donor, RngStream(11, 1, 2, 1))
        b = gen_fake(base, donor, RngStream(11, 1, 2, 1))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_base_untouched(self):
        base, donor = real(index=0), real(index=1)
        before = base.image.copy()
        gen_fake(base, donor, RngStream(0, 1, 0, 1))
        assert np.array_equal(base.image, before)

    def test_float64_reals_give_the_same_fake(self):
        base, donor = real(index=0), real(index=1)
        codes = gen_fake(base, donor, RngStream(0, 1, 0, 1))
        floats = gen_fake(held_as_float64(base), held_as_float64(donor), RngStream(0, 1, 0, 1))
        assert base._pixels.dtype == np.uint8 and held_as_float64(base)._pixels.dtype == np.float64
        assert same_bits(codes.image, floats.image)
        assert np.array_equal(codes.mask, floats.mask)

    def test_rejects_fake_inputs(self):
        base, donor = real(index=0), real(index=1)
        fake = gen_fake(base, donor, RngStream(0, 1, 0, 1))
        with pytest.raises(ContractError):
            gen_fake(fake, donor, RngStream(0, 1, 1, 1))
        with pytest.raises(ContractError):
            gen_fake(base, fake, RngStream(0, 1, 1, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ContractError):
            gen_fake(real(index=0, size=64), real(index=1, size=32), RngStream(0, 1, 0, 1))

    def test_brightness_inherited_from_base(self):
        # tampering moves the global mean by at most the rect fraction times
        # the worst per-pixel change, far below the spread of base means
        for i in range(10):
            base = real(index=i)
            fake = gen_fake(base, real(index=i + 100), RngStream(2, 1, i, 1))
            assert abs(fake.image.mean() - base.image.mean()) < 0.02


class TestFeather:
    def test_alpha_profile(self):
        a = _feather_alpha(8, 8)
        assert a[0, 0] == pytest.approx(1.0 / 3.0)
        assert a[1, 1] == pytest.approx(2.0 / 3.0)
        assert a[2, 2] == 1.0
        assert a[3, 4] == 1.0
        assert np.array_equal(a, a[::-1, :])
        assert np.array_equal(a, a[:, ::-1])

    def test_border_band_is_two_pixels(self):
        a = _feather_alpha(10, 12)
        assert np.all(a[2:-2, 2:-2] == 1.0)
        assert np.all(a[0, :] < 1.0) and np.all(a[:, 0] < 1.0)
        assert np.all(a[1, 1:-1] < 1.0) and np.all(a[1:-1, 1] < 1.0)

    def test_blend_between_endpoints(self):
        gen = np.random.default_rng(0)
        base = gen.uniform(0, 1, (12, 9, 3))
        donor = gen.uniform(0, 1, (12, 9, 3))
        shift = np.array([0.03, -0.05, 0.0])
        out = _blend_patch(base, donor, shift)
        shifted = donor + shift[None, None, :]
        lo = np.minimum(base, shifted) - 1e-12
        hi = np.maximum(base, shifted) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_blend_interior_equals_shifted_donor(self):
        base = np.zeros((10, 10, 3))
        donor = np.full((10, 10, 3), 0.5)
        shift = np.array([0.1, 0.0, -0.1])
        out = _blend_patch(base, donor, shift)
        assert np.allclose(out[2:-2, 2:-2], donor[2:-2, 2:-2] + shift[None, None, :])


@pytest.fixture(scope="module")
def ds():
    return gen_dataset(n_real=20, ratio=2, seed=0)


class TestGenDataset:
    def test_counts(self, ds):
        total = 20 * (1 + 2)
        sizes = {name: len(ds.split(name)) for name in ("train", "val", "test")}
        assert sum(sizes.values()) == total
        for name, n in sizes.items():
            reals = sum(1 for s in ds.split(name) if s.label == 0)
            fakes = sum(1 for s in ds.split(name) if s.label == 1)
            assert fakes == 2 * reals, name
            assert n == reals + fakes

    def test_default_split_fractions(self):
        ds = gen_dataset(n_real=100, ratio=1, seed=1)
        reals = {
            name: sum(1 for s in ds.split(name) if s.label == 0)
            for name in ("train", "val", "test")
        }
        assert reals == {"train": 70, "val": 15, "test": 15}

    def test_source_ids_disjoint_across_splits(self, ds):
        ids = {
            name: {s.source_id for s in ds.split(name) if s.label == 0}
            for name in ("train", "val", "test")
        }
        assert not (ids["train"] & ids["val"])
        assert not (ids["train"] & ids["test"])
        assert not (ids["val"] & ids["test"])

    def test_every_real_has_ratio_fakes(self, ds):
        # even assignment is what keeps brightness rank-neutral
        for name in ("train", "val", "test"):
            reals = [s for s in ds.split(name) if s.label == 0]
            fakes = [s for s in ds.split(name) if s.label == 1]
            assert len(fakes) == 2 * len(reals)

    def test_deterministic(self):
        a = gen_dataset(n_real=12, ratio=1, seed=5)
        b = gen_dataset(n_real=12, ratio=1, seed=5)
        for name in ("train", "val", "test"):
            for sa, sb in zip(a.split(name), b.split(name)):
                assert sa.source_id == sb.source_id
                assert np.array_equal(sa.image, sb.image)

    def test_brightness_carries_no_class_signal(self):
        # the generation-time guard enforces < 0.6 on the test split; check
        # the same statistic across several seeds and on the train split too
        for seed in range(5):
            ds = gen_dataset(n_real=40, ratio=4, seed=seed)
            for name in ("train", "test"):
                samples = ds.split(name)
                scored = ScoredSet(
                    scores=np.array([s.image.mean() for s in samples]),
                    labels=np.array([s.label for s in samples]),
                )
                value = auc(scored)
                assert max(value, 1.0 - value) < 0.6, (seed, name)

    def test_samples_hold_8_bit_codes(self):
        # 500 images held as float64 take 49 MB; as uint8 codes, with the
        # 400 masks, 8.3 MB, and generation never holds much more
        tracemalloc.start()
        try:
            ds = gen_dataset(n_real=100, ratio=4, seed=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.train) + len(ds.val) + len(ds.test) == 500
        assert held < 12 << 20, f"{held / 2**20:.2f} MiB held"
        assert peak < 12 << 20, f"{peak / 2**20:.2f} MiB peak"

    def test_stack_images_matches_stacking_each_image(self, ds):
        samples = ds.test[:6]
        want = np.stack([s.image for s in samples])
        assert same_bits(stack_images(samples), want)
        mixed = [held_as_float64(s) if i % 2 else s for i, s in enumerate(samples)]
        assert same_bits(stack_images(mixed), want)

    def test_contracts(self):
        with pytest.raises(ContractError):
            gen_dataset(n_real=5, ratio=2, seed=0)
        with pytest.raises(ContractError):
            gen_dataset(n_real=20, ratio=0, seed=0)
        with pytest.raises(ContractError):
            gen_dataset(n_real=20, ratio=2, seed=0, split_fracs=(0.5, 0.2, 0.2))


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        ds = gen_dataset(n_real=12, ratio=2, seed=3)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        for name in ("train", "val", "test"):
            orig, loaded = ds.split(name), back.split(name)
            assert len(orig) == len(loaded)
            for a, b in zip(orig, loaded):
                assert np.array_equal(a.image, b.image), (name, a.source_id)
                assert a.label == b.label
                if a.mask is None:
                    assert b.mask is None
                else:
                    assert np.array_equal(a.mask, b.mask)

    def test_loaded_images_are_the_float_path_bitwise(self, tmp_path):
        # the float64 images of generation, the float reader and load_dataset agree
        ds = gen_dataset(n_real=12, ratio=2, seed=3)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        for name in ("train", "val", "test"):
            for a, b in zip(ds.split(name), back.split(name), strict=True):
                grid = np.round(np.clip(a.image, 0.0, 1.0) * 255.0) / 255.0
                assert same_bits(b.image, a.image) and same_bits(b.image, grid)
                assert same_bits(b.image, read_ppm(tmp_path / f"{b.source_id}.ppm"))

    def test_float64_images_save_the_same_files(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=1)
        twin = DatasetSplit(*([held_as_float64(s) for s in ds.split(name)] for name in SPLIT_NAMES))
        save_dataset(ds, tmp_path / "codes")
        save_dataset(twin, tmp_path / "floats")
        names = sorted(p.name for p in (tmp_path / "codes").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "floats").iterdir())
        for name in names:
            assert (tmp_path / "codes" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()

    def test_shift_split_of_codes_and_of_float64_is_bitwise(self):
        ds = gen_dataset(n_real=10, ratio=1, seed=2)
        codes = list(ds.test)
        floats = [held_as_float64(s) for s in ds.test]
        shift_split(codes, 4)
        shift_split(floats, 4)
        for a, b in zip(codes, floats, strict=True):
            assert a._pixels.dtype == np.float64  # corrupted images are held as they are
            assert same_bits(a.image, b.image)

    def test_source_id_is_file_stem(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=0)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.train[0].source_id == "train_00000"
        assert all(s.source_id.startswith("test_") for s in back.test)

    def test_shifted_test_changes_only_test(self, tmp_path):
        ds = gen_dataset(n_real=12, ratio=1, seed=2)
        save_dataset(ds, tmp_path)
        plain = load_dataset(tmp_path)
        shifted = load_dataset(tmp_path)
        shift_split(shifted.test, 4)
        for a, b in zip(plain.train, shifted.train):
            assert np.array_equal(a.image, b.image)
        for a, b in zip(plain.val, shifted.val):
            assert np.array_equal(a.image, b.image)
        moved = sum(
            0 if np.array_equal(a.image, b.image) else 1
            for a, b in zip(plain.test, shifted.test)
        )
        # each corruption stage fires with probability 1/2, so identity on a
        # given sample has probability 1/32; demanding >half moved is safe
        assert moved > len(plain.test) / 2

    def test_shifted_test_deterministic(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=2)
        save_dataset(ds, tmp_path)
        a, b = load_dataset(tmp_path), load_dataset(tmp_path)
        shift_split(a.test, 4)
        shift_split(b.test, 4)
        for sa, sb in zip(a.test, b.test):
            assert np.array_equal(sa.image, sb.image)

    def test_shifted_test_split_alone_loads_bitwise(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=2)
        save_dataset(ds, tmp_path)
        whole = load_dataset(tmp_path)
        alone = load_dataset(tmp_path, splits=("test",))
        shift_split(whole.test, 4)
        shift_split(alone.test, 4)
        assert alone.train == [] and alone.val == []
        assert len(alone.test) == len(whole.test) > 0
        for a, b in zip(whole.test, alone.test):
            assert a.image.view(np.int64).tobytes() == b.image.view(np.int64).tobytes()
            assert (a.mask is None) == (b.mask is None)
            assert a.mask is None or np.array_equal(a.mask, b.mask)
            assert (a.label, a.source_id) == (b.label, b.source_id)

    def test_shift_split_replaces_entries_and_keeps_the_originals(self):
        ds = gen_dataset(n_real=10, ratio=1, seed=2)
        clean = list(ds.test)
        images = [s.image.copy() for s in clean]
        shifted = list(clean)
        assert shift_split(shifted, 4) is None
        assert len(shifted) == len(clean)
        for i, (old, new) in enumerate(zip(clean, shifted)):
            assert new is not old
            assert np.array_equal(old.image, images[i])
            want = dfdc_selim(images[i], RngStream(4, 0, i, 0))
            assert new.image.tobytes() == want.tobytes()
            assert (new.label, new.source_id) == (old.label, old.source_id) and new.mask is old.mask

    def test_splits_left_out_are_not_opened(self, tmp_path):
        # rows of other splits are still validated, but their files are not read
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\ngone.ppm,0,train,\n"
        )
        assert load_dataset(tmp_path, splits=("val", "test")).train == []
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\ngone.ppm,2,train,\n"
        )
        with pytest.raises(DatasetError, match="label"):
            load_dataset(tmp_path, splits=("test",))

    def test_rows_of_other_ids_are_not_opened(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=0)
        save_dataset(ds, tmp_path)
        whole = load_dataset(tmp_path)
        for sample in whole.train[1:]:
            (tmp_path / f"{sample.source_id}.ppm").write_bytes(b"P6\n64 64\n255\n")
        fake = next(s for s in whole.test if s.label == 1)
        picked = load_dataset(tmp_path, ids={"train_00000", fake.source_id})
        assert [s.source_id for s in picked.train] == ["train_00000"]
        assert picked.val == [] and [s.source_id for s in picked.test] == [fake.source_id]
        assert same_bits(picked.test[0].image, fake.image)
        assert np.array_equal(picked.test[0].mask, fake.mask)
        assert load_dataset(tmp_path, splits=("val",), ids={"train_00000"}).train == []
        with pytest.raises(DatasetError, match="train_00001"):
            load_dataset(tmp_path, ids={"train_00001"})

    def test_unknown_split_name_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="dev"):
            load_dataset(tmp_path, splits=("dev",))

    def test_missing_index(self, tmp_path):
        with pytest.raises(DatasetError, match="index.csv"):
            load_dataset(tmp_path / "nowhere")

    def test_bad_header(self, tmp_path):
        (tmp_path / "index.csv").write_text("a,b,c,d\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(tmp_path)

    def test_bad_label(self, tmp_path):
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\nx.ppm,2,train,\n"
        )
        with pytest.raises(DatasetError, match="label"):
            load_dataset(tmp_path)

    def test_bad_split(self, tmp_path):
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\nx.ppm,0,dev,\n"
        )
        with pytest.raises(DatasetError, match="split"):
            load_dataset(tmp_path)

    def test_missing_image_named(self, tmp_path):
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\ngone.ppm,0,train,\n"
        )
        with pytest.raises(DatasetError, match="gone.ppm"):
            load_dataset(tmp_path)

    def test_mixed_image_sizes_rejected(self, tmp_path):
        ds = gen_dataset(n_real=10, ratio=1, seed=0, size=32)
        save_dataset(ds, tmp_path)
        lines = (tmp_path / "index.csv").read_text().splitlines()
        lineno, row = next((k, l) for k, l in enumerate(lines, start=1) if ",test," in l)
        fname = row.split(",")[0]
        write_ppm(tmp_path / fname, np.full((64, 64, 3), 0.5))
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        message = str(err.value)
        assert f"index.csv:{lineno}:" in message and fname in message
        assert "(64, 64, 3)" in message and "(32, 32, 3)" in message

    def test_fake_without_mask_rejected(self, tmp_path):
        (tmp_path / "index.csv").write_text(
            "file,label,split,mask_file\nx.ppm,1,train,\n"
        )
        with pytest.raises(DatasetError, match="mask"):
            load_dataset(tmp_path)


class TestSampleContract:
    def test_mask_label_consistency(self):
        img = np.zeros((64, 64, 3))
        with pytest.raises(ContractError):
            Sample(image=img, label=1, mask=None, source_id="x")
        with pytest.raises(ContractError):
            Sample(image=img, label=0, mask=np.zeros((64, 64), bool), source_id="x")
        with pytest.raises(ContractError):
            Sample(image=img, label=3, mask=None, source_id="x")
