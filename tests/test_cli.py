"""End-to-end tests for the command-line surface.

Every command runs in-process through main(), so exit codes and stdout are
asserted directly. Heavier fixtures (a generated dataset, one trained
checkpoint) are module-scoped and shared.
"""

import inspect
import shutil

import numpy as np
import pytest

from twoview.cli import (
    _SCHEMAS,
    ConfigError,
    _build_parser,
    _parse_bool,
    _read_config_file,
    main,
    resolve_config,
)
from twoview.augment import derive_seed
from twoview.imgops import read_pgm, read_ppm, write_ppm
from twoview.synthdata import gen_dataset, load_dataset, shift_split
from twoview.trainer import TrainConfig, load_checkpoint, params_from_checkpoint, score_samples

import oracles


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run_cli("gen-data", "--out", out, "--n-real", 12, "--ratio", 1,
                   "--size", 32, "--seed", 3) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", data_dir, "--out", out, "--seed", 5,
                   "--epochs", 2, "--pairs-per-batch", 4, "--channels", "4,6")
    assert code == 0
    return out


# -- config machinery ------------------------------------------------------------


class TestConfigFile:
    def test_parses_comments_blanks_and_spacing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\n\nalpha = 2.5\npenalty=l2  # trailing\n")
        assert _read_config_file(cfg) == {"alpha": "2.5", "penalty": "l2"}

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            _read_config_file(tmp_path / "absent.cfg")

    def test_line_without_equals_names_location(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1\njust words\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            _read_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1\nalpha = 2\n")
        with pytest.raises(ConfigError, match="duplicate key 'alpha'"):
            _read_config_file(cfg)

    def test_empty_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("= 3\n")
        with pytest.raises(ConfigError, match="empty key"):
            _read_config_file(cfg)


class TestResolveConfig:
    def test_defaults_apply(self):
        cfg = resolve_config("gen-data", None, {})
        assert cfg["n_real"] == 100 and cfg["ratio"] == 4 and cfg["seed"] == 0

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha = 2.0\ndata = from_file\n")
        cfg = resolve_config("train", str(path), {"alpha": 7.5})
        assert cfg["alpha"] == 7.5
        assert cfg["data"] == "from_file"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'learning_rate'"):
            resolve_config("train", str(path), {})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="needs 'data'"):
            resolve_config("train", None, {})

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="key 'epochs'"):
            resolve_config("train", str(path), {"data": "d"})

    def test_choice_enforced_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("penalty = huber\ndata = d\n")
        with pytest.raises(ConfigError, match="must be one of"):
            resolve_config("train", str(path), {})

    def test_bools_accept_usual_spellings(self, tmp_path):
        for text, expected in [("true", True), ("no", False), ("1", True), ("0", False)]:
            path = tmp_path / "c.cfg"
            path.write_text(f"shifted_test = {text}\ncheckpoint = c\ndata = d\n")
            cfg = resolve_config("eval", str(path), {})
            assert cfg["shifted_test"] is expected

    def test_seed_must_fit_u64(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(f"seed = {2**64}\n")
        with pytest.raises(ConfigError, match="key 'seed'"):
            resolve_config("gen-data", str(path), {})


# One non-default value per key, spelled as a config file line would spell it.
_TEXT = {
    "seed": str(2**64 - 1),
    "n_real": "9",
    "ratio": "3",
    "size": "48",
    "split_train": "0.6",
    "split_val": "0.2",
    "split_test": "0.2",
    "data": "some/dir",
    "alpha": "2.5",
    "penalty": "l2",
    "aug": "dfdc",
    "pairs_per_batch": "6",
    "epochs": "3",
    "patience": "2",
    "lr": "0.001",
    "w_real": "3.5",
    "w_fake": "0.5",
    "channels": " 8, 16 ,32",
    "checkpoint": "run/model.ckpt",
    "split": "val",
    "shifted_test": "true",
    "ids": "test_00001,test_00002",
    "image": "in.ppm",
    "count": "5",
}
_KEYS = [(command, key) for command, schema in _SCHEMAS.items() for key in schema]


def _flag(key):
    return "--" + key.replace("_", "-")


class TestFlagsFromSchema:
    def test_settable_keys_per_subcommand(self):
        assert {c: len(schema) for c, schema in _SCHEMAS.items()} == {
            "gen-data": 7, "train": 12, "eval": 5, "cam": 3, "aug-preview": 4,
        }
        for command, schema in _SCHEMAS.items():
            parsed = vars(_build_parser().parse_args([command]))
            assert set(parsed) == set(schema) | {"command", "config", "out"}
            assert all(parsed[key] is None for key in schema)

    def test_defaults_are_the_library_defaults(self):
        train, gen = _SCHEMAS["train"], _SCHEMAS["gen-data"]
        lib = TrainConfig()
        fields = {key: getattr(lib, "max_epochs" if key == "epochs" else key)
                  for key in train if key not in ("data", "channels")}
        assert {key: train[key].default for key in fields} == fields
        assert len(fields) == 10
        assert train["channels"].default == ",".join(map(str, lib.model.channels))
        params = inspect.signature(gen_dataset).parameters
        fracs = tuple(gen[f"split_{name}"].default for name in ("train", "val", "test"))
        assert fracs == params["split_fracs"].default
        for key in ("seed", "n_real", "ratio", "size"):
            assert gen[key].default == params[key].default, key

    @pytest.mark.parametrize("command,key", _KEYS, ids=[f"{c}-{k}" for c, k in _KEYS])
    def test_flag_parses_like_config_line(self, command, key, tmp_path):
        spec = _SCHEMAS[command][key]
        text = _TEXT[key]
        argv = [command, _flag(key)] + ([] if spec.cast is _parse_bool else [text])
        from_flag = getattr(_build_parser().parse_args(argv), key)
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {text}\n")
        required = {k: "x" for k, s in _SCHEMAS[command].items() if s.default is None and k != key}
        from_file = resolve_config(command, str(path), required)[key]
        assert from_flag == from_file and type(from_flag) is type(from_file)
        assert from_flag != spec.default

    @pytest.mark.parametrize(
        "command,key",
        [(c, k) for c, k in _KEYS if _SCHEMAS[c][k].choices],
        ids=[f"{c}-{k}" for c, k in _KEYS if _SCHEMAS[c][k].choices],
    )
    def test_flag_outside_choices_exits_2(self, command, key, tmp_path, capsys):
        assert run_cli(command, _flag(key), "bogus", "--out", tmp_path / "o") == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gen_data_split_flags(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("gen-data", "--out", out, "--n-real", 15, "--ratio", 1, "--size", 32,
                       "--split-train", 0.6, "--split-val", 0.2, "--split-test", 0.2) == 0
        cfg = _read_config_file(out / "resolved.cfg")
        assert (cfg["split_train"], cfg["split_val"], cfg["split_test"]) == ("0.6", "0.2", "0.2")
        loaded = load_dataset(out)
        expected = gen_dataset(n_real=15, ratio=1, seed=0, size=32, split_fracs=(0.6, 0.2, 0.2))
        counts = [len(loaded.split(name)) for name in ("train", "val", "test")]
        assert counts == [len(expected.split(name)) for name in ("train", "val", "test")]
        assert counts == [18, 6, 6]  # the default fractions give [22, 4, 4]


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "gen-data" in capsys.readouterr().out

    def test_missing_out_is_config_error(self, capsys):
        assert run_cli("gen-data") == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("volume = 11\n")
        assert run_cli("gen-data", "--config", cfg, "--out", tmp_path / "o") == 2
        capsys.readouterr()

    def test_missing_data_dir_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "nowhere", "--out", tmp_path / "o")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_gen_params_are_exit_2(self, tmp_path, capsys):
        assert run_cli("gen-data", "--out", tmp_path / "o", "--n-real", 3) == 2
        capsys.readouterr()

    def test_out_is_a_regular_file_is_runtime_error(self, tmp_path, capsys):
        # the output directory cannot be made, before any subcommand work starts
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run_cli("gen-data", "--out", taken) == 1
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_mixed_image_sizes_are_runtime_errors(self, run_dir, data_dir, tmp_path, capsys):
        # one image at 64 px among 32 px ones, in a split the command reads
        # (train reads train and val, eval the test split): it exits 1, naming it
        commands = {
            "val": ["train", "--epochs", 1, "--pairs-per-batch", 4, "--channels", "4,6"],
            "test": ["eval", "--checkpoint", run_dir / "model.ckpt"],
        }
        for split, argv in commands.items():
            mixed = tmp_path / f"mixed_{split}"
            shutil.copytree(data_dir, mixed)
            fname = load_dataset(data_dir).split(split)[0].source_id + ".ppm"
            write_ppm(mixed / fname, np.full((64, 64, 3), 0.5))
            code = run_cli(*argv, "--data", mixed, "--out", tmp_path / f"out_{split}")
            assert code == 1, split
            assert fname in capsys.readouterr().err

    def test_images_of_another_size_than_the_checkpoint_are_runtime_errors(self, run_dir, tmp_path,
                                                                           capsys):
        # run_dir's model takes 32 px; a fully convolutional encoder would score 64 px
        # images without complaint, so both commands must refuse them and name both sizes
        big = tmp_path / "big"
        assert run_cli("gen-data", "--out", big, "--n-real", 12, "--ratio", 1, "--size", 64) == 0
        sample_id = load_dataset(big).test[0].source_id
        for command, extra in (("eval", ()), ("cam", ("--ids", sample_id))):
            out = tmp_path / command
            code = run_cli(command, "--checkpoint", run_dir / "model.ckpt", "--data", big,
                           "--out", out, *extra)
            assert code == 1, command
            err = capsys.readouterr().err
            assert "64x64" in err and "32x32" in err, err
            assert [p.name for p in out.iterdir()] == ["resolved.cfg"], command

    def test_train_split_without_rows_is_usage_error(self, data_dir, tmp_path, capsys):
        # as for a one-class train split; reading the input size off train[0] crashed here
        data = tmp_path / "no_train"
        shutil.copytree(data_dir, data)
        index = data / "index.csv"
        lines = index.read_text().splitlines(keepends=True)
        index.write_text("".join(line for line in lines if ",train," not in line))
        code = run_cli("train", "--data", data, "--out", tmp_path / "o", "--channels", "4,6")
        assert code == 2
        assert "train split needs samples of both classes" in capsys.readouterr().err


# -- gen-data --------------------------------------------------------------------


class TestGenData:
    def test_outputs_and_counts(self, data_dir):
        ds = load_dataset(data_dir)
        total = len(ds.train) + len(ds.val) + len(ds.test)
        assert total == 24  # 12 real + 12 fake at ratio 1
        assert (data_dir / "index.csv").exists()
        assert (data_dir / "resolved.cfg").exists()

    def test_resolved_config_reproduces_run(self, data_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run_cli("gen-data", "--config", data_dir / "resolved.cfg", "--out", out2) == 0
        assert (out2 / "index.csv").read_bytes() == (data_dir / "index.csv").read_bytes()
        for line in (data_dir / "index.csv").read_text().splitlines()[1:]:
            fname = line.split(",")[0]
            assert (out2 / fname).read_bytes() == (data_dir / fname).read_bytes()

    def test_resolved_config_echoes_flag_values(self, data_dir):
        cfg = _read_config_file(data_dir / "resolved.cfg")
        assert cfg["n_real"] == "12"
        assert cfg["seed"] == "3"
        assert cfg["split_train"] == "0.7"

    def test_writes_stay_inside_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-data", "--out", "made", "--n-real", 10, "--ratio", 1,
                       "--size", 32) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"made"}


# -- train -----------------------------------------------------------------------


class TestTrain:
    def test_outputs(self, run_dir):
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "history.csv").exists()
        lines = (run_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,ce_loss,consistency_loss,val_auc,seconds"
        assert len(lines) == 3  # header + 2 epochs

    def test_checkpoint_loads_and_matches_config(self, run_dir):
        ckpt = load_checkpoint(run_dir / "model.ckpt")
        assert ckpt.config.channels == (4, 6)
        assert ckpt.seed == 5
        params_from_checkpoint(ckpt)  # shapes verified inside

    def test_resolved_config_reproduces_run_bitwise(self, run_dir, data_dir, tmp_path):
        out2 = tmp_path / "rerun"
        code = run_cli("train", "--config", run_dir / "resolved.cfg", "--out", out2)
        assert code == 0
        assert (out2 / "model.ckpt").read_bytes() == (run_dir / "model.ckpt").read_bytes()
        assert (out2 / "history.csv").read_bytes() == (run_dir / "history.csv").read_bytes()

    def test_reads_only_the_train_and_val_splits(self, run_dir, data_dir, tmp_path):
        # a test-split image cut short changes nothing: train reads no test file
        part = tmp_path / "damaged"
        shutil.copytree(data_dir, part)
        damaged = part / (load_dataset(data_dir).test[0].source_id + ".ppm")
        damaged.write_bytes(damaged.read_bytes()[:40])
        out = tmp_path / "rerun"
        assert run_cli("train", "--data", part, "--out", out, "--seed", 5, "--epochs", 2,
                       "--pairs-per-batch", 4, "--channels", "4,6") == 0
        assert (out / "model.ckpt").read_bytes() == (run_dir / "model.ckpt").read_bytes()

    def test_progress_lines_on_stdout(self, data_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--data", data_dir, "--out", out, "--epochs", 1,
                       "--pairs-per-batch", 4, "--channels", "4,6") == 0
        stdout = capsys.readouterr().out
        assert "epoch   1" in stdout
        assert "best epoch" in stdout

    def test_bad_penalty_flag_is_usage_error(self, data_dir, tmp_path, capsys):
        code = run_cli("train", "--data", data_dir, "--out", tmp_path / "o",
                       "--penalty", "huber")
        assert code == 2
        capsys.readouterr()

    def test_nan_alpha_is_usage_error(self, data_dir, tmp_path, capsys):
        # nan > 0 is False, so an unchecked nan alpha would train the CE-only baseline
        code = run_cli("train", "--data", data_dir, "--out", tmp_path / "o", "--alpha", "nan")
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_single_channel_spec_rejected(self, data_dir, tmp_path, capsys):
        code = run_cli("train", "--data", data_dir, "--out", tmp_path / "o",
                       "--channels", "8")
        assert code == 2
        capsys.readouterr()


# -- eval ------------------------------------------------------------------------


class TestEval:
    def test_report_and_scores(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out) == 0
        report = oracles.parse_report((out / "report.txt").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert report["n_real"] + report["n_fake"] == 4  # test split of 24
        ids, scores, _ = oracles.read_scores_csv(out / "scores.csv")
        assert len(ids) == 4
        assert np.isfinite(scores).all()

    def test_report_echoed_to_stdout(self, run_dir, data_dir, tmp_path, capsys):
        assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", tmp_path / "ev") == 0
        assert "auc:" in capsys.readouterr().out

    def test_val_split_selectable(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "ev"
        assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out, "--split", "val") == 0
        ids, _, _ = oracles.read_scores_csv(out / "scores.csv")
        assert all(i.startswith("val_") for i in ids)

    def test_shifted_test_changes_scores_deterministically(self, run_dir, data_dir, tmp_path):
        outs = []
        for name in ("plain", "shift_a", "shift_b"):
            out = tmp_path / name
            argv = ["eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                    "--out", out]
            if name != "plain":
                argv.append("--shifted-test")
            assert run_cli(*argv) == 0
            outs.append(oracles.read_scores_csv(out / "scores.csv")[1])
        plain, shift_a, shift_b = outs
        assert not np.array_equal(plain, shift_a)
        np.testing.assert_array_equal(shift_a, shift_b)

    def test_reads_only_the_scored_split(self, run_dir, data_dir, tmp_path):
        # with every train and val image and mask deleted, eval of the test
        # split, plain or shifted, writes the same bytes as on the whole dataset
        part = tmp_path / "test_only"
        shutil.copytree(data_dir, part)
        rows = [line.split(",") for line in (part / "index.csv").read_text().splitlines()[1:]]
        deleted = [name for file, _, split, mask in rows if split != "test" for name in (file, mask) if name]
        for name in deleted:
            (part / name).unlink()
        assert deleted
        for extra in ((), ("--shifted-test",)):
            outs = []
            for data in (data_dir, part):
                out = tmp_path / f"{data.name}{len(extra)}"
                assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data,
                               "--out", out, *extra) == 0
                outs.append([(out / name).read_bytes() for name in ("report.txt", "scores.csv")])
            assert outs[0] == outs[1], extra

    def test_shifted_split_held_in_memory_scores_as_eval(self, run_dir, data_dir, tmp_path):
        # generated images lie on the 8-bit grid, so the dataset held in
        # memory is bitwise the one that eval reads back from data_dir
        out = tmp_path / "shift"
        assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out, "--shifted-test", "--seed", 7) == 0
        _, scores, labels = oracles.read_scores_csv(out / "scores.csv")
        test = list(gen_dataset(n_real=12, ratio=1, seed=3, size=32).test)
        shift_split(test, derive_seed(7, "shifted-test"))
        enc, cls = params_from_checkpoint(load_checkpoint(run_dir / "model.ckpt"))
        scored = score_samples(enc, cls, test)
        np.testing.assert_array_equal(scored.labels, labels)
        assert scored.scores.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_shifted_test_off_the_test_split_is_usage_error(self, run_dir, data_dir, tmp_path,
                                                            split, capsys):
        code = run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", tmp_path / "ev", "--split", split, "--shifted-test")
        assert code == 2
        err = capsys.readouterr().err
        assert "shifted_test" in err and "split" in err and split in err
        assert not (tmp_path / "ev" / "scores.csv").exists()

    def test_missing_checkpoint_is_runtime_error(self, data_dir, tmp_path, capsys):
        code = run_cli("eval", "--checkpoint", tmp_path / "no.ckpt", "--data", data_dir,
                       "--out", tmp_path / "o")
        assert code == 1
        capsys.readouterr()


# -- cam -------------------------------------------------------------------------


class TestCam:
    def test_fake_sample_gets_four_files(self, run_dir, data_dir, tmp_path):
        ds = load_dataset(data_dir)
        fake_id = next(s.source_id for s in ds.test if s.label == 1)
        out = tmp_path / "cam"
        assert run_cli("cam", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out, "--ids", fake_id) == 0
        for suffix in ("input.ppm", "cam.pgm", "overlay.ppm", "mask.pgm"):
            assert (out / f"{fake_id}_{suffix}").exists()
        heat = read_pgm(out / f"{fake_id}_cam.pgm")
        assert heat.shape == (32, 32)
        assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_real_sample_has_no_mask_file(self, run_dir, data_dir, tmp_path):
        ds = load_dataset(data_dir)
        real_id = next(s.source_id for s in ds.test if s.label == 0)
        out = tmp_path / "cam"
        assert run_cli("cam", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out, "--ids", real_id) == 0
        assert (out / f"{real_id}_input.ppm").exists()
        assert not (out / f"{real_id}_mask.pgm").exists()

    def test_several_ids_comma_separated(self, run_dir, data_dir, tmp_path):
        ds = load_dataset(data_dir)
        ids = [ds.test[0].source_id, ds.test[1].source_id]
        out = tmp_path / "cam"
        assert run_cli("cam", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", out, "--ids", ",".join(ids)) == 0
        assert (out / f"{ids[0]}_input.ppm").exists()
        assert (out / f"{ids[1]}_input.ppm").exists()

    def test_reads_only_the_files_of_its_ids(self, run_dir, data_dir, tmp_path):
        # with every image of the other splits cut short, cam of a test id
        # writes the same bytes as on the whole dataset
        fake_id = next(s.source_id for s in load_dataset(data_dir).test if s.label == 1)
        part = tmp_path / "damaged"
        shutil.copytree(data_dir, part)
        for line in (part / "index.csv").read_text().splitlines()[1:]:
            file, _, split, _ = line.split(",")
            if split != "test":
                (part / file).write_bytes((part / file).read_bytes()[:40])
        outs = []
        for data in (data_dir, part):
            out = tmp_path / f"cam_{data.name}"
            assert run_cli("cam", "--checkpoint", run_dir / "model.ckpt", "--data", data,
                           "--out", out, "--ids", fake_id) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".cfg"})
        assert len(outs[0]) == 4 and outs[0] == outs[1]

    def test_unknown_id_is_usage_error(self, run_dir, data_dir, tmp_path, capsys):
        code = run_cli("cam", "--checkpoint", run_dir / "model.ckpt", "--data", data_dir,
                       "--out", tmp_path / "o", "--ids", "fake_99999")
        assert code == 2
        assert "unknown sample ids" in capsys.readouterr().err


# -- aug-preview -----------------------------------------------------------------


class TestAugPreview:
    def test_writes_named_variants(self, data_dir, tmp_path):
        image = data_dir / "train_00000.ppm"
        out = tmp_path / "prev"
        assert run_cli("aug-preview", "--image", image, "--out", out, "--count", 4,
                       "--seed", 9, "--aug", "raaug") == 0
        names = sorted(p.name for p in out.iterdir() if p.suffix == ".ppm")
        assert names == [f"train_00000_raaug_s9_k{k:03d}.ppm" for k in range(4)]

    def test_variants_reproducible(self, data_dir, tmp_path):
        image = data_dir / "train_00000.ppm"
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("aug-preview", "--image", image, "--out", out, "--count", 3,
                           "--seed", 4) == 0
        for k in range(3):
            name = f"train_00000_raaug_s4_k{k:03d}.ppm"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_none_strategy_copies_input(self, data_dir, tmp_path):
        image = data_dir / "train_00000.ppm"
        out = tmp_path / "prev"
        assert run_cli("aug-preview", "--image", image, "--out", out, "--count", 1,
                       "--aug", "none", "--seed", 0) == 0
        variant = read_ppm(out / "train_00000_none_s0_k000.ppm")
        np.testing.assert_array_equal(variant, read_ppm(image))

    def test_count_zero_writes_only_config(self, data_dir, tmp_path):
        out = tmp_path / "prev"
        assert run_cli("aug-preview", "--image", data_dir / "train_00000.ppm",
                       "--out", out, "--count", 0) == 0
        assert [p.name for p in out.iterdir()] == ["resolved.cfg"]

    def test_missing_image_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("aug-preview", "--image", tmp_path / "no.ppm", "--out", tmp_path / "o")
        assert code == 1
        capsys.readouterr()
