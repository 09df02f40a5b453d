import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fringeproc.cli import main
from fringeproc.container import (SIDECAR_KINDS, read_container, read_sidecar,
                                  write_container, write_json)
from fringeproc.network import NetworkConfig, build_network, load_weights, save_weights
from fringeproc.simulate import DatasetManifest, load_manifest, make_dataset


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """run's exit code, whether main returns it or argparse exits with it."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def one_error_line(tmp_path, code, *argv):
    """Run the CLI as a user does (no -W flag) in tmp_path; assert exit ``code``,
    a stderr of one ``error:`` line with no warning or traceback, and no new
    file (a new empty directory is allowed). Returns the error line."""
    before = {p for p in tmp_path.rglob("*") if p.is_file()}
    proc = subprocess.run(
        [sys.executable, "-m", "fringeproc.cli", *map(str, argv)], cwd=tmp_path,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == before
    return lines[0]


@pytest.fixture()
def tiny_model(tmp_path):
    path = tmp_path / "tiny.fpaw"
    save_weights(build_network(NetworkConfig(paths=2, filters=2, blocks_per_path=1),
                               init_seed=3), path)
    return path


@pytest.fixture()
def huge_model(tmp_path):
    """A model whose finite float32 weight overflows the float32 forward."""
    weights = build_network(NetworkConfig(paths=2, filters=2, blocks_per_path=1),
                            init_seed=3)
    weights.tensors["path1.in.w"][0, 0, 1, 1] = 3e38
    path = tmp_path / "huge.fpaw"
    save_weights(weights, path)
    return path


@pytest.fixture()
def peaks_object(tmp_path):
    out = tmp_path / "obj.fpai"
    assert run("simulate", "--mode", "object", "--out", out,
               "--a", "0.5", "--rows", "32", "--cols", "32", "--seed", "5") == 0
    return out


# option values that can never work, whatever the input: {t} is a tmp dir,
# {img} a 16x16 image, {ds} a 16x16 dataset
IMPOSSIBLE_OPTIONS = {
    "simulate-blob-0x0": ["simulate", "--mode", "object", "--object", "blob",
                          "--rows", "0", "--cols", "0", "--out", "{t}/o.fpai"],
    "simulate-dataset-rows-0": ["simulate", "--rows", "0", "--out", "{t}/sim"],
    "simulate-count--1": ["simulate", "--count", "-1", "--out", "{t}/sim"],
    "simulate-period-2": ["simulate", "--mode", "object", "--period", "2",
                          "--out", "{t}/o.fpai"],
    "simulate-theta-4": ["simulate", "--mode", "object", "--theta", "4",
                         "--out", "{t}/o.fpai"],
    "simulate-a--1": ["simulate", "--mode", "object", "--a", "-1", "--out", "{t}/o.fpai"],
    "orient-classic-window-0": ["orient-classic", "--input", "{img}", "--window", "0",
                                "--out", "{t}/fo.fpai"],
    "orient-classic-window-1": ["orient-classic", "--input", "{img}", "--window", "1",
                                "--out", "{t}/fo.fpai"],
    "benchmark-size-4": ["benchmark", "--size", "4", "--out", "{t}/r.csv"],
    "benchmark-border-fills-grid": ["benchmark", "--size", "16", "--exclude-border", "8",
                                    "--emit-error-maps", "{t}/maps", "--out", "{t}/r.csv"],
    "benchmark-deeporient-no-model": ["benchmark", "--methods", "deeporient",
                                      "--emit-error-maps", "{t}/maps", "--out", "{t}/r.csv"],
    "evaluate-exclude-border--3": ["evaluate", "--pred", "{img}", "--ref", "{img}",
                                   "--exclude-border", "-3"],
    # rmse-sin scores whole encodings, so any border would be silently ignored
    "evaluate-rmse-sin-exclude-border-4": [
        "evaluate", "--metric", "rmse-sin", "--pred", "{ds}/item_0000_encoding.fpai",
        "--ref", "{ds}/item_0001_encoding.fpai", "--exclude-border", "4"],
    "train-epochs-0": ["train", "--dataset", "{ds}", "--epochs", "0", "--out", "{t}/m.fpaw"],
    "train-lr--1": ["train", "--dataset", "{ds}", "--lr", "-1", "--out", "{t}/m.fpaw"],
    "train-paths-9": ["train", "--dataset", "{ds}", "--paths", "9", "--out", "{t}/m.fpaw"],
    **{f"benchmark-a-values-{value}": ["benchmark", "--a-values", value,
                                        "--out", "{t}/r.csv"]
       for value in ("-1", "nan", "inf")},
    "benchmark-noise-std-inf": ["benchmark", "--noise-std", "inf", "--out", "{t}/r.csv"],
    "simulate-a-inf": ["simulate", "--mode", "object", "--a", "inf", "--out", "{t}/o.fpai"],
    **{f"simulate-{mode}-noise-std-inf": ["simulate", "--mode", mode, "--noise-std", "inf",
                                          "--out", "{t}/sim"]
       for mode in ("object", "dataset")},
    # --smooth-sigma is gone (prefilter fixes its denoise scale), so a value
    # that never worked stays a usage error that writes nothing
    **{f"orient-classic-smooth-sigma-{value}": ["orient-classic", "--input", "{img}",
                                                "--smooth-sigma", value, "--out", "{t}/fo.fpai"]
       for value in ("0", "-1", "nan", "inf")},
    **{f"train-val-fraction-{value}": ["train", "--dataset", "{ds}", "--val-fraction", value,
                                       "--out", "{t}/m.fpaw"]
       for value in ("0", "-0.5", "1", "nan")},
}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--no-such-flag")
        assert exc.value.code == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("evaluate", "--pred", tmp_path / "nope.fpai",
                   "--ref", tmp_path / "nope.fpai") == 3

    def test_corrupt_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.fpai"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert run("evaluate", "--pred", bad, "--ref", bad) == 3

    def test_numerical_failure_is_exit_4(self, tmp_path):
        img = tmp_path / "img.fpai"
        write_container(img, np.zeros((16, 16)))
        assert run("evaluate", "--pred", img, "--ref", img,
                   "--exclude-border", "8") == 4

    def test_non_square_peaks_is_usage_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", "simulate", "--mode", "object",
             "--object", "peaks", "--rows", "64", "--cols", "96",
             "--out", str(tmp_path / "obj.fpai")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "square" in proc.stderr
        assert not (tmp_path / "obj.fpai").exists()

    @pytest.mark.parametrize("fmt", ["fpai", "fpaw"])
    def test_signalling_nan_is_one_error_line(self, tmp_path, peaks_object, tiny_model,
                                              fmt):
        # float32 bits 0x7f800001: a signalling NaN as the file's last sample
        target = peaks_object if fmt == "fpai" else tiny_model
        target.write_bytes(target.read_bytes()[:-4] + (0x7F800001).to_bytes(4, "little"))
        argv = (["orient-classic", "--input", str(peaks_object)] if fmt == "fpai" else
                ["infer", "--model", str(tiny_model), "--input", str(peaks_object)])
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", *argv,
             "--out", str(tmp_path / "x.fpai")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    # each removed flag with a value that worked before it went (a small sweep
    # and a one-epoch run, so the command would finish if the flag still parsed)
    @pytest.mark.parametrize("argv", [
        pytest.param(lambda obj, t, ds: ["orient-classic", "--input", obj,
                                         "--out", t / "fo.fpai", "--exclude-border", "4"],
                     id="orient-classic-exclude-border"),
        pytest.param(lambda obj, t, ds: ["evaluate", "--pred", obj, "--ref", obj, "--json"],
                     id="evaluate-json"),
        pytest.param(lambda obj, t, ds: ["orient-classic", "--input", obj,
                                         "--out", t / "fo.fpai", "--smooth-sigma", "0.5"],
                     id="orient-classic-smooth-sigma"),
        pytest.param(lambda obj, t, ds: ["orient-classic", "--input", obj,
                                         "--out", t / "fo.fpai", "--background-sigma", "4"],
                     id="orient-classic-background-sigma"),
        *[pytest.param(lambda obj, t, ds, flag=flag, value=value: [
            "benchmark", "--a-values", "1", "--noise-std", "0", "--reps", "1", "--size", "16",
            "--exclude-border", "2", flag, value, "--out", t / "r.csv"],
            id=f"benchmark-{flag[2:]}")
          for flag, value in (("--period", "14"), ("--theta", "0"), ("--window", "2"))],
        pytest.param(lambda obj, t, ds: ["train", "--dataset", ds, "--epochs", "1",
                                         "--filters", "2", "--blocks", "1",
                                         "--batch-size", "1", "--out", t / "m.fpaw"],
                     id="train-batch-size"),
        pytest.param(lambda obj, t, ds: ["train", "--dataset", ds, "--epochs", "1",
                                         "--filters", "2", "--blocks", "1",
                                         "--val-dataset", ds, "--out", t / "m.fpaw"],
                     id="train-val-dataset"),
    ])
    def test_removed_flag_is_usage_error(self, tmp_path, peaks_object, argv):
        ds = _dataset(tmp_path)
        before = set(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            run(*argv(peaks_object, tmp_path, ds))
        assert exc.value.code == 2
        assert set(tmp_path.rglob("*")) == before

    def test_sample_float32_cannot_hold_is_one_error_line(self, tmp_path):
        # a finite blob amplitude whose phase map overflows float32; the
        # fringe before it in the write order (o.fpai, o.json) is not written
        # either, which one_error_line's no-new-file check asserts
        assert "o_phase.fpai" in one_error_line(
            tmp_path, 3, "simulate", "--mode", "object", "--object", "blob", "--a", "1e308",
            "--rows", "32", "--cols", "32", "--out", "o.fpai")

    def test_unstorable_peaks_object_writes_nothing(self, tmp_path):
        # the fringe (cos of the phase) stores fine; its phase ground truth
        # does not, so nothing at all is written
        assert "o_phase.fpai" in one_error_line(
            tmp_path, 3, "simulate", "--mode", "object", "--object", "peaks", "--a", "1e300",
            "--rows", "16", "--cols", "16", "--out", "o.fpai")

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--mode", "object", "--object", "peaks", "--a", "1e308",
                      "--rows", "16", "--cols", "16", "--out", "o.fpai"], id="simulate-object"),
        pytest.param(["benchmark", "--a-values", "1e308", "--noise-std", "0", "--reps", "1",
                      "--size", "16", "--exclude-border", "2", "--out", "r.csv"],
                     id="benchmark"),
        # make_dataset creates the directory before the first item overflows
        pytest.param(["simulate", "--mode", "dataset", "--noise-std", "1e308", "--count", "2",
                      "--rows", "16", "--cols", "16", "--out", "ds"], id="simulate-dataset"),
    ])
    def test_overflow_warning_is_one_error_line(self, tmp_path, argv):
        assert "overflow" in one_error_line(tmp_path, 4, *argv)

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--mode", "object", "--rows", "16", "--cols", "16",
                      "--noise-std", "-0.1"], id="simulate-object"),
        pytest.param(["simulate", "--mode", "dataset", "--count", "2", "--rows", "16",
                      "--cols", "16", "--noise-std", "-0.1"], id="simulate-dataset"),
        pytest.param(["benchmark", "--a-values", "1", "--reps", "1", "--size", "32",
                      "--noise-std", "0,-0.1"], id="benchmark"),
    ])
    def test_negative_noise_std_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", out)
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["--methods", "cpfg,foo"], id="unknown-method"),
        pytest.param(["--methods", ","], id="no-methods"),
        pytest.param(["--a-values", ""], id="no-a-values"),
        pytest.param(["--noise-std", ""], id="no-noise-std"),
        pytest.param(["--reps", "0"], id="no-reps"),
    ])
    def test_empty_or_unknown_sweep_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "r.csv"
        assert exit_code("benchmark", "--a-values", "1", "--noise-std", "0", "--reps", "1",
                         "--size", "32", *argv, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", list(IMPOSSIBLE_OPTIONS.values()),
                             ids=list(IMPOSSIBLE_OPTIONS))
    def test_impossible_option_is_usage_error(self, tmp_path, capsys, argv):
        img = tmp_path / "img.fpai"
        write_container(img, np.zeros((16, 16)))
        ds = _dataset(tmp_path)
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        assert exit_code(*[a.format(t=tmp_path, img=img, ds=ds) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert set(tmp_path.rglob("*")) == before

    def test_split_that_leaves_no_training_items_is_numerical(self, tmp_path, capsys):
        # a fraction inside (0, 1) that takes every item of this 4-item dataset
        assert run("train", "--dataset", _dataset(tmp_path), "--val-fraction", "0.9",
                   "--out", tmp_path / "m.fpaw") == 4
        assert "no training items" in capsys.readouterr().err
        assert not (tmp_path / "m.fpaw").exists()

    def test_report_path_that_is_a_directory_leaves_no_temp(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run("simulate", "--mode", "object", "--rows", "16", "--cols", "16",
                   "--out", tmp_path / "o.fpai", "--json-report", taken) == 3
        assert not (tmp_path / "taken.tmp").exists()

    def test_pipeline_failure_is_one_error_line(self, tmp_path, peaks_object, huge_model):
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", "pipeline", "--fringe",
             str(peaks_object), "--model", str(huge_model), "--out-dir", str(tmp_path / "run"),
             "--exclude-border", "8"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert not (tmp_path / "run").exists()

    def test_success_is_zero(self, tmp_path):
        img = tmp_path / "img.fpai"
        write_container(img, np.linspace(0, 3, 256).reshape(16, 16))
        assert run("evaluate", "--pred", img, "--ref", img) == 0


# each command reading a single-channel image, given a file of the wrong
# shape: "2ch" is a two-channel stack, "obj" the 32x32 peaks fringe
WRONG_CHANNELS = {
    "infer": ["infer", "--model", "{model}", "--input", "{2ch}", "--out", "{tmp}/x.fpai"],
    "orient-classic": ["orient-classic", "--input", "{2ch}", "--out", "{tmp}/x.fpai"],
    "unwrap-orientation": ["unwrap-orientation", "--input", "{2ch}",
                           "--out", "{tmp}/x.fpai"],
    "pipeline-fringe": ["pipeline", "--fringe", "{2ch}", "--model", "{model}",
                        "--out-dir", "{tmp}/run"],
    "pipeline-truth-phase": ["pipeline", "--fringe", "{obj}", "--model", "{model}",
                             "--out-dir", "{tmp}/run", "--exclude-border", "8"],
    "demodulate-fringe": ["demodulate", "--fringe", "{2ch}", "--direction", "{obj}",
                          "--out-wrapped", "{tmp}/w.fpai", "--out-phase", "{tmp}/p.fpai"],
    "demodulate-direction": ["demodulate", "--fringe", "{obj}", "--direction", "{2ch}",
                             "--out-wrapped", "{tmp}/w.fpai",
                             "--out-phase", "{tmp}/p.fpai"],
    "rmse-phase": ["evaluate", "--metric", "rmse-phase", "--pred", "{2ch}",
                   "--ref", "{2ch}"],
    "rmse-sin-on-2d": ["evaluate", "--metric", "rmse-sin", "--pred", "{obj}",
                       "--ref", "{obj}"],
}


def _wrong_channels_argv(case, tmp_path, peaks_object, tiny_model):
    two = tmp_path / "two.fpai"
    write_container(two, np.zeros((2, 32, 32)))
    # the sidecar names the ground-truth phase; give it two channels too
    write_container(tmp_path / "obj_phase.fpai", np.zeros((2, 32, 32)))
    paths = {"2ch": two, "obj": peaks_object, "model": tiny_model, "tmp": tmp_path}
    return [arg.format(**paths) for arg in WRONG_CHANNELS[case]]


class TestWrongChannelCount:
    @pytest.mark.parametrize("case", list(WRONG_CHANNELS))
    def test_is_format_error(self, case, tmp_path, peaks_object, tiny_model):
        assert run(*_wrong_channels_argv(case, tmp_path, peaks_object, tiny_model)) == 3

    def test_reported_without_traceback(self, tmp_path, peaks_object, tiny_model):
        argv = _wrong_channels_argv("demodulate-direction", tmp_path, peaks_object,
                                    tiny_model)
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "single-channel" in proc.stderr


class TestSimulate:
    def test_dataset_round_trip_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--out", out, "--count", "3",
                       "--rows", "16", "--cols", "16", "--seed", "7") == 0
        for item in load_manifest(a / "manifest.json").items:
            for key in ("fringe", "encoding", "fo"):
                assert (a / item[key]).read_bytes() == (b / item[key]).read_bytes()

    def test_object_mode_sidecar_links_ground_truth(self, peaks_object):
        sidecar = json.loads(peaks_object.with_suffix(".json").read_text())
        assert sidecar["kind"] == "fringe"
        gt = sidecar["ground_truth"]
        base = peaks_object.parent
        for key in ("phase", "fo", "direction"):
            assert (base / gt[key]).exists()


class TestEvaluate:
    def test_identical_orientation_maps_zero_oe(self, peaks_object, capsys):
        fo = peaks_object.parent / "obj_fo.fpai"
        assert run("evaluate", "--pred", fo, "--ref", fo, "--json-report", "-") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orientation_error"] == 0.0

    def test_rmse_phase_metric(self, peaks_object, capsys):
        phase = peaks_object.parent / "obj_phase.fpai"
        assert run("evaluate", "--pred", phase, "--ref", phase,
                   "--metric", "rmse-phase", "--json-report", "-") == 0
        assert json.loads(capsys.readouterr().out)["rmse_phase"] == 0.0

    def test_rmse_sin_names_the_file_that_is_not_an_encoding(self, peaks_object, tmp_path,
                                                             capsys):
        enc = tmp_path / "enc.fpai"
        write_container(enc, np.zeros((2, 32, 32)))
        assert run("evaluate", "--metric", "rmse-sin", "--pred", enc,
                   "--ref", peaks_object) == 3
        assert f"error: {peaks_object}: expected a (2, rows, cols)" in capsys.readouterr().err


class TestOrientClassic:
    def test_estimates_and_reports(self, peaks_object, tmp_path, capsys):
        fo_out = tmp_path / "fo.fpai"
        assert run("orient-classic", "--input", peaks_object, "--method", "cpfg",
                   "--window", "2", "--out", fo_out) == 0
        capsys.readouterr()  # drop orient-classic's output before parsing JSON
        assert run("evaluate", "--pred", fo_out,
                   "--ref", peaks_object.parent / "obj_fo.fpai",
                   "--exclude-border", "8", "--json-report", "-") == 0
        payload = json.loads(capsys.readouterr().out)
        # plumbing check: the 32x32 a=0.5 object is hard for w=2 CPFG, the
        # chain just has to produce a finite, plausible error
        assert 0.0 <= payload["orientation_error"] < 0.5


class TestUnwrapAndDemodulate:
    def test_unwrap_direction_from_ground_truth(self, peaks_object, tmp_path):
        out = tmp_path / "dir.fpai"
        assert run("unwrap-orientation", "--input", peaks_object.parent / "obj_fo.fpai",
                   "--out", out) == 0
        manifest = json.loads((tmp_path / "dir.fpai.manifest.json").read_text())
        assert {"row", "col", "direction"} <= set(manifest["branch_anchor"])

    def test_demodulate_smoke(self, peaks_object, tmp_path):
        assert run("demodulate", "--fringe", peaks_object,
                   "--direction", peaks_object.parent / "obj_direction.fpai",
                   "--out-wrapped", tmp_path / "w.fpai",
                   "--out-phase", tmp_path / "p.fpai") == 0
        wrapped = read_container(tmp_path / "w.fpai")
        assert wrapped.min() >= -np.pi and wrapped.max() < np.pi

    @pytest.mark.parametrize("size", [128, 192])
    def test_small_frame_chain_with_default_flags(self, tmp_path, size):
        # a 2 px CPFG window covers every pixel, so the lift's default 0.99
        # coverage holds below 200 px too
        obj, fo, direction = (tmp_path / f"{k}.fpai" for k in ("obj", "fo", "dir"))
        assert run("simulate", "--mode", "object", "--out", obj,
                   "--rows", size, "--cols", size, "--seed", "5") == 0
        assert run("orient-classic", "--input", obj, "--out", fo) == 0
        manifest = json.loads((tmp_path / "fo.fpai.manifest.json").read_text())
        assert manifest["valid_fraction"] == 1.0
        assert run("unwrap-orientation", "--input", fo, "--out", direction) == 0


class TestTrainInfer:
    def test_one_epoch_train_writes_loadable_model(self, tmp_path):
        ds = tmp_path / "ds"
        assert run("simulate", "--out", ds, "--count", "6",
                   "--rows", "16", "--cols", "16", "--seed", "1") == 0
        model = tmp_path / "m.fpaw"
        assert run("train", "--dataset", ds, "--epochs", "1", "--filters", "2",
                   "--blocks", "1", "--seed", "2", "--out", model) == 0
        weights = load_weights(model)
        assert weights.config.filters == 2
        history = json.loads((tmp_path / "m.fpaw.history.json").read_text())
        assert len(history["history"]) == 1

    def test_infer_writes_orientation(self, peaks_object, tiny_model, tmp_path):
        out = tmp_path / "fo.fpai"
        assert run("infer", "--model", tiny_model, "--input", peaks_object,
                   "--out", out) == 0
        fo = read_container(out)
        assert fo.shape == (32, 32)
        assert np.all((fo >= 0) & (fo < np.pi))

    def test_float32_overflow_is_numerical_error(self, peaks_object, huge_model, tmp_path):
        out = tmp_path / "fo.fpai"
        assert run("infer", "--model", huge_model, "--input", peaks_object, "--out", out) == 4
        assert not out.exists()

    def test_infer_missing_model_io_error(self, peaks_object, tmp_path):
        assert run("infer", "--model", tmp_path / "missing.fpaw",
                   "--input", peaks_object, "--out", tmp_path / "x.fpai") == 3

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.pop("config"), id="no-config"),
        pytest.param(lambda h: h["config"].update(paths=9), id="paths-9"),
    ])
    def test_malformed_model_header_is_format_error(self, peaks_object, tiny_model,
                                                     tmp_path, edit):
        raw = tiny_model.read_bytes()
        json_len = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + json_len])
        edit(header)
        blob = json.dumps(header).encode()
        tiny_model.write_bytes(raw[:8] + len(blob).to_bytes(4, "little")
                               + blob + raw[12 + json_len :])
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", "infer", "--model", str(tiny_model),
             "--input", str(peaks_object), "--out", str(tmp_path / "x.fpai")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "error:" in proc.stderr

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: [], id="list"),
        pytest.param(lambda m: {k: v for k, v in m.items() if k != "base_seed"},
                     id="no-base-seed"),
        pytest.param(lambda m: {**m, "base_seed": 1.5}, id="base-seed-float"),
    ])
    def test_malformed_dataset_manifest_is_format_error(self, tmp_path, capsys, edit):
        ds = _dataset(tmp_path)
        manifest = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps(edit(manifest)))
        assert run("train", "--dataset", ds, "--epochs", "1", "--filters", "2",
                   "--blocks", "1", "--out", tmp_path / "m.fpaw") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "manifest.json" in err
        assert not (tmp_path / "m.fpaw").exists()

    @pytest.mark.parametrize("count", [1, 4], ids=["first", "every"])
    def test_multi_channel_fringe_is_format_error(self, tmp_path, capsys, count):
        ds = _dataset(tmp_path)
        items = list(load_manifest(ds / "manifest.json").items)
        for item in items[:count]:
            write_container(ds / item["fringe"], np.zeros((2, 16, 16)))
        assert run("train", "--dataset", ds, "--epochs", "1", "--filters", "2",
                   "--blocks", "1", "--out", tmp_path / "m.fpaw") == 3
        assert "single-channel" in capsys.readouterr().err
        assert not (tmp_path / "m.fpaw").exists()

    def test_one_channel_encoding_names_the_file(self, tmp_path):
        ds = _dataset(tmp_path)
        item = next(load_manifest(ds / "manifest.json").items)
        write_container(ds / item["encoding"], np.zeros((16, 16)))
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", "train", "--dataset", str(ds),
             "--epochs", "1", "--filters", "2", "--blocks", "1",
             "--out", str(tmp_path / "m.fpaw")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and item["encoding"] in proc.stderr
        assert not (tmp_path / "m.fpaw").exists()

    def test_count_beyond_the_files_names_the_first_missing(self, tmp_path, capsys):
        # items derive lazily, so a huge count costs nothing before the first missing file
        ds = make_dataset(DatasetManifest(base_seed=4, count=2, rows=16, cols=16),
                          tmp_path / "ds").parent
        write_json(ds / "manifest.json",
                   {**json.loads((ds / "manifest.json").read_text()), "count": 200_000})
        assert run("train", "--dataset", ds, "--epochs", "1", "--filters", "2",
                   "--blocks", "1", "--out", tmp_path / "m.fpaw") == 3
        assert "item_0002_fringe.fpai" in capsys.readouterr().err
        assert not (tmp_path / "m.fpaw").exists()

    def test_version_1_manifest_trains_to_the_same_model(self, tmp_path):
        ds = _dataset(tmp_path)
        old = tmp_path / "old"
        old.mkdir()
        for path in ds.glob("item_*"):
            (old / path.name).write_bytes(path.read_bytes())
        write_json(old / "manifest.json",
                   _version_1_manifest(load_manifest(ds / "manifest.json")))
        for name in ("ds", "old"):
            assert run("train", "--dataset", tmp_path / name, "--epochs", "1",
                       "--filters", "2", "--blocks", "1",
                       "--out", tmp_path / f"{name}.fpaw") == 0
        assert (tmp_path / "ds.fpaw").read_bytes() == (tmp_path / "old.fpaw").read_bytes()


# sidecars that are not a JSON object naming the ground-truth files
BAD_SIDECARS = {
    "json-string": json.dumps("ground_truth").encode(),
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "not-utf8": b'{"kind": "fringe\xff"}',
    "fo-not-a-name": json.dumps({"ground_truth": {"fo": 5, "phase": "p.fpai"}}).encode(),
    "no-fo": json.dumps({"ground_truth": {"phase": "p.fpai"}}).encode(),
}


class TestPipeline:
    @pytest.mark.parametrize("case", BAD_SIDECARS)
    def test_bad_sidecar_is_format_error(self, case, tmp_path, peaks_object, tiny_model,
                                         capsys):
        peaks_object.with_suffix(".json").write_bytes(BAD_SIDECARS[case])
        assert run("pipeline", "--fringe", peaks_object, "--model", tiny_model,
                   "--out-dir", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "obj" in err

    def test_pipeline_produces_report(self, tmp_path, tiny_model):
        obj = tmp_path / "obj.fpai"
        assert run("simulate", "--mode", "object", "--out", obj, "--a", "0.3",
                   "--rows", "64", "--cols", "64", "--seed", "9") == 0
        out_dir = tmp_path / "run"
        assert run("pipeline", "--fringe", obj, "--model", tiny_model,
                   "--out-dir", out_dir) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["report"] is not None
        assert manifest["report"]["rmse_phase"] >= 0
        for name in ("fo.fpai", "direction.fpai", "wrapped.fpai", "phase.fpai"):
            assert (out_dir / name).exists()

    def test_pipeline_missing_model_stage_error(self, tmp_path):
        obj = tmp_path / "obj.fpai"
        assert run("simulate", "--mode", "object", "--out", obj,
                   "--rows", "32", "--cols", "32") == 0
        assert run("pipeline", "--fringe", obj, "--model", tmp_path / "no.fpaw",
                   "--out-dir", tmp_path / "run") == 3
        assert not (tmp_path / "run").exists()

    def test_pipeline_reruns_identically(self, tmp_path, tiny_model):
        obj = tmp_path / "obj.fpai"
        assert run("simulate", "--mode", "object", "--out", obj, "--a", "0.3",
                   "--rows", "32", "--cols", "32", "--seed", "9") == 0
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert run("pipeline", "--fringe", obj, "--model", tiny_model,
                       "--out-dir", out_dir, "--exclude-border", "8") == 0
            outs.append((out_dir / "phase.fpai").read_bytes())
        assert outs[0] == outs[1]


def test_cli_import_loads_no_process_pool():
    # only a parallel benchmark sweep starts a pool; no other command pays its import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fringeproc.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert proc.stdout.strip() == "[]"


class TestBenchmark:
    @pytest.mark.parametrize("threads", ["two", "0"])
    def test_bad_thread_count_is_usage_error(self, tmp_path, threads):
        # checked before the (missing) model is read, which would exit 3
        proc = subprocess.run(
            [sys.executable, "-m", "fringeproc.cli", "benchmark", "--a-values", "0",
             "--methods", "deeporient", "--model", str(tmp_path / "missing.fpaw"),
             "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC, "FRINGEPROC_THREADS": threads},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "FRINGEPROC_THREADS" in proc.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_row_count_and_determinism(self, tmp_path):
        args = ["benchmark", "--a-values", "0,2", "--noise-std", "0.1",
                "--methods", "gradient,cpfg", "--reps", "2", "--size", "32",
                "--seed", "11", "--exclude-border", "4"]
        c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(*args, "--out", c1) == 0
        assert run(*args, "--out", c2) == 0
        lines = c1.read_text().strip().splitlines()
        assert lines[0] == "a,noise_std,method,seed,oe"
        assert len(lines) - 1 == 2 * 1 * 2 * 2  # |a| * |noise| * |methods| * reps
        assert c1.read_bytes() == c2.read_bytes()

    def test_process_pool_matches_serial(self, tmp_path, monkeypatch):
        args = ["benchmark", "--a-values", "0,2", "--noise-std", "0,0.1",
                "--methods", "gradient,cpfg", "--reps", "2", "--size", "32",
                "--seed", "11", "--exclude-border", "4"]
        assert run(*args, "--emit-error-maps", tmp_path / "m1",
                   "--out", tmp_path / "serial.csv") == 0
        monkeypatch.setenv("FRINGEPROC_THREADS", "2")
        assert run(*args, "--emit-error-maps", tmp_path / "m2",
                   "--out", tmp_path / "pool.csv") == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()
        maps = sorted(p.name for p in (tmp_path / "m1").iterdir())
        assert maps == sorted(p.name for p in (tmp_path / "m2").iterdir())
        for name in maps:
            assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes()

    def test_deeporient_requires_model(self, tmp_path):
        assert run("benchmark", "--a-values", "0", "--methods", "deeporient",
                   "--out", tmp_path / "x.csv") == 2

    def test_noise_monotonicity_reported_not_hard_failed(self, tmp_path, capsys):
        # aggregate ordering must hold; single-seed violations are reported
        out = tmp_path / "sweep.csv"
        assert run("benchmark", "--a-values", "0,2", "--noise-std", "0,0.1",
                   "--methods", "cpfg", "--reps", "3", "--size", "48",
                   "--seed", "17", "--exclude-border", "4", "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        oe = {}
        for a, noise, method, seed, value in rows:
            oe.setdefault((float(a), float(noise)), []).append(float(value))
        violations = []
        for a in (0.0, 2.0):
            clean = sorted(oe[(a, 0.0)])
            noisy = sorted(oe[(a, 0.1)])
            assert np.mean(noisy) >= np.mean(clean)
            violations += [f"a={a} rep={i}" for i, (n, c)
                           in enumerate(zip(noisy, clean)) if n < c]
        if violations:  # report, never hard-fail a single seed
            print("per-seed noise-ordering violations:", "; ".join(violations))

    def test_error_maps_emitted(self, tmp_path):
        maps_dir = tmp_path / "maps"
        assert run("benchmark", "--a-values", "1", "--noise-std", "0",
                   "--methods", "cpfg", "--reps", "1", "--size", "32",
                   "--emit-error-maps", maps_dir,
                   "--out", tmp_path / "r.csv") == 0
        emitted = list(maps_dir.glob("*.fpai"))
        assert len(emitted) == 1
        assert read_container(emitted[0]).min() >= 0


def _version_1_manifest(manifest):
    """The JSON that manifest version 1 held: the five fields, the derived item
    list and the generator's ranges."""
    return {**manifest.to_json(), "version": 1, "items": list(manifest.items),
            "kernel_count_range": [1, 50], "sigma_range": None,
            "amplitude_range": [-8.0, 8.0], "period_range": [8.0, 32.0],
            "theta_range": [0.0, math.pi]}


def _dataset(tmp_path):
    make_dataset(DatasetManifest(base_seed=4, count=4, rows=16, cols=16), tmp_path / "ds")
    return tmp_path / "ds"


# each file-writing command: (argv, manifest path) for a tmp dir, fringe object, model
RECORDED = {
    "simulate-dataset": lambda t, obj, model: (
        ["simulate", "--out", t / "sim", "--count", "2", "--rows", "16", "--cols", "16"],
        t / "sim" / "run_manifest.json"),
    "simulate-object": lambda t, obj, model: (
        ["simulate", "--mode", "object", "--out", t / "o.fpai", "--rows", "16",
         "--cols", "16"], t / "o.fpai.manifest.json"),
    "train": lambda t, obj, model: (
        ["train", "--dataset", _dataset(t), "--epochs", "1", "--filters", "2",
         "--blocks", "1", "--out", t / "m.fpaw"], t / "m.fpaw.manifest.json"),
    "infer": lambda t, obj, model: (
        ["infer", "--model", model, "--input", obj, "--out", t / "fo.fpai"],
        t / "fo.fpai.manifest.json"),
    "orient-classic": lambda t, obj, model: (
        ["orient-classic", "--input", obj, "--out", t / "fo.fpai"],
        t / "fo.fpai.manifest.json"),
    "unwrap-orientation": lambda t, obj, model: (
        ["unwrap-orientation", "--input", t / "obj_fo.fpai", "--out", t / "dir.fpai"],
        t / "dir.fpai.manifest.json"),
    "demodulate": lambda t, obj, model: (
        ["demodulate", "--fringe", obj, "--direction", t / "obj_direction.fpai",
         "--out-wrapped", t / "w.fpai", "--out-phase", t / "p.fpai"],
        t / "p.fpai.manifest.json"),
    "benchmark": lambda t, obj, model: (
        ["benchmark", "--a-values", "1", "--noise-std", "0", "--methods", "cpfg,deeporient",
         "--model", model, "--reps", "1", "--size", "32", "--emit-error-maps", t / "maps",
         "--out", t / "r.csv"], t / "r.csv.manifest.json"),
    "pipeline": lambda t, obj, model: (
        ["pipeline", "--fringe", obj, "--model", model, "--out-dir", t / "run",
         "--exclude-border", "8"],
        t / "run" / "run_manifest.json"),
}


def _accounted_for(listed):
    """The files a manifest's outputs account for: each listed file, a listed
    image's sidecar, everything in a listed directory, and the items of a
    listed dataset manifest with their sidecars."""
    for path in listed:
        if path.is_dir():
            yield from path.rglob("*")
            continue
        yield path
        if path.suffix == ".fpai":
            yield path.with_suffix(".json")
        elif path.name == "manifest.json":
            for item in load_manifest(path).items:
                for key in ("fringe", "encoding", "fo"):
                    yield path.parent / item[key]
                    yield (path.parent / item[key]).with_suffix(".json")


@pytest.mark.parametrize("case", RECORDED)
def test_every_command_records_one_manifest(case, tmp_path, peaks_object, tiny_model,
                                            capsys):
    argv, manifest_path = RECORDED[case](tmp_path, peaks_object, tiny_model)
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv, "--seed", "3", "--json-report", "-") == 0
    text = manifest_path.read_text()
    manifest = json.loads(text)
    assert manifest["tool"] == "fringeproc"
    assert manifest["version"]
    assert manifest["command"] == argv[0]
    assert manifest["args"]["seed"] == 3 and "json_report" not in manifest["args"]
    # stdout is the report alone, the manifest byte for byte; progress goes to stderr
    out = capsys.readouterr().out
    assert out == text
    assert json.loads(out) == manifest
    assert not list(tmp_path.rglob("*.tmp"))
    # outputs lists every written file, and every listed image has a sidecar
    # with its kind, the run's seed and the run's options
    listed = [Path(p) for p in manifest["outputs"]]
    assert listed and all(p.exists() for p in listed)
    written = {p for p in tmp_path.rglob("*") if p not in before and p.is_file()}
    assert written - {manifest_path} <= set(_accounted_for(listed))
    for path in (p for p in listed if p.suffix == ".fpai"):
        sidecar = read_sidecar(path)
        assert sidecar["kind"] in SIDECAR_KINDS
        assert sidecar["seed"] == 3 and sidecar["params"] == manifest["args"]
    # a command that reads a model (or, for train, writes one) records its hash
    model = next((argv[i + 1] for i, a in enumerate(argv) if a == "--model"),
                 argv[argv.index("--out") + 1] if argv[0] == "train" else None)
    if model is not None:
        assert manifest["model_sha256"] == hashlib.sha256(Path(model).read_bytes()).hexdigest()


@pytest.mark.slow
def test_payload_hash_listing_is_reproducible(tmp_path):
    # the listing is the byte-identity check between two checkouts, so two
    # runs of one checkout must agree on every payload
    script = Path(__file__).with_name("payload_hashes.py")
    listings = [subprocess.run([sys.executable, str(script), str(tmp_path / name)],
                               capture_output=True, text=True, check=True).stdout
                for name in ("a", "b")]
    assert listings[0] == listings[1]
    paths = [line.split("  ", 1)[1] for line in listings[0].splitlines()]
    assert {"model.fpaw", "sweep.csv", "fo_cpfg.fpai", "fo_net.fpai",
            "pipeline_peaks/phase.fpai", "pipeline_blob/phase.fpai"} <= set(paths)
