"""CLI behavior: strict configs, artifacts, reproducibility, exit codes."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrbound
from reference import save_csv
from vrbound import GaussianDist, TrainingDiverged, cli, renyi_gaussian
from vrbound.cli import main
from vrbound.io import load_params, save_params
from vrbound.models.data import synthetic_regression
from vrbound.models.vae import VAEModel


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def divergence_config(out_dir: Path) -> dict:
    return {
        "kind": "divergence",
        "seed": 3,
        "output_dir": str(out_dir),
        "divergence": {
            "p": {"mean": [0.0, 0.0], "variances": [1.0, 1.0]},
            "q": {"mean": [1.0, 1.0], "variances": [1.0, 1.0]},
            "alphas": [-1.0, 0.0, 0.5, 1.0, 2.0, "inf"],
        },
    }


_BIAS_SIM = {
    "p": {"mean": [0.0], "variances": [1.0]},
    "q": {"mean": [1.0], "variances": [1.0]},
    "alphas": [0.5],
    "ks": [2],
}

_VAE_TRAIN = {"dataset": {"synthetic": "binary-images"}}

_DIVERGENCE = {
    "p": {"mean": [0.0], "variances": [1.0]},
    "q": {"mean": [1.0], "variances": [1.0]},
    "alphas": [0.5],
}

_EVAL = {
    "params": "params.bin",
    "model": {"data_dim": 64},
    "dataset": {"synthetic": "binary-images"},
    "alphas": [0.0],
    "ks": [2],
}


class TestDivergenceRun:
    def test_outputs_and_values(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", divergence_config(out_dir))
        assert main(["divergence", "--config", cfg]) == 0

        lines = (out_dir / "divergence.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,value"
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
        for line in lines[1:]:
            alpha_s, value_s = line.split(",")
            expected = renyi_gaussian(p, q, float(alpha_s))
            assert float(value_s) == pytest.approx(expected, abs=1e-12) or (
                math.isinf(expected) and math.isinf(float(value_s))
            )
        assert (out_dir / "divergence.csv.manifest.json").exists()
        assert (out_dir / "resolved_config.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kind"] == "divergence"
        assert "divergence.csv" in manifest["outputs"]

    def test_rerun_with_resolved_config_is_bit_identical(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", divergence_config(out_dir))
        assert main(["divergence", "--config", cfg]) == 0
        first = (out_dir / "divergence.csv").read_bytes()
        resolved = out_dir / "resolved_config.json"
        second_dir = tmp_path / "out2"
        assert main([
            "divergence", "--config", str(resolved), "--output-dir", str(second_dir),
        ]) == 0
        assert (second_dir / "divergence.csv").read_bytes() == first


class TestConfigValidation:
    def test_unknown_key_names_the_key(self, tmp_path, capsys):
        payload = divergence_config(tmp_path / "out")
        payload["divergence"]["surprise"] = 1
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["divergence", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2
        assert "divergence.surprise" in err["error"]["message"]

    def test_unknown_top_level_key(self, tmp_path, capsys):
        payload = divergence_config(tmp_path / "out")
        payload["verbosity"] = True
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["divergence", "--config", cfg]) == 2
        assert "verbosity" in capsys.readouterr().err

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", divergence_config(tmp_path / "out"))
        assert main(["bias-sim", "--config", cfg]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["divergence", "--config", str(tmp_path / "nope.json")]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 4

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["divergence", "--config", str(bad)]) == 2

    def test_missing_required_key(self, tmp_path, capsys):
        payload = divergence_config(tmp_path / "out")
        del payload["divergence"]["alphas"]
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["divergence", "--config", cfg]) == 2
        assert "divergence.alphas" in capsys.readouterr().err

    def test_bad_gaussian_rejected(self, tmp_path, capsys):
        payload = divergence_config(tmp_path / "out")
        payload["divergence"]["p"] = {"mean": [0.0], "variances": [-1.0]}
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["divergence", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "kind, section, key",
        [
            ("blr-demo", {"fit_alphas": [1.0, -0.5]}, "blr_demo.fit_alphas"),
            ("blr-demo", {"fit_alphas": ["-inf"]}, "blr_demo.fit_alphas"),
            (
                "bias-sim",
                {
                    "p": {"mean": [0.0], "variances": [1.0]},
                    "q": {"mean": [1.0], "variances": [1.0]},
                    "alphas": [0.5],
                    "ks": [2],
                    "repeats": 1,
                },
                "bias_sim.repeats",
            ),
            (
                "eval",
                {
                    "params": "params.bin",
                    "model": {"data_dim": 64},
                    "dataset": {"synthetic": "binary-images"},
                    "alphas": [0.0],
                    "ks": [2],
                    "repeats": 1,
                },
                "eval.repeats",
            ),
            # counts: integers >= 1, no bools or floats, and at least one K
            ("bias-sim", _BIAS_SIM | {"ks": [0]}, "bias_sim.ks"),
            ("bias-sim", _BIAS_SIM | {"ks": [2.7]}, "bias_sim.ks"),
            ("bias-sim", _BIAS_SIM | {"ks": [2, True]}, "bias_sim.ks"),
            ("eval", _EVAL | {"ks": [0]}, "eval.ks"),
            ("eval", _EVAL | {"ks": [2.7]}, "eval.ks"),
            ("eval", _EVAL | {"ks": []}, "eval.ks"),
            ("eval", _EVAL | {"k_ref": 0}, "eval.k_ref"),
            ("eval", _EVAL | {"max_points": 0}, "eval.max_points"),
            ("eval", _EVAL | {"max_points": -195}, "eval.max_points"),
            # every alpha of a list is type-checked and parsed
            ("divergence", _DIVERGENCE | {"alphas": [True]}, "divergence.alphas"),
            ("blr-demo", {"fit_alphas": [True]}, "blr_demo.fit_alphas"),
            ("divergence", _DIVERGENCE | {"alphas": [0.5, "one"]}, "divergence.alphas"),
            # a dataset takes only the keys its source reads, and one source
            (
                "eval",
                _EVAL | {"dataset": {"synthetic": "binary-images", "test_fraction": 0.5}},
                "eval.dataset.test_fraction",
            ),
            (
                "bnn-train",
                {"dataset": {"path": "reg.csv", "feature_columns": ["x0"], "n": 40}},
                "bnn_train.dataset.n",
            ),
            (
                "bnn-train",
                {"dataset": {"synthetic": "regression", "path": "reg.csv"}},
                "bnn_train.dataset",
            ),
            ("bnn-train", {"dataset": {"n": 40}}, "bnn_train.dataset"),
            ("bnn-train", {"dataset": {"synthetic": "mnist"}}, "bnn_train.dataset.synthetic"),
            ("bias-sim", _BIAS_SIM | {"alphas": [0.5, "inf"]}, "bias_sim.alphas"),
            # a standard error needs two held-out points
            ("eval", _EVAL | {"max_points": 1}, "eval.max_points"),
            # counts of draws and repeats above cli._MAX_COUNT, which at 10^12
            # would fail to allocate
            ("eval", _EVAL | {"k_ref": 10**12, "repeats": 2}, "eval.k_ref"),
            ("eval", _EVAL | {"k_ref": 100_001}, "eval.k_ref"),
            ("eval", _EVAL | {"ks": [2, 10**12]}, "eval.ks[1]"),
            ("eval", _EVAL | {"repeats": 10**12}, "eval.repeats"),
            ("vae-train", _VAE_TRAIN | {"eval_k": 10**12}, "vae_train.eval_k"),
            ("vae-train", _VAE_TRAIN | {"train": {"k": 10**12}}, "vae_train.train.k"),
            (
                "bnn-train",
                {"dataset": {"synthetic": "regression"}, "train": {"k": 10**12}},
                "bnn_train.train.k",
            ),
            ("bias-sim", _BIAS_SIM | {"ks": [10**12]}, "bias_sim.ks[0]"),
            ("bias-sim", _BIAS_SIM | {"repeats": 10**12}, "bias_sim.repeats"),
            # sizes of a dataset, a layer and a grid above the same limit; at
            # 10^12 each would fail to allocate
            (
                "bnn-train",
                {"dataset": {"synthetic": "regression", "n": 10**12}},
                "bnn_train.dataset.n",
            ),
            (
                "bnn-train",
                {"dataset": {"synthetic": "regression"}, "hidden": 10**12},
                "bnn_train.hidden",
            ),
            ("vae-train", _VAE_TRAIN | {"latent_dim": 10**12}, "vae_train.latent_dim"),
            ("vae-train", _VAE_TRAIN | {"hidden": 10**12}, "vae_train.hidden"),
            ("vae-train", _VAE_TRAIN | {"encoder_hidden": 10**12}, "vae_train.encoder_hidden"),
            ("eval", _EVAL | {"model": {"data_dim": 10**12}}, "eval.model.data_dim"),
            (
                "eval",
                _EVAL | {"model": {"data_dim": 64, "latent_dim": 10**12}},
                "eval.model.latent_dim",
            ),
            ("eval", _EVAL | {"model": {"data_dim": 64, "hidden": 10**12}}, "eval.model.hidden"),
            (
                "eval",
                _EVAL | {"model": {"data_dim": 64, "encoder_hidden": 10**12}},
                "eval.model.encoder_hidden",
            ),
            ("blr-demo", {"n_data": 10**12}, "blr_demo.n_data"),
            ("blr-demo", {"sigma_grid": {"points": 10**12}}, "blr_demo.sigma_grid.points"),
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, capsys, kind, section, key):
        payload = {"kind": kind, "output_dir": str(tmp_path / "out")}
        payload[kind.replace("-", "_")] = section
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main([kind, "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["exit_code"], err["type"]) == (2, "config")
        assert key in err["message"]
        assert not (tmp_path / "out").exists()


def test_counts_up_to_the_limit_pass_the_schema():
    # resolved only: no run starts
    most = cli._MAX_COUNT
    section = _EVAL | {"ks": [1, most], "k_ref": most, "repeats": most}
    cfg = cli.resolve_config({"kind": "eval", "output_dir": "out", "eval": section})
    assert (cfg["eval"]["ks"], cfg["eval"]["k_ref"], cfg["eval"]["repeats"]) == ([1, most], most, most)
    # and every size at the limit: none raises
    layers = {"latent_dim": most, "hidden": most, "encoder_hidden": most}
    sections = {
        "eval": _EVAL | {"model": {"data_dim": most} | layers},
        "vae-train": {"dataset": {"synthetic": "binary-images", "n": most}} | layers,
        "bnn-train": {"dataset": {"synthetic": "regression", "n": most}, "hidden": most},
        "blr-demo": {"n_data": most, "sigma_grid": {"points": most}},
    }
    for kind, section in sections.items():
        cli.resolve_config({"kind": kind, "output_dir": "out", kind.replace("-", "_"): section})


# The int keys of the schemas that need no ``max``, with the reason: every
# other int key sizes an array or a loop, so a config could ask for more
# memory than any machine has.
_UNSIZED_INTS = {
    "seed": "selects a random stream; it sizes nothing",
    "instance_seed": "selects the bundled regression instance; it sizes nothing",
    "split_seed": "selects a CSV dataset's split; it sizes nothing",
    "steps": "a count of optimizer steps: a run's time grows with it, its memory "
    "by one run-record row a step",
    "minibatch": "capped at the training rows, which dataset.n bounds",
    "max_points": "caps the held-out rows, which dataset.n bounds",
}


def _int_keys(spec: dict, path: str):
    """(path, spec) of every int key of the schema entry ``spec``, list items
    and every variant of a dict included."""
    if spec["type"] == "int":
        yield path, spec
    elif spec["type"] == "list":
        yield from _int_keys(spec["items"], path + "[]")
    elif spec["type"] == "dict":
        for schema in [spec["schema"]] if "schema" in spec else spec["variants"].values():
            for key, child in schema.items():
                yield from _int_keys(child, f"{path}.{key}")


def test_every_int_key_that_sizes_something_has_a_max():
    exempt = set()
    for kind, schema in cli._SCHEMAS.items():
        for path, spec in _int_keys({"type": "dict", "schema": schema}, kind):
            key = path.rsplit(".", 1)[-1]
            if key in _UNSIZED_INTS:
                exempt.add(key)
                continue
            assert "max" in spec, f"config key '{path}' has no max"
            assert spec.get("default", 0) <= spec["max"], path
    # no reason above outlives its key
    assert exempt == set(_UNSIZED_INTS)


def _csv_dataset(tmp_path: Path, **extra) -> dict:
    data = synthetic_regression(seed=0, n=40)
    save_csv(tmp_path / "reg.csv", data.features, data.targets)
    return {
        "path": str(tmp_path / "reg.csv"),
        "feature_columns": ["x0"],
        "target_column": "y",
    } | extra


def _images(n=320, **extra) -> dict:
    return {"dataset": {"synthetic": "binary-images", "n": n}} | extra


def _eval_section(**model) -> dict:
    return {
        "params": "params.bin",
        "model": {"data_dim": 64} | model,
        "dataset": {"synthetic": "binary-images", "n": 320},
        "alphas": [0.0],
        "ks": [2],
    }


_GAUSSIAN_PAIR_OF_TWO_DIMS = {
    "p": {"mean": [0.0], "variances": [1.0]},
    "q": {"mean": [0.0, 1.0], "variances": [1.0, 1.0]},
    "alphas": [0.5],
}

# case id -> (subcommand, section maker taking tmp_path, section named in the error)
_REJECTED_BY_LIBRARY = {
    "images-n-200": ("vae-train", lambda t: _images(n=200), "vae_train.dataset"),
    "vae-likelihood": ("vae-train", lambda t: _images(likelihood="poisson"), "vae_train"),
    "vae-latent-dim-0": ("vae-train", lambda t: _images(latent_dim=0), "vae_train"),
    "eval-likelihood": ("eval", lambda t: _eval_section(likelihood="poisson"), "eval.model"),
    "eval-data-dim": ("eval", lambda t: _eval_section(data_dim=16), "eval.model.data_dim"),
    "csv-test-fraction": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t, test_fraction=1.5)},
        "bnn_train.dataset",
    ),
    "train-k-0": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"k": 0}},
        "bnn_train.train",
    ),
    "train-negative-lr": (
        "vae-train",
        lambda t: _images(train={"learning_rate": -1}),
        "vae_train.train",
    ),
    "train-beta1-1": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"beta1": 1.0}},
        "bnn_train.train",
    ),
    "train-beta1-negative": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"beta1": -3}},
        "bnn_train.train",
    ),
    "train-beta2-1.5": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"beta2": 1.5}},
        "bnn_train.train",
    ),
    "train-negative-adam-eps": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"adam_eps": -1e-8}},
        "bnn_train.train",
    ),
    "train-lr-1e400": (
        "bnn-train",
        lambda t: {"dataset": _csv_dataset(t), "train": {"learning_rate": 1e400}},
        "bnn_train.train",
    ),
    "bnn-hidden-0": ("bnn-train", lambda t: {"dataset": _csv_dataset(t), "hidden": 0}, "bnn_train"),
    "blr-noise-std": ("blr-demo", lambda t: {"noise_std": -1}, "blr_demo"),
    "divergence-dims": ("divergence", lambda t: _GAUSSIAN_PAIR_OF_TWO_DIMS, "divergence"),
    "gaussian-variances-and-cov": (
        "divergence",
        lambda t: _DIVERGENCE | {"p": {"mean": [0.0], "variances": [1.0], "cov": [[1.0]]}},
        "divergence.p",
    ),
    "gaussian-neither": (
        "divergence", lambda t: _DIVERGENCE | {"q": {"mean": [0.0]}}, "divergence.q"
    ),
    "blr-noise-square-underflows": ("blr-demo", lambda t: {"noise_std": 1e-200}, "blr_demo"),
    "blr-noise-square-overflows": ("blr-demo", lambda t: {"noise_std": 1e200}, "blr_demo"),
    "blr-noise-too-small-for-data": ("blr-demo", lambda t: {"noise_std": 1e-160}, "blr_demo"),
    "blr-correlation": ("blr-demo", lambda t: {"correlation": 1.5}, "blr_demo"),
    "sigma-grid-points": (
        "blr-demo", lambda t: {"sigma_grid": {"points": -1}}, "blr_demo.sigma_grid"
    ),
    "sigma-grid-lo-0": ("blr-demo", lambda t: {"sigma_grid": {"lo": 0}}, "blr_demo.sigma_grid"),
    "sigma-grid-hi-nan": (
        "blr-demo", lambda t: {"sigma_grid": {"hi": math.nan}}, "blr_demo.sigma_grid"
    ),
    "sigma-grid-hi-1e300": (
        "blr-demo", lambda t: {"sigma_grid": {"hi": 1e300}}, "blr_demo.sigma_grid"
    ),
    "regression-n-0": (
        "bnn-train",
        lambda t: {"dataset": {"synthetic": "regression", "n": 0}},
        "bnn_train.dataset",
    ),
    "csv-no-test-rows": (
        "vae-train",
        lambda t: {"dataset": _csv_dataset(t, test_fraction=0)},
        "vae_train.dataset",
    ),
    "vae-eval-k-below-k": (
        "vae-train", lambda t: _images(eval_k=4, train={"k": 5}), "vae_train.eval_k"
    ),
}


class TestConfigValuesRejectedByTheLibrary:
    """Values that pass the schema but that a constructor or a runner rejects
    end the run with exit 2 and one JSON error object naming the config
    section, and leave no output directory behind; so does the deleted
    top-level key 'threads'."""

    @pytest.mark.parametrize("case", [*_REJECTED_BY_LIBRARY, "threads-key"])
    def test_exit_2_with_one_json_error(self, tmp_path, capsys, case):
        if case == "threads-key":
            kind, key = "divergence", "threads"
            payload = divergence_config(tmp_path / "out") | {"threads": 1}
        else:
            kind, make_section, key = _REJECTED_BY_LIBRARY[case]
            payload = {"kind": kind, "output_dir": str(tmp_path / "out")}
            payload[kind.replace("-", "_")] = make_section(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main([kind, "--config", cfg]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["exit_code"], err["type"]) == (2, "config")
        assert f"'{key}" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_the_parents_made_for_the_output_directory_go_too(self, tmp_path):
        out = tmp_path / "made" / "for" / "out"
        payload = {"kind": "blr-demo", "output_dir": str(out), "blr_demo": {"correlation": 1.5}}
        assert main(["blr-demo", "--config", write_config(tmp_path / "cfg.json", payload)]) == 2
        assert not (tmp_path / "made").exists()

    def test_a_directory_that_existed_before_the_run_stays(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        payload = {"kind": "blr-demo", "output_dir": str(out), "blr_demo": {"correlation": 1.5}}
        assert main(["blr-demo", "--config", write_config(tmp_path / "cfg.json", payload)]) == 2
        assert list(out.iterdir()) == []


class TestResolvedConfig:
    """The resolved config is a fixed point of the schema, and a dataset
    records only the keys its source reads."""

    @pytest.mark.parametrize(
        "kind, section",
        [
            ("divergence", _DIVERGENCE),
            ("bias-sim", _BIAS_SIM),
            ("blr-demo", {}),
            ("bnn-train", {"dataset": {"synthetic": "regression"}}),
            ("bnn-train", {"dataset": {"path": "reg.csv", "feature_columns": ["x0"]}}),
            ("vae-train", {"dataset": {"synthetic": "binary-images"}}),
            ("vae-train", {"dataset": {"path": "img.csv", "feature_columns": ["x0", "x1"]}}),
            ("eval", _EVAL),
            ("eval", _EVAL | {"dataset": {"path": "img.csv", "feature_columns": ["x0"]}}),
        ],
    )
    def test_resolving_the_resolved_config_changes_nothing(self, kind, section):
        raw = {"kind": kind, "output_dir": "out", kind.replace("-", "_"): section}
        resolved = cli.resolve_config(raw)
        assert cli.resolve_config(json.loads(json.dumps(resolved))) == resolved
        dataset = resolved[kind.replace("-", "_")].get("dataset")
        if dataset is not None:
            expected = (
                {"synthetic", "n", "seed"}
                if "synthetic" in dataset
                else {"path", "feature_columns", "target_column", "split_seed", "test_fraction"}
            )
            assert set(dataset) == expected


class TestSeedPrecedence:
    def _bias_config(self, tmp_path, seed=1):
        return {
            "kind": "bias-sim",
            "seed": seed,
            "output_dir": str(tmp_path / "out"),
            "bias_sim": {
                "p": {"mean": [0.0], "variances": [1.0]},
                "q": {"mean": [0.5], "variances": [1.0]},
                "alphas": [0.0, 1.0],
                "ks": [1, 4],
                "repeats": 20,
            },
        }

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self._bias_config(tmp_path, seed=1))
        assert main(["bias-sim", "--config", cfg]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["seed"] == 1
        assert main(["bias-sim", "--config", cfg, "--seed", "9"]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["seed"] == 9

    def test_env_beats_flag(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", self._bias_config(tmp_path))
        monkeypatch.setenv("VR_SEED", "42")
        assert main(["bias-sim", "--config", cfg, "--seed", "9"]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["seed"] == 42

    def test_seed_changes_bias_table(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self._bias_config(tmp_path))
        assert main(["bias-sim", "--config", cfg, "--seed", "1"]) == 0
        first = (tmp_path / "out" / "bias_table.csv").read_text()
        assert main(["bias-sim", "--config", cfg, "--seed", "2"]) == 0
        second = (tmp_path / "out" / "bias_table.csv").read_text()
        assert first != second
        assert main(["bias-sim", "--config", cfg, "--seed", "1"]) == 0
        assert (tmp_path / "out" / "bias_table.csv").read_text() == first


class TestBiasSimExactColumn:
    """The exact column is -D_alpha[q || p] in closed form: any dimension,
    and -inf where the divergence is infinite."""

    def _run(self, tmp_path, p, q, alphas):
        section = {"p": p, "q": q, "alphas": alphas, "ks": [1, 3], "repeats": 5}
        config = {"kind": "bias-sim", "output_dir": str(tmp_path / "out"), "bias_sim": section}
        assert main(["bias-sim", "--config", write_config(tmp_path / "cfg.json", config)]) == 0
        lines = (tmp_path / "out" / "bias_table.csv").read_text().splitlines()
        assert lines[0] == "alpha,K,mean,stderr,exact"
        return [line.split(",") for line in lines[1:]]

    def test_three_dimensional_pair(self, tmp_path):
        p = {"mean": [0.0, 0.0, 0.0], "variances": [1.0, 1.0, 1.0]}
        q = {"mean": [0.5, -0.5, 0.0], "variances": [1.0, 2.0, 0.5]}
        rows = self._run(tmp_path, p, q, [0.5, 3.0])
        pd = GaussianDist.diagonal(p["mean"], p["variances"])
        qd = GaussianDist.diagonal(q["mean"], q["variances"])
        assert float(rows[0][4]) == -renyi_gaussian(qd, pd, 0.5)
        # 3 p - 2 q is not positive definite: the divergence is infinite.
        assert [row[4] for row in rows if row[0] == "3.0"] == ["-inf", "-inf"]

    def test_divergent_order(self, tmp_path):
        p = {"mean": [0.0], "variances": [1.0]}
        q = {"mean": [0.0], "variances": [4.0]}
        rows = self._run(tmp_path, p, q, [3.0])
        assert [row[4] for row in rows] == ["-inf", "-inf"]


class TestBlrDemo:
    def test_demo_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "kind": "blr-demo",
                "output_dir": str(tmp_path / "out"),
                "blr_demo": {
                    "sigma_grid": {"lo": 0.6, "hi": 2.0, "points": 8},
                    "fit_alphas": [1.0, 0.0],
                },
            },
        )
        assert main(["blr-demo", "--config", cfg]) == 0
        fits = (tmp_path / "out" / "fits.csv").read_text().splitlines()
        assert fits[0].startswith("alpha,bound,converged")
        curves = (tmp_path / "out" / "sigma_curves.csv").read_text().splitlines()
        assert curves[0] == (
            "sigma,log_evidence,bound_alpha_1,bound_alpha_0,converged_alpha_1,converged_alpha_0"
        )
        assert len(curves) == 9
        assert all(line.split(",")[-2:] == ["True", "True"] for line in curves[1:])
        contours = (tmp_path / "out" / "contours.csv").read_text().splitlines()
        labels = {line.split(",")[0] for line in contours[1:]}
        assert labels == {"posterior", "1.0", "0.0"}

    def test_close_orders_get_their_own_columns(self, tmp_path):
        # '%g' prints 1.000000001 as '1'; each curve column is named by text
        # that reads back as its order, so that order gets its own values
        config = {"kind": "blr-demo", "output_dir": str(tmp_path / "out"), "blr_demo": {
            "sigma_grid": {"points": 2}, "fit_alphas": [1.0, 1.000000001, 0.5]
        }}
        assert main(["blr-demo", "--config", write_config(tmp_path / "cfg.json", config)]) == 0
        header, *rows = [
            line.split(",")
            for line in (tmp_path / "out" / "sigma_curves.csv").read_text().splitlines()
        ]
        assert header[2:5] == ["bound_alpha_1", "bound_alpha_1.000000001", "bound_alpha_0.5"]
        assert len(set(header)) == len(header)
        for row in rows:
            at_one, near_one = float(row[2]), float(row[3])
            assert near_one != at_one and abs(near_one - at_one) <= 1e-9

    def test_contour_cells_are_numbers(self, tmp_path):
        config = {"kind": "blr-demo", "output_dir": str(tmp_path / "out"), "blr_demo": {
            "sigma_grid": {"points": 2}, "fit_alphas": [1.0, 0.5, "inf"]
        }}
        assert main(["blr-demo", "--config", write_config(tmp_path / "cfg.json", config)]) == 0
        rows = (tmp_path / "out" / "contours.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 2 * 120
        for row in rows:
            [float(cell) for cell in row.split(",")[1:]]

    def test_sigma_grid_is_checked_before_any_output(self, tmp_path):
        section = {"sigma_grid": {"lo": 0.5, "hi": math.nan, "points": 3}}
        config = {"kind": "blr-demo", "output_dir": str(tmp_path / "out"), "blr_demo": section}
        assert main(["blr-demo", "--config", write_config(tmp_path / "cfg.json", config)]) == 2
        assert not (tmp_path / "out").exists()


class TestTrainAndEval:
    def test_bnn_train_from_csv(self, tmp_path):
        data = synthetic_regression(seed=0, n=40)
        csv_path = tmp_path / "reg.csv"
        save_csv(csv_path, data.features, data.targets)
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "kind": "bnn-train",
                "seed": 0,
                "output_dir": str(tmp_path / "out"),
                "bnn_train": {
                    "dataset": {
                        "path": str(csv_path),
                        "feature_columns": ["x0"],
                        "target_column": "y",
                    },
                    "hidden": 4,
                    "train": {"alpha": 0.5, "k": 2, "steps": 30, "minibatch": 10},
                },
            },
        )
        assert main(["bnn-train", "--config", cfg]) == 0
        out = tmp_path / "out"
        record = (out / "run_record.csv").read_text().splitlines()
        assert record[0].startswith("step,objective")
        assert len(record) == 31
        metrics = dict(
            line.split(",") for line in (out / "test_metrics.csv").read_text().splitlines()[1:]
        )
        assert float(metrics["test_rmse"]) > 0.0
        params = load_params(out / "params.bin")
        assert "mu" in params and "rho" in params
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_sha256"]

    def test_bnn_train_takes_a_k_above_the_vae_eval_default(self, tmp_path):
        # held-out evaluation is the VAE's alone: bnn-train has no eval_k
        payload = {
            "kind": "bnn-train",
            "output_dir": str(tmp_path / "out"),
            "bnn_train": {
                "dataset": {"synthetic": "regression", "n": 40},
                "hidden": 2,
                "train": {"k": 5001, "steps": 1},
            },
        }
        assert main(["bnn-train", "--config", write_config(tmp_path / "cfg.json", payload)]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["bnn_train"]["train"]["k"] == 5001
        assert "eval_k" not in resolved["bnn_train"]["train"]

    def test_vae_train_then_eval(self, tmp_path):
        train_cfg = write_config(
            tmp_path / "train.json",
            {
                "kind": "vae-train",
                "seed": 1,
                "output_dir": str(tmp_path / "run"),
                "vae_train": {
                    "dataset": {"synthetic": "binary-images", "n": 320, "seed": 4},
                    "latent_dim": 2,
                    "hidden": 8,
                    "train": {"alpha": 0.0, "k": 2, "steps": 25, "minibatch": 16},
                    "eval_k": 64,
                },
            },
        )
        assert main(["vae-train", "--config", train_cfg]) == 0
        params_path = tmp_path / "run" / "params.bin"
        assert params_path.exists()

        eval_cfg = write_config(
            tmp_path / "eval.json",
            {
                "kind": "eval",
                "seed": 2,
                "output_dir": str(tmp_path / "eval_out"),
                "eval": {
                    "params": str(params_path),
                    "model": {"data_dim": 64, "latent_dim": 2, "hidden": 8},
                    "dataset": {"synthetic": "binary-images", "n": 320, "seed": 4},
                    "alphas": [0.0, -1.0],
                    "ks": [2, 4],
                    "repeats": 2,
                    "k_ref": 32,
                    "max_points": 20,
                },
            },
        )
        assert main(["eval", "--config", eval_cfg]) == 0
        gap = (tmp_path / "eval_out" / "gap_table.csv").read_text().splitlines()
        assert gap[0] == "alpha,K,mean_bound,se_bound,mean_gap,se_gap"
        assert len(gap) == 5

    @pytest.mark.parametrize("kind", ["vae-train", "eval"])
    def test_one_held_out_row_is_rejected_before_any_output(self, tmp_path, capsys, kind):
        # the bound table's standard errors need two held-out points
        section = _EVAL if kind == "eval" else {}
        section = section | {"dataset": _csv_dataset(tmp_path, test_fraction=0.025)}
        config = {"kind": kind, "output_dir": str(tmp_path / "out")}
        config[kind.replace("-", "_")] = section
        assert main([kind, "--config", write_config(tmp_path / "cfg.json", config)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["exit_code"], err["type"]) == (2, "config")
        assert "1 test rows" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_divergent_training_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", _divergent_bnn_config(tmp_path))
        assert main(["bnn-train", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "diverged"


def _divergent_bnn_config(tmp_path: Path) -> dict:
    return {
        "kind": "bnn-train",
        "output_dir": str(tmp_path / "out"),
        "bnn_train": {
            "dataset": {"synthetic": "regression", "n": 40},
            "hidden": 4,
            "train": {"steps": 300, "learning_rate": 1e6, "k": 2},
        },
    }


class TestFailureOutput:
    """A failing run prints one JSON error object on stderr and nothing else;
    the warnings of a successful run are re-issued to the caller."""

    def test_divergent_run_prints_one_json_line(self, tmp_path):
        # The run overflows in numpy before it diverges; under the default
        # warning filters those RuntimeWarnings would reach stderr.
        cfg = write_config(tmp_path / "cfg.json", _divergent_bnn_config(tmp_path))
        src = str(Path(vrbound.__file__).parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "vrbound.cli", "bnn-train", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"]["type"] == "diverged"

    @pytest.mark.parametrize("fail", [False, True], ids=["success", "failure"])
    def test_warnings_reach_the_caller_only_on_success(self, tmp_path, monkeypatch, fail):
        run = cli._RUNNERS["divergence"]

        def noisy(cfg, out, seed):
            warnings.warn("noisy run", RuntimeWarning)
            if fail:
                raise TrainingDiverged(0, "diverged", {})
            return run(cfg, out, seed)

        monkeypatch.setitem(cli._RUNNERS, "divergence", noisy)
        cfg = write_config(tmp_path / "cfg.json", divergence_config(tmp_path / "out"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["divergence", "--config", cfg]) == (3 if fail else 0)
        assert [str(w.message) for w in caught] == ([] if fail else ["noisy run"])


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "mu": rng.standard_normal(5),
            "w": rng.standard_normal((3, 4)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "p.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], np.asarray(params[name], dtype=float))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_params(path)

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        save_params(path, {"mu": np.arange(3.0), "w": np.ones((2, 2))})
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated|bad magic"):
                load_params(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_params(path)
        # a corrupt shape whose size overflows any buffer
        path.write_bytes(b"VRBP" + struct.pack("<IIH1sI2Q", 1, 1, 1, b"w", 2, 2**40, 2**40))
        with pytest.raises(ValueError, match="truncated parameter file .* data of 'w'"):
            load_params(path)


def _vae_params() -> dict:
    return VAEModel(data_dim=64, latent_dim=2, hidden=8).init_params(0)


def _write_params(path: Path, params: dict) -> bytes:
    save_params(path, params)
    return path.read_bytes()


class TestEvalParamsContract:
    """A malformed params file ends `vr eval` with exit 2 and one JSON error."""

    @pytest.mark.parametrize(
        "make, phrase",
        [
            (lambda p: p.write_bytes(_write_params(p, _vae_params())[:-3]), "truncated"),
            (lambda p: p.write_bytes(b"NOPE" + _write_params(p, _vae_params())[4:]), "bad magic"),
            (lambda p: p.write_bytes(_write_params(p, _vae_params()) + b"junk"), "trailing bytes"),
            (
                lambda p: save_params(p, {k: v for k, v in _vae_params().items() if k != "enc_w1"}),
                "missing ['enc_w1']",
            ),
            (
                lambda p: save_params(p, _vae_params() | {"extra": np.zeros(2)}),
                "unexpected ['extra']",
            ),
            (
                lambda p: save_params(p, _vae_params() | {"enc_w1": np.zeros((8, 64))}),
                "tensor 'enc_w1' has shape (8, 64)",
            ),
            (
                lambda p: save_params(p, _vae_params() | {"dec_b2": np.full(64, math.nan)}),
                "tensor 'dec_b2' has a NaN or infinite entry",
            ),
            (
                lambda p: save_params(p, _vae_params() | {"enc_b_rho": np.array([0.0, math.inf])}),
                "tensor 'enc_b_rho' has a NaN or infinite entry",
            ),
        ],
        ids=["truncated", "bad-magic", "trailing", "missing", "unexpected", "shape", "nan", "inf"],
    )
    def test_malformed_params_exit_2(self, tmp_path, capsys, make, phrase):
        params_path = tmp_path / "params.bin"
        make(params_path)
        cfg = write_config(
            tmp_path / "eval.json",
            {
                "kind": "eval",
                "output_dir": str(tmp_path / "out"),
                "eval": {
                    "params": str(params_path),
                    "model": {"data_dim": 64, "latent_dim": 2, "hidden": 8},
                    "dataset": {"synthetic": "binary-images", "n": 320, "seed": 4},
                    "alphas": [0.0],
                    "ks": [2],
                    "repeats": 2,
                    "k_ref": 8,
                    "max_points": 4,
                },
            },
        )
        assert main(["eval", "--config", cfg]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["exit_code"], err["type"]) == (2, "config")
        assert "eval.params" in err["message"] and phrase in err["message"]


# ----------------------------------------------------------------------
# the contract as a property: any config value gives exit 0, 2, 3 or 4, and
# a failure prints exactly one JSON error object

# Values of the wrong type for most keys, and the non-finite floats.
WILD = st.sampled_from([math.nan, math.inf, -math.inf, True, False, "x", "inf", None, [], {}])
ALPHA = st.one_of(
    st.floats(), st.integers(-3, 3), st.sampled_from(["inf", "-inf", "+Infinity", "0.5", ""]), WILD
)


def _ints(lo: int, hi: int):
    """Integers in [lo, hi] (around a key's rule bound), or a wild value."""
    return st.one_of(st.integers(lo, hi), WILD)


def _lists(items, max_size: int = 3):
    return st.one_of(st.lists(items, max_size=max_size), WILD)


# Gaussian parameters keep moderate magnitudes; see the FOUND lines of
# CHANGES.md for the library's numerics at extreme ones.
SCALAR = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -1.0, 1e-3]), WILD)


@st.composite
def gaussians(draw):
    """A valid diagonal or full Gaussian of dimension 1 or 2, or one with
    drawn keys and values."""
    dim = draw(st.integers(1, 2))
    mean = draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim))
    variances = draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim))
    valid = st.sampled_from([
        {"mean": mean, "variances": variances},
        {"mean": mean, "cov": np.diag(variances).tolist()},
    ])
    drawn = st.fixed_dictionaries({}, optional={
        "mean": _lists(SCALAR), "variances": _lists(SCALAR), "cov": _lists(_lists(SCALAR))
    })
    return draw(st.one_of(valid, drawn, WILD))


@st.composite
def sections(draw, base: dict, keys: dict):
    """``base`` with up to two of its keys set to values drawn from ``keys``."""
    section = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=2, unique=True)):
        section[key] = draw(keys[key])
    return section


_GAUSSIAN_KEYS = {"p": gaussians(), "q": gaussians(), "alphas": _lists(ALPHA)}
_CONTRACT_SECTIONS = {
    "divergence": sections(
        {
            "p": {"mean": [0.0, 0.0], "variances": [1.0, 1.0]},
            "q": {"mean": [1.0, 0.5], "cov": [[1.0, 0.3], [0.3, 2.0]]},
            "alphas": [-1.0, 0.5, "inf"],
        },
        _GAUSSIAN_KEYS,
    ),
    "bias-sim": sections(
        _BIAS_SIM | {"alphas": [0.5, 2.0], "ks": [1, 3], "repeats": 3},
        _GAUSSIAN_KEYS | {"ks": _lists(_ints(-1, 4)), "repeats": _ints(0, 4)},
    ),
    "blr-demo": sections(
        {"sigma_grid": {"points": 2}},
        {
            "instance_seed": st.one_of(_ints(-2, 2), st.integers(0, 2**64)),
            "n_data": _ints(-2, 30),
            "noise_std": st.one_of(st.floats(), st.sampled_from([0.0, 1e-200, 1e200]), WILD),
            "correlation": st.one_of(st.floats(), st.sampled_from([-1.0, 1.0, 1.0 + 1e-15]), WILD),
            "fit_alphas": _lists(ALPHA),
            "sigma_grid": st.one_of(
                st.fixed_dictionaries({"points": _ints(-1, 2)}, optional={
                    "lo": st.one_of(st.floats(), WILD), "hi": st.one_of(st.floats(), WILD)
                }),
                WILD,
            ),
        },
    ),
}


_FLOAT = st.one_of(st.floats(), WILD)
_TRAIN_KEYS = {
    "alpha": ALPHA,
    "k": _ints(-1, 3),
    "minibatch": _ints(-1, 4),
    "learning_rate": _FLOAT,
    "beta1": _FLOAT,
    "beta2": _FLOAT,
    "adam_eps": _FLOAT,
}
# A tiny network for at most 3 steps of at most 3 draws.
_CONTRACT_SECTIONS["bnn-train"] = st.builds(
    lambda train: {"dataset": {"synthetic": "regression", "n": 40}, "hidden": 2, "train": train},
    sections({"k": 2, "steps": 2}, _TRAIN_KEYS),
)


@pytest.mark.parametrize("kind", sorted(_CONTRACT_SECTIONS))
def test_every_config_keeps_the_exit_code_contract(tmp_path_factory, kind):
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_CONTRACT_SECTIONS[kind])
    def check(section):
        out = tmp_path_factory.mktemp("contract")
        config = {"kind": kind, "output_dir": str(out / "out"), kind.replace("-", "_"): section}
        err = io.StringIO()
        # A successful run re-issues its warnings to the caller; they are
        # not part of the exit-code contract.
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([kind, "--config", write_config(out / "cfg.json", config)])
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["exit_code"] == code
        if code == 2:
            assert not (out / "out").exists()

    check()
