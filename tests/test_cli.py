"""CLI behavior: strict configs, artifacts, reproducibility, exit codes."""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from vrbound import GaussianDist, renyi_gaussian
from vrbound.cli import main
from vrbound.io import load_params, save_params
from vrbound.models.data import save_csv, synthetic_regression
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
    "bnn-hidden-0": ("bnn-train", lambda t: {"dataset": _csv_dataset(t), "hidden": 0}, "bnn_train"),
    "blr-noise-std": ("blr-demo", lambda t: {"noise_std": -1}, "blr_demo"),
    "divergence-dims": ("divergence", lambda t: _GAUSSIAN_PAIR_OF_TWO_DIMS, "divergence"),
}


class TestConfigValuesRejectedByTheLibrary:
    """Values that pass the schema but that a constructor rejects end the run
    with exit 2 and one JSON error object naming the config section; so does
    the deleted top-level key 'threads'."""

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
                    "train": {"alpha": 0.0, "k": 2, "steps": 25, "minibatch": 16, "eval_k": 64},
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "kind": "bnn-train",
                "output_dir": str(tmp_path / "out"),
                "bnn_train": {
                    "dataset": {"synthetic": "regression", "n": 40},
                    "hidden": 4,
                    "train": {"steps": 300, "learning_rate": 1e6, "k": 2},
                },
            },
        )
        assert main(["bnn-train", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "diverged"


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
        ],
        ids=["truncated", "bad-magic", "trailing", "missing", "unexpected", "shape"],
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
