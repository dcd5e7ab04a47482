"""Command-line entry point: reproducible experiments emitting CSV tables.

Each run is described by a strict JSON config (unknown keys are rejected by
name, defaults are filled in) and writes, next to its CSV outputs, the fully
resolved config, a per-file sidecar manifest, and a run manifest with content
hashes. Seed precedence: the VR_SEED environment variable beats the --seed
flag, which beats the config value. Exit codes: 0 success, 2 config error,
3 runtime divergence, 4 I/O failure; a failure prints one JSON error object
to stderr and nothing else there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import io as vio
from .alpha import parse_alpha
from .bounds import bias_simulation
from .divergence import renyi_gaussian
from .gaussian import GaussianDist
from .models.blr import blr_exact_posterior, blr_mean_field_fit, synthetic_blr_instance
from .models.bnn import BNNModel
from .models.data import Dataset, dataset_content_hash, load_csv, synthetic_binary_images, synthetic_regression
from .models.vae import VAEModel
from .training import EvalRow, RunRecord, TrainConfig, TrainingDiverged, evaluate_vae, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# schema-driven strict config parsing


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_type(value, expected: str, path: str):
    ok = {
        "int": _is_int,
        "number": _is_number,
        "bool": lambda v: isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "alpha": lambda v: _is_number(v) or isinstance(v, str),
        "list": lambda v: isinstance(v, list),
        "dict": lambda v: isinstance(v, dict),
    }[expected]
    if not ok(value):
        raise ConfigError(f"config key '{path}' must be a {expected}")


def _resolve_section(section: dict, schema: dict, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"config key '{path}' must be an object")
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}.{key}'" if path else f"unknown config key '{key}'")
    out = {}
    for key, spec in schema.items():
        child_path = f"{path}.{key}" if path else key
        if key in section:
            value = section[key]
        elif "default" in spec:
            value = spec["default"]
        elif spec.get("required", False):
            raise ConfigError(f"missing required config key '{child_path}'")
        else:
            value = None
        if value is None:
            out[key] = None
            continue
        if spec["type"] == "dict":
            out[key] = _resolve_section(value, spec["schema"], child_path)
        else:
            _check_type(value, spec["type"], child_path)
            out[key] = value
    return out


_GAUSSIAN_SCHEMA = {
    "mean": {"type": "list", "required": True},
    "variances": {"type": "list"},
    "cov": {"type": "list"},
}

_DATASET_SCHEMA = {
    "path": {"type": "string"},
    "feature_columns": {"type": "list"},
    "target_column": {"type": "string"},
    "synthetic": {"type": "string"},
    "n": {"type": "int", "default": 900},
    "seed": {"type": "int", "default": 0},
    "split_seed": {"type": "int", "default": 0},
    "test_fraction": {"type": "number", "default": 0.25},
}

_VAE_SCHEMA = {
    "latent_dim": {"type": "int", "default": 2},
    "hidden": {"type": "int", "default": 16},
    "encoder_hidden": {"type": "int"},
    "likelihood": {"type": "string", "default": "bernoulli"},
}

_TRAIN_SCHEMA = {
    "alpha": {"type": "alpha", "default": 1.0},
    "k": {"type": "int", "default": 5},
    "minibatch": {"type": "int", "default": 32},
    "steps": {"type": "int", "default": 1000},
    "learning_rate": {"type": "number", "default": 1e-3},
    "beta1": {"type": "number", "default": 0.9},
    "beta2": {"type": "number", "default": 0.999},
    "adam_eps": {"type": "number", "default": 1e-8},
    "eval_k": {"type": "int", "default": 5000},
    "single_backprop": {"type": "bool", "default": False},
}

_SCHEMAS = {
    "divergence": {
        "p": {"type": "dict", "schema": _GAUSSIAN_SCHEMA, "required": True},
        "q": {"type": "dict", "schema": _GAUSSIAN_SCHEMA, "required": True},
        "alphas": {"type": "list", "required": True},
    },
    "bias-sim": {
        "p": {"type": "dict", "schema": _GAUSSIAN_SCHEMA, "required": True},
        "q": {"type": "dict", "schema": _GAUSSIAN_SCHEMA, "required": True},
        "alphas": {"type": "list", "required": True},
        "ks": {"type": "list", "required": True},
        "repeats": {"type": "int", "default": 200},
    },
    "blr-demo": {
        "instance_seed": {"type": "int", "default": 0},
        "n_data": {"type": "int", "default": 25},
        "noise_std": {"type": "number", "default": 1.0},
        "correlation": {"type": "number", "default": 0.9},
        "fit_alphas": {"type": "list", "default": [1.0, 0.5, 0.0, "inf"]},
        "sigma_grid": {
            "type": "dict",
            "schema": {
                "lo": {"type": "number", "default": 0.5},
                "hi": {"type": "number", "default": 3.0},
                "points": {"type": "int", "default": 50},
            },
            "default": {},
        },
    },
    "bnn-train": {
        "dataset": {"type": "dict", "schema": _DATASET_SCHEMA, "required": True},
        "hidden": {"type": "int", "default": 50},
        "train": {"type": "dict", "schema": _TRAIN_SCHEMA, "default": {}},
    },
    "vae-train": {
        "dataset": {"type": "dict", "schema": _DATASET_SCHEMA, "required": True},
        **_VAE_SCHEMA,
        "train": {"type": "dict", "schema": _TRAIN_SCHEMA, "default": {}},
    },
    "eval": {
        "params": {"type": "string", "required": True},
        "model": {
            "type": "dict",
            "schema": {"data_dim": {"type": "int", "required": True}, **_VAE_SCHEMA},
            "required": True,
        },
        "dataset": {"type": "dict", "schema": _DATASET_SCHEMA, "required": True},
        "alphas": {"type": "list", "required": True},
        "ks": {"type": "list", "required": True},
        "repeats": {"type": "int", "default": 10},
        "k_ref": {"type": "int", "default": 5000},
        "max_points": {"type": "int", "default": 100},
    },
}

_TOP_SCHEMA_BASE = {
    "kind": {"type": "string", "required": True},
    "seed": {"type": "int", "default": 0},
    "output_dir": {"type": "string", "required": True},
}


def resolve_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    kind = raw.get("kind")
    if kind not in _SCHEMAS:
        raise ConfigError(
            f"config key 'kind' must be one of {sorted(_SCHEMAS)}, got {kind!r}"
        )
    section_key = kind.replace("-", "_")
    schema = dict(_TOP_SCHEMA_BASE)
    schema[section_key] = {"type": "dict", "schema": _SCHEMAS[kind], "required": True}
    resolved = _resolve_section(raw, schema, "")
    if resolved["seed"] < 0:
        raise ConfigError("config key 'seed' must be >= 0")
    section = resolved[section_key]
    if kind in ("bias-sim", "eval"):
        if section["repeats"] < 2:
            raise ConfigError(
                f"config key '{section_key}.repeats' must be >= 2 to report a standard error"
            )
        if not section["ks"] or not all(_is_int(k) and k >= 1 for k in section["ks"]):
            raise ConfigError(
                f"config key '{section_key}.ks' must be a non-empty list of integers >= 1"
            )
    if kind == "eval":
        for key in ("k_ref", "max_points"):
            if section[key] < 1:
                raise ConfigError(f"config key 'eval.{key}' must be >= 1")
    if kind == "blr-demo" and any(
        a < 0.0 for a in _alphas_from(section["fit_alphas"], "blr_demo.fit_alphas")
    ):
        raise ConfigError(
            "'blr_demo.fit_alphas' must be >= 0: the mean-field fit has no "
            "finite maximizer for negative orders"
        )
    return resolved


@contextmanager
def _building(path: str):
    """Report a ValueError or TypeError raised while an object is built from
    config section ``path`` as a ConfigError naming that section. Wrap only
    the construction, never a computation, so that a bug keeps its
    traceback."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _gaussian_from(section: dict, path: str) -> GaussianDist:
    mean = section["mean"]
    has_var = section.get("variances") is not None
    has_cov = section.get("cov") is not None
    if has_var == has_cov:
        raise ConfigError(f"'{path}' needs exactly one of 'variances' or 'cov'")
    with _building(path):
        if has_var:
            return GaussianDist.diagonal(mean, section["variances"])
        return GaussianDist.full(mean, section["cov"])


def _gaussian_pair(section: dict, path: str) -> tuple[GaussianDist, GaussianDist]:
    p = _gaussian_from(section["p"], f"{path}.p")
    q = _gaussian_from(section["q"], f"{path}.q")
    if p.dim != q.dim:
        raise ConfigError(f"'{path}': p has dimension {p.dim} but q has dimension {q.dim}")
    return p, q


def _alphas_from(values: list, path: str) -> list[float]:
    with _building(path):
        return [parse_alpha(v) for v in values]


def _dataset_from(section: dict, path: str) -> tuple[Dataset, str]:
    synthetic = section.get("synthetic")
    if synthetic is not None and section.get("path") is not None:
        raise ConfigError(f"'{path}': use either 'synthetic' or 'path', not both")
    if synthetic is not None:
        generators = {"regression": synthetic_regression, "binary-images": synthetic_binary_images}
        if synthetic not in generators:
            raise ConfigError(
                f"'{path}.synthetic' must be 'regression' or 'binary-images'"
            )
        with _building(path):
            data = generators[synthetic](seed=section["seed"], n=section["n"])
    elif section.get("path") is not None:
        if not section.get("feature_columns"):
            raise ConfigError(f"'{path}.feature_columns' is required with 'path'")
        with _building(path):
            data = load_csv(
                section["path"],
                [str(c) for c in section["feature_columns"]],
                section.get("target_column"),
                split_seed=section["split_seed"],
                test_fraction=section["test_fraction"],
            )
    else:
        raise ConfigError(f"'{path}' needs 'synthetic' or 'path'")
    return data, dataset_content_hash(data.features, data.targets)


def _train_config(section: dict, seed: int, path: str) -> TrainConfig:
    # The train schema's keys are TrainConfig's fields, less the seed.
    with _building(path):
        return TrainConfig(**(section | {"alpha": parse_alpha(section["alpha"]), "seed": seed}))


def _vae_from(section: dict, data_dim: int, path: str) -> VAEModel:
    with _building(path):
        return VAEModel(
            data_dim=data_dim,
            latent_dim=section["latent_dim"],
            hidden=section["hidden"],
            likelihood=section["likelihood"],
            encoder_hidden=section["encoder_hidden"],
        )


# ----------------------------------------------------------------------
# experiment runners: each returns its output files and the dataset hash


def _write_training(out: Path, params: dict, record: RunRecord) -> list[str]:
    """A training run's per-step record and final parameters."""
    vio.write_csv(
        out / "run_record.csv",
        ["step", "objective", "grad_norm", "log_weight_ratio", "weight_ratio", "wall_time"],
        record.as_records(),
    )
    vio.save_params(out / "params.bin", params)
    return ["run_record.csv", "params.bin"]


def _write_bound_table(path: Path, rows: list[EvalRow]) -> None:
    vio.write_csv(
        path,
        ["alpha", "K", "mean_bound", "se_bound", "mean_gap", "se_gap"],
        [row.__dict__ | {"K": row.k} for row in rows],
    )


def _run_divergence(cfg: dict, out: Path, seed: int) -> tuple[list[str], None]:
    section = cfg["divergence"]
    p, q = _gaussian_pair(section, "divergence")
    alphas = _alphas_from(section["alphas"], "divergence.alphas")
    rows = [{"alpha": a, "value": renyi_gaussian(p, q, a)} for a in alphas]
    vio.write_csv(out / "divergence.csv", ["alpha", "value"], rows)
    return ["divergence.csv"], None


def _run_bias_sim(cfg: dict, out: Path, seed: int) -> tuple[list[str], None]:
    section = cfg["bias_sim"]
    p, q = _gaussian_pair(section, "bias_sim")
    alphas = _alphas_from(section["alphas"], "bias_sim.alphas")
    if any(not math.isfinite(a) for a in alphas):
        raise ConfigError("'bias_sim.alphas' must be finite")
    table = bias_simulation(p, q, alphas, section["ks"], repeats=section["repeats"], seed=seed)
    vio.write_csv(
        out / "bias_table.csv", ["alpha", "K", "mean", "stderr", "exact"], table.as_records()
    )
    return ["bias_table.csv"], None


def _ellipse_points(mean: np.ndarray, cov: np.ndarray, level: float, n: int = 120) -> np.ndarray:
    """Points of the `level`-standard-deviation ellipse of a 2-D Gaussian."""
    theta = np.linspace(0.0, 2.0 * math.pi, n)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    chol = np.linalg.cholesky(cov)
    return mean + level * circle @ chol.T


def _run_blr_demo(cfg: dict, out: Path, seed: int) -> tuple[list[str], None]:
    section = cfg["blr_demo"]
    with _building("blr_demo"):
        model = synthetic_blr_instance(
            seed=section["instance_seed"],
            n_data=section["n_data"],
            noise_std=section["noise_std"],
            correlation=section["correlation"],
        )
    posterior, log_evidence = blr_exact_posterior(model)
    fit_alphas = _alphas_from(section["fit_alphas"], "blr_demo.fit_alphas")

    fit_rows = []
    contour_rows = []
    if model.dim == 2:
        for level in (1.0, 2.0):
            for x1, x2 in _ellipse_points(posterior.mean, posterior.cov, level):
                contour_rows.append(
                    {"label": "posterior", "level": level, "x": x1, "y": x2}
                )
    for a in fit_alphas:
        fit = blr_mean_field_fit(model, a)
        label = "inf" if math.isinf(a) else repr(float(a))
        row = {"alpha": label, "bound": fit.bound, "converged": fit.converged}
        for i in range(model.dim):
            row[f"mu{i + 1}"] = float(fit.q.mean[i])
            row[f"var{i + 1}"] = float(fit.q.variances[i])
        fit_rows.append(row)
        if model.dim == 2:
            for level in (1.0, 2.0):
                for x1, x2 in _ellipse_points(fit.q.mean, fit.q.cov, level):
                    contour_rows.append({"label": label, "level": level, "x": x1, "y": x2})

    header = ["alpha", "bound", "converged"]
    for i in range(model.dim):
        header += [f"mu{i + 1}", f"var{i + 1}"]
    vio.write_csv(out / "fits.csv", header, fit_rows)
    vio.write_csv(out / "contours.csv", ["label", "level", "x", "y"], contour_rows)

    grid = section["sigma_grid"]
    sigmas = np.linspace(grid["lo"], grid["hi"], grid["points"])
    curve_alphas = [a for a in fit_alphas if math.isfinite(a)]
    curve_rows = []
    for sigma in sigmas:
        at_sigma = model.with_noise(float(sigma))
        _, ev = blr_exact_posterior(at_sigma)
        row = {"sigma": float(sigma), "log_evidence": ev}
        for a in curve_alphas:
            fit = blr_mean_field_fit(at_sigma, a)
            row[f"bound_alpha_{a:g}"] = fit.bound
            row[f"converged_alpha_{a:g}"] = fit.converged
        curve_rows.append(row)
    curve_header = (
        ["sigma", "log_evidence"]
        + [f"bound_alpha_{a:g}" for a in curve_alphas]
        + [f"converged_alpha_{a:g}" for a in curve_alphas]
    )
    vio.write_csv(out / "sigma_curves.csv", curve_header, curve_rows)
    return ["fits.csv", "contours.csv", "sigma_curves.csv"], None


def _bnn_test_metrics(
    model: BNNModel, params: dict, data: Dataset, stats: dict, seed: int, samples: int = 200
) -> dict:
    rng = np.random.default_rng([seed, 101])
    x_test = (data.test_features - stats["x_mean"]) / stats["x_std"]
    y_test = data.test_targets
    mu, rho = params["mu"], params["rho"]
    noise = math.exp(float(params["log_noise"][0]))
    preds = np.empty((samples, x_test.shape[0]))
    for s in range(samples):
        theta = mu + np.exp(rho) * rng.standard_normal(mu.shape[0])
        preds[s] = model.predict(theta, x_test)
    y_sd, y_mu = stats["y_std"], stats["y_mean"]
    preds_orig = preds * y_sd + y_mu
    rmse = float(np.sqrt(np.mean((preds_orig.mean(axis=0) - y_test) ** 2)))
    # predictive density: mixture over posterior samples, rescaled to raw units
    resid = (y_test - preds_orig) / (noise * y_sd)
    point_ll = -0.5 * resid**2 - math.log(noise * y_sd) - 0.5 * math.log(2 * math.pi)
    from scipy.special import logsumexp

    mix_ll = logsumexp(point_ll, axis=0) - math.log(samples)
    return {"test_rmse": rmse, "test_predictive_ll": float(np.mean(mix_ll))}


def _run_bnn_train(cfg: dict, out: Path, seed: int) -> tuple[list[str], str]:
    section = cfg["bnn_train"]
    data, data_hash = _dataset_from(section["dataset"], "bnn_train.dataset")
    if data.targets is None:
        raise ConfigError("'bnn_train.dataset' needs targets")
    std_data, stats = data.standardized()
    with _building("bnn_train"):
        model = BNNModel(in_dim=data.features.shape[1], hidden=section["hidden"])
    tcfg = _train_config(section["train"], seed, "bnn_train.train")
    params, record = train(model, tcfg, std_data)
    outputs = _write_training(out, params, record)
    metrics = _bnn_test_metrics(model, params, data, stats, seed)
    vio.write_csv(
        out / "test_metrics.csv",
        ["metric", "value"],
        [{"metric": k, "value": v} for k, v in metrics.items()],
    )
    return outputs + ["test_metrics.csv"], data_hash


def _run_vae_train(cfg: dict, out: Path, seed: int) -> tuple[list[str], str]:
    section = cfg["vae_train"]
    data, data_hash = _dataset_from(section["dataset"], "vae_train.dataset")
    model = _vae_from(section, data.features.shape[1], "vae_train")
    tcfg = _train_config(section["train"], seed, "vae_train.train")
    params, record = train(model, tcfg, data)
    outputs = _write_training(out, params, record)
    rows = evaluate_vae(
        model,
        params,
        data.test_features,
        alphas=[0.0],
        ks=[tcfg.k],
        repeats=2,
        seed=seed,
        k_ref=tcfg.eval_k,
    )
    _write_bound_table(out / "test_bound.csv", rows)
    return outputs + ["test_bound.csv"], data_hash


def _run_eval(cfg: dict, out: Path, seed: int) -> tuple[list[str], str]:
    section = cfg["eval"]
    data, data_hash = _dataset_from(section["dataset"], "eval.dataset")
    model = _vae_from(section["model"], section["model"]["data_dim"], "eval.model")
    if model.data_dim != data.features.shape[1]:
        raise ConfigError(
            f"'eval.model.data_dim' is {model.data_dim}, but the dataset has "
            f"{data.features.shape[1]} columns"
        )
    with _building("eval.params"):
        params = vio.load_params(section["params"])
    shapes = model.param_shapes()
    if set(params) != set(shapes):
        raise ConfigError(
            f"'eval.params': the file's tensors do not match the model: missing "
            f"{sorted(set(shapes) - set(params))}, unexpected {sorted(set(params) - set(shapes))}"
        )
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ConfigError(
                f"'eval.params': tensor '{name}' has shape {params[name].shape}, "
                f"the model needs {shape}"
            )
    alphas = _alphas_from(section["alphas"], "eval.alphas")
    x = data.test_features[: section["max_points"]]
    rows = evaluate_vae(
        model,
        params,
        x,
        alphas=alphas,
        ks=section["ks"],
        repeats=section["repeats"],
        seed=seed,
        k_ref=section["k_ref"],
    )
    _write_bound_table(out / "gap_table.csv", rows)
    return ["gap_table.csv"], data_hash


# ----------------------------------------------------------------------
# entry point


def _fail(exit_code: int, err_type: str, message: str) -> int:
    payload = {"error": {"exit_code": exit_code, "type": err_type, "message": message}}
    print(json.dumps(payload), file=sys.stderr)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vr",
        description="Variational Renyi bound experiments (CSV-emitting, seeded).",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _SCHEMAS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output-dir", default=None, help="override the output directory")
    return parser


_RUNNERS = {
    "divergence": _run_divergence,
    "bias-sim": _run_bias_sim,
    "blr-demo": _run_blr_demo,
    "bnn-train": _run_bnn_train,
    "vae-train": _run_vae_train,
    "eval": _run_eval,
}


def main(argv: list[str] | None = None) -> int:
    """Run one experiment and return its exit code.

    Warnings are held back while it runs: a failing run prints only its JSON
    error object on stderr, and a successful one re-issues them under the
    caller's warning filters.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code = _run(argv)
    if code == EXIT_OK:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return code


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        return _fail(EXIT_IO, "io", f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(EXIT_CONFIG, "config", f"config is not valid JSON: {exc}")

    try:
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        if "kind" in raw and raw["kind"] != args.kind:
            raise ConfigError(
                f"config kind {raw.get('kind')!r} does not match subcommand {args.kind!r}"
            )
        raw["kind"] = args.kind
        # flags override config fields; the environment beats both for seed
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.output_dir is not None:
            raw["output_dir"] = args.output_dir
        env_seed = os.environ.get("VR_SEED")
        if env_seed is not None:
            try:
                raw["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"VR_SEED must be an integer: {env_seed!r}") from exc
        cfg = resolve_config(raw)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))

    try:
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(EXIT_IO, "io", f"cannot create output dir: {exc}")

    seed = cfg["seed"]
    try:
        outputs, data_hash = _RUNNERS[args.kind](cfg, out, seed)
        (out / "resolved_config.json").write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        )
        for name in outputs:
            if name.endswith(".csv"):
                vio.write_sidecar_manifest(out / name, seed)
        vio.write_run_manifest(out, args.kind, seed, cfg, outputs, data_hash)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except TrainingDiverged as exc:
        return _fail(EXIT_DIVERGED, "diverged", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
