"""Command-line entry point: reproducible experiments emitting CSV tables.

Each run is described by a strict JSON config, checked against one schema
that states every rule a value must meet (unknown keys are rejected by name,
defaults are filled in) before the output directory is made. A value that
the library rejects as a run builds its objects is a config error too, and
the run then removes the directories it made for its output while they are
empty. A run writes,
next to its CSV outputs, the fully resolved config, a per-file sidecar
manifest, and a run manifest with content hashes. Seed precedence: the
VR_SEED environment variable beats the --seed flag, which beats the config
value. Exit codes: 0 success, 2 config error, 3 runtime divergence, 4 I/O
failure; a failure prints one JSON error object to stderr and nothing else
there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io as vio
from .alpha import parse_alpha
from .bounds import bias_simulation, mc_vr_estimate
from .divergence import renyi_gaussian
from .gradients import GaussianReparam
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


def _instance_of(*types):
    """A check for values of ``types``; a bool is not an int here."""
    return lambda v: isinstance(v, types) and not isinstance(v, bool)


# type -> (what a value of that type is called, its check)
_TYPES = {
    "int": ("an integer", _instance_of(int)),
    "number": ("a number", _instance_of(int, float)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "string": ("a string", _instance_of(str)),
    "alpha": ("a number or a string", _instance_of(int, float, str)),
    "list": ("a list", _instance_of(list)),
    "dict": ("an object", _instance_of(dict)),
}


def _check_value(value, spec: dict, path: str):
    """Check ``value`` against ``spec``; return it, or for a dict its
    resolved section.

    A spec holds the value's ``type`` and may add ``min`` (with a ``why``),
    ``max``, ``finite`` and ``choices`` for a scalar (an alpha is checked as
    parsed);
    ``items`` (every item's spec) and ``min_items`` for a list; and for a
    dict its ``schema``, or ``variants``: a schema per key that selects it.
    """
    noun, is_type = _TYPES[spec["type"]]
    if not is_type(value):
        raise ConfigError(f"config key '{path}' must be {noun}")
    if spec["type"] == "dict":
        return _resolve_section(value, spec.get("schema") or _variant(value, spec, path), path)
    if spec["type"] == "list":
        if len(value) < spec.get("min_items", 0):
            raise ConfigError(f"config key '{path}' must not be empty")
        for i, item in enumerate(value):
            _check_value(item, spec["items"], f"{path}[{i}]")
        return value
    number = value
    if spec["type"] == "alpha":
        try:
            number = parse_alpha(value)
        except ValueError as exc:
            raise ConfigError(f"config key '{path}' is not an alpha: {exc}") from exc
    if "min" in spec and not number >= spec["min"]:
        why = f": {spec['why']}" if "why" in spec else ""
        raise ConfigError(f"config key '{path}' must be >= {spec['min']}{why}")
    if "max" in spec and not number <= spec["max"]:
        why = "the largest count or size a config may set"
        raise ConfigError(f"config key '{path}' must be <= {spec['max']}: {why}")
    if spec.get("finite") and not math.isfinite(number):
        raise ConfigError(f"config key '{path}' must be finite")
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"config key '{path}' must be one of {spec['choices']}")
    return value


def _variant(section: dict, spec: dict, path: str) -> dict:
    """The schema of the first variant key in ``section``; a second one is
    then an unknown key."""
    for key, schema in spec["variants"].items():
        if key in section:
            return schema
    keys = " or ".join(f"'{key}'" for key in spec["variants"])
    raise ConfigError(f"config key '{path}' needs {keys}")


def _resolve_section(section: dict, schema: dict, path: str) -> dict:
    """Check every key and fill in defaults. A key that is neither required
    nor defaulted is optional and resolves to null when absent; any other
    key given as null fails its type check."""
    for key in section:
        if key not in schema:
            raise ConfigError(f"unknown config key '{path + '.' if path else ''}{key}'")
    out = {}
    for key, spec in schema.items():
        child_path = f"{path}.{key}" if path else key
        if spec.get("required") and key not in section:
            raise ConfigError(f"missing required config key '{child_path}'")
        value = section.get(key, spec.get("default"))
        optional = not spec.get("required") and "default" not in spec
        out[key] = None if value is None and optional else _check_value(value, spec, child_path)
    return out


# The largest count (of draws per point or step, of repeats) and the largest
# size (of a dataset, a layer, a grid) that a config may set (README, "Config
# sizes"). A run's memory grows with each, so a larger value is a config
# error, found before the output directory is made rather than as a failed
# allocation midway through the run.
_MAX_COUNT = 100_000
_SEED = {"type": "int", "min": 0, "default": 0}
_NUMBERS = {"type": "list", "items": {"type": "number"}}
_ALPHAS = {"type": "list", "items": {"type": "alpha"}, "required": True}
_SIZE = {"type": "int", "max": _MAX_COUNT}
_DRAWS = _SIZE | {"min": 1}
_KS = {"type": "list", "items": _DRAWS, "min_items": 1, "required": True}
_REPEATS = {"type": "int", "min": 2, "why": "each row reports a standard error", "max": _MAX_COUNT}
# Held-out rows a bound table needs: its standard errors are over the points.
_SE_POINTS = 2
_GAUSSIAN = {"type": "dict", "required": True, "schema": {
    "mean": _NUMBERS | {"min_items": 1, "required": True},
    "variances": _NUMBERS,
    "cov": {"type": "list", "items": _NUMBERS},
}}

_GENERATORS = {"regression": synthetic_regression, "binary-images": synthetic_binary_images}
# A dataset is a bundled generator or a CSV file, and takes only the keys its
# source reads: a generator splits by its own seed (the images hold out 200).
_DATASET = {"type": "dict", "required": True, "variants": {
    "synthetic": {
        "synthetic": {"type": "string", "required": True, "choices": sorted(_GENERATORS)},
        "n": _SIZE | {"default": 900},
        "seed": _SEED,
    },
    "path": {
        "path": {"type": "string", "required": True},
        "feature_columns": {
            "type": "list", "items": {"type": "string"}, "min_items": 1, "required": True
        },
        "target_column": {"type": "string"},
        "split_seed": _SEED,
        "test_fraction": {"type": "number", "default": 0.25},
    },
}}

_VAE_SCHEMA = {
    "latent_dim": _SIZE | {"default": 2},
    "hidden": _SIZE | {"default": 16},
    "encoder_hidden": _SIZE,
    "likelihood": {"type": "string", "default": "bernoulli"},
}

# TrainConfig's fields with their defaults, less the seed (the run's seed).
_FIELD_TYPES = {int: "int", float: "number", bool: "bool"}
_TRAIN = {"type": "dict", "default": {}, "schema": {
    f.name: {
        "type": "alpha" if f.name == "alpha" else _FIELD_TYPES[type(f.default)],
        "default": f.default,
    } | ({"max": _MAX_COUNT} if f.name == "k" else {})
    for f in dataclasses.fields(TrainConfig)
    if f.name != "seed"
}}

_SCHEMAS = {
    "divergence": {"p": _GAUSSIAN, "q": _GAUSSIAN, "alphas": _ALPHAS},
    "bias-sim": {
        "p": _GAUSSIAN,
        "q": _GAUSSIAN,
        "alphas": _ALPHAS | {"items": {"type": "alpha", "finite": True}},
        "ks": _KS,
        "repeats": _REPEATS | {"default": 200},
    },
    "blr-demo": {
        "instance_seed": _SEED,
        "n_data": _SIZE | {"default": 25},
        "noise_std": {"type": "number", "default": 1.0},
        "correlation": {"type": "number", "default": 0.9},
        "fit_alphas": {"type": "list", "default": [1.0, 0.5, 0.0, "inf"], "items": {
            "type": "alpha",
            "min": 0,
            "why": "the mean-field fit has no finite maximizer for negative orders",
        }},
        "sigma_grid": {"type": "dict", "default": {}, "schema": {
            "lo": {"type": "number", "default": 0.5},
            "hi": {"type": "number", "default": 3.0},
            "points": _SIZE | {"default": 50},
        }},
    },
    "bnn-train": {"dataset": _DATASET, "hidden": _SIZE | {"default": 50}, "train": _TRAIN},
    "vae-train": {
        "dataset": _DATASET,
        **_VAE_SCHEMA,
        "train": _TRAIN,
        # draws per point of the held-out reference bound, at least train.k
        "eval_k": _DRAWS | {"default": 5000},
    },
    "eval": {
        "params": {"type": "string", "required": True},
        "model": {"type": "dict", "required": True, "schema": {
            "data_dim": _SIZE | {"required": True}, **_VAE_SCHEMA
        }},
        "dataset": _DATASET,
        "alphas": _ALPHAS,
        "ks": _KS,
        "repeats": _REPEATS | {"default": 10},
        "k_ref": _DRAWS | {"default": 5000},
        "max_points": {
            "type": "int",
            "min": _SE_POINTS,
            "why": "each row's standard error is over the points",
            "default": 100,
        },
    },
}


def resolve_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    kind = raw.get("kind")
    if kind not in _SCHEMAS:
        raise ConfigError(f"config key 'kind' must be one of {sorted(_SCHEMAS)}, got {kind!r}")
    return _resolve_section(raw, {
        "kind": {"type": "string", "required": True},
        "seed": _SEED,
        "output_dir": {"type": "string", "required": True},
        kind.replace("-", "_"): {"type": "dict", "schema": _SCHEMAS[kind], "required": True},
    }, "")


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
    with _building(path):
        return GaussianDist(section["mean"], variances=section["variances"], cov=section["cov"])


def _gaussian_pair(section: dict, path: str) -> tuple[GaussianDist, GaussianDist]:
    p = _gaussian_from(section["p"], f"{path}.p")
    q = _gaussian_from(section["q"], f"{path}.q")
    if p.dim != q.dim:
        raise ConfigError(f"'{path}': p has dimension {p.dim} but q has dimension {q.dim}")
    return p, q


def _dataset_from(section: dict, path: str, min_test: int = 1) -> tuple[Dataset, str]:
    """The dataset and its content hash; the split must hold at least one
    training row and ``min_test`` test rows."""
    with _building(path):
        if "synthetic" in section:
            data = _GENERATORS[section["synthetic"]](seed=section["seed"], n=section["n"])
        else:
            data = load_csv(
                section["path"],
                section["feature_columns"],
                section["target_column"],
                split_seed=section["split_seed"],
                test_fraction=section["test_fraction"],
            )
    if data.n_train == 0 or data.n_test < min_test:
        raise ConfigError(
            f"'{path}': the split has {data.n_train} training and {data.n_test} test rows; "
            f"it needs at least 1 training and {min_test} test rows"
        )
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
    alphas = [parse_alpha(a) for a in section["alphas"]]
    rows = [{"alpha": a, "value": renyi_gaussian(p, q, a)} for a in alphas]
    vio.write_csv(out / "divergence.csv", ["alpha", "value"], rows)
    return ["divergence.csv"], None


def _run_bias_sim(cfg: dict, out: Path, seed: int) -> tuple[list[str], None]:
    section = cfg["bias_sim"]
    p, q = _gaussian_pair(section, "bias_sim")
    alphas = [parse_alpha(a) for a in section["alphas"]]
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


def _alpha_text(alpha: float) -> str:
    """Short text that reads back as ``alpha``: '%g' where that round-trips."""
    text = f"{alpha:g}"
    return text if float(text) == alpha else repr(alpha)


def _run_blr_demo(cfg: dict, out: Path, seed: int) -> tuple[list[str], None]:
    section = cfg["blr_demo"]
    with _building("blr_demo"):
        model = synthetic_blr_instance(
            seed=section["instance_seed"],
            n_data=section["n_data"],
            noise_std=section["noise_std"],
            correlation=section["correlation"],
        )
    grid = section["sigma_grid"]
    with _building("blr_demo.sigma_grid"):
        sweep = [
            model.with_noise(float(sigma))
            for sigma in np.linspace(grid["lo"], grid["hi"], grid["points"])
        ]
    posterior, log_evidence = blr_exact_posterior(model)
    fit_alphas = [parse_alpha(a) for a in section["fit_alphas"]]

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

    curve_alphas = {_alpha_text(a): a for a in fit_alphas if math.isfinite(a)}
    curve_rows = []
    for at_sigma in sweep:
        _, ev = blr_exact_posterior(at_sigma)
        row = {"sigma": at_sigma.noise_std, "log_evidence": ev}
        for text, a in curve_alphas.items():
            fit = blr_mean_field_fit(at_sigma, a)
            row[f"bound_alpha_{text}"] = fit.bound
            row[f"converged_alpha_{text}"] = fit.converged
        curve_rows.append(row)
    curve_header = ["sigma", "log_evidence"] + [
        f"{column}_alpha_{text}" for column in ("bound", "converged") for text in curve_alphas
    ]
    vio.write_csv(out / "sigma_curves.csv", curve_header, curve_rows)
    return ["fits.csv", "contours.csv", "sigma_curves.csv"], None


def _bnn_test_metrics(
    model: BNNModel, params: dict, data: Dataset, stats: dict, seed: int, samples: int = 200
) -> dict:
    rng = np.random.default_rng([seed, 101])
    x_test = (data.test_features - stats["x_mean"]) / stats["x_std"]
    y_test = data.test_targets
    mu = params["mu"]
    noise = math.exp(float(params["log_noise"][0]))
    thetas = GaussianReparam(mu, params["rho"]).theta(rng.standard_normal((samples, mu.shape[0])))
    # one draw at a time: a batched call would hold samples x n x hidden floats
    preds = np.stack([model.predict(theta, x_test) for theta in thetas])
    y_sd, y_mu = stats["y_std"], stats["y_mean"]
    preds_orig = preds * y_sd + y_mu
    rmse = float(np.sqrt(np.mean((preds_orig.mean(axis=0) - y_test) ** 2)))
    # predictive density: mixture over posterior samples (the order-0 estimate,
    # the log of the mean density), rescaled to raw units
    point_ll = ad.normal_logpdf_rows(y_test[:, None], preds_orig[..., None], math.log(noise * y_sd))
    mix_ll = mc_vr_estimate(point_ll, 0.0, axis=0)
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
    data, data_hash = _dataset_from(section["dataset"], "vae_train.dataset", _SE_POINTS)
    model = _vae_from(section, data.features.shape[1], "vae_train")
    tcfg = _train_config(section["train"], seed, "vae_train.train")
    if section["eval_k"] < tcfg.k:
        raise ConfigError(
            f"'vae_train.eval_k' is {section['eval_k']}: it must be at least "
            f"'vae_train.train.k' ({tcfg.k})"
        )
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
        k_ref=section["eval_k"],
    )
    _write_bound_table(out / "test_bound.csv", rows)
    return outputs + ["test_bound.csv"], data_hash


def _run_eval(cfg: dict, out: Path, seed: int) -> tuple[list[str], str]:
    section = cfg["eval"]
    data, data_hash = _dataset_from(section["dataset"], "eval.dataset", _SE_POINTS)
    model = _vae_from(section["model"], section["model"]["data_dim"], "eval.model")
    if model.data_dim != data.features.shape[1]:
        raise ConfigError(
            f"'eval.model.data_dim' is {model.data_dim}, but the dataset has "
            f"{data.features.shape[1]} columns"
        )
    with _building("eval.params"):
        params = vio.load_params(section["params"])
        model._layers_of(params)
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"'eval.params': tensor '{name}' has a NaN or infinite entry")
    alphas = [parse_alpha(a) for a in section["alphas"]]
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
        made = [path for path in (out, *out.parents) if not path.exists()]  # innermost first
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
        # as if found before the directories were made, unless they hold anything
        for path in made:
            if any(path.iterdir()):
                break
            path.rmdir()
        return _fail(EXIT_CONFIG, "config", str(exc))
    except TrainingDiverged as exc:
        return _fail(EXIT_DIVERGED, "diverged", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
