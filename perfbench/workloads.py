"""The benchmark's workloads: which `vr` commands each one runs, on which configs.

A workload is an ordered list of (subcommand, config section) pairs. Configs
carry no seed: the benchmark passes its own seed to every command with
``--seed``, so the same seed gives the same inputs. Why each workload exists,
and which layers it is meant to move, is written up in README.md beside this
file.
"""

from __future__ import annotations

import json
from pathlib import Path

# Bundled 8x8 binary images; `vr eval` needs the data width in its config.
IMAGE_DIM = 64

VAE_TRAIN = {
    "dataset": {"synthetic": "binary-images"},
}

# Untrained default-architecture parameters, written during set-up.
VAE_EVAL_PARAMS = "vae_eval_params.bin"
VAE_EVAL = {
    "model": {"data_dim": IMAGE_DIM},
    "dataset": {"synthetic": "binary-images"},
    "alphas": ["-inf", -1, 0, 0.5, 1, 2, "inf"],
    "ks": [1, 5, 50, 500],
    "k_ref": 5000,
    "repeats": 10,
    "max_points": 100,
}

BNN_STEPS = 50
BNN_TRAIN = {
    "dataset": {"synthetic": "regression"},
    "hidden": 50,
    "train": {"k": 50, "steps": BNN_STEPS},
}

# A diagonal p against a full-covariance q. Every finite order below keeps the
# integrand p^a q^(1-a) decayed inside the quadrature oracle's default grid, so
# each finite row has an independent reference.
DIVERGENCE = {
    "p": {"mean": [0.0, 0.0], "variances": [1.0, 1.5]},
    "q": {"mean": [0.5, -0.3], "cov": [[1.0, 0.3], [0.3, 1.2]]},
    "alphas": ["-inf", -1, -0.5, 0, 0.5, 1, 1.5, "inf"],
}

# The example config of the top-level README.
BIAS_SIM = {
    "p": {"mean": [0, 0], "variances": [1, 1]},
    "q": {"mean": [1, 1], "variances": [1, 1]},
    "alphas": [-1, 0, 0.5, 1, 2],
    "ks": [1, 5, 50],
    "repeats": 200,
}

# Default instance and fit orders. The grid is the first two points of the
# default 50-point sweep; at its second point, sigma = 0.5 + 2.5/49, the
# alpha = 0.5 mean-field fit runs its full iteration budget without
# converging. Keep that point: it is a known defect the benchmark must show.
BLR_DEMO = {
    "sigma_grid": {"lo": 0.5, "hi": 0.5 + 2.5 / 49, "points": 2},
}

# Two workloads, not one per command group: on a shared host whose speed
# drifts by tens of percent from one minute to the next, longer runs are
# steadier, and the benchmark's time budget (4 + 22 runs per workload) allows
# runs of 25 s or more only for two. The report lines give each command's own
# time beside `run_s`.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "train": [("vae-train", VAE_TRAIN), ("bnn-train", BNN_TRAIN)],
    "no-tape": [
        ("eval", VAE_EVAL),
        ("divergence", DIVERGENCE),
        ("bias-sim", BIAS_SIM),
        ("blr-demo", BLR_DEMO),
    ],
}

# Training steps one command runs, for the run-record checks.
TRAIN_STEPS = {"vae-train": 1000, "bnn-train": BNN_STEPS}


def config_path(workdir: Path, kind: str) -> Path:
    return workdir / f"{kind}.json"


def write_configs(workdir: Path, workload: str, seed: int) -> None:
    """Write each command's config; for `vr eval`, also its params file."""
    for kind, section in WORKLOADS[workload]:
        section = dict(section)
        if kind == "eval":
            section["params"] = str(workdir / VAE_EVAL_PARAMS)
        config = {
            "kind": kind,
            "output_dir": str(workdir / "out"),
            kind.replace("-", "_"): section,
        }
        config_path(workdir, kind).write_text(json.dumps(config, indent=2) + "\n")
    if any(kind == "eval" for kind, _ in WORKLOADS[workload]):
        from vrbound.io import save_params
        from vrbound.models.vae import VAEModel

        params = VAEModel(data_dim=IMAGE_DIM).init_params(seed)
        save_params(workdir / VAE_EVAL_PARAMS, params)
