"""Golden outputs: trainer and evaluator results pinned to recorded values.

Each case is a small, fast configuration of ``train`` or ``evaluate_vae``.
Its outputs (the run record's objective, gradient norm and log R per step,
the final parameters, or the evaluation rows) are stored in
``golden_values.json`` beside this file. A refactor that claims to compute
the same numbers must reproduce them to rtol = atol = 1e-12.

Regenerate the fixture only when a change is meant to move the outputs:

    PYTHONPATH=src python tests/test_golden.py

To see how far the current code's outputs have moved from the fixture, per
case, without writing anything (exit code 1 when a case is outside
rtol/atol):

    PYTHONPATH=src python tests/test_golden.py --drift

Any other argument is an error (exit code 2), and writes nothing.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from vrbound import (
    TrainConfig,
    VAEModel,
    evaluate_vae,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
    train,
)
from vrbound.models.bnn import BNNModel

FIXTURE = Path(__file__).with_name("golden_values.json")
RTOL = ATOL = 1e-12


def _vae_setup():
    data = synthetic_binary_images(seed=0, n=300, side=4)
    return VAEModel(data_dim=16, latent_dim=2, hidden=4), data


def _outputs(params, record):
    out = {f"param:{name}": np.ravel(value).tolist() for name, value in sorted(params.items())}
    out["objective"] = list(record.objective)
    out["grad_norm"] = list(record.grad_norm)
    out["log_weight_ratio"] = list(record.log_weight_ratio)
    return out


def _vae_run(alpha, single_backprop=False):
    model, data = _vae_setup()
    cfg = TrainConfig(
        alpha=alpha,
        k=5,
        minibatch=8,
        steps=15,
        learning_rate=0.01,
        seed=1,
        single_backprop=single_backprop,
    )
    return _outputs(*train(model, cfg, data))


def _bnn_run():
    data, _ = synthetic_regression(seed=2, n=80).standardized()
    cfg = TrainConfig(alpha=0.5, k=50, minibatch=16, steps=8, learning_rate=0.01, seed=3)
    return _outputs(*train(BNNModel(in_dim=1, hidden=8), cfg, data))


def _blr_run(single_backprop=False):
    model = synthetic_blr_instance(seed=4, n_data=20)
    cfg = TrainConfig(
        alpha=0.0,
        k=4,
        minibatch=5,
        steps=20,
        learning_rate=0.02,
        seed=5,
        single_backprop=single_backprop,
    )
    return _outputs(*train(model, cfg))


def _eval_table():
    model, data = _vae_setup()
    rows = evaluate_vae(
        model,
        model.init_params(seed=6),
        data.test_features[:10],
        alphas=[-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf],
        ks=[1, 5, 20],
        repeats=2,
        seed=7,
        k_ref=50,
    )
    fields = ("mean_bound", "se_bound", "mean_gap", "se_gap")
    return {name: [getattr(row, name) for row in rows] for name in fields}


CASES = {
    "vae_alpha_1": lambda: _vae_run(1.0),
    "vae_alpha_0": lambda: _vae_run(0.0),
    "vae_alpha_0.5": lambda: _vae_run(0.5),
    "vae_alpha_-inf": lambda: _vae_run(-math.inf),
    "vae_alpha_inf": lambda: _vae_run(math.inf),
    "vae_single_backprop": lambda: _vae_run(0.5, single_backprop=True),
    "bnn_k50": _bnn_run,
    "blr": _blr_run,
    "blr_single_backprop": lambda: _blr_run(single_backprop=True),
    "eval_table": _eval_table,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, golden):
    want = golden[case]
    got = CASES[case]()
    assert sorted(got) == sorted(want)
    for key in want:
        np.testing.assert_allclose(
            np.asarray(got[key]), np.asarray(want[key]), rtol=RTOL, atol=ATOL, err_msg=f"{case}:{key}"
        )


def _drift(got: dict, want: dict) -> tuple[float, float]:
    """Largest absolute and relative difference over every output of a case."""
    worst_abs = worst_rel = 0.0
    for key in want:
        a, b = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = np.where(a == b, 0.0, np.abs(a - b))
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(b))
        worst_abs = max(worst_abs, float(np.max(diff, initial=0.0)))
        worst_rel = max(worst_rel, float(np.max(rel, initial=0.0)))
    return worst_abs, worst_rel


def _exceeds(got: dict, want: dict) -> bool:
    """Whether a case's outputs miss the fixture by more than RTOL/ATOL, as
    ``test_matches_golden`` judges them."""
    return sorted(got) != sorted(want) or not all(
        np.allclose(np.asarray(got[key]), np.asarray(want[key]), rtol=RTOL, atol=ATOL, equal_nan=True)
        for key in want
    )


def main(argv: list[str]) -> int:
    if not argv:
        FIXTURE.write_text(
            json.dumps({case: CASES[case]() for case in sorted(CASES)}, indent=1) + "\n"
        )
        print(f"wrote {FIXTURE}")
        return 0
    if argv != ["--drift"]:
        print("usage: test_golden.py [--drift]", file=sys.stderr)
        return 2
    golden_values = json.loads(FIXTURE.read_text())
    exceeded = False
    for case in sorted(CASES):
        got, want = CASES[case](), golden_values[case]
        worst_abs, worst_rel = _drift(got, want)
        over = _exceeds(got, want)
        exceeded |= over
        print(f"{case}: abs {worst_abs:.3g} rel {worst_rel:.3g}" + (" EXCEEDS rtol/atol" if over else ""))
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
