"""Layer spans recorded from outside the program.

``install`` replaces public functions and methods with timing wrappers, each
in the module or class where its callers look it up (``vrbound.cli.train``
for the CLI's call to ``train``, ``vrbound.bounds.quadrature_oracle`` for the
bias simulation's call), and ``restore`` puts the originals back. No program
file is edited. A target that no longer exists is listed as absent.

Spans are aggregated in memory by (name, outermost open span), so work done
inside ``train`` can be told from the same call made elsewhere. A span's self
time is its duration minus the time its traced children took, so the self
times of all layers add up to at most the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import defaultdict
from time import perf_counter

# Span names, grouped by the layer metric they feed.
TRAIN = "training.train"
EVAL = "training.evaluate_vae"
ADAM = "training.adam_step"
BACKWARD = "autodiff.gradients"
VAE_ROWS = "models.vae.log_weight_rows"
VAE_MATRIX = "models.vae.log_weight_matrix"
BNN_GRAPH = "models.bnn.graph"
BNN_PREDICT = "models.bnn.predict"
BLR_FIT = "models.blr.fit"
ESTIMATOR = "bounds.estimator"
BIAS_SIM = "bounds.bias_simulation"
WEIGHTS = "gradients.weights"
QUADRATURE = "divergence.quadrature"
QUADRATURE_BATCH = "divergence.quadrature_batch"
GAUSSIAN = "gaussian.sample_logpdf"
IO_WRITE = "io.write"


def _train_steps(args, kwargs, result):
    return {"steps": len(result[1].steps)}


def _logw_count(args, kwargs, result):
    return {"logw": result.size}


def _fit_result(args, kwargs, result):
    return {
        "iters": result.iterations,
        "converged": int(result.converged),
        "unconverged_iters": 0 if result.converged else result.iterations,
    }


def _quadrature_grid(args, kwargs, result):
    from vrbound.divergence import GridSpec

    p, q, alphas = args[:3]
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    grid = grid if grid is not None else GridSpec.covering(p, q)
    points = math.prod(len(axis) for axis in grid.axes())
    # Computed, not measured: the point coordinates, trapezoid weights, both
    # log densities, and one float64 integrand per order.
    return {"points": points, "bytes": 8 * points * (grid.dim + 3 + len(alphas))}


def _written_arg(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_result(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (module, attribute where callers look it up, span name, observer)
TARGETS = (
    ("vrbound.cli", "train", TRAIN, _train_steps),
    ("vrbound.cli", "evaluate_vae", EVAL, None),
    ("vrbound.cli", "blr_mean_field_fit", BLR_FIT, _fit_result),
    ("vrbound.cli", "bias_simulation", BIAS_SIM, None),
    ("vrbound.training", "Adam.step", ADAM, None),
    ("vrbound.autodiff", "gradients", BACKWARD, None),
    ("vrbound.models.vae", "VAEModel.log_weight_rows", VAE_ROWS, None),
    ("vrbound.models.vae", "VAEModel.log_weight_matrix", VAE_MATRIX, _logw_count),
    ("vrbound.models.bnn", "BNNModel.log_prior_node", BNN_GRAPH, None),
    ("vrbound.models.bnn", "BNNModel.log_lik_node", BNN_GRAPH, None),
    ("vrbound.models.bnn", "BNNModel.predict", BNN_PREDICT, None),
    ("vrbound.bounds", "mc_vr_estimate", ESTIMATOR, None),
    ("vrbound.bounds", "validate_log_weights", ESTIMATOR, None),
    ("vrbound.training", "mc_vr_estimate", ESTIMATOR, None),
    ("vrbound.training", "validate_log_weights", ESTIMATOR, None),
    ("vrbound.gradients", "validate_log_weights", ESTIMATOR, None),
    ("vrbound.gradients", "normalize_weights", WEIGHTS, None),
    ("vrbound.gradients", "select_backprop_sample", WEIGHTS, None),
    ("vrbound.gradients", "log_weight_ratio", WEIGHTS, None),
    ("vrbound.training", "normalize_weights", WEIGHTS, None),
    ("vrbound.training", "log_weight_ratio", WEIGHTS, None),
    ("vrbound.bounds", "quadrature_oracle", QUADRATURE, None),
    ("vrbound.divergence", "quadrature_oracle", QUADRATURE, None),
    ("vrbound.divergence", "quadrature_oracle_batch", QUADRATURE_BATCH, _quadrature_grid),
    ("vrbound.gaussian", "GaussianDist.sample", GAUSSIAN, None),
    ("vrbound.gaussian", "GaussianDist.logpdf", GAUSSIAN, None),
    ("vrbound.io", "write_csv", IO_WRITE, _written_arg),
    ("vrbound.io", "save_params", IO_WRITE, _written_arg),
    ("vrbound.io", "write_sidecar_manifest", IO_WRITE, _written_result),
    ("vrbound.io", "write_run_manifest", IO_WRITE, _written_result),
)
# Constructions of tape nodes are counted, not timed.
NODE_INIT = ("vrbound.autodiff", "Node.__init__")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time taken by traced children]
        # (name, root) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[tuple[str, str, str], float] = defaultdict(float)  # (name, root, key)
        self.nodes: dict[str, int] = defaultdict(int)  # root span -> Node constructions
        self.absent: list[str] = []

    def wrap(self, name, fn, observe):
        stack, spans, counters = self.stack, self.spans, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            root = stack[0][0] if stack else name
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                record = spans[(name, root)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    counters[(name, root, key)] += value
            return result

        return traced

    def count_nodes(self, init):
        stack, nodes = self.stack, self.nodes

        @functools.wraps(init)
        def counted(*args, **kwargs):
            nodes[stack[0][0] if stack else ""] += 1
            init(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # aggregates

    # Each sums over every root, or over spans under ``root`` only.

    def calls(self, name, root=None) -> int:
        return sum(r[0] for (n, rt), r in self.spans.items() if n == name and root in (None, rt))

    def self_s(self, *names, root=None) -> float:
        return sum(r[2] for (n, rt), r in self.spans.items() if n in names and root in (None, rt))

    def total_s(self, name) -> float:
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def counter(self, name, key, root=None) -> float:
        return sum(v for (n, rt, k), v in self.counters.items() if n == name and k == key and root in (None, rt))


def _resolve(module_name: str, attr: str):
    """(owner, leaf name, current value), or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the (owner, name, original) triples to restore."""
    patched = []

    def patch(module_name, attr, make_wrapper):
        found = _resolve(module_name, attr)
        if found is None:
            tracer.absent.append(f"{module_name}.{attr}")
            return
        owner, leaf, original = found
        setattr(owner, leaf, make_wrapper(original))
        patched.append((owner, leaf, original))

    for module_name, attr, span, observe in TARGETS:
        patch(module_name, attr, lambda fn: tracer.wrap(span, fn, observe))
    patch(*NODE_INIT, tracer.count_nodes)
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for owner, leaf, original in reversed(patched):
        setattr(owner, leaf, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes.

    Times, counts of calls and bytes are per pass; ``*_per_step`` counts are
    per training step and only include work done inside ``train``. A metric
    whose layer did not run reads 0.
    """
    t = tracer
    steps = t.counter(TRAIN, "steps", root=TRAIN)
    fits = t.calls(BLR_FIT)
    logw_s = t.total_s(VAE_MATRIX)

    def per_step(value):
        return value / steps if steps else 0.0

    return {
        "training.steps": steps / passes,
        "autodiff.backward_s": t.self_s(BACKWARD) / passes,
        "autodiff.nodes_per_step": per_step(t.nodes[TRAIN]),
        "models.vae.graph_forward_s": t.self_s(VAE_ROWS, root=TRAIN) / passes,
        "models.vae.graph_calls_per_step": per_step(t.calls(VAE_ROWS, root=TRAIN)),
        "models.vae.value_logw_per_s": t.counter(VAE_MATRIX, "logw") / logw_s if logw_s else 0.0,
        "models.bnn.graph_forward_s": t.self_s(BNN_GRAPH) / passes,
        "models.bnn.predict_s": t.self_s(BNN_PREDICT) / passes,
        "models.blr.fit_s": t.self_s(BLR_FIT) / passes,
        "models.blr.fit_calls": fits / passes,
        "models.blr.fit_iters": t.counter(BLR_FIT, "iters") / passes,
        "models.blr.fit_converged_ratio": t.counter(BLR_FIT, "converged") / fits if fits else 0.0,
        "models.blr.unconverged_fit_iters": t.counter(BLR_FIT, "unconverged_iters") / passes,
        "bounds.estimator_calls_per_step": per_step(t.calls(ESTIMATOR, root=TRAIN)),
        "bounds.estimator_calls": t.calls(ESTIMATOR) / passes,
        "bounds.estimator_s": t.self_s(ESTIMATOR) / passes,
        "bounds.bias_sim_self_s": t.self_s(BIAS_SIM) / passes,
        "gradients.weights_calls_per_step": per_step(t.calls(WEIGHTS, root=TRAIN)),
        "gradients.weights_s": t.self_s(WEIGHTS) / passes,
        "training.adam_s": t.self_s(ADAM) / passes,
        "training.eval_self_s": t.self_s(EVAL) / passes,
        "divergence.quadrature_s": t.self_s(QUADRATURE, QUADRATURE_BATCH) / passes,
        "divergence.quadrature_calls": t.calls(QUADRATURE_BATCH) / passes,
        "divergence.quadrature_points": t.counter(QUADRATURE_BATCH, "points") / passes,
        "divergence.quadrature_bytes": t.counter(QUADRATURE_BATCH, "bytes") / passes,
        "gaussian.sample_logpdf_s": t.self_s(GAUSSIAN) / passes,
        "io.write_s": t.self_s(IO_WRITE) / passes,
        "io.bytes_written": t.counter(IO_WRITE, "bytes") / passes,
        "trace.absent_names": len(t.absent),
    }
