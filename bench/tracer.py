"""Outside-in tracing of the srr package.

The tracer replaces public functions and methods of ``srr`` modules with
timing wrappers for the duration of a traced run, and restores them after.
Nothing under ``src/`` is edited: a module-level function is rebound in
every ``srr`` module that holds it, which covers names imported with
``from .x import y`` as well as the package namespace, and a method is
replaced on its class.

Each call records one span ``[name, start, end, parent]`` in memory;
``parent`` is the index of the enclosing traced span, or -1.  Self time is
a span's duration minus the durations of its direct children.  Hooks turn
arguments and return values into counts (checkpoint bytes, sigma flags,
zoo cell states, toy-dynamics rows).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

# module -> public functions and methods timed in a traced run
TRACED = {
    "linalg": ("softmax_columns", "orthonormal_basis", "spectral_norm", "rng_for"),
    "rates": (
        "coding_rate",
        "projected_coding_rate",
        "grad_projected_coding_rate",
        "grad_taylor_terms",
        "sparsity_l0",
    ),
    "autodiff": ("Tensor.backward", "Tensor.__matmul__", "softmax_cols", "layer_norm_cols", "logdet_gram"),
    "layers": ("stacked_attention_heads", "ista_step", "attention_update", "layer_norm", "mssa"),
    "model": ("Model.run", "Model.embed_inputs", "Model.apply_layer", "save_checkpoint", "load_checkpoint"),
    "training": ("srr_regularized_loss", "gradients", "Adam.step", "train", "evaluate", "cross_entropy_np"),
    "measures": ("measure_vector", "pac_bayes_sigma", "margin_quantile", "path_norm"),
    "data": ("build_dataset",),
    "analysis": ("correlation_report", "kendall_tau"),
    "zoo": ("run_zoo", "measure_zoo", "correlate_zoo"),
    "toy_dynamics": ("run_dynamics",),
}

SIGMA_FLAGS = ("ok", "upper_bracket", "lower_bracket_exceeded")
TOY_RULES = ("a", "b", "c", "d", "e", "n")

# counts reported on every workload, zero where the layer is not reached
COUNT_UNITS = {
    "model.save_checkpoint.bytes": "B",
    "training.epochs_run": "count",
    "measures.sigma_evals": "count",
    **{f"measures.sigma_flag.{f}": "count" for f in SIGMA_FLAGS},
    "zoo.cells_done": "count",
    "zoo.cells_failed": "count",
    "zoo.cells_converged": "count",
    "toy_dynamics.rows": "count",
    "toy_dynamics.truncated": "count",
    **{f"toy_dynamics.run_dynamics.{r}.calls": "count" for r in TOY_RULES},
    **{f"toy_dynamics.run_dynamics.{r}.s": "s" for r in TOY_RULES},
}


def traced_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_save_checkpoint(counts, args, kwargs, result, dur):
    counts["model.save_checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _on_pac_bayes_sigma(counts, args, kwargs, result, dur):
    counts[f"measures.sigma_flag.{result[1]}"] += 1


def _on_run_zoo(counts, args, kwargs, result, dur):
    for cell in result["cells"].values():
        done = cell["status"] == "done"
        counts["zoo.cells_done"] += done
        counts["zoo.cells_failed"] += not done
        counts["zoo.cells_converged"] += done and cell["converged"]
        counts["training.epochs_run"] += cell.get("epochs_run", 0)


def _on_run_dynamics(counts, args, kwargs, result, dur):
    counts["toy_dynamics.rows"] += len(result.rows)
    counts["toy_dynamics.truncated"] += result.truncated
    counts[f"toy_dynamics.run_dynamics.{result.rule}.calls"] += 1
    counts[f"toy_dynamics.run_dynamics.{result.rule}.s"] += dur


HOOKS = {
    "model.save_checkpoint": _on_save_checkpoint,
    "measures.pac_bayes_sigma": _on_pac_bayes_sigma,
    "zoo.run_zoo": _on_run_zoo,
    "toy_dynamics.run_dynamics": _on_run_dynamics,
}


class Tracer:
    """Installs the wrappers, holds spans and counts, and restores the
    original bindings on ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result, span[2] - span[1])
            return result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        srr_modules = [m for n, m in list(sys.modules.items()) if n == "srr" or n.startswith("srr.")]
        for mod_name, attrs in TRACED.items():
            module = sys.modules[f"srr.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for holder in srr_modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, key, wrapper)
        self._count_sigma_evals(sys.modules["srr.measures"])

    def _count_sigma_evals(self, measures) -> None:
        """Count the PAC-Bayes increase-function evaluations by wrapping the
        function handed to ``sigma_search``."""
        original = measures.sigma_search
        counts = self.counts

        @functools.wraps(original)
        def sigma_search(increase_fn, *args, **kwargs):
            def counted(sigma):
                counts["measures.sigma_evals"] += 1
                return increase_fn(sigma)

            return original(counted, *args, **kwargs)

        self._rebind(measures, "sigma_search", sigma_search)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in traced_names()}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return stats

    def write_spans(self, path: str) -> None:
        names = traced_names()
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}, fh)
