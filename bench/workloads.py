"""The four benchmark workloads.

Every workload is a closed loop with one caller: ``op`` returns only when
its work is done, and the next call starts after it.  ``setup`` builds the
inputs from the benchmark seed (dataset, model, warm-up); srr receives
only those inputs.  ``op`` returns a ``Result`` with its wall time split
into stages, the number of work items it completed and the outputs that
``check`` verifies.

Two sizes exist: ``paper`` is the benchmark and ``smoke`` is a tiny
version of the same code paths for the smoke test.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import srr
from srr import layers, toy_dynamics, training, zoo

# Largest relative difference from the stored reference outputs that still
# counts as correct.  Float64 code whose summation order changes drifts far
# less than this; a changed algorithm or a bug drifts far more.
REL_TOL = 1e-6


@dataclass
class Result:
    stages: dict[str, float]
    items: int
    # position of this operation's output in the stored reference list
    ref_index: int
    ref_value: object
    outputs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _flatten(value) -> list[float]:
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _flatten(value[key])]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def drift(got, ref) -> tuple[bool, float]:
    """(identical, max relative difference) of two equally shaped nests of
    floats; NaN matches NaN."""
    a, b = _flatten(got), _flatten(ref)
    if len(a) != len(b):
        return False, math.inf
    same, worst = True, 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        same = False
        if not (math.isfinite(x) and math.isfinite(y)):
            return False, math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return same, worst


class Workload:
    name = ""
    op_name = ""
    # metric names for the median op time and for items per second; the
    # keys of Result.stages name the per-stage medians
    op_metric = ""
    throughput_metric = ""
    # operations a traced run times, once untraced and once traced
    trace_ops = 1
    # operations whose outputs the reference file stores
    reference_ops = 1
    # a timed run stops only after a multiple of this many operations
    pass_ops = 1

    def __init__(self, seed: int, scale: str, workdir: str, reference: list | None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.reference = reference
        self.ref_report: dict = {}

    def rewind(self) -> None:
        """Make the next operation do the same work as the last one.  Training
        steps and toy sweeps all do the same work, so the default does nothing."""

    def compare(self, res: Result) -> list[str]:
        """Compare an output with the stored reference, when the reference
        list reaches this operation, and keep the worst drift seen.  A seed
        without stored references fails: its outputs would go unchecked."""
        if self.reference is None:
            return [f"no reference outputs stored for seed {self.seed}"]
        if res.ref_index >= len(self.reference):
            return []
        same, worst = drift(res.ref_value, self.reference[res.ref_index])
        prev = self.ref_report
        self.ref_report = {
            "compared": prev.get("compared", 0) + 1,
            "bitwise_identical": same and prev.get("bitwise_identical", True),
            "max_rel_drift": max(worst, prev.get("max_rel_drift", 0.0)),
            "tolerance": REL_TOL,
        }
        return [] if worst <= REL_TOL else [f"reference drift {worst:.3e} exceeds {REL_TOL:g}"]


class DeskZoo(Workload):
    name = "desk-zoo"
    op_name = "one run_zoo -> measure_zoo -> correlate_zoo round over one 2-cell slice of the desk grid"
    op_metric = "zoo_total_s"
    throughput_metric = "zoo_cells_per_s"
    trace_ops = 4
    reference_ops = 4
    pass_ops = 4

    # (batch size, lr, dropout, variant pair) indices of the four slices of a
    # pass: every value of every axis appears in two of them
    PLAN = ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0))

    def setup(self) -> None:
        if self.scale == "paper":
            # criterion 10: GridSpec.desk() on synthetic data at separation 4
            grid = zoo.GridSpec.desk(seed=self.seed)
            self.data = srr.DatasetSpec(source="synthetic", separation=4.0, seed=self.seed)
            self.model = srr.ModelConfig(
                L=2, d=32, K=4, feat_dim=self.data.feat_dim,
                num_tokens=self.data.tokens, num_classes=self.data.classes,
            )
            self.train_cfg = srr.TrainConfig(epochs=60, stop_criterion=0.05)
        else:
            grid = zoo.GridSpec(
                batch_sizes=(8, 16), lrs=(1e-2, 3e-2), widths=(8,), dropouts=(0.0, 0.1),
                variants=(layers.CRATE_C, layers.CRATE_N, layers.CRATE_T, layers.CRATE), seed=self.seed,
            )
            self.data = srr.DatasetSpec(
                source="synthetic", classes=2, tokens=4, feat_dim=6, subspace_dim=2,
                separation=5.0, n_train=32, n_val=16, seed=self.seed,
            )
            self.model = srr.ModelConfig(L=1, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=2)
            self.train_cfg = srr.TrainConfig(epochs=50, stop_criterion=0.05)
        # A round trains, measures and correlates one slice of the grid: two
        # variants at one (batch size, lr, dropout).  A run makes whole passes
        # over the four slices of PLAN, 8 of the 32 cells, so its median always
        # weighs the same work, however fast the machine is.
        pairs = (grid.variants[0:2], grid.variants[2:4])
        self.slices = [
            dataclasses.replace(
                grid, batch_sizes=(grid.batch_sizes[b],), lrs=(grid.lrs[lr],),
                dropouts=(grid.dropouts[do],), variants=pairs[v],
            )
            for b, lr, do, v in self.PLAN
        ]
        self.round = 0
        self.first_csv: dict[int, str] = {}
        # warm-up: build the data and run one inference pass
        dataset = srr.build_dataset(self.data)
        model = srr.init_model(dataclasses.replace(self.model, seed=self.seed))
        training.evaluate(model, dataset.val_x, dataset.val_y)

    def rewind(self) -> None:
        self.round -= 1

    def op(self) -> Result:
        index = self.round % len(self.slices)
        out = os.path.join(self.workdir, f"zoo-{self.round}")
        self.round += 1
        try:
            t0 = time.perf_counter()
            manifest = zoo.run_zoo(self.slices[index], self.data, self.train_cfg, out, self.model, workers=1)
            t1 = time.perf_counter()
            path = zoo.measure_zoo(out, seed=self.seed)
            t2 = time.perf_counter()
            report = zoo.correlate_zoo(out)
            t3 = time.perf_counter()
            with open(path) as fh:
                csv_text = fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        return Result(
            stages={"zoo_train_s": t1 - t0, "zoo_measure_s": t2 - t1, "zoo_correlate_s": t3 - t2},
            items=len(manifest["cells"]),
            ref_index=index,
            ref_value={
                "measures": [[float(v) for v in row[1:]] for row in rows],
                "gaps": [manifest["cells"][row[0]]["gap"] for row in rows],
            },
            outputs={"cells": list(manifest["cells"].values()), "report": report, "csv": csv_text},
        )

    def check(self, res: Result) -> list[str]:
        problems = []
        cells = res.outputs["cells"]
        if len(cells) != len(self.slices[res.ref_index].variants) or any(c["status"] != "done" for c in cells):
            problems.append("not every zoo cell trained")
        if len(res.ref_value["measures"]) != len(cells):
            problems.append("measures.csv lacks a row per cell")
        # A cell that stalls at chance within the epoch budget is a result,
        # not a failure: correlate_zoo leaves it out, as the paper does.
        taus = [
            v for row in res.outputs["report"].rows for k, v in row.items()
            if k != "measure" and v is not None
        ]
        if not all(-1.0 <= v <= 1.0 for v in taus):
            problems.append("correlation outside [-1, 1]")
        if not taus and sum(c["converged"] for c in cells) >= 2:
            problems.append("no correlation over the converged cells")
        first = self.first_csv.setdefault(res.ref_index, res.outputs["csv"])
        if res.outputs["csv"] != first:
            problems.append("measures.csv did not regenerate byte for byte")
        return problems + self.compare(res)


class TrainPaper(Workload):
    name = "train-paper"
    op_name = "one training step: srr_regularized_loss -> gradients -> Adam.step"
    op_metric = "step_p50_s"
    throughput_metric = "train_samples_per_s"
    trace_ops = 5
    reference_ops = 3
    reg_mode = "none"

    def setup(self) -> None:
        if self.scale == "paper":
            self.model_cfg = srr.ModelConfig(
                L=12, d=384, K=6, variant=layers.CRATE_C, patch=4, image_size=32,
                num_classes=10, seed=self.seed,
            )
            batch, n_images = 8, 32
        else:
            self.model_cfg = srr.ModelConfig(
                L=2, d=12, K=2, variant=layers.CRATE_C, patch=4, image_size=8,
                num_classes=3, seed=self.seed,
            )
            batch, n_images = 2, 4
        cfg = self.model_cfg
        rng = np.random.default_rng(self.seed)
        images = rng.random((n_images, cfg.image_size, cfg.image_size, cfg.channels))
        self.x = layers.patchify(images, cfg.patch)
        self.y = rng.integers(0, cfg.num_classes, n_images)
        self.batch = batch
        reg = self.reg_mode != "none"
        self.train_cfg = srr.TrainConfig(
            batch_size=batch, lr_init=1e-4, schedule="constant",
            reg_mode=self.reg_mode, eta_reg=1e-3 if reg else 0.0,
        )
        self.model = srr.init_model(cfg)
        self.adam = training.Adam(self.model.trainable_params())
        self.steps = 0
        # warm-up: a forward pass allocates the activation buffers
        training.srr_regularized_loss(
            self.model, (self.x[:batch], self.y[:batch]), self.train_cfg, rng=np.random.default_rng(self.seed)
        )

    def op(self) -> Result:
        i = self.steps
        self.steps += 1
        lo = (i * self.batch) % len(self.y)
        xb, yb = self.x[lo : lo + self.batch], self.y[lo : lo + self.batch]
        params = self.model.trainable_params()
        rng = np.random.default_rng([self.seed, i])
        t0 = time.perf_counter()
        loss, parts = training.srr_regularized_loss(self.model, (xb, yb), self.train_cfg, rng=rng)
        t1 = time.perf_counter()
        grads = training.gradients(loss, params, layer_outputs=parts["cache"])
        t2 = time.perf_counter()
        self.adam.step(grads, self.train_cfg.lr_init)
        t3 = time.perf_counter()
        return Result(
            stages={"step_fwd_p50_s": t1 - t0, "step_bwd_p50_s": t2 - t1, "step_adam_p50_s": t3 - t2},
            items=len(yb),
            ref_index=i,
            ref_value=loss.item(),
            outputs={
                "reg_value": parts["reg_value"],
                "selected": parts["selected_layers"],
                "grads_finite": all(_finite(g) for g in grads.values()),
            },
        )

    def check(self, res: Result) -> list[str]:
        problems = []
        if not math.isfinite(res.ref_value):
            problems.append("loss is not finite")
        if not res.outputs["grads_finite"]:
            problems.append("a gradient is not finite")
        expected = list(range(1, self.model_cfg.L + 1)) if self.reg_mode == "all_layers" else []
        if res.outputs["selected"] != expected:
            problems.append("regularizer selected the wrong layers")
        reg = res.outputs["reg_value"]
        if self.reg_mode != "none" and not (math.isfinite(reg) and reg != 0.0):
            problems.append("regularizer value is zero or not finite")
        return problems + self.compare(res)


class TrainPaperReg(TrainPaper):
    name = "train-paper-reg"
    trace_ops = 3
    reg_mode = "all_layers"


class ToyPaper(Workload):
    name = "toy-paper"
    op_name = "run_dynamics for all six update rules"
    op_metric = "toy_run_s"
    throughput_metric = "toy_rows_per_s"
    trace_ops = 2

    def setup(self) -> None:
        if self.scale == "paper":
            self.size = dict(N=196, d=384, K=6, L=12)
        else:
            self.size = dict(N=8, d=12, K=2, L=3)
        self.first_values = None
        # warm-up: one layer of the softmax rule at full size
        toy_dynamics.run_dynamics("e", **{**self.size, "L": 1}, seed=self.seed)

    def op(self) -> Result:
        t0 = time.perf_counter()
        traces = [toy_dynamics.run_dynamics(rule, **self.size, seed=self.seed) for rule in toy_dynamics.RULES]
        t1 = time.perf_counter()
        return Result(
            stages={"toy_run_s": t1 - t0},
            items=sum(len(t.rows) for t in traces),
            ref_index=0,
            ref_value={"rc_after": {t.rule: [r.rc_after for r in t.rows] for t in traces}},
            outputs={"traces": traces},
        )

    def check(self, res: Result) -> list[str]:
        problems = []
        L = self.size["L"]
        for t in res.outputs["traces"]:
            if len(t.rows) != L or t.truncated:
                problems.append(f"rule {t.rule}: {len(t.rows)} rows, truncated={t.truncated}; expected {L}, False")
            if not _finite([[r.rc_before, r.rc_after] for r in t.rows]):
                problems.append(f"rule {t.rule}: rate is not finite")
        if self.first_values is None:
            self.first_values = res.ref_value
        elif res.ref_value != self.first_values:
            problems.append("repeated run_dynamics gave different rates")
        return problems + self.compare(res)


WORKLOADS = {w.name: w for w in (DeskZoo, TrainPaper, TrainPaperReg, ToyPaper)}
