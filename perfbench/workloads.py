"""The benchmark's three workloads, built only on the public graphspde API.

Each workload makes its inputs from the seed (``setup``), checks the
library against a reference before anything is timed (``check``), and
runs its units one at a time (``run_unit``).  A unit is the same fixed
work every time it runs:

- heat-grid: one ``run_backtest`` extrapolation window of the acceptance
  heat-line set for one of the three acceptance kernels.  Every training
  window is a complete vertex x time grid, so ``fit`` takes the per-mode
  grid likelihood.
- wave-gappy: the same on the acceptance wave-line set with a fixed 10 %
  of the readings removed, so no window is a complete grid and every
  likelihood takes the dense N x N path.
- oracle: ``graphspde validate-kernel`` for one of shek and swek,
  in-process.

The dataset values of the backtests are the acceptance sets, and the seed
only shuffles the order of their rows, as rows read from a CSV file may
come in any order.  The optimizer's path, and so the round time, depends
on the values: on seeded gap masks one wave window took from 17 s to 31 s,
a spread no bound could absorb.  Row order must not change the answer.
The oracle passes the seed to the simulator.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

import graphspde
from graphspde import (
    BacktestPlan,
    FitOptions,
    GPModel,
    KernelSpec,
    RoundResult,
    STPoint,
    SyntheticSpec,
    assemble_gram,
    dm_test,
    gen_heat_line,
    gen_wave_line,
    log_marginal_likelihood,
)
from graphspde import cli

FIT_OPTIONS = FitOptions(max_iters=60, restarts=2, grad_tol=1e-5, seed=0)
N_TRAIN = 50
GAP_SEED = 0
# At most one of a command's 27 covariance entries may lie beyond 4 SE: the
# budget of the library's own acceptance test for this oracle, max(1, 1 %).
# validate-kernel fails a command on any such entry, which with the default
# 50,000 paths happened by chance for 1 of 62 seeded commands (max z 4.08).
ORACLE_BEYOND_4SE = 1


@dataclass
class UnitResult:
    """One timed unit: a backtest window for one kernel, or one oracle command."""

    seconds: float
    failed: bool = False
    problem: str | None = None
    round: RoundResult | None = None
    entries: int = 0
    beyond_4se: int = 0


def shuffled(dataset, seed: int):
    order = np.random.default_rng(seed).permutation(len(dataset.observations))
    return replace(dataset, observations=tuple(dataset.observations[i] for i in order))


def remove_gaps(dataset, seed: int):
    """Drop one reading per time step, and a second on every tenth step.

    That removes 71 of the 704 wave-line readings (10.1 %) and leaves every
    50-step training window 504 or 505 points, none of them a complete grid.
    """
    rng = np.random.default_rng(seed)
    n = dataset.graph.n_vertices
    drop = set()
    for a, t in enumerate(dataset.times()):
        for v in rng.choice(n, size=2 if a % 10 == 0 else 1, replace=False):
            drop.add((int(v), float(t)))
    kept = tuple(ob for ob in dataset.observations if (ob[0].vertex, float(ob[0].time)) not in drop)
    return replace(dataset, observations=kept)


def _process(kind: str, nu: float, kappa: float) -> KernelSpec:
    return KernelSpec(kind=kind, hyper={"c": 1.0, "sigma": 1.0, "nu": nu, "kappa": kappa})


def _separable(spatial: KernelSpec) -> KernelSpec:
    return KernelSpec(kind="separable_product", hyper={"variance": 1.0, "time_lengthscale": 5.0},
                      temporal_kind="rbf", spatial=spatial)


class Backtest:
    """The first extrapolation window of a fixed dataset, one kernel per unit."""

    def __init__(self, make_data, kernels: dict[str, KernelSpec], paper: str, baseline: str, n_test: int):
        self.make_data = make_data
        self.kernels = kernels
        self.units = tuple(kernels)
        self.paper = paper
        self.baseline = baseline
        self.plan = BacktestPlan(n_train=N_TRAIN, n_test=n_test, stride=1, rounds=1, seed=0)

    def setup(self, seed: int, out_dir: Path):
        return shuffled(self.make_data(), seed)

    def check(self, data) -> dict[str, float]:
        """Relative grid-vs-dense LML difference per kernel, when the first
        training window is a complete grid (it has no grid path otherwise)."""
        train = data.restrict_to_times(data.times()[: N_TRAIN + 1])
        if len(train.observations) != train.graph.n_vertices * len(train.times()):
            return {}
        return {f"lml_rel.{name}": grid_lml_error(train, spec) for name, spec in self.kernels.items()}

    def run_unit(self, data, kernel: str) -> UnitResult:
        started = time.perf_counter()
        report = graphspde.run_backtest(
            data, {kernel: self.kernels[kernel]}, self.plan, baseline=kernel,
            tasks=("extrapolation",), fit_opts=FIT_OPTIONS, jobs=1, mean_policy="zero",
        )
        seconds = time.perf_counter() - started
        if report.failures:
            return UnitResult(seconds, failed=True, problem=f"{kernel}: {report.failures[0][3]}")
        result = report.rounds[0][2]
        problem = None if math.isfinite(result.mae) else f"{kernel} MAE is {result.mae}"
        return UnitResult(seconds, problem=problem, round=result)

    def quality(self, first: dict[str, UnitResult]) -> tuple[dict[str, float], list[str]]:
        """MAE per kernel, the largest DM p-value against the baseline, and the
        paper's claim: the paper kernel forecasts better than every rival."""
        rounds = {k: r.round for k, r in first.items() if r.round is not None}
        values = {f"mae.{k}": r.mae for k, r in rounds.items()}
        if len(rounds) < len(self.units):
            return values, ["a round failed, so the kernels cannot be compared"]
        base = rounds[self.baseline].abs_errors
        values["dm_p_max"] = max(
            dm_test(r.abs_errors, base, horizon=self.plan.n_test)[1]
            for k, r in rounds.items() if k != self.baseline
        )
        paper = rounds[self.paper].mae
        problems = [
            f"{self.paper} MAE {paper:.6g} is not below {kernel} {r.mae:.6g}"
            for kernel, r in rounds.items() if kernel != self.paper and not paper < r.mae
        ]
        return values, problems


def grid_lml_error(train, spec: KernelSpec) -> float:
    """Grid-path LML against a dense Gram + plain Cholesky reference.

    The kernel starts at the data-scaled hyperparameters a backtest round
    starts from: the scale (sigma or variance) makes the mean prior variance
    match the data variance, and the noise is 1 % of it.
    """
    y = train.values
    shift = GPModel(kernel=spec).time_offset - min(p.time for p in train.points)
    points = [STPoint(p.vertex, p.time + shift) for p in train.points]
    target_var = max(float(np.var(y)), 1e-12)
    scale_name, power = ("sigma", 2) if spec.kind in ("shek", "swek") else ("variance", 1)
    unit = spec.with_hyper(**{scale_name: 1.0})
    diag_mean = float(np.mean(np.diag(assemble_gram(unit, train.graph, points).matrix)))
    spec = spec.with_hyper(**{scale_name: (target_var / diag_mean) ** (1.0 / power)})
    noise = max(1e-2 * target_var, 1e-8)

    fast = log_marginal_likelihood(GPModel(kernel=spec, noise_variance=noise, mean_policy="zero"), train)
    gram = assemble_gram(spec, train.graph, points).matrix + noise * np.eye(len(points))
    factor = scipy.linalg.cholesky(gram, lower=True)
    alpha = scipy.linalg.cho_solve((factor, True), y)
    dense = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(factor))) - 0.5 * len(y) * math.log(2 * math.pi))
    return abs(fast - dense) / abs(dense)


class Oracle:
    """``validate-kernel`` through ``cli.main`` with its defaults, one kernel per unit."""

    units = ("shek", "swek")

    def setup(self, seed: int, out_dir: Path):
        return {"seed": seed, "out": out_dir / f"oracle-seed{seed}"}

    def check(self, inputs) -> dict[str, float]:
        return {}

    def run_unit(self, inputs, kernel: str) -> UnitResult:
        table = inputs["out"] / f"validate_{kernel}.csv"
        table.unlink(missing_ok=True)
        argv = ["validate-kernel", "--kernel", kernel, "--seed", str(inputs["seed"]),
                "--out", str(inputs["out"])]
        started = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        seconds = time.perf_counter() - started
        z = []
        if table.exists():
            with open(table, newline="", encoding="utf-8") as fh:
                z = [abs(float(row["z"])) for row in csv.DictReader(fh)]
        beyond = sum(value > 4.0 for value in z)
        # exit code 3 is also validate-kernel's verdict when any entry lies beyond 4 SE
        failed = not z or code not in (0, 3) or beyond > ORACLE_BEYOND_4SE
        problem = f"validate-kernel {kernel} exited {code}, {beyond} of {len(z)} beyond 4 SE" if failed else None
        return UnitResult(seconds, failed=failed, problem=problem, entries=len(z), beyond_4se=beyond)

    def quality(self, first: dict[str, UnitResult]) -> tuple[dict[str, float], list[str]]:
        entries = sum(r.entries for r in first.values())
        within = entries - sum(r.beyond_4se for r in first.values())
        return {"oracle_within_4se": within / entries if entries else 0.0}, []


def _heat_data():
    spec = SyntheticSpec(kind="heat_line", n_nodes=21, coefficient=0.3,
                         timestamps=tuple(0.2 * k for k in range(1, 71)), noise_sd=0.0, seed=0)
    return gen_heat_line(spec)[1]


def _wave_data():
    spec = SyntheticSpec(kind="wave_line", n_nodes=11, coefficient=1.0,
                         timestamps=tuple(float(t) for t in range(1, 65)), noise_sd=0.02, seed=0)
    return remove_gaps(gen_wave_line(spec)[1], GAP_SEED)


WORKLOADS = {
    "heat-grid": Backtest(
        _heat_data,
        {
            "shek": _process("shek", 2.0, 5.0),
            "sep-laplacian-rbf": _separable(KernelSpec(kind="laplacian_spatial", hyper={})),
            "sep-matern-rbf": _separable(KernelSpec(kind="matern_spatial", hyper={"nu": 0.5, "kappa": 1.0})),
        },
        paper="shek", baseline="shek", n_test=10,
    ),
    "wave-gappy": Backtest(
        _wave_data,
        {"swek": _process("swek", 2.5, 1.0), "shek": _process("shek", 2.5, 1.0)},
        paper="swek", baseline="shek", n_test=2,
    ),
    "oracle": Oracle(),
}
