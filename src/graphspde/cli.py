"""Command-line interface: reproducible experiments over the library.

Subcommands: ``synth``, ``backtest``, ``validate-kernel``, ``sample``,
``fit``.  Every run is driven by flags plus an optional JSON config file;
each setting is the flag if given, else its key in the subcommand's config
section, else the top-level key, else its default.  The flags are built from
each subcommand's row of the settings table: setting ``n_train`` is flag
``--n-train``, and the settings in ``_CONFIG_ONLY`` have no flag.  Seeds are
explicit everywhere, so reruns are byte-identical apart from wall-time fields.

Exit codes: 0 success, 1 usage error, 2 data error (a file that cannot be read or
written included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import BacktestPlan
from .data_io import (
    SyntheticSpec,
    gen_heat_line,
    gen_wave_line,
    load_graph_csv,
    load_series_csv,
    write_graph_csv,
    write_series_csv,
)
from .exceptions import DataError, NumericError
from .experiments import run_backtest
from .gp import FitOptions, GPModel, SpatioTemporalDataset, _draw, fit as fit_gp, sampling_moments
from .graphs import Graph, fractional_from_graph, line_graph
from .kernels import TEMPORAL_KINDS, KernelSpec, STPoint, shek_cov, swek_cov
from .sde import empirical_cross_cov, simulate_heat, simulate_wave

KERNEL_NAMES = ("laplacian", "matern", "shek", "swek") + tuple(
    f"sep-{spatial}-{temporal}" for spatial in ("laplacian", "matern") for temporal in TEMPORAL_KINDS
)

# Each subcommand's config section and the defaults of its settings, in flag
# order.  A type in place of a default marks a setting with none (it reads
# None).  A tuple setting takes a comma list or a JSON list of its default's
# item type, or of floats where it has no default.
_COMMON = {"out": "out", "seed": 0}
_PROCESS = {"c": 1.0, "sigma": 1.0, "nu": 1.5, "kappa": 1.0, "variant": "unnormalized"}
_HYPER = {**_PROCESS, "time_lengthscale": 5.0, "variance": 1.0}
_GRAPH = {"graph": str, "nodes": 3}
_DATA = {"graph": str, "series": str, "synth": dict}
_SYNTH = {"kind": "heat-line", "nodes": int, "k": 1.0, "t": "1:60", "noise_sd": 0.0}  # nodes: by kind
_COMMANDS = {
    "synth": ("synth", _SYNTH),
    "backtest": ("backtest", {
        **_DATA, "kernels": ("shek", "sep-matern-rbf", "sep-laplacian-rbf"), "baseline": str,
        "task": "both", "n_train": 50, "n_test": 10, "stride": 1, "rounds": 10, "max_iters": 40,
        "restarts": 1, "grad_tol": 1e-4, "jobs": 1, "mean_policy": "per_node_training_mean",
        **_HYPER}),
    "validate-kernel": ("validate", {"kernel": "shek", **_GRAPH, "dt": 1e-3, "t_end": 1.0,
                                     "n_paths": 50_000, **_PROCESS}),
    "sample": ("sample", {"kernel": "shek", **_GRAPH, "times": "0:2:0.05", "condition": tuple,
                          "n_samples": 5, "noise": 1e-8, **_HYPER, "c": (1.0,)}),
    "fit": ("fit", {**_DATA, "kernel": "shek", "noise": 1e-2, "max_iters": 100, "restarts": 2,
                    **_HYPER}),
}
# settings that only a config file sets
_CONFIG_ONLY = {"synth", "variant", "grad_tol", "mean_policy"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# settings and small parsers
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError("config root must be a JSON object")
    return config


def _settings(args) -> dict:
    """The subcommand's settings: flag > config[section] key > top-level config key > default."""
    section, defaults = _COMMANDS[args.command]
    config = _load_config(args.config)
    scoped = {} if config.get(section) is None else config[section]
    if not isinstance(scoped, dict):
        raise DataError(f"config section {section!r} must be a JSON object, got {scoped!r}")
    return _resolve({**_COMMON, **defaults}, vars(args), scoped, config)


def _resolve(defaults: dict, *layers: dict) -> dict:
    """Each setting from the first layer that gives it (null counts as not
    given), else its default, converted to the default's type."""
    def given(key):
        return next((layer[key] for layer in layers if layer.get(key) is not None), None)

    return {key: _convert(key, given(key), default) for key, default in defaults.items()}


def _convert(key: str, value, default):
    if value is None:
        return None if isinstance(default, type) else default
    kind = default if isinstance(default, type) else type(default)
    try:
        if kind is tuple:
            items = value.split(",") if isinstance(value, str) else value
            item = type(default[0]) if isinstance(default, tuple) else float
            return tuple(map(item, items if isinstance(items, (list, tuple)) else [items]))
        if kind is dict and not isinstance(value, dict):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        expected = "list" if kind is tuple else "object" if kind is dict else kind.__name__
        raise DataError(f"setting {key!r}: expected {expected}, got {value!r}") from None


def _parse_times(spec: str) -> tuple[float, ...]:
    """Time grids: 'a:b' (integer steps, inclusive), 'a:b:step', or 'a,b,c'."""
    spec = str(spec).strip()
    if ":" not in spec:
        try:
            return tuple(float(tok) for tok in spec.split(",") if tok.strip())
        except ValueError:
            raise DataError(f"bad time list {spec!r}") from None
    parts = spec.split(":")
    if len(parts) == 2:
        parts.append("1")
    try:
        start, stop, step = map(float, parts)
    except ValueError:
        raise DataError(f"bad time range {spec!r}; expected start:stop[:step]") from None
    if not (np.all(np.isfinite([start, stop, step])) and step > 0 and stop >= start):
        raise DataError(f"bad time range {spec!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


def _kernel_spec(name: str, hyper: dict) -> KernelSpec:
    """Build a KernelSpec from a CLI kernel name and hyperparameter defaults."""
    name = name.strip().lower()
    nu, kappa = hyper["nu"], hyper["kappa"]
    if name == "shek" or name == "swek":
        return KernelSpec(
            kind=name,
            hyper={"c": hyper["c"], "sigma": hyper["sigma"], "nu": nu, "kappa": kappa},
            laplacian_variant=hyper["variant"],
        )
    if name == "laplacian":
        return KernelSpec(kind="laplacian_spatial", hyper={"variance": hyper["variance"]},
                          laplacian_variant=hyper["variant"])
    if name == "matern":
        return KernelSpec(kind="matern_spatial",
                          hyper={"nu": nu, "kappa": kappa, "variance": hyper["variance"]},
                          laplacian_variant=hyper["variant"])
    if name.startswith("sep-"):
        parts = name.split("-")
        if len(parts) == 3 and parts[1] in ("matern", "laplacian") and parts[2] in TEMPORAL_KINDS:
            spatial = _kernel_spec(parts[1], {**hyper, "variance": 1.0})
            sep_hyper = {"variance": hyper["variance"]}
            if parts[2] != "brownian":
                sep_hyper["time_lengthscale"] = hyper["time_lengthscale"]
            return KernelSpec(
                kind="separable_product",
                hyper=sep_hyper,
                temporal_kind=parts[2],
                laplacian_variant=hyper["variant"],
                spatial=spatial,
            )
    raise DataError(f"unknown kernel {name!r}; expected one of {', '.join(KERNEL_NAMES)}")


def _out_dir(settings: dict) -> Path:
    """The --out directory, created; a subcommand asks for it just before its first write, so a
    command that fails on its inputs leaves none behind."""
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_graph(settings: dict) -> Graph:
    """The --graph file, else a line graph of --nodes vertices."""
    if settings["graph"]:
        return load_graph_csv(settings["graph"])
    return line_graph(settings["nodes"])


def _synthesize(settings: dict) -> tuple[SyntheticSpec, Graph, SpatioTemporalDataset]:
    """A synthetic line-graph dataset from the settings of ``_SYNTH`` and a seed."""
    kind = settings["kind"].replace("-", "_")
    nodes = settings["nodes"]
    spec = SyntheticSpec(
        kind=kind,
        n_nodes=nodes if nodes is not None else 21 if kind == "heat_line" else 11,
        coefficient=settings["k"],
        timestamps=_parse_times(settings["t"]),
        noise_sd=settings["noise_sd"],
        seed=settings["seed"],
    )
    gen = gen_heat_line if spec.kind == "heat_line" else gen_wave_line
    return (spec, *gen(spec))


def _load_dataset(settings: dict) -> SpatioTemporalDataset:
    """Dataset from --graph/--series files, or from an inline synth spec,
    whose seed defaults to the command's."""
    if settings["graph"] and settings["series"]:
        return load_series_csv(settings["series"], load_graph_csv(settings["graph"]))
    if settings["synth"]:
        return _synthesize(_resolve({**_SYNTH, "seed": settings["seed"]}, settings["synth"]))[2]
    raise DataError("need either --graph and --series files or a 'synth' config entry")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(settings: dict) -> int:
    spec, graph, dataset = _synthesize(settings)
    out = _out_dir(settings)
    write_graph_csv(graph, out / "graph.csv")
    write_series_csv(dataset, out / "series.csv")
    provenance = {"command": "synth", "package_version": __version__, "spec": asdict(spec)}
    with open(out / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out / 'graph.csv'}, {out / 'series.csv'} "
          f"({spec.n_nodes} nodes x {len(spec.timestamps)} timestamps)")
    return 0


def _format_cell(value, digits=4) -> str:
    if value is None:
        return ""
    return f"{value:.{digits}g}"


def cmd_backtest(settings: dict) -> int:
    dataset = _load_dataset(settings)

    names = [n.strip() for n in settings["kernels"] if n.strip()]
    if not names:
        raise DataError(f"--kernels names no kernel; expected one or more of {', '.join(KERNEL_NAMES)}")
    kernels = {name: _kernel_spec(name, settings) for name in names}
    baseline = names[0] if settings["baseline"] is None else settings["baseline"]

    plan = BacktestPlan(n_train=settings["n_train"], n_test=settings["n_test"],
                        stride=settings["stride"], rounds=settings["rounds"], seed=settings["seed"])
    task = settings["task"]
    tasks = ("interpolation", "extrapolation") if task == "both" else (task,)
    fit_opts = FitOptions(max_iters=settings["max_iters"], restarts=settings["restarts"],
                          grad_tol=settings["grad_tol"], seed=plan.seed)

    report = run_backtest(dataset, kernels, plan, baseline, tasks=tasks, fit_opts=fit_opts,
                          jobs=settings["jobs"], mean_policy=settings["mean_policy"])

    rows_path = _out_dir(settings) / "results.csv"
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "kernel", "split", "mae", "mape",
                         "ci_half_width", "dm_vs_baseline_p", "wall_time", "status"])
        for kernel, task_name, result in report.rounds:
            writer.writerow([result.round_index, kernel, task_name,
                             _format_cell(result.mae, 10), _format_cell(result.mape, 10),
                             "", "", f"{result.wall_time:.3f}", "ok"])
        for kernel, task_name, round_index, message in report.failures:
            writer.writerow([round_index, kernel, task_name, "", "", "", "", "", f"failed: {message}"])
        for summary in report.summaries:
            writer.writerow(["all", summary.kernel, summary.task,
                             _format_cell(summary.mae_mean, 10), _format_cell(summary.mape_mean, 10),
                             _format_cell(summary.mae_ci_half_width, 10),
                             _format_cell(summary.dm_p_value, 10), "", "summary"])

    # one row per kernel, one MAE/MAPE/DM column group per task
    print(f"\nbacktest over {plan.rounds} rounds (baseline: {baseline})")
    short = {"interpolation": "int", "extrapolation": "ext"}
    by_kernel: dict[str, dict[str, object]] = {name: {} for name in kernels}
    for summary in report.summaries:
        by_kernel[summary.kernel][summary.task] = summary
    header = f"{'kernel':<20}"
    for task in tasks:
        tag = short[task]
        header += f"{'MAE_' + tag:>12}{'+-95%':>10}{'MAPE_' + tag:>10}{'DM p_' + tag:>10}"
    print(header)
    print("-" * len(header))
    for name in kernels:
        row = f"{name:<20}"
        for task in tasks:
            summary = by_kernel[name].get(task)
            if summary is None:
                row += f"{'':>12}{'':>10}{'':>10}{'':>10}"
                continue
            ci = _format_cell(summary.mae_ci_half_width) if summary.mae_ci_half_width is not None else "n/a"
            row += (f"{summary.mae_mean:>12.4g}{ci:>10}"
                    f"{_format_cell(summary.mape_mean):>10}{_format_cell(summary.dm_p_value):>10}")
        print(row)
    if plan.rounds == 1:
        print("single round: confidence intervals omitted")
    if report.failures:
        print(f"{len(report.failures)} round(s) failed; see {rows_path}")
    print(f"results written to {rows_path}")
    return 0


def cmd_validate_kernel(settings: dict) -> int:
    kernel = settings["kernel"]
    if kernel not in ("shek", "swek"):
        raise DataError(f"validate-kernel supports 'shek' and 'swek', got {kernel!r}")
    graph = _load_graph(settings)
    c, sigma, dt, t_end = settings["c"], settings["sigma"], settings["dt"], settings["t_end"]
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (np.isfinite(value) and value > 0):
            raise DataError(f"validate-kernel needs a finite {name} > 0, got {value:g}")
    n_paths, seed = settings["n_paths"], settings["seed"]
    if n_paths < 2:
        raise DataError(f"validate-kernel needs n_paths >= 2 for a covariance, got {n_paths}")

    frac = fractional_from_graph(graph, settings["variant"], settings["nu"], settings["kappa"])
    steps = int(round(t_end / dt))
    if steps % 2:
        raise DataError("t_end must be an even number of dt steps so t_end/2 is on the grid")
    if kernel == "shek":
        ens = simulate_heat(frac.matrix, c, sigma, np.zeros(graph.n_vertices),
                            dt, t_end, n_paths, seed, save_stride=steps // 2)
        analytic_fn = lambda t, s: shek_cov(frac, c, sigma, t, s)
    else:
        ens = simulate_wave(frac.matrix, c, sigma, np.zeros(graph.n_vertices),
                            np.zeros(graph.n_vertices), dt, t_end, n_paths, seed,
                            save_stride=steps // 2)
        analytic_fn = lambda t, s: swek_cov(frac, c, sigma, t, s)

    half, full = t_end / 2.0, t_end
    pairs = [(half, half), (full, half), (full, full)]
    max_z = 0.0
    rows = []
    for t, s in pairs:
        analytic = analytic_fn(t, s)
        empirical, se = empirical_cross_cov(ens, ens.index_of_time(t), ens.index_of_time(s))
        z = (empirical - analytic) / se
        max_z = max(max_z, float(np.max(np.abs(z))))
        for i in range(graph.n_vertices):
            for j in range(graph.n_vertices):
                rows.append([t, s, graph.labels[i], graph.labels[j],
                             f"{analytic[i, j]:.10g}", f"{empirical[i, j]:.10g}",
                             f"{se[i, j]:.4g}", f"{z[i, j]:.3f}"])

    path = _out_dir(settings) / f"validate_{kernel}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "s", "node_i", "node_j", "analytic", "empirical", "se", "z"])
        writer.writerows(rows)

    verdict = "PASS" if max_z <= 4.0 else "FAIL"
    print(f"{kernel}: max |empirical - analytic| / SE = {max_z:.2f} over {len(rows)} entries "
          f"({n_paths} paths, dt={dt:g}) -> {verdict}")
    print(f"table written to {path}")
    return 0 if verdict == "PASS" else 3


def cmd_sample(settings: dict) -> int:
    graph = _load_graph(settings)
    n_samples, values = settings["n_samples"], settings["condition"]
    if not settings["c"]:
        raise DataError("sample needs at least one c value")
    points = [STPoint(vertex=v, time=t) for t in _parse_times(settings["times"])
              for v in range(graph.n_vertices)]

    condition_data = None
    if values is not None:
        if len(values) != graph.n_vertices:
            raise DataError(
                f"--condition needs one value per vertex ({graph.n_vertices}), got {len(values)}"
            )
        condition_data = SpatioTemporalDataset(
            graph=graph,
            observations=tuple(
                (STPoint(vertex=v, time=0.0), values[v]) for v in range(graph.n_vertices)
            ),
        )

    written = []
    for c in settings["c"]:
        model = GPModel(kernel=_kernel_spec(settings["kernel"], {**settings, "c": c}),
                        noise_variance=settings["noise"])
        mean, cov = sampling_moments(model, points, condition_data, graph=graph)
        sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        draws = _draw(mean, cov, n_samples, settings["seed"])

        path = _out_dir(settings) / f"samples_c{c:g}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["node", "time", "series", "value"])
            for k, point in enumerate(points):
                label = graph.labels[point.vertex]
                writer.writerow([label, f"{point.time:.10g}", "mean", f"{mean[k]:.10g}"])
                writer.writerow([label, f"{point.time:.10g}", "lo95", f"{mean[k] - 1.96 * sd[k]:.10g}"])
                writer.writerow([label, f"{point.time:.10g}", "hi95", f"{mean[k] + 1.96 * sd[k]:.10g}"])
                for s_idx in range(n_samples):
                    writer.writerow([label, f"{point.time:.10g}", f"sample_{s_idx:03d}",
                                     f"{draws[s_idx, k]:.10g}"])
        written.append(path)
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cmd_fit(settings: dict) -> int:
    dataset = _load_dataset(settings)
    kernel_name = settings["kernel"]
    model = GPModel(kernel=_kernel_spec(kernel_name, settings), noise_variance=settings["noise"])
    opts = FitOptions(max_iters=settings["max_iters"], restarts=settings["restarts"],
                      seed=settings["seed"])
    result = fit_gp(model, dataset, opts)
    payload = {
        "kernel": kernel_name,
        "hyper": {k: float(v) for k, v in result.model.kernel.hyper.items()},
        "noise_variance": result.model.noise_variance,
        "lml": result.lml,
        "trace_length": len(result.trace),
        "starts": [{"lml": lml, "iterations": iterations} for lml, iterations in result.starts],
        "skipped_starts": result.skipped_starts,
    }
    with open(_out_dir(settings) / f"fit_{kernel_name}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# each subcommand's handler and help, and the help or choices of some of its flags
_SUBCOMMANDS = {
    "synth": (cmd_synth, "generate a synthetic line-graph dataset", {
        "kind": {"choices": ("heat-line", "wave-line")},
        "k": {"help": "conductivity (heat) or wave speed (wave)"},
        "t": {"help": "timestamps, e.g. 1:50 or 1:10:0.5 or 1,2,5"}}),
    "backtest": (cmd_backtest, "sliding-window backtest of kernels", {
        "kernels": {"help": "comma list, e.g. shek,sep-matern-rbf"},
        "task": {"choices": ("interpolation", "extrapolation", "both")},
        "jobs": {"help": "worker threads for independent rounds"},
        "restarts": {"help": "up to this many random starts after a round's own; a start that "
                             "ties the best LML ends the search (shek/swek rounds start from a c grid "
                             "instead)"}}),
    "validate-kernel": (cmd_validate_kernel,
                        "check an analytic kernel against Euler-Maruyama simulation",
                        {"kernel": {"choices": ("shek", "swek")}}),
    "sample": (cmd_sample, "emit mean, 95%% band and sample paths as CSV", {
        "times": {"help": "time grid, e.g. 0:2:0.05"},
        "condition": {"help": "comma list of values at t=0, one per vertex"},
        "c": {"help": "diffusivity / wave speed; accepts a comma list (one CSV per value)"}}),
    "fit": (cmd_fit, "fit kernel hyperparameters to a dataset", {
        "restarts": {"help": "up to this many random starts after the model's own; a start that "
                             "ties the best LML ends the search"}}),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    common.add_argument("--seed", type=int, help="global random seed")
    common.add_argument("--out", help="output directory (default: out)")

    parser = _Parser(prog="graphspde", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, extras) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        for key, default in _COMMANDS[command][1].items():
            if key not in _CONFIG_ONLY:
                kind = default if isinstance(default, type) else type(default)
                # other kinds take the string that _convert parses
                p.add_argument("--" + key.replace("_", "-"), type=kind if kind in (int, float) else None,
                               **extras.get(key, {}))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        settings = _settings(args)
        return _SUBCOMMANDS[args.command][0](settings)
    except (DataError, OSError) as exc:  # an input it cannot read or an output it cannot write
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
