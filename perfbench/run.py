"""graphspde benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload heat-grid --seed 1 --seconds 35 --trace 0

The library is imported from ``src/`` of the checkout; nothing needs to be
installed.  BLAS and OpenMP are pinned to one thread before numpy loads,
because the thread count changes both the speed of a factorization and,
through rounding, the optimizer's path.

A run sets its inputs up several times and reports the median, checks the
library against references, then runs the workload's units in cycles (a
closed loop with one caller) while the next unit still fits in
``--seconds``.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it alternates untraced and traced
cycles and prints the per-layer metrics, per cycle, with the tracing
overhead.  Human-readable lines go first; the last line of stdout is the
JSON result.  Spans and details are written to ``.perfbench_out/`` in the
checkout.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LML_RTOL = 1e-9
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import graphspde.cli; print(time.perf_counter() - t)"
)
KERNELS = ("shek", "swek", "sep-laplacian-rbf", "sep-matern-rbf")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(values: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, each with its declared unit."""
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    out = {}
    for metric in declared:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {metric['name']} is {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def unit_medians(results: dict) -> dict[str, float]:
    """Median seconds of each unit over its repeats."""
    return {unit: statistics.median(r.seconds for r in runs) for unit, runs in results.items() if runs}


def end_to_end(setup_s: float, untraced: dict, peak_rss_mb: float) -> dict:
    medians = unit_medians(untraced)
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians.values()),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced: dict, traced: dict, tracers: dict, quality: dict) -> dict:
    """Per-layer metrics for one cycle of traced units; breakdowns from untraced ones."""
    from spans import summarize

    summaries = {unit: [summarize(t) for t in ts] for unit, ts in tracers.items()}

    def per_cycle(value) -> float:
        """Sum over units of the mean over that unit's traced repeats."""
        return sum(
            statistics.fmean(value(t, s) for t, s in zip(tracers[u], summaries[u]))
            for u in tracers if tracers[u]
        )

    def span(name, key):
        return per_cycle(lambda t, s: s["spans"].get(name, {}).get(key, 0.0))

    def count(key):
        return per_cycle(lambda t, s: t.counts[key])

    def nested(key):
        return per_cycle(lambda t, s: s["nested"].get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    round_s = sum(
        statistics.fmean(r.round.wall_time for r in runs)
        for runs in traced.values() if runs and all(r.round is not None for r in runs)
    )
    plain = sum(unit_medians(untraced).values())
    overhead = sum(unit_medians(traced).values()) - plain
    values = {
        "spectral.eigh.calls": span("spectral.eigh", "calls"),
        "spectral.eigh.s": span("spectral.eigh", "s"),
        "spectral.chol.calls": span("spectral.chol", "calls"),
        "spectral.chol.s": span("spectral.chol", "s"),
        "spectral.chol.jittered_frac": ratio(count("spectral.chol.jittered"), span("spectral.chol", "calls")),
        "spectral.chol.failed": per_cycle(lambda t, s: t.errors[("spectral.chol", "FactorizationError")]),
        "graphs.frac.calls": span("graphs.frac", "calls"),
        "graphs.frac.eigh_per_call": ratio(nested("graphs.frac.eigh"), span("graphs.frac", "calls")),
        "kernels.gram.calls": span("kernels.gram", "calls"),
        "kernels.gram.s": span("kernels.gram", "s"),
        "kernels.gram.points": count("kernels.gram.points"),
        "kernels.temporal.s": span("kernels.temporal", "s"),
        "gp.fit.calls": span("gp.fit", "calls"),
        "gp.fit.s": span("gp.fit", "s"),
        "gp.fit.self_s": span("gp.fit", "self_s"),
        "gp.fit.iters": count("gp.fit.iters"),
        "gp.fit.chol_per_iter": ratio(nested("gp.fit.chol"), count("gp.fit.iters")),
        "gp.predict.calls": span("gp.predict", "calls"),
        "gp.predict.s": span("gp.predict", "s"),
        "gp.predict.points": count("gp.predict.points"),
        "experiments.rounds": span("experiments.backtest", "calls"),
        "experiments.fit_share": ratio(span("gp.fit", "s"), round_s),
        "sde.simulate.s": span("sde.simulate", "s"),
        "sde.simulate.path_steps_per_s": ratio(count("sde.simulate.path_steps"), span("sde.simulate", "s")),
        "sde.cross_cov.s": span("sde.cross_cov", "s"),
        "trace.spans": per_cycle(lambda t, s: len(t)),
        "trace.span_errors": per_cycle(lambda t, s: sum(t.errors.values())),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": ratio(overhead, plain),
        "experiments.dm_p_max": quality.get("dm_p_max", 0.0),
        "sde.oracle_within_4se": quality.get("oracle_within_4se", 0.0),
    }
    oracle = "oracle_within_4se" in quality
    for kernel in KERNELS:
        rounds = [r.round.wall_time for r in untraced.get(kernel, []) if r.round is not None]
        values[f"experiments.round_s.{kernel}"] = statistics.median(rounds) if rounds else 0.0
        values[f"experiments.mae.{kernel}"] = quality.get(f"mae.{kernel}", 0.0)
    for kernel in ("shek", "swek"):
        runs = untraced.get(kernel, [])
        values[f"cli.validate_s.{kernel}"] = statistics.median(r.seconds for r in runs) if oracle else 0.0
    return values


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[Path(path).name] = int(getattr(lib, symbol)())
                break
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=30, check=False)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    import graphspde

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "graphspde": graphspde.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def import_seconds() -> list[float]:
    """Import time of the library in fresh interpreters, one per repeat."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, inputs, seconds: float, trace: bool):
    """Run cycles over the workload's units while the next unit still fits.

    Stops before a unit whose longest run so far would end past
    ``seconds``, once every unit has run untraced (and, when tracing, also
    traced) at least once.  Peak RSS is read after the first full cycle, so
    it does not depend on how many cycles fit.
    """
    from spans import Tracer, instrument

    untraced = {u: [] for u in workload.units}
    traced = {u: [] for u in workload.units}
    tracers = {u: [] for u in workload.units}
    rss = None
    started = time.perf_counter()
    cycle = 0
    while True:
        tracing = trace and cycle % 2 == 1
        for unit in workload.units:
            enough = all(untraced.values()) and (not trace or all(traced.values()))
            longest = max(r.seconds for r in untraced[unit] + traced[unit]) if untraced[unit] else 0.0
            if enough and time.perf_counter() - started + longest > seconds:
                return untraced, traced, tracers, rss
            if tracing:
                tracer = Tracer()
                with instrument(tracer):
                    traced[unit].append(workload.run_unit(inputs, unit))
                tracers[unit].append(tracer)
            else:
                untraced[unit].append(workload.run_unit(inputs, unit))
        if rss is None:
            rss = peak_rss_mb()
        cycle += 1


def write_out(name: str, payload: dict, tracers: dict) -> Path:
    payload = dict(payload)
    payload["spans"] = {
        unit: [{"fields": ["name", "start", "end", "parent"], "records": t.records()} for t in ts]
        for unit, ts in tracers.items() if ts
    }
    path = OUT / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if not (SRC / "graphspde" / "__init__.py").is_file():
        print(f"graphspde sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    imports = import_seconds()
    generations = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workload.setup(args.seed, OUT)
        generations.append(time.perf_counter() - started)
    setup_s = statistics.median(imports) + statistics.median(generations)

    checks = workload.check(inputs)
    problems = [f"{name} = {value:.3e} exceeds {LML_RTOL:g}"
                for name, value in checks.items() if not value <= LML_RTOL]
    untraced, traced, tracers, rss = measure(workload, inputs, args.seconds, bool(args.trace))
    runs = [r for results in (untraced, traced) for rs in results.values() for r in rs]
    problems += [r.problem for r in runs if r.problem]
    quality, claim_problems = workload.quality({u: rs[0] for u, rs in untraced.items()})
    problems += claim_problems

    if args.trace:
        metrics = emit(per_layer(untraced, traced, tracers, quality), spec["per_layer"])
    else:
        metrics = emit(end_to_end(setup_s, untraced, rss), spec["end_to_end"])
    attempted = len(runs)
    failed = sum(r.failed for r in runs)

    env = environment()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for unit, rs in untraced.items():
        times = [r.seconds for r in rs]
        print(f"unit {unit}: n={len(times)} median={statistics.median(times):.4f} s max={max(times):.4f} s")
    for key, value in {**checks, **quality}.items():
        print(f"check {key}: {value:.6g}")
    print(f"failed_frac: {failed}/{attempted}")
    for metric, entry in metrics.items():
        print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics, "checks": checks, "quality": quality,
        "problems": problems, "failed_frac": failed / attempted,
        "setup": {"import_s": imports, "inputs_s": generations},
        "untraced_s": {u: [r.seconds for r in rs] for u, rs in untraced.items()},
        "traced_s": {u: [r.seconds for r in rs] for u, rs in traced.items()},
    }
    print(f"details: {write_out(name, details, tracers)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
