"""Layered benchmark for mpxpi.

Run from the root of a checkout (the directory holding ``src/mpxpi``):

    python3 perfbench/run.py --workload trace --seed 1 --seconds 25 --trace 0

One process runs one workload; ``--workload all`` runs the four in turn,
each in a fresh process. After one warm-up operation it repeats whole
rounds of the workload's operation list until the operations have taken
``--seconds`` of measured time, and checks every output against reference
computations made apart from the program. ``setup_s`` is the median over
fresh processes of ``import mpxpi`` plus building the workload's inputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps every
public function of every module of the program, runs half of the time
untraced and half traced, and reports per-layer self time, calls and kernel
work per round, plus the tracing overhead. The last line of standard output
is one JSON object; a fuller record, and the spans of a traced run, go to
``perfbench/results/``. The exit code is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("trace", "oracle", "gainplane", "scale")
SETUP_PROBES = 5
LAYERS = (
    "cli", "design", "fixtures", "graph", "kernels", "netspec",
    "power", "sim", "spectral", "stability",
)

#: Per-layer metrics: (module.function, stat). ``calls`` and ``self_s`` are
#: per round of the operation list, with calls made while building the
#: inputs added once.
LAYER_METRICS = (
    [("kernels.integrate_lti", s) for s in ("self_s", "calls", "us_per_step", "flops", "bytes")]
    + [("cli.main", "self_s"), ("cli.main", "bytes_out")]
    + [("netspec.parse_spec", "self_s"), ("netspec.parse_power_spec", "self_s")]
    + [("power.simulate_power", "self_s"), ("power.check_power", "self_s")]
    + [
        (f"sim.{fn}", s)
        for fn in ("simulate", "assemble", "equilibrium", "error_system",
                   "spectral_abscissa", "sweep", "certified_cells")
        for s in ("self_s", "calls")
    ]
    + [(f"stability.{fn}", s) for fn in ("check_theorem", "certificates", "best_anchor") for s in ("self_s", "calls")]
    + [("design.tune", "self_s"), ("design.tune", "calls")]
    + [
        (f"spectral.{fn}", s)
        for fn in ("block_decompose", "psi_blocks", "verify_block_properties", "similarity_transform")
        for s in ("self_s", "calls")
    ]
    + [(f"graph.{fn}", s) for fn in ("laplacian", "algebraic_connectivity", "is_connected") for s in ("self_s", "calls")]
)
LAYER_UNITS = {"self_s": "s", "calls": "count", "us_per_step": "us", "flops": "flop", "bytes": "B", "bytes_out": "B"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "mpxpi" / "__init__.py").is_file():
        fail(f"{root} holds no src/mpxpi; run from the root of an mpxpi checkout")
    return root


def import_program(root: Path) -> SimpleNamespace:
    """Import mpxpi from the checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(root / "src"))
    mpxpi = importlib.import_module("mpxpi")
    if Path(mpxpi.__file__).resolve() != (root / "src" / "mpxpi" / "__init__.py").resolve():
        fail(f"imported mpxpi from {mpxpi.__file__}, not from {root / 'src'}")
    return SimpleNamespace(**{name: importlib.import_module(f"mpxpi.{name}") for name in LAYERS})


def probe_setup(args, root: Path) -> None:
    """Time ``import mpxpi`` plus building the inputs, in a fresh process."""
    start = time.perf_counter()
    mpx = import_program(root)
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workload = WORKLOADS[args.workload](args.seed, root, Path(tmp))
        start = time.perf_counter()
        workload.build(mpx)
        build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


def setup_probe(args, root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["import_s"] + record["build_s"]


def blas_threads() -> str:
    """OpenBLAS thread count of the numpy in use, read through its own API."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    try:
        getter = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    getter.restype = ctypes.c_int
    return str(getter())


class Runner:
    """Runs rounds of one workload's operations and checks every output."""

    def __init__(self, workload, mpx, tracer=None):
        self.workload = workload
        self.mpx = mpx
        self.tracer = tracer
        self.ops = workload.ops(mpx)
        self.errors: list[str] = []
        self.failed = 0
        self.attempted = 0

    def call(self, label, fn, traced=False):
        if traced:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            out = self.tracer.span(f"op.{label}", fn) if traced else fn()
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"{label}: failed with {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed
        finally:
            if traced:
                self.tracer.active = False
        elapsed = time.perf_counter() - start
        self.errors += self.workload.check(self.mpx, label, out)
        return elapsed

    def warm_up(self):
        label, fn = next(op for op in self.ops if op[0] == self.workload.warmup)
        self.call(label, fn)

    def rounds(self, seconds: float, traced=False, between=None):
        """Whole rounds, stopping when less than half a round of ``seconds`` is left.

        Rounds of the trace workload last about 10 s, so stopping only once
        ``seconds`` is reached would make a run up to a round longer than asked.
        """
        round_times, latencies = [], []
        self.by_label = {label: [] for label, _ in self.ops}
        while not round_times or sum(round_times) + statistics.mean(round_times) / 2 < seconds:
            total = 0.0
            for label, fn in self.ops:
                elapsed = self.call(label, fn, traced)
                self.attempted += 1
                latencies.append(elapsed)
                self.by_label[label].append(elapsed)
                total += elapsed
            round_times.append(total)
            if between is not None:
                between(sum(round_times))
        return round_times, latencies


def end_to_end(args, root, workload, runner):
    # The machine's speed drifts over seconds, so the set-up probes are spread
    # over the run rather than taken in one burst at its end.
    setup = []

    def probe_when_due(measured_s):
        while len(setup) < SETUP_PROBES * min(1.0, measured_s / args.seconds):
            setup.append(setup_probe(args, root))

    round_times, latencies = runner.rounds(args.seconds, between=probe_when_due)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args, root))
    wall_s = statistics.median(round_times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Printed and kept in the result file, but not gated. The rates are fixed
    # multiples of 1/wall_s on a given workload, so wall_s's bound gates them.
    # The operations of a round differ in size by design, so the median
    # latency is one operation's, and it spread by more than the largest
    # bound from run to run on a shared machine.
    shown = {"op_p50_ms": (1e3 * statistics.median(latencies), "ms")}
    if len(latencies) >= 40:
        # Highest percentile with at least ten samples beyond it.
        q = max(p for p in (75, 90, 95, 99) if len(latencies) * (100 - p) / 100 >= 10)
        shown[f"op_p{q}_ms"] = (1e3 * statistics.quantiles(latencies, n=100)[q - 1], "ms")
    for key, name, unit in (("rk4_steps", "rk4_steps_per_s", "steps/s"),
                            ("cells", "cells_per_s", "cells/s"),
                            ("systems", "systems_per_s", "systems/s")):
        if workload.work[key]:
            shown[name] = (workload.work[key] / wall_s, unit)
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    extra = {
        "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "rounds": round_times,
        "latencies_s": runner.by_label,
        "setup_samples_s": setup,
        "ops_per_round": len(runner.ops),
    }
    return metrics, extra


def span_cost_s(tracer_type, calls=20000) -> float:
    """Seconds one traced call adds, from wrapping a function that does nothing."""
    probe = tracer_type()

    def noop():
        return None

    wrapped = probe.wrap("noop", noop)
    probe.active = True
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (traced - (time.perf_counter() - start)) / calls


def per_layer(args, workload, runner, tracer):
    plain, _ = runner.rounds(args.seconds / 2)
    traced, _ = runner.rounds(args.seconds / 2, traced=True)
    n_rounds = len(traced)
    stats = tracer.self_times()
    metrics = {}
    for fn, stat in LAYER_METRICS:
        setup_s, setup_calls = stats.get((0, fn), (0.0, 0))
        round_s, round_calls = stats.get((1, fn), (0.0, 0))
        self_s = setup_s + round_s / n_rounds
        calls = setup_calls + round_calls / n_rounds
        if stat == "self_s":
            value = self_s
        elif stat == "calls":
            value = calls
        elif stat == "bytes_out":
            value = float(sum(workload.bytes_out.values()))
        else:
            steps = tracer.kernel_steps[1] / n_rounds
            value = {
                "us_per_step": 1e6 * round_s / n_rounds / steps if steps else 0.0,
                "flops": tracer.kernel_flops[1] / n_rounds,
                "bytes": tracer.kernel_bytes[1] / n_rounds,
            }[stat]
        metrics[f"{fn}.{stat}"] = (value, LAYER_UNITS[stat])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["tracing.overhead_s"] = (overhead, "s")
    # The difference of two noisy medians can hide the overhead; the cost of
    # one span times the spans per round gives an estimate beside it.
    spans_per_round = sum(1 for p in tracer.phase if p == 1) / n_rounds
    estimate = span_cost_s(type(tracer)) * spans_per_round
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(spans)
    extra = {
        "untraced_rounds_s": plain, "traced_rounds_s": traced,
        "spans_per_round": spans_per_round, "estimated_overhead_s": estimate,
        "spans": len(tracer.spans), "span_file": str(spans.relative_to(HERE.parent)),
        "all_layers": {f"{name}@{'setup' if phase == 0 else 'rounds'}": v for (phase, name), v in stats.items()},
    }
    print(f"  tracing overhead {overhead:.4g} s per round "
          f"({100 * overhead / statistics.median(plain):.2f}% of {statistics.median(plain):.4g} s); "
          f"{spans_per_round:.0f} spans per round, estimated {estimate:.4g} s")
    return metrics, extra


def run_all(args, root: Path) -> None:
    """Run every workload, each in a fresh process, one after the other."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = checkout_root()
    if args.probe_setup:
        probe_setup(args, root)
        return
    if args.workload == "all":
        run_all(args, root)
        return

    mpx = import_program(root)
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workload = WORKLOADS[args.workload](args.seed, root, Path(tmp))
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(sys.modules["mpxpi"], vars(mpx))
            tracer.active = True
        workload.build(mpx)
        if tracer:
            tracer.active = False
            tracer.current_phase = 1
        runner = Runner(workload, mpx, tracer)
        runner.warm_up()
        threads = blas_threads()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"blas_threads {threads} nproc {os.cpu_count()}")
        if args.trace:
            metrics, extra = per_layer(args, workload, runner, tracer)
        else:
            metrics, extra = end_to_end(args, root, workload, runner)

    correct = not runner.errors
    for error in runner.errors[:20]:
        print(f"  wrong: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  errors=runner.errors[:50], blas_threads=threads, **extra)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
