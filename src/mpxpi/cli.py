"""Command-line front end.

Subcommands: check, tune, simulate, sweep, power, power-demo. Exit codes:
0 on success / all conditions passing, 1 when a stability condition fails,
2 on input errors. CSV output is deterministic for fixed inputs and seeds
(full double precision, seeds echoed in the header). Traces are stepped by
:mod:`mpxpi.kernels` in blocks of samples; a CSV of more than one span of
rows is formatted on all usable CPUs by forked workers, byte for byte as one
process would.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import fixtures, netspec, power as power_mod, sim as sim_mod
from .design import tune as run_tune
from .errors import (
    NoEquilibriumError,
    NotApplicableError,
    SpecFormatError,
    TuningInfeasibleError,
)
from .graph import laplacian
from .spectral import block_decompose, verify_block_properties
from .stability import StabilityReport, check_projection, check_theorem

_FMT = "%.17g"
_CSV_CHUNK_ROWS = 2048


def _num(x: float) -> str:
    return _FMT % x


def _format_span(rows: np.ndarray, line: str, start: int, stop: int) -> bytes:
    """Rows ``start:stop`` as CSV text, every value formatted with ``_FMT``."""
    span = rows[start:stop]
    return ((line * len(span)) % tuple(span.ravel().tolist())).encode("ascii")


def _format_worker(conn, readers, rows: np.ndarray, line: str, spans: list[tuple[int, int]]) -> None:
    # Ctrl-C reaches the whole process group; the writer ends the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Receiving ends inherited at the fork: with them closed, only the parent
    # reads this pipe, so a send fails once the parent is gone.
    for reader in readers:
        reader.close()
    try:
        for start, stop in spans:
            conn.send_bytes(_format_span(rows, line, start, stop))
    except BrokenPipeError:  # the parent died without ending the workers
        pass


@contextlib.contextmanager
def _span_workers(workers: int, rows: np.ndarray, line: str, spans: list[tuple[int, int]]):
    """Forked workers, worker ``k`` formatting ``spans[k::workers]`` in order.

    Yields one receiving pipe end per worker; on exit the workers are joined,
    after being terminated if the body raised. Fork hands each worker the
    rows without pickling them; the workers only format floats and send
    bytes, so they take no lock that another thread of the parent may have
    held at the fork. A worker blocks on its pipe until the parent reads, so
    at most two spans per worker are in flight. The parent reads in its own
    thread: a pool's result thread would allocate every span in a fresh
    malloc arena, and the parent's peak memory would grow with each call.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            args = (send, list(conns), rows, line, spans[k::workers])
            proc = ctx.Process(target=_format_worker, args=args)
            proc.start()
            procs.append(proc)
            send.close()  # the worker holds the only send end, so its exit ends the pipe
        yield conns
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def _write_csv(path: str | None, header_lines: list[str], columns: list[str], rows) -> None:
    """Write ``rows`` under a header, to ``path`` or standard output.

    Rows are formatted in spans of ``_CSV_CHUNK_ROWS``, so a long trace never
    sits in memory as text. With more than one span and more than one usable
    CPU, forked workers format the spans and the parent writes them in order.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join([_FMT] * len(columns)) + "\n"
    starts = range(0, len(rows), _CSV_CHUNK_ROWS)
    spans = [(start, min(start + _CSV_CHUNK_ROWS, len(rows))) for start in starts]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(spans))
    with contextlib.ExitStack() as stack:
        # The workers fork before the output is opened, so none inherits it.
        conns = None
        if workers > 1:
            conns = stack.enter_context(_span_workers(workers, rows, line, spans))
        out = stack.enter_context(open(path, "w")) if path is not None else sys.stdout
        out.write("".join(f"# {h}\n" for h in header_lines) + ",".join(columns) + "\n")
        for k, (start, stop) in enumerate(spans):
            if conns is None:
                text = _format_span(rows, line, start, stop)
            else:
                text = conns[k % workers].recv_bytes()
            out.write(text.decode("ascii"))


def _report_rows(report: StabilityReport) -> list[tuple[str, str]]:
    x_inf = (
        "[" + ", ".join(_num(v) for v in report.x_infinity) + "]"
        if report.x_infinity is not None
        else "undefined"
    )
    verdict = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
    return [
        ("mode", report.mode),
        ("anchor", str(report.anchor)),
        ("mu", _num(report.mu)),
        ("|eta|", _num(abs(report.eta))),
        ("rho", _num(report.rho)),
        ("lambda2_C", _num(report.lambda2_c)),
        ("lambda2_P", _num(report.lambda2_p)),
        ("lambda2_I", _num(report.lambda2_i)),
        ("threshold", _num(report.threshold)),
        ("coupling", _num(report.coupling)),
        ("condition_i", f"{verdict(report.condition_i)} (margin {_num(report.margin_i)})"),
        ("condition_ii", f"{verdict(report.condition_ii)} (margin {_num(report.margin_ii)})"),
        ("condition_iii", f"{verdict(report.condition_iii)} (margin {_num(report.margin_iii)})"),
        ("x_infinity", x_inf),
    ]


def _print_pairs(rows: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "csv":
        for key, value in rows:
            print(f"{key},{value}")
    else:
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            print(f"{key.ljust(width)}  {value}")


def _cmd_check(args) -> int:
    system, _ = netspec.parse_spec(args.spec)
    report = (
        check_projection(system, args.anchor)
        if args.projection
        else check_theorem(system, args.anchor)
    )
    _print_pairs(_report_rows(report), args.format)
    if args.verify_spectral:
        print()
        for name, layer in (("C", system.layer_c), ("P", system.layer_p), ("I", system.layer_i)):
            if layer.edge_count == 0:
                print(f"layer {name}: no edges, skipped")
                continue
            blocks = block_decompose(laplacian(layer))
            prop = verify_block_properties(blocks, system.state_dim)
            print(f"layer {name}: max residual {_num(prop.max_residual)}")
            for key, value in prop.residuals.items():
                print(f"  {key.ljust(24)} {_num(value)}")
    return 0 if report.passed else 1


def _cmd_tune(args) -> int:
    system, _ = netspec.parse_spec(args.spec)
    anchor = None if args.anchor == "auto" else int(args.anchor)
    result = run_tune(system, anchor=anchor)
    rows = [
        ("sigma_P_min", _num(result.sigma_p_min)),
        ("feasible", "yes" if result.feasible else "no"),
        ("used_local_feedback", "yes" if result.used_local_feedback else "no"),
    ]
    _print_pairs(rows + _report_rows(result.report), args.format)
    return 0 if result.feasible else 1


def _resolve_x0(spec: str, size: int) -> tuple[np.ndarray, str]:
    if spec.startswith("random:"):
        seed = int(spec.split(":", 1)[1])
        return np.random.default_rng(seed).standard_normal(size), f"x0=random:{seed}"
    text = Path(spec).read_text()
    try:
        values = json.loads(text)
        if any(isinstance(value, bool) for value in values):
            raise TypeError("true and false are not numbers")
        data = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # not JSON, or not an array of numbers
        message = f"x0 must be a JSON list of {size} numbers ({exc})"
        raise SpecFormatError("bad-type", spec, message) from None
    if data.shape != (size,):
        raise SpecFormatError("dimension", spec, f"x0 must have {size} entries")
    return data, f"x0=file:{spec}"


def _cmd_simulate(args) -> int:
    system, defaults = netspec.parse_spec(args.spec)
    t_end = args.t_end if args.t_end is not None else defaults.get("t_end", 50.0)
    dt = args.dt if args.dt is not None else defaults.get("dt", 1e-3)
    size = system.n_nodes * system.state_dim
    x0_spec = args.x0
    if x0_spec is None:
        seed = defaults.get("seed", 0)
        x0_spec = f"random:{seed}"
    x0, x0_note = _resolve_x0(x0_spec, size)
    trace = sim_mod.simulate(system, x0, t_end, dt, record_every=args.record_every)
    columns = (
        ["t"]
        + [f"x_{k + 1}" for k in range(size)]
        + [f"z_{k + 1}" for k in range(size)]
        + ["d_x"]
    )
    rows = np.column_stack([trace.times, trace.states, trace.integrals, trace.d_x])
    header = [x0_note, f"t_end={_num(t_end)} dt={_num(dt)} record_every={args.record_every}"]
    if trace.divergent:
        header.append("divergent=true (trace truncated)")
    _write_csv(args.out, header, columns, rows)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecFormatError("bad-type", text, "expected start:stop:steps")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise SpecFormatError("bad-type", text, "steps must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SpecFormatError("bad-type", text, "grid values must be finite and non-negative")
    return np.linspace(start, stop, steps)


def _cmd_sweep(args) -> int:
    system, _ = netspec.parse_spec(args.spec)
    result = sim_mod.sweep(system, _parse_grid(args.sigma_p), _parse_grid(args.sigma_i))
    sp, si = result.sigma_p, result.sigma_i
    rows = np.column_stack(
        [np.repeat(sp, si.size), np.tile(si, sp.size), result.abscissa.ravel(), result.stable.ravel()]
    )
    _write_csv(
        args.out,
        [f"sigma_p={args.sigma_p} sigma_i={args.sigma_i}"],
        ["sigma_p", "sigma_i", "abscissa", "stable"],
        rows,
    )
    return 0


def _power_rows(report: power_mod.PowerReport) -> list[tuple[str, str]]:
    verdict = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
    omega = _num(report.omega_infinity) if report.omega_infinity is not None else "undefined"
    return [
        ("psi11", _num(report.psi11)),
        ("threshold", _num(report.threshold)),
        ("coupling", _num(report.coupling)),
        ("sigma_P_min", _num(report.sigma_p_min)),
        ("lambda2_P", _num(report.lambda2_p)),
        ("lambda2_I", _num(report.lambda2_i)),
        ("condition_c1", f"{verdict(report.condition_c1)} (margin {_num(report.margin_c1)})"),
        ("condition_c2", f"{verdict(report.condition_c2)} (margin {_num(report.margin_c2)})"),
        ("omega_infinity", omega),
    ]


def _cmd_power(args) -> int:
    grid = netspec.parse_power_spec(args.spec)
    report = power_mod.check_power(grid)
    _print_pairs(_power_rows(report), args.format)
    return 0 if report.passed else 1


def _cmd_power_demo(args) -> int:
    grid = fixtures.sixteen_bus_grid(sigma_p=args.sigma_p)
    report = power_mod.check_power(grid)
    trace = power_mod.simulate_power(
        grid,
        disturbances=fixtures.GRID_DISTURBANCES,
        control_on_time=fixtures.GRID_CONTROL_ON_TIME,
        t_end=args.t_end,
        dt=args.dt,
        record_every=args.record_every,
    )
    _print_pairs(_power_rows(report), args.format)
    final_dev = float(np.abs(trace.omega[-1] - 60.0).max())
    on = trace.times >= fixtures.GRID_CONTROL_ON_TIME
    overshoot = float(np.abs(trace.omega[on] - 60.0).max())
    print(f"final_max_dev_hz   {_num(final_dev)}")
    print(f"overshoot_hz       {_num(overshoot)}")
    if args.out:
        n = grid.n_nodes
        columns = (
            ["t"]
            + [f"omega_{k + 1}" for k in range(n)]
            + [f"z_{k + 1}" for k in range(n)]
            + ["spread"]
        )
        rows = np.column_stack([trace.times, trace.omega, trace.powers, trace.spread])
        _write_csv(
            args.out,
            [f"sigma_p={_num(args.sigma_p)} t_end={_num(args.t_end)} dt={_num(args.dt)}"],
            columns,
            rows,
        )
    return 0 if report.passed and not trace.divergent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpxpi",
        description="Multiplex PI consensus: certificates, tuning, simulation, grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "csv"), default="table")

    p_check = sub.add_parser("check", help="evaluate the stability certificates")
    p_check.add_argument("spec")
    p_check.add_argument("--anchor", type=int, default=1)
    p_check.add_argument("--projection", action="store_true",
                         help="force the merged-layer coupling condition")
    p_check.add_argument("--verify-spectral", action="store_true",
                         help="also print the basis-identity residuals per layer")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_tune = sub.add_parser("tune", help="minimal certified proportional gain")
    p_tune.add_argument("spec")
    p_tune.add_argument("--anchor", default="auto", help="'auto' or a node index")
    add_format(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_sim = sub.add_parser("simulate", help="integrate the closed loop, emit CSV")
    p_sim.add_argument("spec")
    p_sim.add_argument("--t-end", type=float, default=None)
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--x0", default=None, help="'random:SEED' or a JSON vector file")
    p_sim.add_argument("--record-every", type=int, default=1)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="stability map over a gain grid, emit CSV")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--sigma-p", required=True, help="start:stop:steps")
    p_sweep.add_argument("--sigma-i", required=True, help="start:stop:steps")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_power = sub.add_parser("power", help="grid certificates from a power spec")
    p_power.add_argument("spec")
    add_format(p_power)
    p_power.set_defaults(func=_cmd_power)

    p_demo = sub.add_parser("power-demo", help="built-in 16-bus load-step scenario")
    p_demo.add_argument("--sigma-p", type=float, default=55.0)
    p_demo.add_argument("--t-end", type=float, default=20.0)
    p_demo.add_argument("--dt", type=float, default=2e-5)
    p_demo.add_argument("--record-every", type=int, default=100)
    p_demo.add_argument("--out", default=None)
    add_format(p_demo)
    p_demo.set_defaults(func=_cmd_power_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotApplicableError, NoEquilibriumError, TuningInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
