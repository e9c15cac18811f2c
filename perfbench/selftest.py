"""Show that every output check of the benchmark rejects a tampered output.

Run from the root of a checkout:  python3 perfbench/selftest.py

For each workload one real output is produced by the program and passes its
check; then each case alters that output so that one property no longer
holds, and the check must report that property. Exits 1 if any tampered
output passes.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from run import checkout_root, import_program
from workloads import WORKLOADS, _read_csv


def passes(results, name, errors):
    results.append(not errors)
    print(f"  {'ok  ' if not errors else 'FAIL'} {name}: untampered output passes")
    if errors:
        print(f"       errors were: {errors}")


def expect(results, name, errors, fragment):
    ok = any(fragment in e for e in errors)
    results.append(ok)
    print(f"  {'ok  ' if ok else 'MISS'} {name}: {fragment!r} {'caught' if ok else 'not reported'}")
    if not ok:
        print(f"       errors were: {errors}")


def tampered(data, rows, cols, delta=None, value=None):
    out = data.copy()
    if value is None:
        out[rows, cols] += delta
    else:
        out[rows, cols] = value
    return out


def trace_cases(mpx, root, tmp, results):
    wl = WORKLOADS["trace"](1, root, tmp)
    wl.build(mpx)
    ops = dict(wl.ops(mpx))
    out = ops["simulate-10"]()
    passes(results, "simulate", wl.check(mpx, "simulate-10", out))
    _, columns, data = _read_csv(tmp / "sim10.csv")
    size = 16
    cases = [
        ("renamed column", columns[:-1] + ["dx"], data, "columns"),
        ("shifted time", columns, tampered(data, slice(None), 0, 1e-3), "time column"),
        ("perturbed sample", columns, tampered(data, 100, 3, 1e-3), "expm solution"),
        ("scaled d_x", columns, tampered(data, slice(None), -1, value=2 * data[:, -1]), "d_x column"),
        ("final d_x", columns, tampered(data, -1, -1, value=1.0), "final d_x"),
        ("final state off x_inf", columns, tampered(data, -1, slice(1, 1 + size), 0.05), "from x_inf"),
        ("integral drift", columns, tampered(data, slice(None), 1 + size, 1e-5), "integral-sum drift"),
    ]
    for name, cols, arr, fragment in cases:
        expect(results, f"simulate: {name}", wl._check_sim(10, cols, arr), fragment)

    code, stdout = ops["power-demo"]()
    passes(results, "power-demo", wl.check(mpx, "power-demo", (code, stdout)))
    _, columns, data = _read_csv(tmp / "grid.csv")
    n = 16
    cases = [
        ("perturbed sample", stdout, tampered(data, 50, 2, 1e-3), "expm solution"),
        ("final frequency", stdout, tampered(data, -1, slice(1, 1 + n), 0.01), "final frequency"),
        ("mass-weighted drift", stdout, tampered(data, slice(None), 1 + n, 1e-5), "mass-weighted drift"),
        ("printed deviation", stdout.replace("final_max_dev_hz   ", "final_max_dev_hz   1"), data, "printed final_max_dev_hz"),
    ]
    for name, text, arr, fragment in cases:
        expect(results, f"power-demo: {name}", wl._check_grid(text, columns, arr), fragment)
    expect(results, "exit code", wl.check(mpx, "power-demo", (1, stdout)), "exit code")


def oracle_cases(mpx, root, tmp, results):
    wl = WORKLOADS["oracle"](1, root, tmp)
    wl.build(mpx)
    ops = dict(wl.ops(mpx))
    abscissa, trace = ops["oracle-0"]()
    passes(results, "oracle", wl.check(mpx, "oracle-0", (abscissa, trace)))

    def fake(**changes):
        fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
        fields.update(changes)
        return SimpleNamespace(**fields)

    cases = [
        ("abscissa", (abscissa + 1e-3, trace), "abscissa"),
        ("divergent flag", (abscissa, fake(divergent=True)), "converged"),
        ("extra samples", (abscissa, fake(times=np.array([0.0, 1.0, trace.times[-1]]))), "endpoint only"),
        ("endpoint", (abscissa, fake(states=trace.states + 1e-3)), "expm solution"),
        ("integral drift", (abscissa, fake(integrals=trace.integrals + 1e-5)), "integral-sum drift"),
    ]
    for name, out, fragment in cases:
        expect(results, f"oracle: {name}", wl.check(mpx, "oracle-0", out), fragment)


def gainplane_cases(mpx, root, tmp, results):
    wl = WORKLOADS["gainplane"](1, root, tmp)
    wl.build(mpx)
    ops = dict(wl.ops(mpx))
    sweep = ops["sweep-hi:ring"]()
    cert = ops["cert-hi:ring"]()
    tuned = ops["tune:ring"]()
    for label, out in (("sweep-hi:ring", sweep), ("cert-hi:ring", cert), ("tune:ring", tuned)):
        passes(results, label, wl.check(mpx, label, out))
    bumped = dataclasses.replace(sweep, abscissa=tampered(sweep.abscissa, 5, 5, 1e-6))
    expect(results, "gainplane: sweep cell", wl.check(mpx, "sweep-hi:ring", bumped), "sweep abscissas")
    flipped = cert.copy()
    flipped[0, 0] = not flipped[0, 0]
    expect(results, "gainplane: certified mask", wl.check(mpx, "cert-hi:ring", flipped), "closed-form set")
    i, j = np.argwhere(cert)[0]
    wl.last_sweep[("ring", "hi")] = dataclasses.replace(sweep, abscissa=tampered(sweep.abscissa, i, j, value=1.0))
    expect(results, "gainplane: certified but unstable", wl.check(mpx, "cert-hi:ring", cert), "abscissa >= 0")
    wl.last_sweep[("ring", "hi")] = sweep
    cases = [
        ("cutoff", dataclasses.replace(tuned, sigma_p_min=tuned.sigma_p_min * (1 + 1e-6)), "cutoff"),
        ("mu", dataclasses.replace(tuned, report=dataclasses.replace(tuned.report, mu=tuned.report.mu * 1.01)), "mu, eta, rho"),
    ]
    for name, out, fragment in cases:
        expect(results, f"gainplane: tune {name}", wl.check(mpx, "tune:ring", out), fragment)


def scale_cases(mpx, root, tmp, results):
    wl = WORKLOADS["scale"](1, root, tmp)
    wl.build(mpx)
    ops = dict(wl.ops(mpx))
    label = "N20"
    out = ops[label]()
    passes(results, "scale", wl.check(mpx, label, out))
    wl._verified.clear()
    blocks_p, blocks_i = out["blocks"]
    t_mat, s_mat = out["similar"]
    tuned, report, error = out["tuned"], out["report"], out["error"]
    other_anchor = next(a for a in range(1, 21) if a != tuned.anchor)
    always_pass = SimpleNamespace(stability=SimpleNamespace(check_theorem=lambda *a: SimpleNamespace(passed=True)))
    cases = [
        ("block eigenvalues", dict(blocks=(dataclasses.replace(blocks_p, eigenvalues=blocks_p.eigenvalues * 1.001), blocks_i)), mpx, "blockdiag(0, Lambda)"),
        ("similarity", dict(similar=(t_mat, s_mat + 1e-6)), mpx, "blockdiag(0, s)"),
        ("identity residual", dict(props=(type(out["props"][0])({"top_row_completeness": 1e-3}), out["props"][1])), mpx, "block identity"),
        ("certificates", dict(report=dataclasses.replace(report, rho=report.rho + 1e-6)), mpx, "check_theorem's mu"),
        ("cutoff", dict(tuned=dataclasses.replace(tuned, sigma_p_min=tuned.sigma_p_min * (1 - 1e-6))), mpx, "cutoff"),
        ("anchor", dict(tuned=dataclasses.replace(tuned, anchor=other_anchor)), mpx, "does not minimise mu"),
        ("theorem switch", {}, always_pass, "does not switch"),
        ("error matrix", dict(error=dataclasses.replace(error, matrix=tampered(error.matrix, 3, 4, 1e-3))), mpx, "misses the closed loop"),
        ("abscissa", dict(abscissa=out["abscissa"] + 1e-3), mpx, "differs from"),
    ]
    for name, changes, namespace, fragment in cases:
        wl._verified.clear()
        expect(results, f"scale: {name}", wl.check(namespace, label, dict(out, **changes)), fragment)


def main() -> None:
    root = checkout_root()
    mpx = import_program(root)
    results: list[bool] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        for name, cases in (("trace", trace_cases), ("oracle", oracle_cases),
                            ("gainplane", gainplane_cases), ("scale", scale_cases)):
            print(name)
            sub = Path(tmp) / name
            sub.mkdir()
            cases(mpx, root, sub, results)
    print(f"{sum(results)} of {len(results)} cases behave as expected")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
