"""The four workloads: inputs from a seed, operation lists, output checks.

Each workload is built in three steps. The constructor makes the raw inputs
from ``--seed`` with the benchmark's own code (no program calls). ``build``
turns them into program objects; together with ``import mpxpi`` it is what
``setup_s`` times. ``ops`` lists the operations of one round, each a
callable whose return value ``check`` verifies against the reference
computations of :mod:`reference`, which are made once per run and cached.

``work`` gives the work one round requests: RK4 steps, gain-plane cells,
systems analysed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import reference as ref

SPEC_DIR = Path("src") / "mpxpi" / "data"


def _raw_spec(root: Path, name: str) -> dict:
    return json.loads((root / SPEC_DIR / name).read_text())


def _spec_arrays(doc: dict):
    a_list = [np.array(nd["A"], dtype=float) for nd in doc["nodes"]]
    b_list = [np.array(nd["b"], dtype=float) for nd in doc["nodes"]]
    n = len(a_list)
    laps = {k: ref.laplacian(n, doc["layers"][k]["edges"]) for k in "CPI"}
    gains = {k: float(doc["layers"][k]["sigma"]) for k in "CPI"}
    return a_list, b_list, laps, gains


def _random_tree_edges(rng, n_nodes, chords):
    """Random spanning tree plus ``chords`` extra edges; weights in [0.5, 2]."""
    order = rng.permutation(n_nodes) + 1
    edges = {}
    for k in range(1, n_nodes):
        parent = order[int(rng.integers(0, k))]
        i, j = sorted((int(parent), int(order[k])))
        edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    for _ in range(chords):
        i, j = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
        edges.setdefault((i + 1, j + 1), float(rng.uniform(0.5, 2.0)))
    return [(i, j, w) for (i, j), w in sorted(edges.items())]


class Workload:
    name = ""
    warmup = ""

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.tmp = tmp
        self.rng = np.random.default_rng(seed)
        self.work = {"rk4_steps": 0, "cells": 0, "systems": 0}
        self.bytes_out: dict[str, int] = {}

    def build(self, mpx) -> None:
        raise NotImplementedError

    def ops(self, mpx) -> list:
        raise NotImplementedError

    def check(self, mpx, label: str, out) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# trace: the CLI's simulate and power-demo, CSV to a temporary directory
# ---------------------------------------------------------------------------

#: The 16-bus load step of the power demo: 0.2 MW shed at buses 4, 8 and 10
#: from t = 0, local control switched on at t = 0.1 s.
GRID_STEP = {4: -0.2, 8: -0.2, 10: -0.2}
GRID_CONTROL_ON = 0.1
# The demo's default dt (2e-5) makes one run 1M steps and 20 s here; 5e-5 is
# stable, still converges to within 1e-3 Hz by t = 20 s, and keeps a round
# of this workload near 12 s.
GRID_ARGS = {"t_end": 20.0, "dt": 5e-5, "record_every": 100}
SIM_T_END, SIM_DT = 50.0, 1e-3


def _read_csv(path: Path):
    # Stream the file: reading a 33 MB CSV whole would raise the process's
    # peak memory above the program's own and hide it in peak_rss_mb.
    header = []
    with path.open() as fh:
        line = fh.readline()
        while line.startswith("#"):
            header.append(line)
            line = fh.readline()
        columns = line.rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, columns, data


def _digest(path: Path, extra: str) -> str:
    h = hashlib.sha256(extra.encode())
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Trace(Workload):
    """Dense and strided closed-loop traces plus the grid load step."""

    name = "trace"
    # The first dense trace and its check leave the reference arrays and a
    # larger heap behind; warming up with it keeps peak_rss_mb the same
    # whether a run fits one round or two.
    warmup = "simulate-1"

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.spec = root / SPEC_DIR / "hetero8.json"
        self.grid_spec = root / SPEC_DIR / "grid16.json"
        doc = _raw_spec(root, "hetero8.json")
        self.a_list, self.b_list, self.laps, self.gains = _spec_arrays(doc)
        self.n_nodes, self.dim = len(self.a_list), self.a_list[0].shape[0]
        self.x0 = self.rng.standard_normal(self.n_nodes * self.dim)
        self.x0_file = tmp / "x0.json"
        self.x0_file.write_text(json.dumps(self.x0.tolist()))
        steps = int(round(SIM_T_END / SIM_DT))
        grid_steps = int(round(GRID_ARGS["t_end"] / GRID_ARGS["dt"]))
        self.work["rk4_steps"] = 2 * steps + grid_steps
        self._exact = None
        self._grid_exact = None
        self._verified: dict[str, set] = {}

    def build(self, mpx):
        # The CLI reads its inputs itself on every operation; set-up is what
        # a user does first: parse the bundled specs and make the demo grid.
        mpx.netspec.parse_spec(self.spec)
        mpx.netspec.parse_power_spec(self.grid_spec)
        mpx.fixtures.sixteen_bus_grid()

    def _cli(self, mpx, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mpx.cli.main(argv)
        return code, buf.getvalue()

    def ops(self, mpx):
        def simulate(stride):
            argv = [
                "simulate", str(self.spec), "--x0", str(self.x0_file),
                "--t-end", repr(SIM_T_END), "--dt", repr(SIM_DT),
                "--record-every", str(stride), "--out", str(self.tmp / f"sim{stride}.csv"),
            ]
            return lambda: self._cli(mpx, argv)

        demo = [
            "power-demo", "--t-end", repr(GRID_ARGS["t_end"]), "--dt", repr(GRID_ARGS["dt"]),
            "--record-every", str(GRID_ARGS["record_every"]), "--out", str(self.tmp / "grid.csv"),
        ]
        return [
            ("simulate-1", simulate(1)),
            ("simulate-10", simulate(10)),
            ("power-demo", lambda: self._cli(mpx, demo)),
        ]

    def check(self, mpx, label, out):
        code, stdout = out
        path = self.tmp / ("grid.csv" if label == "power-demo" else f"sim{label.split('-')[1]}.csv")
        if code != 0:
            return [f"{label}: exit code {code}"]
        self.bytes_out[label] = len(stdout.encode()) + path.stat().st_size
        # The CSV is deterministic: bytes already verified need no second parse.
        digest = _digest(path, stdout)
        if digest in self._verified.setdefault(label, set()):
            return []
        header, columns, data = _read_csv(path)
        if label == "power-demo":
            errors = self._check_grid(stdout, columns, data)
        else:
            errors = self._check_sim(int(label.split("-")[1]), columns, data)
        if not errors:
            self._verified[label].add(digest)
        return [f"{label}: {e}" for e in errors]

    def _check_sim(self, stride, columns, data):
        size = self.n_nodes * self.dim
        want = ["t"] + [f"x_{k + 1}" for k in range(size)] + [f"z_{k + 1}" for k in range(size)] + ["d_x"]
        steps = int(round(SIM_T_END / SIM_DT))
        if columns != want or data.shape != (steps // stride + 1, len(want)):
            return [f"columns {columns[:3]}... shape {data.shape}"]
        if self._exact is None:
            mat, forcing = ref.closed_loop(
                self.a_list, self.b_list, self.laps["C"], self.laps["P"], self.laps["I"],
                self.gains["C"], self.gains["P"], self.gains["I"],
            )
            y0 = np.concatenate([self.x0, np.zeros(size)])
            self._exact = ref.exact_samples(mat, forcing, y0, SIM_DT, steps + 1)
        exact = self._exact[::stride]
        errors = []
        if not ref.close(data[:, 0], SIM_DT * stride * np.arange(data.shape[0]), 1e-12):
            errors.append("time column is not k * dt * stride")
        scale = max(1.0, float(np.abs(exact).max()))
        dev = float(np.abs(data[:, 1:1 + 2 * size] - exact).max())
        if not dev <= 1e-6 * scale:
            errors.append(f"samples differ from the expm solution by {dev:.3e}")
        states, integrals, d_x = data[:, 1:1 + size], data[:, 1 + size:1 + 2 * size], data[:, -1]
        own_dx = ref.consensus_index(states, self.n_nodes, self.dim)
        if not ref.close(d_x, own_dx, 1e-9, 1e-12 * scale):
            errors.append("d_x column is not the consensus index of the states")
        if not d_x[-1] < 1e-3:
            errors.append(f"final d_x {d_x[-1]:.3e} >= 1e-3")
        x_inf = ref.consensus_point(self.a_list, self.b_list)
        gap = float(np.abs(states[-1].reshape(self.n_nodes, self.dim) - x_inf).max())
        if not gap < 1e-2:
            errors.append(f"final states lie {gap:.3e} from x_inf")
        drift = float(np.abs(integrals.reshape(-1, self.n_nodes, self.dim).sum(axis=1)).max())
        if not drift < 1e-6:
            errors.append(f"integral-sum drift {drift:.3e}")
        return errors

    def _grid_reference(self):
        doc = json.loads(self.grid_spec.read_text())
        m = np.array(doc["inertia"], dtype=float)
        d = np.array(doc["damping"], dtype=float)
        k = np.array(doc["local_gain"], dtype=float)
        p_star = np.array(doc["injection"], dtype=float)
        n = m.size
        lap_i = ref.laplacian(n, doc["electrical"]["edges"])
        lap_p = ref.laplacian(n, doc["p_layer"]["edges"])
        sigma_p = float(doc["p_layer"]["sigma"])
        p_now = p_star.copy()
        for bus, delta in GRID_STEP.items():
            p_now[bus - 1] += delta

        def system(controlled):
            mat = np.zeros((2 * n, 2 * n))
            rate = -d / m + (k if controlled else 0.0)
            mat[:n, :n] = np.diag(rate) - (sigma_p * lap_p if controlled else 0.0)
            mat[:n, n:] = np.eye(n)
            mat[n:, :n] = -lap_i / m[:, None]
            return mat, np.concatenate([p_now / m, np.zeros(n)])

        omega0 = p_star.sum() / d.sum()
        y0 = np.concatenate([np.full(n, omega0), (d * omega0 - p_star) / m])
        step = GRID_ARGS["dt"] * GRID_ARGS["record_every"]
        count = int(round(GRID_ARGS["t_end"] / step)) + 1
        switch = int(round(GRID_CONTROL_ON / step))
        first = ref.exact_samples(*system(False), y0, step, switch + 1)
        second = ref.exact_samples(*system(True), first[-1], step, count - switch)
        exact = np.vstack([first, second[1:]])
        omega_end = -p_now.sum() / float(np.sum(m * k - d))
        return n, m, exact, omega_end

    def _check_grid(self, stdout, columns, data):
        if self._grid_exact is None:
            self._grid_exact = self._grid_reference()
        n, m, exact, omega_end = self._grid_exact
        want = ["t"] + [f"omega_{k + 1}" for k in range(n)] + [f"z_{k + 1}" for k in range(n)] + ["spread"]
        if columns != want or data.shape != (exact.shape[0], len(want)):
            return [f"columns {columns[:3]}... shape {data.shape}"]
        errors = []
        scale = float(np.abs(exact).max())
        dev = float(np.abs(data[:, 1:1 + 2 * n] - exact).max())
        if not dev <= 1e-6 * scale:
            errors.append(f"samples differ from the expm solution by {dev:.3e}")
        omega, powers = data[:, 1:1 + n], data[:, 1 + n:1 + 2 * n]
        gap = float(np.abs(omega[-1] - omega_end).max())
        if not gap < 1e-3:
            errors.append(f"final frequency lies {gap:.3e} Hz from {omega_end:.6f}")
        drift = float(np.abs(powers @ m).max())
        if not drift < 1e-6:
            errors.append(f"mass-weighted drift {drift:.3e}")
        printed = [ln.split() for ln in stdout.splitlines() if ln.startswith("final_max_dev_hz")]
        final_dev = float(np.abs(omega[-1] - 60.0).max())
        if len(printed) != 1 or not ref.close(float(printed[0][1]), final_dev, 1e-9):
            errors.append("printed final_max_dev_hz disagrees with the CSV")
        return errors


# ---------------------------------------------------------------------------
# oracle: error-system abscissa against endpoint-only traces
# ---------------------------------------------------------------------------

#: (horizon in s, class) slots; a system fills a slot when its criterion-8
#: horizon clip(16/|abscissa|, 50, 8000) lies in (previous horizon, horizon].
ORACLE_SLOTS = ((50.0, True), (50.0, False), (100.0, True), (100.0, False), (400.0, True))
ORACLE_DT = 2e-3
# Criterion 8 draws 2-6 nodes with n in {1, 2}; one fixed size keeps the cost
# of a step, and so the work of a round, the same for every seed.
ORACLE_NODES, ORACLE_DIM = 4, 2


def _random_small_system(rng, n_nodes, dim):
    """Criterion 8's generator at a given size: random connected P and I layers."""
    a_list = [rng.standard_normal((dim, dim)) - rng.uniform(0.2, 1.5) * np.eye(dim) for _ in range(n_nodes)]
    b_list = [rng.standard_normal(dim) for _ in range(n_nodes)]
    chords_p, chords_i = int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes))
    edges_p = _random_tree_edges(rng, n_nodes, chords_p)
    edges_i = _random_tree_edges(rng, n_nodes, chords_i)
    return {
        "a": a_list, "b": b_list, "edges_p": edges_p, "edges_i": edges_i,
        "sigma_p": float(rng.uniform(0.0, 3.0)), "sigma_i": float(rng.uniform(0.1, 3.0)),
    }


def _small_loop(spec):
    n_nodes = len(spec["a"])
    return ref.closed_loop(
        spec["a"], spec["b"], np.zeros((n_nodes, n_nodes)),
        ref.laplacian(n_nodes, spec["edges_p"]), ref.laplacian(n_nodes, spec["edges_i"]),
        0.0, spec["sigma_p"], spec["sigma_i"],
    )


def _build_system(mpx, spec):
    n_nodes = len(spec["a"])
    return mpx.stability.MultiplexSystem(
        nodes=tuple(mpx.stability.NodeDynamics(a, b) for a, b in zip(spec["a"], spec["b"])),
        layer_c=mpx.graph.LayerGraph(n_nodes),
        layer_p=mpx.graph.LayerGraph(n_nodes, tuple(spec["edges_p"])),
        layer_i=mpx.graph.LayerGraph(n_nodes, tuple(spec["edges_i"])),
        sigma=0.0,
        sigma_p=spec["sigma_p"],
        sigma_i=spec["sigma_i"],
    )


class Oracle(Workload):
    """Criterion 8's procedure on seeded stable and unstable systems."""

    name = "oracle"
    warmup = "oracle-0"

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.specs = []
        lower = {}
        previous = 0.0
        for horizon, _ in ORACLE_SLOTS:
            if horizon not in lower:
                lower[horizon] = previous
                previous = horizon
        for horizon, stable in ORACLE_SLOTS:
            self.specs.append(self._draw(horizon, lower[horizon], stable))
        self.work["rk4_steps"] = sum(s["steps"] for s in self.specs)
        self.work["systems"] = len(self.specs)

    def _draw(self, horizon, lower, stable):
        # Keep a draw only where the criterion is decisive on the exact
        # solution: d_x(T) at least 10x below 1e-3 when stable, and at least
        # 100x above it when not.
        while True:
            spec = _random_small_system(self.rng, ORACLE_NODES, ORACLE_DIM)
            mat, forcing = _small_loop(spec)
            dim = spec["a"][0].shape[0]
            abscissa = ref.reduced_abscissa(np.linalg.eigvals(mat), dim)
            if (abscissa < 0.0) != stable or abs(abscissa) < 1e-4:
                continue
            needed = float(np.clip(16.0 / abs(abscissa), 50.0, 8000.0))
            if not lower < needed <= horizon:
                continue
            n_nodes = len(spec["a"])
            x0 = self.rng.standard_normal(n_nodes * dim)
            with np.errstate(over="ignore", invalid="ignore"):
                end = ref.exact_endpoint(mat, forcing, np.concatenate([x0, np.zeros(n_nodes * dim)]), horizon)
                d_end = float(ref.consensus_index(end[: n_nodes * dim], n_nodes, dim)[0])
            if stable and not d_end < 1e-4:
                continue
            if not stable and np.isfinite(d_end) and not d_end > 1e-1:
                continue
            spec.update(
                x0=x0, horizon=horizon, steps=int(round(horizon / ORACLE_DT)),
                abscissa=abscissa, end=end if stable else None, dim=dim,
            )
            return spec

    def build(self, mpx):
        self.systems = [_build_system(mpx, spec) for spec in self.specs]

    def ops(self, mpx):
        def run(k):
            system, spec = self.systems[k], self.specs[k]

            def op():
                abscissa = mpx.sim.error_system(system).abscissa()
                trace = mpx.sim.simulate(system, spec["x0"], spec["horizon"], ORACLE_DT, record_every=spec["steps"])
                return abscissa, trace

            return op

        return [(f"oracle-{k}", run(k)) for k in range(len(self.specs))]

    def check(self, mpx, label, out):
        spec = self.specs[int(label.split("-")[1])]
        abscissa, trace = out
        errors = []
        if not ref.close(abscissa, spec["abscissa"], 1e-8, 1e-10):
            errors.append(f"abscissa {abscissa!r} differs from {spec['abscissa']!r}")
        converged = (not trace.divergent) and bool(trace.d_x[-1] < 1e-3)
        stable = spec["abscissa"] < 0.0
        if converged != (abscissa < 0.0) or converged != stable:
            errors.append(f"trace converged={converged} but abscissa {abscissa:.3e}")
        if trace.times.size != 2 or not ref.close(trace.times[-1], spec["horizon"], 1e-12):
            errors.append(f"expected the endpoint only, got {trace.times.size} samples")
        if stable:
            size = spec["x0"].size
            got = np.concatenate([trace.states[-1], trace.integrals[-1]])
            scale = max(1.0, float(np.abs(spec["end"]).max()))
            if not float(np.abs(got - spec["end"]).max()) <= 1e-6 * scale:
                errors.append("endpoint differs from the expm solution")
            drift = float(np.abs(trace.integrals[-1].reshape(-1, spec["dim"]).sum(axis=0)).max())
            if size and not drift < 1e-6 * scale:
                errors.append(f"integral-sum drift {drift:.3e}")
        return [f"{label}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# gainplane: sweeps and certified cells for four integral topologies
# ---------------------------------------------------------------------------

HIGH_GRID = np.linspace(0.0, 40.0, 20)
LOW_GRID = np.linspace(0.0, 1.5, 16)
TOPOLOGIES = ("all-to-all", "star", "ring", "tree")


def _topology_edges(name, n):
    if name == "all-to-all":
        return [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if name == "star":
        return [(1, k, 1.0) for k in range(2, n + 1)]
    if name == "ring":
        return [(k, k % n + 1, 1.0) for k in range(1, n + 1)]
    return [(k // 2, k, 1.0) for k in range(2, n + 1)]


class GainPlane(Workload):
    """The demo network's gain plane under four integral layers.

    The seed permutes which agent sits at which node label, so the star's
    hub, the tree's root and the anchor node change from seed to seed while
    the amount of work stays the same.
    """

    name = "gainplane"
    warmup = "tune:ring"
    grids = {"hi": (HIGH_GRID, HIGH_GRID), "lo": (LOW_GRID, HIGH_GRID)}

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.spec = root / SPEC_DIR / "hetero8.json"
        a_list, b_list, laps, _ = _spec_arrays(_raw_spec(root, "hetero8.json"))
        self.perm = self.rng.permutation(len(a_list))
        self.a_list = [a_list[p] for p in self.perm]
        self.b_list = [b_list[p] for p in self.perm]
        self.n_nodes, self.dim = len(a_list), a_list[0].shape[0]
        self.lap_c, self.lap_p = laps["C"], laps["P"]
        self.lap_i = {t: ref.laplacian(self.n_nodes, _topology_edges(t, self.n_nodes)) for t in TOPOLOGIES}
        cells = sum(sp.size * si.size for sp, si in self.grids.values())
        self.work["cells"] = 2 * cells * len(TOPOLOGIES)
        self.work["systems"] = len(TOPOLOGIES)
        self._abscissa: dict[tuple[str, str], np.ndarray] = {}
        self.last_sweep: dict[tuple[str, str], object] = {}

    def build(self, mpx):
        base, _ = mpx.netspec.parse_spec(self.spec)
        nodes = tuple(base.nodes[p] for p in self.perm)
        makers = {
            "all-to-all": mpx.graph.complete_graph, "star": mpx.graph.star_graph,
            "ring": mpx.graph.ring_graph, "tree": mpx.graph.binary_tree_graph,
        }
        self.systems = {
            t: mpx.stability.MultiplexSystem(
                nodes=nodes, layer_c=base.layer_c, layer_p=base.layer_p, layer_i=makers[t](self.n_nodes),
                sigma=base.sigma, sigma_p=base.sigma_p, sigma_i=base.sigma_i,
            )
            for t in TOPOLOGIES
        }

    def ops(self, mpx):
        out = []
        for t in TOPOLOGIES:
            system = self.systems[t]
            for g, (sp, si) in self.grids.items():
                def sweep(system=system, sp=sp, si=si, key=(t, g)):
                    result = mpx.sim.sweep(system, sp, si)
                    self.last_sweep[key] = result
                    return result

                def certify(system=system, key=(t, g)):
                    return mpx.sim.certified_cells(system, self.last_sweep[key])

                out += [(f"sweep-{g}:{t}", sweep), (f"cert-{g}:{t}", certify)]
            out.append((f"tune:{t}", lambda system=system: mpx.design.tune(system)))
        return out

    def _own_abscissa(self, t, g):
        if (t, g) not in self._abscissa:
            sp, si = self.grids[g]
            def abscissa(p, i):
                mat, _ = ref.closed_loop(self.a_list, self.b_list, self.lap_c, self.lap_p, self.lap_i[t], 0.0, p, i)
                return ref.reduced_abscissa(np.linalg.eigvals(mat), self.dim)

            self._abscissa[(t, g)] = np.array([[abscissa(p, i) for i in si] for p in sp])
        return self._abscissa[(t, g)]

    def check(self, mpx, label, out):
        kind, t = label.split(":")
        errors = []
        if kind == "tune":
            want, mu = ref.cutoff(self.a_list, self.lap_p)
            _, eta, rho = ref.certificates_all_anchors(self.a_list)
            rep = out.report
            if not (out.feasible and ref.close(out.sigma_p_min, want, 1e-9)):
                errors.append(f"cutoff {out.sigma_p_min!r}, closed form {want!r}")
            if not ref.close([rep.mu, rep.eta, rep.rho], [mu.min(), eta, rho], 1e-9, 1e-12):
                errors.append("mu, eta, rho at the chosen anchor differ from their definitions")
            return [f"{label}: {e}" for e in errors]
        op, g = kind.split("-")
        own = self._own_abscissa(t, g)
        sp, si = self.grids[g]
        if op == "sweep":
            if out.abscissa.shape != own.shape or not ref.close(out.abscissa, own, 1e-8, 1e-8):
                errors.append("sweep abscissas differ from the full closed-loop spectrum")
        else:
            mask, tie = ref.certified_set(self.a_list, self.lap_p, self.lap_i[t], sp, si)
            if out.shape != mask.shape or np.any((out != mask) & ~tie):
                errors.append("certified cells differ from the closed-form set")
            elif not (np.all(own[out] < 0.0) and np.all(self.last_sweep[(t, g)].abscissa[out] < 0.0)):
                errors.append("a certified cell has abscissa >= 0")
        return [f"{label}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# scale: analysis of random networks as N grows
# ---------------------------------------------------------------------------

SCALE_SIZES = (10, 20, 50, 100, 200)


class Scale(Workload):
    """Certificates, tuning, error spectrum and basis identities against N."""

    name = "scale"
    warmup = "N200"

    def __init__(self, seed, root, tmp):
        super().__init__(seed, root, tmp)
        self.specs = {}
        for n_nodes in SCALE_SIZES:
            while True:
                a_list = [self.rng.standard_normal((2, 2)) - self.rng.uniform(0.5, 1.5) * np.eye(2) for _ in range(n_nodes)]
                if ref.average_ok(a_list):
                    break
            self.specs[n_nodes] = {
                "a": a_list,
                "b": [self.rng.standard_normal(2) for _ in range(n_nodes)],
                "edges_p": _random_tree_edges(self.rng, n_nodes, n_nodes // 2),
                "edges_i": _random_tree_edges(self.rng, n_nodes, n_nodes // 2),
                "sigma_p": float(self.rng.uniform(0.5, 3.0)),
                "sigma_i": float(self.rng.uniform(0.1, 3.0)),
            }
        self.work["systems"] = len(SCALE_SIZES)
        self._spectra: dict[int, np.ndarray] = {}
        self._verified: dict[int, tuple[str, float]] = {}

    def build(self, mpx):
        self.systems = {n: _build_system(mpx, spec) for n, spec in self.specs.items()}

    def ops(self, mpx):
        def analyse(system):
            def op():
                lap_p = mpx.graph.laplacian(system.layer_p)
                lap_i = mpx.graph.laplacian(system.layer_i)
                blocks_p = mpx.spectral.block_decompose(lap_p)
                blocks_i = mpx.spectral.block_decompose(lap_i)
                return {
                    "report": mpx.stability.check_theorem(system),
                    "tuned": mpx.design.tune(system, anchor=None),
                    "error": (err := mpx.sim.error_system(system)),
                    "abscissa": err.abscissa(),
                    "blocks": (blocks_p, blocks_i),
                    "props": (
                        mpx.spectral.verify_block_properties(blocks_p, system.state_dim),
                        mpx.spectral.verify_block_properties(blocks_i, system.state_dim),
                    ),
                    "similar": mpx.spectral.similarity_transform(blocks_p, lap_i),
                }
            return op

        return [(f"N{n}", analyse(self.systems[n])) for n in SCALE_SIZES]

    def check(self, mpx, label, out):
        n_nodes = int(label[1:])
        spec, system = self.specs[n_nodes], self.systems[n_nodes]
        a_list, dim = spec["a"], 2
        lap_p = ref.laplacian(n_nodes, spec["edges_p"])
        lap_i = ref.laplacian(n_nodes, spec["edges_i"])
        errors = []

        for name, blocks, lap in (("P", out["blocks"][0], lap_p), ("I", out["blocks"][1], lap_i)):
            diag = np.diag(blocks.eigenvalues)
            res = float(np.abs(blocks.r_inverse @ lap @ blocks.r_matrix - diag).max())
            if not res <= 1e-9 * max(1.0, float(np.abs(lap).max())):
                errors.append(f"R^-1 L_{name} R differs from blockdiag(0, Lambda) by {res:.3e}")
        blocks_p = out["blocks"][0]
        _, s_mat = out["similar"]
        want = np.zeros((n_nodes, n_nodes))
        want[1:, 1:] = s_mat
        res = float(np.abs(blocks_p.r_inverse @ lap_i @ blocks_p.r_matrix - want).max())
        if not res <= 1e-9 * max(1.0, float(np.abs(lap_i).max())):
            errors.append(f"L_I in the basis of L_P differs from blockdiag(0, s) by {res:.3e}")
        if not all(p.ok() for p in out["props"]):
            errors.append("a block identity residual exceeds its tolerance")

        mu, eta, rho = ref.certificates_all_anchors(a_list)
        rep = out["report"]
        if not ref.close([rep.mu, rep.eta, rep.rho], [mu[0], eta, rho], 1e-9, 1e-12):
            errors.append("check_theorem's mu, eta, rho differ from their definitions")
        tuned = out["tuned"]
        cut, _ = ref.cutoff(a_list, lap_p)
        if not (tuned.feasible and ref.close(tuned.sigma_p_min, cut, 1e-9)):
            errors.append(f"cutoff {tuned.sigma_p_min!r}, closed form {cut!r}")
        elif not ref.close(mu[tuned.anchor - 1], mu.min(), 1e-12):
            errors.append(f"anchor {tuned.anchor} does not minimise mu")
        else:
            above = mpx.stability.check_theorem(system.with_gains(sigma_p=cut * (1 + 1e-6)), tuned.anchor)
            below = mpx.stability.check_theorem(system.with_gains(sigma_p=cut * (1 - 1e-6)), tuned.anchor)
            if not above.passed or below.passed:
                errors.append("check_theorem does not switch at the closed-form cutoff")

        # The error matrix is deterministic: once its spectrum has been
        # matched, the same bytes need only the abscissa compared again.
        matrix = out["error"].matrix
        digest = hashlib.sha256(matrix.tobytes()).hexdigest()
        verified = self._verified.get(n_nodes)
        if verified is not None and verified[0] == digest:
            if not ref.close(out["abscissa"], verified[1], 1e-12, 1e-12):
                errors.append("abscissa differs from the error spectrum")
            return [f"{label}: {e}" for e in errors]
        if n_nodes not in self._spectra:
            mat, _ = ref.closed_loop(
                a_list, spec["b"], np.zeros((n_nodes, n_nodes)), lap_p, lap_i, 0.0,
                spec["sigma_p"], spec["sigma_i"],
            )
            self._spectra[n_nodes] = np.linalg.eigvals(mat)
        full = self._spectra[n_nodes]
        lam = np.linalg.eigvals(matrix)
        gap = ref.spectrum_distance(np.concatenate([lam, np.zeros(dim)]), full)
        if not gap <= 1e-7 * max(1.0, float(np.abs(full).max())):
            errors.append(f"error spectrum plus {dim} zeros misses the closed loop by {gap:.3e}")
        own = ref.reduced_abscissa(full, dim)
        if not (ref.close(out["abscissa"], float(lam.real.max()), 1e-12, 1e-12)
                and ref.close(out["abscissa"], own, 1e-8, 1e-8)):
            errors.append(f"abscissa {out['abscissa']!r} differs from {own!r}")
        if not errors:
            self._verified[n_nodes] = (digest, float(lam.real.max()))
        return [f"{label}: {e}" for e in errors]


WORKLOADS = {w.name: w for w in (Trace, Oracle, GainPlane, Scale)}
