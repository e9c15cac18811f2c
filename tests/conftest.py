import contextlib
import os
import threading

import numpy as np
import pytest

from mpxpi import csvio, fixtures
from mpxpi.graph import LayerGraph
from mpxpi.stability import MultiplexSystem, NodeDynamics


@pytest.fixture
def demo8():
    """The 8-node heterogeneous network at its certified gains."""
    return fixtures.heterogeneous_ring_system()


@pytest.fixture
def grid16():
    return fixtures.sixteen_bus_grid()


def random_connected_graph(rng: np.random.Generator, n: int) -> LayerGraph:
    """Random spanning tree plus a few chords; weights in [0.5, 2]."""
    edges: dict[tuple[int, int], float] = {}
    order = rng.permutation(n) + 1
    for a, b in zip(order[:-1], order[1:]):
        i, j = int(min(a, b)), int(max(a, b))
        edges[(i, j)] = float(rng.uniform(0.5, 2.0))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        edges.setdefault((int(i), int(j)), float(rng.uniform(0.5, 2.0)))
    return LayerGraph(n, tuple((i, j, w) for (i, j), w in edges.items()))


def random_system(
    rng: np.random.Generator,
    max_nodes: int = 6,
    max_dim: int = 2,
    damping: tuple[float, float] = (0.2, 1.5),
) -> MultiplexSystem:
    """Heterogeneous system with random connected P and I layers.

    The diagonal shift keeps most (not all) draws stabilisable, which gives
    the stability-versus-simulation comparisons a mix of outcomes.
    """
    n_nodes = int(rng.integers(2, max_nodes + 1))
    dim = int(rng.integers(1, max_dim + 1))
    nodes = tuple(
        NodeDynamics(
            rng.standard_normal((dim, dim)) - rng.uniform(*damping) * np.eye(dim),
            rng.standard_normal(dim),
        )
        for _ in range(n_nodes)
    )
    return MultiplexSystem(
        nodes=nodes,
        layer_c=LayerGraph(n_nodes),
        layer_p=random_connected_graph(rng, n_nodes),
        layer_i=random_connected_graph(rng, n_nodes),
        sigma=0.0,
        sigma_p=float(rng.uniform(0.0, 3.0)),
        sigma_i=float(rng.uniform(0.1, 3.0)),
    )


_SPAN = csvio._CSV_CHUNK_ROWS
# Row counts around the CSV writer's span size and its multiples.
SPLIT_ROWS = [1, _SPAN - 1, _SPAN, _SPAN + 1, 4001, 5001, 5 * _SPAN + 17]


def _usable_cpus(monkeypatch, cpus):
    # The writer takes its worker count from the CPU affinity mask.
    monkeypatch.setattr(csvio.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _csv_by_value(header_lines, columns, rows):
    return "".join(f"# {h}\n" for h in header_lines) + ",".join(columns) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows
    )


@contextlib.contextmanager
def _stdout_to_a_pipe():
    """Standard output redirected to a real pipe; yields the list of bytes read from it."""
    # A reader thread drains the pipe, so the writer never blocks on a full one.
    read_end, write_end = os.pipe()
    chunks = []
    reader = threading.Thread(target=lambda: chunks.extend(iter(lambda: os.read(read_end, 1 << 16), b"")))
    reader.start()
    try:
        with open(write_end, "w") as fh, contextlib.redirect_stdout(fh):
            yield chunks
    finally:
        reader.join()
        os.close(read_end)
