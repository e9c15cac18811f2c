"""Network-spec documents: JSON in, validated systems out, and back.

Multiplex systems:

    {
      "n": 2,
      "nodes": [{"A": [[...], ...], "b": [...], "H": [[...], ...]?}, ...],
      "layers": {
        "C": {"edges": [[i, j, w], ...], "sigma": 0.0},
        "P": {"edges": [...], "sigma": 19.3},
        "I": {"edges": [...], "sigma": 15.0}
      },
      "sim": {"t_end": 50.0, "dt": 0.001, "seed": 42}?
    }

Power grids:

    {
      "inertia": [...], "damping": [...], "local_gain": [...],
      "injection": [...],
      "electrical": {"edges": [[i, j, beta], ...]},
      "p_layer": {"edges": [[i, j, alpha], ...], "sigma": 55.0}
    }

Unknown keys are rejected everywhere; every failure carries a machine
readable code and the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InvalidGraphError, SpecFormatError
from .graph import LayerGraph
from .power import PowerNetwork
from .stability import MultiplexSystem, NodeDynamics

_LAYER_KEYS = ("C", "P", "I")
_SIM_KEYS = {"t_end", "dt", "seed"}


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecFormatError("unknown-key", f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SpecFormatError("missing-key", path, f"missing required key {key!r}")


def _as_matrix(value: Any, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise SpecFormatError("dimension", path, f"expected {rows} rows")
    out = np.empty((rows, cols))
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SpecFormatError("dimension", f"{path}[{r}]", f"expected {cols} entries")
        for c, item in enumerate(row):
            out[r, c] = _as_number(item, f"{path}[{r}][{c}]")
    return out


def _as_vector(value: Any, size: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != size:
        raise SpecFormatError("dimension", path, f"expected {size} entries")
    out = np.empty(size)
    for c, item in enumerate(value):
        out[c] = _as_number(item, f"{path}[{c}]")
    return out


def _as_number(value: Any, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecFormatError("bad-type", path, "expected a number")
    # JSON admits NaN and Infinity, and integers too large for a double.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SpecFormatError("bad-type", path, "expected a finite number")
    return number


def _parse_layer(obj: Any, n_nodes: int, path: str, want_sigma: bool) -> tuple[LayerGraph, float]:
    if not isinstance(obj, dict):
        raise SpecFormatError("bad-type", path, "expected an object")
    allowed = {"edges"} | ({"sigma"} if want_sigma else set())
    _require_keys(obj, allowed, set(allowed), path)
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise SpecFormatError("bad-type", f"{path}.edges", "expected a list")
    edges = []
    for idx, entry in enumerate(raw):
        epath = f"{path}.edges[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise SpecFormatError("bad-type", epath, "expected [i, j, weight]")
        i, j, w = entry
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise SpecFormatError("bad-node-index", epath, "node indices must be integers")
        if not 1 <= i <= n_nodes or not 1 <= j <= n_nodes:
            raise SpecFormatError("bad-node-index", epath, f"node index outside 1..{n_nodes}")
        if i == j:
            raise SpecFormatError("self-loop", epath, f"self-loop on node {i}")
        weight = _as_number(w, f"{epath}[2]")
        if weight <= 0.0:
            raise SpecFormatError("bad-weight", epath, f"weight must be positive, got {weight}")
        edges.append((i, j, weight))
    try:
        layer = LayerGraph(n_nodes, tuple(edges))
    except InvalidGraphError as exc:
        raise SpecFormatError("duplicate-edge", f"{path}.edges", str(exc)) from exc
    sigma = _as_number(obj["sigma"], f"{path}.sigma") if want_sigma else 0.0
    if want_sigma and sigma < 0.0:
        raise SpecFormatError("bad-weight", f"{path}.sigma", "gain must be non-negative")
    return layer, sigma


def _load_document(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError("io", str(path), str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError("malformed-json", str(path), str(exc)) from exc


def parse_spec(path: str | Path) -> tuple[MultiplexSystem, dict]:
    """Load and validate a multiplex network spec.

    Returns the system plus the optional ``sim`` defaults dictionary.
    """
    doc = _load_document(path)
    return parse_spec_dict(doc)


def parse_spec_dict(doc: Any) -> tuple[MultiplexSystem, dict]:
    if not isinstance(doc, dict):
        raise SpecFormatError("bad-type", "$", "top level must be an object")
    _require_keys(doc, {"n", "nodes", "layers", "sim"}, {"n", "nodes", "layers"}, "$")
    dim = doc["n"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFormatError("bad-type", "$.n", "state dimension must be a positive integer")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or len(raw_nodes) < 2:
        raise SpecFormatError("dimension", "$.nodes", "need at least 2 nodes")

    nodes = []
    feedback = []
    any_feedback = False
    for idx, entry in enumerate(raw_nodes):
        npath = f"$.nodes[{idx}]"
        if not isinstance(entry, dict):
            raise SpecFormatError("bad-type", npath, "expected an object")
        _require_keys(entry, {"A", "b", "H"}, {"A", "b"}, npath)
        a = _as_matrix(entry["A"], dim, dim, f"{npath}.A")
        b = _as_vector(entry["b"], dim, f"{npath}.b")
        nodes.append(NodeDynamics(a, b))
        if "H" in entry:
            feedback.append(_as_matrix(entry["H"], dim, dim, f"{npath}.H"))
            any_feedback = True
        else:
            feedback.append(np.zeros((dim, dim)))

    layers = doc["layers"]
    if not isinstance(layers, dict):
        raise SpecFormatError("bad-type", "$.layers", "expected an object")
    _require_keys(layers, set(_LAYER_KEYS), set(_LAYER_KEYS), "$.layers")
    n_nodes = len(raw_nodes)
    layer_c, sigma = _parse_layer(layers["C"], n_nodes, "$.layers.C", True)
    layer_p, sigma_p = _parse_layer(layers["P"], n_nodes, "$.layers.P", True)
    layer_i, sigma_i = _parse_layer(layers["I"], n_nodes, "$.layers.I", True)

    sim_defaults: dict = {}
    if "sim" in doc:
        sim = doc["sim"]
        if not isinstance(sim, dict):
            raise SpecFormatError("bad-type", "$.sim", "expected an object")
        _require_keys(sim, _SIM_KEYS, set(), "$.sim")
        for key in ("t_end", "dt"):
            if key in sim:
                sim_defaults[key] = _as_number(sim[key], f"$.sim.{key}")
        if "seed" in sim:
            seed = sim["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise SpecFormatError("bad-type", "$.sim.seed", "seed must be an integer")
            sim_defaults["seed"] = seed

    system = MultiplexSystem(
        nodes=tuple(nodes),
        layer_c=layer_c,
        layer_p=layer_p,
        layer_i=layer_i,
        sigma=sigma,
        sigma_p=sigma_p,
        sigma_i=sigma_i,
        local_feedback=tuple(feedback) if any_feedback else None,
    )
    return system, sim_defaults


def serialize_spec(sys: MultiplexSystem, sim_defaults: dict | None = None) -> dict:
    """Inverse of :func:`parse_spec_dict`; round-trips field for field."""
    doc: dict = {
        "n": sys.state_dim,
        "nodes": [
            {"A": nd.A.tolist(), "b": nd.b.tolist()} for nd in sys.nodes
        ],
        "layers": {
            "C": {"edges": [[i, j, w] for i, j, w in sys.layer_c.edges], "sigma": sys.sigma},
            "P": {"edges": [[i, j, w] for i, j, w in sys.layer_p.edges], "sigma": sys.sigma_p},
            "I": {"edges": [[i, j, w] for i, j, w in sys.layer_i.edges], "sigma": sys.sigma_i},
        },
    }
    if sys.local_feedback is not None:
        for entry, h in zip(doc["nodes"], sys.local_feedback):
            entry["H"] = h.tolist()
    if sim_defaults:
        doc["sim"] = dict(sim_defaults)
    return doc


def parse_power_spec(path: str | Path) -> PowerNetwork:
    """Load and validate a power-grid spec."""
    doc = _load_document(path)
    if not isinstance(doc, dict):
        raise SpecFormatError("bad-type", "$", "top level must be an object")
    keys = {"inertia", "damping", "local_gain", "injection", "electrical", "p_layer"}
    _require_keys(doc, keys, keys, "$")
    inertia = doc["inertia"]
    if not isinstance(inertia, list) or len(inertia) < 2:
        raise SpecFormatError("dimension", "$.inertia", "need at least 2 buses")
    n = len(inertia)
    vectors = {
        name: _as_vector(doc[name], n, f"$.{name}")
        for name in ("inertia", "damping", "local_gain", "injection")
    }
    electrical, _ = _parse_layer(doc["electrical"], n, "$.electrical", False)
    p_layer, sigma_p = _parse_layer(doc["p_layer"], n, "$.p_layer", True)
    try:
        return PowerNetwork(
            inertia=vectors["inertia"],
            damping=vectors["damping"],
            local_gain=vectors["local_gain"],
            injection=vectors["injection"],
            electrical=electrical,
            p_layer=p_layer,
            sigma_p=sigma_p,
        )
    except ValueError as exc:
        raise SpecFormatError("dimension", "$", str(exc)) from exc


def serialize_power_spec(pn: PowerNetwork) -> dict:
    return {
        "inertia": pn.inertia.tolist(),
        "damping": pn.damping.tolist(),
        "local_gain": pn.local_gain.tolist(),
        "injection": pn.injection.tolist(),
        "electrical": {"edges": [[i, j, w] for i, j, w in pn.electrical.edges]},
        "p_layer": {
            "edges": [[i, j, w] for i, j, w in pn.p_layer.edges],
            "sigma": pn.sigma_p,
        },
    }
