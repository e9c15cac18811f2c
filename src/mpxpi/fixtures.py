"""The demo networks, defined by the bundled specs ``mpxpi/data/hetero8.json``
and ``grid16.json`` and loaded through :mod:`mpxpi.netspec`, plus the grid's
load-step scenario (not network data)."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .netspec import parse_power_spec, parse_spec
from .power import PowerNetwork
from .stability import MultiplexSystem

_DATA = Path(__file__).with_name("data")

#: Buses with local frequency feedback, and the load step: 600 kW shed, 0.2 MW
#: at each of three buses, with the control switched on at 0.1 s.
GRID_CONTROLLED_BUSES = (1, 3, 5, 8, 10, 14)
GRID_DISTURBANCES = ((0.0, 4, -0.2), (0.0, 8, -0.2), (0.0, 10, -0.2))
GRID_CONTROL_ON_TIME = 0.1


def heterogeneous_ring_system() -> MultiplexSystem:
    """8 oscillatory, stable and unstable 2-D agents under unit-weight ring P
    and I layers, at sigma_P = 19.3 and sigma_I = 15 (``.with_gains`` sets
    others). Several nodes are unstable alone, but the averaged dynamics are
    invertible and dissipative; the certified cutoff is sigma_P ~ 19.26."""
    return parse_spec(_DATA / "hetero8.json")[0]


def sixteen_bus_grid(sigma_p: float = 55.0) -> PowerNetwork:
    """The 16-bus grid. Injections total 459 against damping 7.65, so it idles
    at 60 Hz. The local gains realise psi11 = -2.3875 (a gain sum of 0.05,
    which restores 60 Hz after the load step), a largest corrected rate
    k - d/m of 2.0 at bus 3, and threshold 6.3991. The P layer is a
    weight-200 path; the certified cutoff, ~0.833, is far below sigma_p = 55."""
    return dataclasses.replace(parse_power_spec(_DATA / "grid16.json"), sigma_p=sigma_p)
