"""Gain tuning: the smallest certified proportional gain for given layers.

The pipeline mirrors how the certificates are meant to be used in practice:

  S1  average the node dynamics;
  S2  test that average for nonsingularity and a dissipative symmetric part;
  S3  if S2 fails, fold in user-supplied local feedback and re-test (no
      feedback synthesis happens here - designing stabilising H_i is the
      caller's job);
  S4  compute the certificates (mu, eta, rho), by default at the best anchor;
  S5  solve the coupling inequality for sigma_P on the fixed proportional
      layer.

S1, S2 and S4 are one gain-free evaluation of the report that
:func:`mpxpi.stability.check_theorem` gives; S5 completes it at the cutoff.

A helper for extracting a spanning tree (a natural minimal integral layer)
lives in :mod:`mpxpi.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotApplicableError, TuningInfeasibleError
from .graph import is_connected
from .stability import (
    MultiplexSystem,
    StabilityReport,
    _evaluate,
    _with_gains,
    consensusability_fold,
)

_SLACK = 1e-6  # relative margin above the cutoff at which ``tune`` evaluates its report


@dataclass(frozen=True)
class TuningResult:
    """Outcome of S1-S5.

    ``sigma_p_min`` is the infimum of certified gains: every sigma_P strictly
    above it passes the check. ``report`` evaluates the system slightly above
    the cutoff (relative :data:`_SLACK`, or the bare slack when the cutoff is
    0) so the strict inequality holds there.
    """

    sigma_p_min: float
    feasible: bool
    used_local_feedback: bool
    anchor: int
    report: StabilityReport


def tune(
    sys: MultiplexSystem,
    anchor: int | None = None,
    h_list: Sequence[np.ndarray] | None = None,
) -> TuningResult:
    """Minimal certified sigma_P for the system's layers.

    ``anchor=None`` scans all anchor choices for the smallest mu; a fixed
    index pins the anchor instead. ``h_list`` supplies local feedback used
    only if the averaged dynamics fail S2 on their own.
    """
    if not is_connected(sys.layer_i):
        raise NotApplicableError("integral layer must be connected")
    if not is_connected(sys.layer_p) and not is_connected(sys.layer_c):
        raise NotApplicableError(
            "need a connected proportional layer (or open-loop layer) to tune against"
        )

    used_feedback = False
    work = sys
    core = _evaluate(work, anchor)
    if not core.condition_i:
        if h_list is None:
            raise TuningInfeasibleError(
                "averaged dynamics fail the stability prerequisite and no local "
                "feedback was supplied; design stabilising H_i first"
            )
        work = consensusability_fold(work, h_list)
        used_feedback = True
        core = _evaluate(work, anchor)
        if not core.condition_i:
            raise TuningInfeasibleError(
                "averaged dynamics still fail the prerequisite after folding the "
                "supplied local feedback"
            )

    if core.lambda2_p <= 0.0:
        raise NotApplicableError("proportional layer is disconnected; cannot solve for sigma_P")
    sigma_p_min = max(0.0, core.threshold - work.sigma * core.lambda2_c) / core.lambda2_p

    certified = work.with_gains(sigma_p=sigma_p_min * (1.0 + _SLACK) if sigma_p_min > 0 else _SLACK)
    report = _with_gains(core, certified)
    return TuningResult(
        sigma_p_min=sigma_p_min,
        feasible=report.passed,
        used_local_feedback=used_feedback,
        anchor=report.anchor,
        report=report,
    )
