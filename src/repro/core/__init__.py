"""The paper's contribution: DRAM-cache controllers and their scheduling.

* :mod:`repro.core.access` — the access/request vocabulary (paper Fig. 2);
* :mod:`repro.core.queues` — read/write queues with watermark state;
* :mod:`repro.core.bliss` — the underlying scheduling algorithm and the
  one candidate-selection loop; :mod:`repro.core.frfcfs` is BLISS with
  blacklisting switched off;
* :mod:`repro.core.rrpc` — DCA's per-bank re-reference prediction counters;
* :mod:`repro.core.base` — the shared controller machinery (translation,
  write-flush state machine, scheduling loop, MAP-I integration);
* :mod:`repro.core.cd` / :mod:`repro.core.rod` / :mod:`repro.core.dca` —
  the three designs compared in the paper.
"""

from repro.core.access import (
    Access,
    AccessRole,
    Priority,
    CacheRequest,
    RequestType,
)
from repro.core.queues import AccessQueue
from repro.core.bliss import BLISSScheduler
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.rrpc import RRPCTable
from repro.core.base import BaseController, ControllerStats
from repro.core.cd import CDController
from repro.core.rod import RODController
from repro.core.dca import DCAController

DESIGNS = {
    "CD": CDController,
    "ROD": RODController,
    "DCA": DCAController,
}


def make_controller(design: str, *args, **kwargs) -> BaseController:
    """Instantiate a controller by paper name (``CD`` / ``ROD`` / ``DCA``)."""
    try:
        cls = DESIGNS[design.upper()]
    except KeyError:
        raise ValueError(
            f"unknown design {design!r}; expected one of {sorted(DESIGNS)}"
        ) from None
    return cls(*args, **kwargs)


__all__ = [
    "Access",
    "AccessRole",
    "Priority",
    "CacheRequest",
    "RequestType",
    "AccessQueue",
    "BLISSScheduler",
    "FRFCFSScheduler",
    "RRPCTable",
    "BaseController",
    "ControllerStats",
    "CDController",
    "RODController",
    "DCAController",
    "DESIGNS",
    "make_controller",
]
