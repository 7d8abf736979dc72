"""Simulation engine, core model, and full-system wiring.

``System`` is exported lazily: :mod:`repro.sim.system` imports the
controller package, which imports the memory package, which imports the
engine — loading it eagerly here would close an import cycle.
"""

from repro.sim.engine import Simulator

__all__ = [
    "Simulator",
    "Core",
    "System",
    "SystemResult",
]


def __getattr__(name: str) -> object:
    if name in ("System", "SystemResult"):
        from repro.sim import system

        return getattr(system, name)
    if name == "Core":
        from repro.sim.cpu import Core

        return Core
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
