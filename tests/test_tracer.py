"""The perfbench tracer's entry points exist and are restored on exit.

``perfbench/instrument.py`` wraps simulator methods by name, so renaming
or deleting one of them breaks the traced benchmark run.  This loads the
tracer by path (perfbench is not a package) and installs it once.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def _load_instrument(monkeypatch):
    name = "perfbench_instrument"
    spec = importlib.util.spec_from_file_location(name, INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses resolve their module.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_entry_point_and_restores_it(monkeypatch):
    instrument = _load_instrument(monkeypatch)
    from repro.experiments import fig18_tagcache
    from repro.sim.engine import Simulator

    targets = [(Simulator, "at"), (fig18_tagcache, "make_trace")]
    for _layer, target in instrument.ENTRY_POINTS:
        module, qualname = target.split(":")
        cls_name, meth = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        assert meth in cls.__dict__, f"{target} is gone"
        targets.append((cls, meth))
    originals = [owner.__dict__[attr] for owner, attr in targets]

    tracer = instrument.Tracer()
    try:
        with tracer.installed():
            wrapped = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()   # also after a failed install

    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [owner.__dict__[attr] for owner, attr in targets] == originals
