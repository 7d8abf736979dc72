"""repro — reproduction of "DCA: a DRAM-Cache-Aware DRAM Controller" (SC'16).

Public API tour
---------------

Configuration (the paper's Table II)::

    from repro import paper_config, scaled_config

Run one simulation::

    from repro import System, scaled_config
    from repro.workloads import mix_profiles

    sys_ = System(scaled_config(), design="DCA", benchmarks=mix_profiles(1),
                  organization="sa", footprint_scale=1 / 8, seed=1)
    result = sys_.run(warmup_insts=50_000, measure_insts=200_000,
                      replay_accesses=20_000)
    print(result.ipcs, result.accesses_per_turnaround)

Regenerate a paper figure::

    python -m repro.experiments fig08

Packages: :mod:`repro.core` (CD/ROD/DCA controllers + BLISS),
:mod:`repro.dram` (stacked-DRAM substrate), :mod:`repro.cache`
(organizations, translation, MAP-I, tag cache), :mod:`repro.mem` (L2,
MSHRs, main memory, Lee writeback), :mod:`repro.sim` (engine, cores,
system), :mod:`repro.workloads`, :mod:`repro.metrics`,
:mod:`repro.experiments`.
"""

from repro.config import (
    DRAMTimings,
    SubstrateConfig,
    SystemConfig,
    paper_config,
    scaled_config,
)
from repro.core import (
    CDController,
    DCAController,
    RODController,
    make_controller,
)
from repro.metrics import MetricGroup, MetricRegistry
from repro.sim.system import (
    RESULT_SCHEMA_VERSION,
    ResultSchemaError,
    System,
    SystemResult,
)

__version__ = "1.1.0"

__all__ = [
    "DRAMTimings",
    "SubstrateConfig",
    "SystemConfig",
    "paper_config",
    "scaled_config",
    "CDController",
    "RODController",
    "DCAController",
    "make_controller",
    "System",
    "SystemResult",
    "ResultSchemaError",
    "RESULT_SCHEMA_VERSION",
    "MetricGroup",
    "MetricRegistry",
    "__version__",
]
