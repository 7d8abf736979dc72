"""The registered dca-lint rule set.

Each rule lives in its own module; ``ALL_RULES`` is the registry the CLI
and :func:`repro.analysis.core.all_rules` instantiate from.  Order is
the canonical R1..R7 numbering.
"""

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.engine import EngineStateRule
from repro.analysis.rules.hotpath import HotPathRule
from repro.analysis.rules.metrics import MetricsDisciplineRule
from repro.analysis.rules.purity import EstimatePurityRule
from repro.analysis.rules.schema import SchemaDisciplineRule
from repro.analysis.rules.snapshot import HiddenGlobalsRule

ALL_RULES = (
    DeterminismRule,
    HiddenGlobalsRule,
    HotPathRule,
    EstimatePurityRule,
    MetricsDisciplineRule,
    SchemaDisciplineRule,
    EngineStateRule,
)

__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "EngineStateRule",
    "HiddenGlobalsRule",
    "HotPathRule",
    "EstimatePurityRule",
    "MetricsDisciplineRule",
    "SchemaDisciplineRule",
]
