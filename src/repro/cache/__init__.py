"""DRAM-cache substrate: organizations, functional tag state, translation.

The paper evaluates two tags-in-DRAM organizations (its Fig. 1):

* **set-associative** (Loh & Hill, MICRO'11): each 4 KB row holds 4 sets of
  (1 tag block + 15 data blocks); a read needs a tag access then a data
  access;
* **direct-mapped** (Qureshi & Loh's Alloy cache, MICRO'12): tag and data
  are fused into one TAD unit read/written with a single wider burst.

This package provides the functional tag arrays (hit/miss/victim state),
the mapping from cache coordinates to stacked-DRAM array addresses, the
request-to-access translation of the paper's Fig. 2, the MAP-I miss
predictor, and the ATCache-style SRAM tag cache used by the Fig. 18 study.
"""

from repro.cache.organizations import (
    DirectMappedGeometry,
    SetAssociativeGeometry,
)
from repro.cache.dramcache import DRAMCacheArray, LookupResult, FillResult
from repro.cache.translator import TagOutcome, Translator
from repro.cache.mapi import MAPIPredictor
from repro.cache.tagcache import TagCache, TagCacheStats

__all__ = [
    "DirectMappedGeometry",
    "SetAssociativeGeometry",
    "DRAMCacheArray",
    "LookupResult",
    "FillResult",
    "TagOutcome",
    "Translator",
    "MAPIPredictor",
    "TagCache",
    "TagCacheStats",
]
