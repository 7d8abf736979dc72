"""Memory hierarchy around the DRAM cache.

* :mod:`repro.mem.sram` — private L1 / shared L2 SRAM caches (write-back,
  write-allocate, true LRU);
* :mod:`repro.mem.mshr` — miss-status holding registers with same-block
  coalescing;
* :mod:`repro.mem.mainmem` — the off-chip memory (flat 50 ns + a
  2 GHz/64-bit bus per Table II, or a banked DDR3-style organisation
  behind the Substrate);
* :mod:`repro.mem.llc_writeback` — Lee et al.'s DRAM-aware LLC writeback
  policy used in the paper's Fig. 19 study.
"""

from repro.mem.mainmem import (AnyMainMemory, BankedMainMemory, MainMemory,
                               MainMemoryStats, make_mainmem)
from repro.mem.sram import SRAMCache
from repro.mem.mshr import LoadWaiter, MSHREntry, MSHRFile, MSHRStats
from repro.mem.llc_writeback import DRAMAwareWritebackIndex

__all__ = [
    "AnyMainMemory",
    "BankedMainMemory",
    "MainMemory",
    "MainMemoryStats",
    "make_mainmem",
    "SRAMCache",
    "LoadWaiter",
    "MSHREntry",
    "MSHRFile",
    "MSHRStats",
    "DRAMAwareWritebackIndex",
]
