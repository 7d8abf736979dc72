"""Experiment harness: one module per paper table/figure.

Every artefact in the paper's evaluation section has an experiment ID:

====== ==========================================================
ID     paper artefact
====== ==========================================================
table1 Table I   workload mixes
table2 Table II  system parameters
fig08  Fig. 8    average speedup (CD/ROD/DCA x SA/DM)
fig09  Fig. 9    average speedup with XOR remapping
fig10  Fig. 10   per-workload speedups, set-associative
fig11  Fig. 11   per-workload speedups, direct-mapped
fig12  Fig. 12   L2 miss-latency improvement, set-associative
fig13  Fig. 13   L2 miss-latency improvement, direct-mapped
fig14  Fig. 14   accesses per turnaround, set-associative
fig15  Fig. 15   accesses per turnaround, direct-mapped
fig16  Fig. 16   row-buffer hit rate, set-associative
fig17  Fig. 17   row-buffer hit rate, direct-mapped
fig18  Fig. 18   DRAM tag accesses vs tag-cache size
fig19  Fig. 19   speedup under Lee's DRAM-aware writeback
====== ==========================================================

Run from the command line::

    python -m repro.experiments fig08 [--mixes 30] [--jobs 8] [--quick]

Every experiment has ``plan(mixes)``, the simulation points it reads
(``[]`` for the tables and Fig. 18's functional replay), and
``report(results, params, mixes)``, which turns exactly those points'
results into its text, data and shape checks.  Figs. 10-17 come in SA/DM
pairs: one module per pair registers both ids.  The runner runs the
deduplicated union of the requested plans as one grid, cached on disk
under ``results/cache``, then reports each experiment.
"""

from repro.experiments.common import SimParams, RunSpec, run_grid, run_one

__all__ = ["SimParams", "RunSpec", "run_grid", "run_one"]
