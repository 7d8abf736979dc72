"""Row-buffer states of a DRAM bank under the open-page policy.

A bank tracks its open row and the earliest times the three command classes
may issue, composed from the timing parameters:

* ``ACT``  — constrained by tRP after the preceding PRE;
* ``PRE``  — constrained by tRAS after ACT, tRTP after a read CAS, and
  tWR after the last write burst;
* ``CAS``  — constrained by tRCD after ACT.

The controller model is access-granular ("first-ready" composition): when
the scheduler commits to an access at decision time ``t``, the channel
computes the earliest legal CAS given the bank's row state, opening/closing
rows as needed, and then places the data burst on the bus.  This collapses
the command-level pipeline the way controller-design studies typically do;
all compared designs share the identical substrate, so relative results are
unaffected by the collapse.

The channels hold that per-bank state as struct-of-arrays columns (see
:mod:`repro.dram.channel`); this module defines the row-state classes an
access can see.
"""

#: Row-state constants (plain ints for speed in hot paths).
ROW_HIT = 0
ROW_CLOSED = 1
ROW_CONFLICT = 2

