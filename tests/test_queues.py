"""Access queues: capacity, occupancy accounting, filtered views."""

import pytest

from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.queues import AccessQueue


def mk(role=AccessRole.TAG_READ, rtype=RequestType.READ):
    req = CacheRequest(rtype, 0, 0)
    return Access(role, req, 0, 0, 0, 0, 0, 0, 0)


class TestCapacity:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            AccessQueue(0)

    def test_has_room(self):
        q = AccessQueue(2)
        assert q.has_room()
        q.push(mk())
        q.push(mk())
        assert not q.has_room()

    def test_continuations_may_exceed(self):
        q = AccessQueue(1)
        q.push(mk())
        q.push(mk())  # reserved-slot semantics: push always succeeds
        assert len(q) == 2
        assert q.occupancy == 2.0

    def test_occupancy_fraction(self):
        q = AccessQueue(4)
        q.push(mk())
        assert q.occupancy == 0.25


class TestViews:
    def test_priority_reads(self):
        q = AccessQueue(8)
        pr = mk(rtype=RequestType.READ)
        lr = mk(rtype=RequestType.WRITEBACK)
        q.push(pr)
        q.push(lr)
        assert q.priority_reads() == [pr]
        assert q.low_priority_reads() == [lr]

    def test_refill_reads_are_lr(self):
        q = AccessQueue(8)
        a = mk(rtype=RequestType.REFILL)
        assert a.priority == Priority.LR

    def test_iteration(self):
        q = AccessQueue(4)
        items = [mk(), mk()]
        for a in items:
            q.push(a)
        assert list(q) == items


class TestRemoval:
    def test_remove(self):
        q = AccessQueue(4)
        a = mk()
        q.push(a)
        q.remove(a)
        assert len(q) == 0

    def test_remove_missing_raises(self):
        q = AccessQueue(4)
        with pytest.raises(ValueError):
            q.remove(mk())


class TestOccupancyIntegral:
    def test_mean_occupancy(self):
        q = AccessQueue(4)
        a = mk()
        q.push(a, now=0)
        q.remove(a, now=100)   # 1 entry for 100 ps
        assert q.mean_occupancy(200) == pytest.approx(0.5)

    def test_mean_occupancy_at_zero_time(self):
        assert AccessQueue(4).mean_occupancy(0) == 0.0

    def test_reset_accounting_excludes_warmup(self):
        """Regression: the integral was never reset at the warm-up
        boundary, so mean occupancy silently included warm-up traffic
        and divided by the full elapsed time."""
        q = AccessQueue(4)
        warm = mk()
        q.push(warm, now=0)             # occupied through all of warm-up
        q.reset_accounting(now=100)     # warm-up ends at t=100
        q.remove(warm, now=150)         # 1 entry for 50 ps measured
        assert q.mean_occupancy(200) == pytest.approx(0.5)

    def test_reset_accounting_empty_interval(self):
        q = AccessQueue(4)
        q.push(mk(), now=0)
        q.reset_accounting(now=100)
        assert q.mean_occupancy(100) == 0.0


class TestIndexes:
    def test_counts(self):
        q = AccessQueue(8)
        pr = mk(rtype=RequestType.READ)
        lr = mk(rtype=RequestType.WRITEBACK)
        wr = mk(role=AccessRole.DATA_WRITE)
        for a in (pr, lr, wr):
            q.push(a)
        assert (q.pr_count, q.lr_count) == (1, 1)
        q.remove(pr)
        assert (q.pr_count, q.lr_count) == (0, 1)

    def test_contains(self):
        q = AccessQueue(4)
        a, b = mk(), mk()
        q.push(a)
        assert a in q and b not in q

    def test_bank_buckets_partition(self):
        q = AccessQueue(16)
        accs = []
        for gb in (0, 0, 3, 5, 3):
            req = CacheRequest(RequestType.READ, 0, 0)
            a = Access(AccessRole.TAG_READ, req, 0, 0, gb, 0, 0, gb, 0)
            accs.append(a)
            q.push(a)
        buckets = q.bank_buckets()
        assert sorted(buckets) == [0, 3, 5]
        assert list(buckets[0]) == [accs[0], accs[1]]
        assert list(buckets[3]) == [accs[2], accs[4]]
        q.check_invariants()

    def test_empty_buckets_are_dropped(self):
        q = AccessQueue(4)
        a = mk()
        q.push(a)
        q.remove(a)
        assert q.bank_buckets() == {}
        assert q.pr_bank_buckets() == {}
        q.check_invariants()

    def test_swap_pop_keeps_indexes_consistent(self):
        """Randomized push/remove churn; every index stays exact."""
        import random
        rng = random.Random(42)
        q = AccessQueue(32)
        live = []
        for step in range(500):
            if live and (len(live) >= 32 or rng.random() < 0.5):
                a = live.pop(rng.randrange(len(live)))
                q.remove(a, now=step)
            else:
                gb = rng.randrange(8)
                rtype = rng.choice([RequestType.READ, RequestType.WRITEBACK,
                                    RequestType.REFILL])
                role = rng.choice([AccessRole.TAG_READ, AccessRole.DATA_WRITE])
                req = CacheRequest(rtype, 0, 0)
                a = Access(role, req, 0, 0, gb, rng.randrange(4), 0, gb, 0)
                live.append(a)
                q.push(a, now=step)
            q.check_invariants()
        assert set(q.entries) == set(live)

    def test_views_match_entries(self):
        q = AccessQueue(16)
        for rtype in (RequestType.READ, RequestType.WRITEBACK,
                      RequestType.READ, RequestType.REFILL):
            q.push(mk(rtype=rtype))
        assert (set(q.priority_reads())
                == {a for a in q.entries if a.priority == Priority.PR})
        assert (set(q.low_priority_reads())
                == {a for a in q.entries if a.priority == Priority.LR})
