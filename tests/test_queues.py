"""Access queues: capacity, occupancy accounting, the bucket index."""

import pytest

from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.queues import AccessQueue, bucket_key

from reference import low_priority_reads, next_seq, priority_reads


def mk(role=AccessRole.TAG_READ, rtype=RequestType.READ):
    req = CacheRequest(rtype, 0, 0)
    return Access(role, req, (0, 0, 0, 0, 0, 0), seq=next_seq())


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
        assert priority_reads(q) == [pr]
        assert low_priority_reads(q) == [lr]

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


class TestIndexes:
    def test_counts(self):
        q = AccessQueue(8)
        pr = mk(rtype=RequestType.READ)
        lr = mk(rtype=RequestType.WRITEBACK)
        wr = mk(role=AccessRole.DATA_WRITE)
        for a in (pr, lr, wr):
            q.push(a)
        assert len(q) == 3
        assert [len(c) for c in q.classes] == [1, 1, 1]
        q.remove(pr)
        assert len(q) == 2
        assert [len(c) for c in q.classes] == [0, 1, 1]

    def test_contains(self):
        q = AccessQueue(4)
        a, b = mk(), mk()
        q.push(a)
        assert a in q and b not in q

    def test_bank_buckets_partition(self):
        """One bucket per (class, bank, core), each oldest first."""
        q = AccessQueue(16)
        accs = []
        for gb, core in ((0, 0), (0, 0), (3, 0), (5, 0), (3, 0), (3, 1)):
            req = CacheRequest(RequestType.READ, 0, core)
            a = Access(AccessRole.TAG_READ, req, (0, 0, gb, 0, 0, gb),
                       seq=next_seq())
            accs.append(a)
            q.push(a)
        pr, lr, wr = q.classes
        assert lr == {} and wr == {}
        assert sorted(pr) == sorted(bucket_key(gb, c) for gb, c in
                                    ((0, 0), (3, 0), (5, 0), (3, 1)))
        assert list(pr[bucket_key(0, 0)]) == [accs[0], accs[1]]
        assert list(pr[bucket_key(3, 0)]) == [accs[2], accs[4]]
        assert list(pr[bucket_key(3, 1)]) == [accs[5]]
        bucket = pr[bucket_key(3, 0)]
        assert (bucket.gb, bucket.core) == (3, 0)
        assert bucket.seqs == [accs[2].seq, accs[4].seq]
        q.check_invariants()

    def test_empty_buckets_are_dropped(self):
        q = AccessQueue(4)
        a = mk()
        q.push(a)
        q.remove(a)
        assert q.classes == ({}, {}, {})
        assert q.pr_view == ({},)
        q.check_invariants()

    def test_swap_pop_keeps_indexes_consistent(self):
        """Randomized push/remove churn, with late (out-of-seq-order)
        pushes; the bucket index stays exact and iteration is seq order."""
        import random
        rng = random.Random(42)
        q = AccessQueue(32)
        live = []
        held = []          # built now, pushed later: a late arrival
        for step in range(500):
            if live and (len(live) >= 32 or rng.random() < 0.5):
                a = live.pop(rng.randrange(len(live)))
                q.remove(a)
            elif held and rng.random() < 0.3:
                a = held.pop(rng.randrange(len(held)))
                live.append(a)
                q.push(a)
            else:
                gb = rng.randrange(8)
                rtype = rng.choice([RequestType.READ, RequestType.WRITEBACK,
                                    RequestType.REFILL])
                role = rng.choice([AccessRole.TAG_READ, AccessRole.DATA_WRITE])
                req = CacheRequest(rtype, 0, rng.randrange(3))
                a = Access(role, req, (0, 0, gb, rng.randrange(4), 0, gb),
                           seq=next_seq())
                if rng.random() < 0.2:
                    held.append(a)
                    continue
                live.append(a)
                q.push(a)
            q.check_invariants()
            assert len(q) == len(live)
        assert list(q) == sorted(live, key=lambda a: a.seq)

    def test_views_match_entries(self):
        q = AccessQueue(16)
        for rtype in (RequestType.READ, RequestType.WRITEBACK,
                      RequestType.READ, RequestType.REFILL):
            q.push(mk(rtype=rtype))
        q.push(mk(role=AccessRole.DATA_WRITE, rtype=RequestType.WRITEBACK))
        for prio, buckets in zip(Priority, q.classes):
            assert ({a for b in buckets.values() for a in b}
                    == {a for a in q if a.priority == prio})
        assert ({a for b in q.pr_view[0].values() for a in b}
                == set(priority_reads(q)))
        assert ({a for b in q.classes[Priority.LR].values() for a in b}
                == set(low_priority_reads(q)))

    def test_late_push_keeps_seq_order(self):
        q = AccessQueue(8)
        old, new = mk(), mk()            # old.seq < new.seq, same bucket
        q.push(new)
        q.push(old)
        bucket = q.classes[Priority.PR][bucket_key(0, 0)]
        assert bucket.accs == [old, new]
        assert list(q) == [old, new]
        q.check_invariants()

    def test_duplicate_seq_rejected(self):
        q = AccessQueue(8)
        a, b = mk(), mk()
        q.push(a)
        q.push(b)
        with pytest.raises(ValueError, match="already queued"):
            q.push(a)
        assert len(q) == 2

    def test_remove_of_a_same_seq_stranger_raises(self):
        """Removal matches by identity, not by seq alone."""
        q = AccessQueue(4)
        a = mk()
        q.push(a)
        twin = Access(AccessRole.TAG_READ, a.request, (0, 0, 0, 0, 0, 0),
                      seq=a.seq)
        with pytest.raises(ValueError):
            q.remove(twin)
        assert twin not in q and a in q
