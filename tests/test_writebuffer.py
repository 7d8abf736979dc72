"""L2 write buffer: drain policies, coalescing, forwarding flushes."""

from repro.config import WriteBufferConfig, scaled_config
from repro.mem.writebuffer import L2WriteBuffer
from repro.sim.engine import Simulator
from repro.sim.system import System
from repro.workloads.profiles import profile


class _Sink:
    def __init__(self):
        self.calls = []

    def submit(self, addr, core_id):
        self.calls.append((addr, core_id))


def make_buf(**kw):
    sim = Simulator()
    sink = _Sink()
    buf = L2WriteBuffer(sim, WriteBufferConfig(**kw), sink.submit)
    return sim, sink, buf


class TestPassThrough:
    def test_depth0_submits_immediately(self):
        _sim, sink, buf = make_buf()          # depth=0 is the default
        for k in range(3):
            buf.push(k * 0x40, core_id=k)
        assert sink.calls == [(0x00, 0), (0x40, 1), (0x80, 2)]
        assert len(buf) == 0
        assert buf.stats.enqueued == buf.stats.drained == 3
        assert buf.stats.drain_stalls == 0


class TestBuffering:
    def test_coalesces_repeat_addresses(self):
        _sim, sink, buf = make_buf(depth=4)
        buf.push(0x100, 0)
        buf.push(0x100, 1)
        assert len(buf) == 1
        assert buf.stats.coalesced == 1
        assert sink.calls == []

    def test_full_policy_bursts_whole_buffer(self):
        _sim, sink, buf = make_buf(depth=3, policy="full")
        for a in (0x000, 0x040, 0x080):
            buf.push(a, 0)
        assert sink.calls == []
        buf.push(0x0C0, 0)
        assert buf.stats.drain_stalls == 1
        assert [a for a, _ in sink.calls] == [0x000, 0x040, 0x080]  # FIFO
        assert len(buf) == 1               # only the new push remains

    def test_watermark_drains_high_to_low(self):
        # depth=8, defaults high=0.75 (6 entries), low=0.25 (2 entries)
        _sim, sink, buf = make_buf(depth=8)
        for k in range(5):
            buf.push(k * 0x40, 0)
        assert sink.calls == []
        buf.push(5 * 0x40, 0)              # hits the high watermark
        assert len(buf) == 2
        assert [a for a, _ in sink.calls] == [0x000, 0x040, 0x080, 0x0C0]

    def test_idle_policy_drains_after_quiet_window(self):
        sim, sink, buf = make_buf(depth=8, policy="idle", idle_ps=1_000)
        buf.push(0x000, 0)
        buf.push(0x040, 0)
        assert sink.calls == []
        sim.run(until=5_000)
        assert [a for a, _ in sink.calls] == [0x000, 0x040]
        assert buf.stats.idle_drains == 1
        assert len(buf) == 0

    def test_idle_window_restarts_on_new_push(self):
        sim, sink, buf = make_buf(depth=8, policy="idle", idle_ps=1_000)
        buf.push(0x000, 0)
        sim.at(600, lambda _: buf.push(0x040, 0), None)
        sim.run(until=5_000)
        # The check at t=1000 saw a push at t=600 and deferred to t=1600.
        assert buf.stats.idle_drains == 1
        assert [a for a, _ in sink.calls] == [0x000, 0x040]

    def test_flush_forwards_the_named_block(self):
        _sim, sink, buf = make_buf(depth=4)
        buf.push(0x100, 0)
        buf.push(0x140, 1)
        assert buf.flush(0x100) is True
        assert sink.calls == [(0x100, 0)]
        assert buf.stats.forward_flushes == 1
        assert buf.flush(0x9999 & ~0x3F) is False
        assert len(buf) == 1

    def test_occupancy_integral_is_exact(self):
        sim, _sink, buf = make_buf(depth=4)
        buf.push(0x000, 0)                 # t=0, occupancy 1
        sim.at(1_000, lambda _: buf.push(0x040, 0), None)
        sim.run(until=2_000)
        assert buf.stats.occupancy_integral_ps == 1_000  # 1 entry x 1000 ps

    def test_reset_accounting_restarts_integral_clock(self):
        sim, _sink, buf = make_buf(depth=4)
        buf.push(0x000, 0)
        sim.at(1_000, lambda _: buf.reset_accounting(sim.now), None)
        sim.at(1_500, lambda _: buf.push(0x040, 0), None)
        sim.run(until=2_000)
        # Only the 500 ps between the reset and the second push count.
        assert buf.stats.occupancy_integral_ps == 500


class TestSystemIntegration:
    def test_lee_batches_drain_through_buffer(self):
        cfg = scaled_config(8).with_overrides(
            [("writebuf.depth", 8), ("writebuf.policy", "full")])
        s = System(cfg, "CD", [profile("lbm")] * 2, footprint_scale=1 / 64,
                   seed=2, lee_writeback=True)
        r = s.run(warmup_insts=3_000, measure_insts=8_000,
                  replay_accesses=20_000)
        wb = r.metrics["writebuf"]
        assert r.writebacks > 0
        assert wb["enqueued"] > 0
        assert wb["drained"] > 0
        assert r.writebuf_drain_stalls == wb["drain_stalls"] >= 0
        assert wb["occupancy_integral_ps"] >= 0

    def test_default_depth0_never_stalls(self):
        s = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2)
        r = s.run(warmup_insts=3_000, measure_insts=8_000,
                  replay_accesses=20_000)
        wb = r.metrics["writebuf"]
        assert wb["drain_stalls"] == 0
        assert wb["enqueued"] == wb["drained"]   # pure pass-through
        assert r.writebuf_drain_stalls == 0
