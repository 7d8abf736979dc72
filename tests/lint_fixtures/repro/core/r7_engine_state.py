"""R7 fixture: the simulator's private state belongs to the engine."""


class Controller:
    def __init__(self, sim):
        self.sim = sim
        self._seq = 0                          # its own counter: fine

    def peek(self):
        return self.sim._heap[0]               # expect: R7

    def bump(self, sim):
        sim._seq += 1                          # expect: R7
        self._seq += 1

    def stopping(self):
        return self.sim._stop_requested        # expect: R7

    def count(self, system):
        return system.sim._events_run          # expect: R7

    def public(self):
        self.sim.asap(print, self.sim.events_run)
        return self.sim.now, self.sim.pending()
