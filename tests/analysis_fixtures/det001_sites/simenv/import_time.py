"""Reads that run at import time, in a class body and in a default."""

import time

T0 = time.time()


class Calibrated:
    clock = time.perf_counter

    def elapsed(self, clock=time.monotonic):
        return clock() - T0
