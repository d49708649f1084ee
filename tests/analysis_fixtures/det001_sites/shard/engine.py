"""CPU time in engine code is a host-dependent input."""

import time


def window_cost():
    return time.process_time()
