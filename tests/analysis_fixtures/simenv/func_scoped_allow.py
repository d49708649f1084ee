"""A function-scoped allowance: the waiver covers calibrate() only.

The identical read in schedule() stays a finding — the comment's span
is the enclosing function, not the file.
"""
import time


def calibrate():
    # repro: allow[DET001] -- fixture: measures the host on purpose
    return time.perf_counter()


def schedule():
    return time.perf_counter()
