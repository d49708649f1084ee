"""A function-scoped allowance with nothing inside its span to allow.

The file has a real DET001 finding *outside* the waived function, so
the waiver absorbs zero findings and must surface as SUP001.
"""
import time


def quiet(env):
    # repro: allow[DET001] -- fixture: stale, nothing blocks here
    return env.now


def stamp():
    return time.perf_counter()
