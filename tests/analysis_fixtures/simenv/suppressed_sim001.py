"""A documented allowance: the finding moves to the suppressed list."""
import time

# repro: allow[DET001] -- fixture: documented false-positive example


def stamp() -> float:
    return time.time()
