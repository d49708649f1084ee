"""The harness may read wall clocks: DET001's clock scope is the
sim-path packages and this file lives under eval/."""
import time


def wall() -> float:
    return time.perf_counter()
