"""Reads in a lambda, passed uncalled, aliased, paired and nested."""

import time
from time import perf_counter as pc


def schedule(env):
    env.schedule(lambda: time.time())
    env.schedule(time.perf_counter)
    return pc()


def span():
    return time.time() - time.time()


def factory():
    class Local:
        def stamp(self):
            return time.monotonic()

    def closure():
        return time.perf_counter()

    return Local, closure


class Outer:
    class Inner:
        def stamp(self):
            return time.time_ns()
