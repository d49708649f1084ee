"""The coordinator: CPU time for busy accounting, never the wall clock."""

import time


def busy():
    return time.process_time()


def wall():
    return time.time()
