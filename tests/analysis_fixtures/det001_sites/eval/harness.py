"""The harness may time itself, but every draw goes through a stream."""

import random
import time
import uuid

ORDER = [1, 2, 3]
random.shuffle(ORDER)


def run_id():
    return uuid.uuid4().hex


def jitter():
    return random.SystemRandom().random()


def measure():
    return time.perf_counter()
