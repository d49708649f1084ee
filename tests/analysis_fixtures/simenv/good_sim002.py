"""DET001 must stay quiet: named streams and seeded Random."""
import random


def draw(env) -> float:
    return env.random.stream("mobility.pause").random()


def derived(seed: int) -> random.Random:
    return random.Random(seed)
