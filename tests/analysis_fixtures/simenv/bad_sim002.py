"""DET001 must fire: global random module and unseeded Random."""
import random


def draw() -> float:
    rng = random.Random()
    return random.random() + rng.random()
