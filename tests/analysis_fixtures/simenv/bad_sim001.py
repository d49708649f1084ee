"""DET001 must fire: wall-clock reads on the simulated path."""
import time
from datetime import datetime


def stamp() -> float:
    return time.perf_counter()


def label() -> str:
    return datetime.now().isoformat()
