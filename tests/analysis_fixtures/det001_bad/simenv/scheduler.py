"""Sim-path code laundering nondeterminism through helpers.

Neither read is spelled here: DET001 follows the call chain to the
clock read in util/, and reports the uuid4 draw where it happens.
"""

from util.clock import now_seconds
from util.ids import fresh_token


def next_deadline(env):
    return now_seconds() + 5.0


def tag_event(env):
    return fresh_token()
