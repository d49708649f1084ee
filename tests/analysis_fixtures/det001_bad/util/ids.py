"""Ambient entropy from the OS pool (uuid4), reported at the draw."""

import uuid


def fresh_token():
    return uuid.uuid4().hex
