"""SIM006 must fire: object addresses feeding simulation order."""

import builtins


def close_order(halves):
    return sorted(halves, key=lambda half: (half.remote_id, id(half)))


def by_address(peers, token):
    seen = {builtins.id(token)}
    return sorted(peers, key=id), seen
