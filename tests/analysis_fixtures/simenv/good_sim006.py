"""SIM006 must stay quiet: order comes from simulation values."""


def close_order(halves):
    # Creation order is kept by the container; the sort is stable.
    return sorted(halves, key=lambda half: half.remote_id)


def by_name(nodes, make):
    record = make(id="n1")  # a keyword named id is not the builtin
    return sorted(nodes, key=lambda node: node.id), record["id"]
