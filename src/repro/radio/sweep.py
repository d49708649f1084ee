"""Vectorized per-epoch neighbour sweeps (numpy).

The scalar discovery path answers "who is near device d?" one device
at a time: per scan it gathers the grid cells the radio disc overlaps,
filters candidates by exact squared distance and sorts the survivors.
At crowd scale (n >= 1024) thousands of scans repeat that walk per
epoch even though *positions only change at movement ticks* — between
ticks every scan re-derives the same topology.

This module answers the question for *every* device in one shot: all
positions are batched into float64 arrays, candidate pairs are
generated from a dense cell-occupancy table (bincount + cumsum + pure
gathers — no per-candidate binary search), and a single elementwise
pass applies the exact same ``dx*dx + dy*dy <= radius*radius``
comparison the scalar path uses
(:meth:`repro.mobility.world.World.nodes_within`).  IEEE-754
arithmetic is deterministic elementwise, so the resulting listings are
*bit-identical* to the scalar ones — the lockstep property test in
``tests/test_vector_sweep.py`` and the sharded equivalence gate both
referee this.

Candidates come from one ring of cells around each device's own cell,
on a pitch derived from the radius and never below ``radius * (1 +
2**-20)``.  One ring is provably enough.  :func:`numpy.floor_divide`
returns the exact floor of the quotient (it goes through ``fmod``, as
Python's ``//`` does), so two points less than one pitch apart on an
axis land in cells at most one apart on that axis.  And a pair that
passes the float mask *is* that close: the rounded ``dx*dx`` cannot
exceed the rounded sum, so ``|dx|`` is at most ``radius`` times a few
units of rounding error, far inside the ``2**-20`` margin.  The pitch
grows past that floor only to keep the cell table small next to the
population (sparse crowds over large extents).

Each unordered pair is tested once: in cell order, a device meets the
later devices of its own column of three cells and every device of the
next column, and a surviving pair is listed in both directions.
``fl(a - b)`` is ``-fl(b - a)`` exactly, so both directions square to
the same bits the scalar path compares.

``numpy`` is an optional dependency: :func:`available` gates every
caller (see :mod:`repro.radio.medium`).
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the dev extra installs numpy
    _np = None  # type: ignore[assignment]

#: The pitch floor as a multiple of the radius.  Any margin above the
#: float mask's rounding error (a few units of 2**-53) keeps one ring
#: exact; this one leaves seven orders of magnitude to spare.
_PITCH_MARGIN = 1.0 + 2.0 ** -20

#: Cells the dense table may hold per swept device, and in total.  A
#: sparse crowd over a large extent doubles the pitch until both hold.
_CELLS_PER_DEVICE = 64
_DENSE_CELL_CAP = 1 << 22


def available() -> bool:
    """Whether the vectorized sweep can run on this interpreter."""
    return _np is not None


def _pitch(xs, ys, radius: float) -> float:
    """Bucketing pitch: the radius floor, doubled while the table of
    cells (populated extent plus a one-cell margin) is too large."""
    pitch = radius * _PITCH_MARGIN
    limit = min(_DENSE_CELL_CAP, _CELLS_PER_DEVICE * xs.shape[0])
    min_x, max_x = float(xs.min()), float(xs.max())
    min_y, max_y = float(ys.min()), float(ys.max())
    while ((max_x // pitch - min_x // pitch + 3)
           * (max_y // pitch - min_y // pitch + 3) > limit):
        pitch *= 2.0
    return pitch


def sweep_pairs(xs, ys, radius: float):
    """All-pairs-within-``radius`` listings for one batch of positions.

    Args:
        xs: Device x coordinates in listing (id-sorted) order, as a
            float sequence or float64 array.
        ys: Device y coordinates, same order.
        radius: Radio range in metres (exact squared-distance cutoff),
            positive.

    Returns:
        ``(starts, flat)`` where ``flat[starts[i]:starts[i + 1]]`` holds
        the indices of device ``i``'s in-range neighbours in ascending
        index order (self excluded).  ``starts`` is a list of ``n + 1``
        ints; ``flat`` is an int64 array, ready to gather ids with.
    """
    if _np is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("numpy is not available")
    xs = _np.asarray(xs, dtype=_np.float64)
    ys = _np.asarray(ys, dtype=_np.float64)
    n = xs.shape[0]
    if n == 0:
        return [0], _np.empty(0, dtype=_np.int64)
    pitch = _pitch(xs, ys, radius)
    cx = _np.floor_divide(xs, pitch).astype(_np.int64)
    cy = _np.floor_divide(ys, pitch).astype(_np.int64)
    # Dense cell table over the populated bounding box plus a one-cell
    # empty margin, so every neighbouring-cell lookup stays in bounds.
    min_cx = int(cx.min())
    min_cy = int(cy.min())
    ncy = int(cy.max()) - min_cy + 3
    ncx = int(cx.max()) - min_cx + 3
    lin = (cx - (min_cx - 1)) * ncy + (cy - (min_cy - 1))
    # Stable sort by cell: within a cell, devices keep ascending index.
    order = _np.argsort(lin, kind="stable")
    cell_starts = _np.zeros(ncx * ncy + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(lin, minlength=ncx * ncy), out=cell_starts[1:])
    # From here on, device k is the k-th in cell order.  Cells (cx, cy-1)
    # .. (cx, cy+1) are adjacent in ``lin``, so a column of three cells
    # is one slice of the sorted devices.  Each device takes the rest
    # of its own column after itself, then the whole next column.
    lin = lin[order]
    xs = xs[order]
    ys = ys[order]
    ranges = _np.empty((n, 4), dtype=_np.int64)
    ranges[:, 0] = _np.arange(1, n + 1)
    ranges[:, 1] = cell_starts[lin + 2]
    ranges[:, 2] = cell_starts[lin + (ncy - 1)]
    ranges[:, 3] = cell_starts[lin + (ncy + 2)]
    left = ranges[:, 0::2].ravel()
    counts = ranges[:, 1::2].ravel() - left
    per_device = counts.reshape(n, 2).sum(axis=1)
    total = int(per_device.sum())
    # Expand each [left_i, left_i + count_i) range into explicit
    # positions: a global arange minus each range's start offset in
    # the output, plus the range's start.
    offsets = _np.cumsum(counts)
    offsets -= counts
    offsets -= left
    cand = _np.arange(total)
    cand -= _np.repeat(offsets, counts)
    dx = xs[cand] - _np.repeat(xs, per_device)
    dy = ys[cand] - _np.repeat(ys, per_device)
    d2 = dx * dx
    d2 += dy * dy
    mask = d2 <= radius * radius
    first = order[_np.repeat(_np.arange(n), per_device)[mask]]
    second = order[cand[mask]]
    # Both directions of every pair, sorted device-major with
    # neighbours ascending via one composite int64 key (indexes < n,
    # so the packing is injective and order-preserving).
    found = first.shape[0]
    combo = _np.empty(2 * found, dtype=_np.int64)
    forward = combo[:found]
    _np.multiply(first, n, out=forward)
    forward += second
    backward = combo[found:]
    _np.multiply(second, n, out=backward)
    backward += first
    combo.sort()
    starts = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(combo // n, minlength=n), out=starts[1:])
    combo %= n
    return starts.tolist(), combo


def gather(items: list, indexes) -> list:
    """``[items[i] for i in indexes]`` as one object-array gather."""
    if _np is None:  # pragma: no cover - callers gate on available()
        raise RuntimeError("numpy is not available")
    return _np.array(items, dtype=object)[indexes].tolist()
