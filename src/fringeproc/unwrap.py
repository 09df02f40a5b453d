"""Reliability-guided 2D phase unwrapping and the orientation-to-direction lift.

Pixel reliability is the inverse of the summed squared wrapped second
differences (horizontal, vertical and both diagonals). Edges between
4-neighbours rank by the sum of their pixels' reliabilities, ties broken by
edge index. The region merging of Herráez et al. (Appl. Opt. 41(35), 2002)
joins regions along the edges in rank order, which is Kruskal's algorithm:
the edges it uses form the maximum spanning tree of the reliabilities. The
ranks are distinct, so the tree is unique, and it is built here with
vectorised Borůvka rounds instead of an edge-by-edge merge. Each round joins
every component along its best-ranked outgoing edge, and pointer jumping
carries each component's 2*pi offset to its new root. Across a tree edge
(a, b) the 2*pi count steps by round((wrapped[a] - wrapped[b]) / 2*pi). The
result is normalized so the most reliable pixel keeps its input value.

A modulo-pi orientation map lifts to a modulo-2*pi direction map by doubling,
unwrapping, halving and reducing; the global pi branch stays inherently
ambiguous.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import NumericalError
from .image import as_real_image
from .maps import OrientationMap

TAU = 2.0 * np.pi


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap differences into (-pi, pi]."""
    return d - TAU * np.floor(d / TAU + 0.5)


def reliability_map(wrapped: np.ndarray) -> np.ndarray:
    """Inverse summed squared wrapped second differences; border pixels get 0.

    Higher means unwrap earlier. Border pixels lack the full stencil and are
    deferred to the end of the merge order; a map with a side below 3 has no
    pixel with the full stencil and is all zeros. Raises ValueError for a
    non-2D, empty or non-finite map.
    """
    wrapped = as_real_image(wrapped)
    if wrapped.size == 0:
        raise ValueError(f"map of shape {wrapped.shape} is empty")
    rows, cols = wrapped.shape
    d2 = np.zeros((rows, cols))
    if rows < 3 or cols < 3:
        return d2
    inner = np.s_[1:-1, 1:-1]

    def second_diff(off):
        dr, dc = off
        before = wrapped[1 - dr : rows - 1 - dr, 1 - dc : cols - 1 - dc]
        after = wrapped[1 + dr : rows - 1 + dr, 1 + dc : cols - 1 + dc]
        center = wrapped[inner]
        return _wrap(before - center) - _wrap(center - after)

    total = np.zeros((rows - 2, cols - 2))
    for off in ((0, 1), (1, 0), (1, 1), (1, -1)):
        total += second_diff(off) ** 2
    d2[inner] = 1.0 / (total + 1e-30)
    return d2


def _locate(pixels: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """Current component of each pixel and its 2*pi count relative to the
    component's root, composed through the Borůvka rounds so far."""
    comp = pixels
    k = np.zeros(pixels.size)
    for to, offset in levels:
        k += offset[comp]
        comp = to[comp]
    return comp, k


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for a 1-D key without NaNs.

    numpy's stable sort of float64 is a timsort, several times slower than
    its default quicksort. So the keys are sorted unstably, and then only the
    positions inside runs of equal keys (-0.0 equals 0.0, as in the stable
    sort) are put back in index order, by one int64 argsort of
    run_id * n + index. Phase maps tie on well under 1 % of their edges: on
    uniform noise this takes 31 against 98 ms at 512² and 5 against 21 ms at
    256² (best of 7, one core). A map whose keys all tie, such as a constant
    map, sorts about 10x slower than the stable sort (71 against 7 ms at 512²).
    """
    order = np.argsort(key)
    sorted_key = key[order]
    joins = np.zeros(key.size, dtype=bool)  # equal to the key before it
    joins[1:] = sorted_key[1:] == sorted_key[:-1]
    in_run = joins.copy()
    in_run[:-1] |= joins[1:]
    pos = np.flatnonzero(in_run)
    run_id = np.cumsum(~joins[pos], dtype=np.int64)
    idx = order[pos]
    order[pos] = idx[np.argsort(run_id * key.size + idx)]
    return order


def _spanning_tree_unwrap(wrapped) -> tuple[np.ndarray, tuple[int, int]]:
    """Unwrap ``wrapped``; return (unwrapped, anchor).

    ``anchor`` is the (row, col) of the most reliable pixel, which keeps its
    input value exactly.
    """
    wrapped = as_real_image(wrapped)
    rows, cols = wrapped.shape
    rel = reliability_map(wrapped).ravel()
    flat = wrapped.ravel()

    # 4-neighbour edges, (pixel, right) then (pixel, down), renumbered by rank:
    # edge r is the r-th most reliable, ties broken by the original edge index
    idx = np.arange(flat.size, dtype=np.int32).reshape(rows, cols)
    edge_a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    edge_b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    order = _stable_argsort(-(rel[edge_a] + rel[edge_b]))
    edge_a, edge_b = edge_a[order], edge_b[order]
    del order
    # across a tree edge the 2*pi count steps by k[b] - k[a] = step
    step = np.round((flat[edge_a] - flat[edge_b]) / TAU)

    # Borůvka rounds. Components are renumbered 0..count-1 every round; the
    # round's level (to, offset) maps each component to its component in the
    # next round and gives its 2*pi count relative to that one's root.
    levels = []
    count = flat.size
    rank = np.arange(edge_a.size, dtype=np.int32)  # edges joining two components
    comp_a, comp_b = edge_a, edge_b
    while rank.size:
        comp = np.arange(count, dtype=np.int32)
        best = np.full(count, edge_a.size, dtype=np.int32)
        np.minimum.at(best, comp_a, rank)
        np.minimum.at(best, comp_b, rank)
        a, k_a = _locate(edge_a[best], levels)
        b, k_b = _locate(edge_b[best], levels)
        from_a = a == comp
        other = np.where(from_a, b, a)
        # two components that picked the same edge hang under the lower label
        root = (best[other] == best) & (comp < other)
        parent = np.where(root, comp, other)
        # 2*pi count of this component's root minus its parent's root
        offset = np.where(from_a, k_b - k_a - step[best], k_a - k_b + step[best])
        offset[root] = 0.0
        # pointer jumping until every component hangs directly under its root
        todo = np.flatnonzero(~root)
        while todo.size:
            up = parent[todo]
            offset[todo] += offset[up]
            parent[todo] = parent[up]
            todo = todo[~root[parent[todo]]]
        renumber = np.cumsum(root, dtype=np.int32) - 1
        to = renumber[parent]
        levels.append((to, offset))
        comp_a, comp_b = to[comp_a], to[comp_b]
        joining = comp_a != comp_b
        comp_a, comp_b, rank = comp_a[joining], comp_b[joining], rank[joining]
        count = int(renumber[-1]) + 1

    k = np.zeros(count)
    for to, offset in reversed(levels):
        k = offset + k[to]
    anchor = int(np.argmax(rel))
    out = flat + TAU * (k - k[anchor])
    return out.reshape(rows, cols), divmod(anchor, cols)


def unwrap_phase_2d(wrapped: np.ndarray) -> np.ndarray:
    """Unwrap values interpretable modulo 2*pi into a continuous surface.

    Output is congruent to the input modulo 2*pi at every pixel; the global
    2*pi multiple is fixed so the highest-reliability pixel keeps its input
    value. Ties in edge reliability break by edge index to keep runs
    deterministic. Raises ValueError for a non-2D, empty or non-finite map.
    """
    return _spanning_tree_unwrap(wrapped)[0]


def orientation_to_direction(fo: OrientationMap, min_coverage: float = 0.99):
    """Lift a mod-pi orientation map to a mod-2*pi direction map.

    D = unwrap(2*FO)/2 reduced mod 2*pi. Invalid pixels are inpainted from
    their nearest valid neighbor first; coverage below ``min_coverage``
    fails loudly. Returns (direction, anchor) where ``anchor`` records the
    (row, col, angle) fixing which of the two global pi branches came out.
    """
    coverage = float(fo.valid.mean())
    if coverage < min_coverage:
        raise NumericalError(
            f"orientation coverage {coverage:.4f} below required {min_coverage}"
        )
    angles = fo.angles
    if not fo.valid.all():
        _, (ir, ic) = ndimage.distance_transform_edt(
            ~fo.valid, return_indices=True
        )
        angles = angles[ir, ic]
    unwrapped, anchor = _spanning_tree_unwrap(2.0 * angles)
    direction = np.mod(unwrapped / 2.0, TAU)
    return direction, {
        "row": anchor[0],
        "col": anchor[1],
        "direction": float(direction[anchor]),
    }
