"""Reliability-guided 2D phase unwrapping and the orientation-to-direction lift.

Pixel reliability is the inverse of the summed squared wrapped second
differences (horizontal, vertical and both diagonals). An edge between
4-neighbours weighs the sum of its pixels' reliabilities. The region merging
of Herráez et al. (Appl. Opt. 41(35), 2002) joins regions along the edges by
decreasing weight, ties by edge index, which is Kruskal's algorithm: the edges
it uses form the maximum spanning tree of the reliabilities. That order is
strict, so the tree is unique, and it is built here with vectorised Borůvka
rounds and no sort. Every round joins each component along its heaviest
outgoing edge, the lowest edge index among equal weights, and pointer jumping
carries each component's 2*pi offset to its new root. The first round runs on
slices of the pixel grid; later rounds see only the edges left between
components, kept in edge-index order.

Across a tree edge (a, b) the 2*pi count steps by round((wrapped[a] -
wrapped[b]) / 2*pi). Each edge left between components carries ``jump``: its
k[b] - k[a] minus that step, where k counts 2*pi relative to the root of the
pixel's current component. If the edge joins the two components, the count of
a's root minus b's root is jump. The counts are taken relative to the most
reliable pixel, which so keeps its input value.

Every index array is ``np.intp``, numpy's native index type. A gather
through int32 indices takes numpy's general indexing path instead: a random
gather of 65536 float64 took 185 us with int32 indices against 99 us with
intp (numpy 2.4, one core of a 2-vCPU Xeon VM), and converting the indices
first costs another pass. Eight-byte indices would raise the traced peak, so
the live set is kept lean: the grid round tells a mutual pick by the two
pixels' pick codes and builds no pixel index array, and the rounds update
in place and free each array before gathering the next.

A modulo-pi orientation map lifts to a modulo-2*pi direction map by doubling
and unwrapping: halving the unwrapped angle and reducing it mod 2*pi gives
FO where a pixel's 2*pi count is even and FO + pi where it is odd, so the
lift reads only the counts' parity. The global pi branch stays inherently
ambiguous.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .image import as_real_image
from .maps import OrientationMap

TAU = 2.0 * np.pi


def _wrap(d: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Wrap differences into (-pi, pi] in place: d - 2*pi*floor(d/(2*pi) + 0.5).

    ``work`` is a work buffer of d's shape.
    """
    np.divide(d, TAU, out=work)
    np.add(work, 0.5, out=work)
    np.floor(work, out=work)
    np.multiply(work, TAU, out=work)
    return np.subtract(d, work, out=d)


def reliability_map(wrapped: np.ndarray) -> np.ndarray:
    """Inverse summed squared wrapped second differences; border pixels get 0.

    Higher means unwrap earlier. Border pixels lack the full stencil and are
    deferred to the end of the merge order; a map with a side below 3 has no
    pixel with the full stencil and is all zeros. Raises ValueError for a
    non-2D, empty or non-finite map.

    Every pass runs over the raveled map, where the horizontal, vertical and
    diagonal neighbours of pixel p sit at p + 1, p + cols, p + cols + 1 and
    p + cols - 1. The flat range [cols + 1, n - cols - 1) holds every inner
    pixel and, between two inner rows, the last pixel of one and the first
    of the next, whose stencils wrap around a row end; those are zeroed at
    the end.
    """
    wrapped = as_real_image(wrapped)
    if wrapped.size == 0:
        raise ValueError(f"map of shape {wrapped.shape} is empty")
    rows, cols = wrapped.shape
    d2 = np.zeros((rows, cols))
    if rows < 3 or cols < 3:
        return d2
    flat = wrapped.ravel()
    start, stop = cols + 1, flat.size - cols - 1
    total = d2.ravel()[start:stop]
    m = total.size
    diff_buf = np.empty(m + cols + 1)
    work_buf = np.empty(m + cols + 1)
    for off in (1, cols, cols + 1, cols - 1):
        # diff[j] = flat[q] - flat[q + off] at q = start - off + j, for every q
        # that is a pixel p of the range or its neighbour p - off, so each
        # difference is wrapped once; the second difference at p is
        # wrap(diff[p - off]) - wrap(diff[p])
        diff, work = diff_buf[: m + off], work_buf[: m + off]
        np.subtract(flat[start - off : stop], flat[start : stop + off], out=diff)
        _wrap(diff, work)
        second = work[:m]
        np.subtract(diff[:m], diff[off:], out=second)
        np.multiply(second, second, out=second)
        total += second
    total += 1e-30
    np.divide(1.0, total, out=total)
    d2[:, 0] = 0.0
    d2[:, -1] = 0.0
    return d2


def _hook(root: np.ndarray, parent: np.ndarray, offset: np.ndarray):
    """Hang every component directly under its root by pointer jumping.

    ``parent`` maps each component to the one it hangs under, and ``offset``
    holds its 2*pi count minus its parent's; a root's entries are ignored.
    Both are updated in place, ``offset`` to the count relative to the root.
    Returns the round's level (to, offset), with the roots renumbered
    0..count-1, and count.
    """
    roots = np.flatnonzero(root)
    parent[roots] = roots
    offset[roots] = 0.0
    # the first jump runs over every component, later ones only over those
    # not yet hanging under their root
    offset += offset[parent]
    parent = parent[parent]
    todo = np.flatnonzero(~root[parent])
    while todo.size:
        up = parent[todo]
        offset[todo] += offset[up]
        parent[todo] = parent[up]
        todo = todo[~root[parent[todo]]]
    renumber = np.empty(root.size, dtype=np.intp)  # read at the roots only
    renumber[roots] = np.arange(roots.size)
    return (renumber[parent], offset), roots.size


def _grid_round(rel: np.ndarray, flat: np.ndarray):
    """The first Borůvka round, run on the pixel grid; returns (level, count).

    Every pixel is its own component, so its best edge is its heaviest
    incident edge, ties going to the lowest edge index: the first of left,
    right, up and down. Edge weights are never negative, so -1 pads the
    border.
    """
    rows, cols = rel.shape
    horiz = np.full((rows, cols + 1), -1.0)
    np.add(rel[:, :-1], rel[:, 1:], out=horiz[:, 1:-1])
    vert = np.full((rows + 1, cols), -1.0)
    np.add(rel[:-1], rel[1:], out=vert[1:-1])
    right = horiz[:, 1:] > horiz[:, :-1]
    down = vert[1:] > vert[:-1]
    vertical = np.maximum(vert[1:], vert[:-1]) > np.maximum(horiz[:, 1:], horiz[:, :-1])
    del horiz, vert
    # a pixel is the first end (left or upper) of the edge it picked iff it
    # picked right or down
    from_a = ((vertical & down) | (~vertical & right)).ravel()
    # 0 left, 1 right, 2 up, 3 down: code ^ 1 is the opposite pick
    code = vertical.ravel().view(np.uint8) * np.uint8(2) + from_a.view(np.uint8)
    other = np.array([-1, 1, -cols, cols], dtype=np.intp)[code]
    other += np.arange(flat.size)
    # the pixel's 2*pi count minus its neighbour's: -step for a first end,
    # step for a second
    offset = flat[other]
    offset -= flat
    offset /= TAU
    np.round(offset, out=offset)
    # two pixels that picked the same edge hang under the first end
    root = from_a & (code[other] == code ^ np.uint8(1))
    return _hook(root, other, offset)


def _cut_edges(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends (a, b) of the 4-neighbour edges between different labels of
    ``grid``, in edge-index order: (pixel, right) edges, then (pixel, down)."""
    rows, cols = grid.shape
    cut = np.zeros((2, rows, cols), dtype=bool)
    np.not_equal(grid[:, :-1], grid[:, 1:], out=cut[0, :, :-1])
    np.not_equal(grid[:-1], grid[1:], out=cut[1, :-1])
    right, down = np.flatnonzero(cut[0]), np.flatnonzero(cut[1])
    edge_a = np.concatenate([right, down])
    right += 1
    down += cols
    return edge_a, np.concatenate([right, down])


def _heaviest_edges(count: int, comp_a: np.ndarray, comp_b: np.ndarray,
                    weight: np.ndarray) -> np.ndarray:
    """Position of each component's heaviest edge, ties to the lowest position;
    edge i joins comp_a[i] and comp_b[i], and a component with no edge gets
    weight.size."""
    heaviest = np.full(count, -np.inf)
    np.maximum.at(heaviest, comp_a, weight)
    np.maximum.at(heaviest, comp_b, weight)
    best = np.full(count, weight.size)
    for comp in (comp_a, comp_b):
        top = np.flatnonzero(weight == heaviest[comp])
        np.minimum.at(best, comp[top], top)
    return best


def _spanning_tree_unwrap(wrapped) -> tuple[np.ndarray, tuple[int, int]]:
    """2*pi counts that unwrap the float64 map ``wrapped``; return (counts,
    anchor).

    ``counts`` holds each pixel's 2*pi count minus that of ``anchor``, the
    (row, col) of the most reliable pixel, as exact integers in float64.
    """
    rel = reliability_map(wrapped)  # checks the map
    anchor = int(np.argmax(rel))
    rows, cols = wrapped.shape
    flat = wrapped.ravel()

    # Borůvka rounds. Components are renumbered 0..count-1 every round; the
    # round's level (to, offset) maps each component to its component in the
    # next round and gives its 2*pi count relative to that one's root.
    levels = []
    count = flat.size
    if count > 1:  # a 1x1 map has no edges
        (to, offset), count = _grid_round(rel, flat)
        levels.append((to, offset))
        # the edges the grid round left between components, in edge-index order
        edge_a, edge_b = _cut_edges(to.reshape(rows, cols))
        rel = rel.ravel()
        weight = rel[edge_a] + rel[edge_b]
        del rel
        jump = offset[edge_b]
        jump -= offset[edge_a]
        step = flat[edge_a]
        step -= flat[edge_b]
        step /= TAU
        jump -= np.round(step, out=step)
        del step
        comp_a = to[edge_a]
        del edge_a
        comp_b = to[edge_b]
        del edge_b
        while weight.size:
            comp = np.arange(count)
            best = _heaviest_edges(count, comp_a, comp_b, weight)
            other = comp_a[best]
            from_a = other == comp
            # the end of the best edge that is not the component itself
            other += comp_b[best]
            other -= comp
            # two components that picked the same edge hang under the lower label
            root = (best[other] == best) & (comp < other)
            # 2*pi count of this component's root minus its parent's root
            offset = jump[best]
            np.negative(offset, out=offset, where=~from_a)
            (to, offset), count = _hook(root, other, offset)
            levels.append((to, offset))
            jump += offset[comp_b]
            jump -= offset[comp_a]
            comp_a = to[comp_a]
            comp_b = to[comp_b]
            keep = np.flatnonzero(comp_a != comp_b)
            comp_a = comp_a[keep]
            comp_b = comp_b[keep]
            weight = weight[keep]
            jump = jump[keep]

    k = np.zeros(count)
    for to, offset in reversed(levels):
        k = offset + k[to]
    return (k - k[anchor]).reshape(rows, cols), divmod(anchor, cols)


def unwrap_phase_2d(wrapped: np.ndarray) -> np.ndarray:
    """Unwrap values interpretable modulo 2*pi into a continuous surface.

    Output is congruent to the input modulo 2*pi at every pixel; the global
    2*pi multiple is fixed so the highest-reliability pixel keeps its input
    value. Ties in edge reliability break by edge index to keep runs
    deterministic. Raises ValueError for a non-2D, empty or non-finite map.
    """
    wrapped = as_real_image(wrapped)
    return wrapped + TAU * _spanning_tree_unwrap(wrapped)[0]


def _nearest_valid(valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index maps of each pixel's nearest valid pixel.

    Nearest is by Euclidean distance, ties to the lowest column, then to the
    lowest row: the indices ndimage.distance_transform_edt(~valid,
    return_indices=True) returns. Valid pixels map to themselves. Each column
    first finds its nearest valid row for every row (ties go up); an invalid
    pixel then scans columns d = 1, 2, ... away while d^2 is at most its best
    squared distance. Raises NumericalError when no pixel is valid.
    """
    if not valid.any():
        raise NumericalError("orientation map has no valid pixel to inpaint from")
    rows, cols = valid.shape
    far = 2 * (rows + cols)  # a row distance beyond any pixel of the map
    row = np.arange(rows)[:, None]
    above = np.maximum.accumulate(np.where(valid, row, -far), axis=0)
    below = np.minimum.accumulate(np.where(valid, row, far)[::-1], axis=0)[::-1]
    up, down = row - above, below - row
    take_up = up <= down
    near = np.where(take_up, above, below)
    near_d2 = np.where(take_up, up, down) ** 2

    ir, ic = np.nonzero(~valid)
    best, src = near_d2[ir, ic], ic.copy()
    todo = np.arange(ir.size)
    for d in range(1, cols):
        todo = todo[d * d <= best[todo]]
        if not todo.size:
            break
        # the right column first, so that the left one wins a tie
        for col, wins in ((ic[todo] + d, np.less), (ic[todo] - d, np.less_equal)):
            inside = (col >= 0) & (col < cols)
            pix, col = todo[inside], col[inside]
            d2 = near_d2[ir[pix], col] + d * d
            better = wins(d2, best[pix])
            best[pix[better]] = d2[better]
            src[pix[better]] = col[better]
    index_r, index_c = np.indices(valid.shape)
    index_r[ir, ic] = near[ir, src]
    index_c[ir, ic] = src
    return index_r, index_c


def orientation_to_direction(fo: OrientationMap, min_coverage: float = 0.99):
    """Lift a mod-pi orientation map to a mod-2*pi direction map.

    D = unwrap(2*FO)/2 reduced mod 2*pi. Only the parity of each pixel's
    2*pi count in the unwrapped 2*FO matters: D is FO where the count
    relative to the anchor is even and FO + pi where it is odd, and an
    FO + pi that rounds to 2*pi or beyond (FO at or just below pi, as a
    float32 round trip can leave it) folds back by 2*pi. Invalid pixels are
    inpainted from their nearest valid pixel first (``_nearest_valid``);
    coverage below ``min_coverage``, or no valid pixel at all, fails loudly.
    Returns (direction, anchor) where ``anchor`` records the (row, col,
    angle) fixing which of the two global pi branches came out.
    """
    coverage = float(fo.valid.mean())
    if coverage < min_coverage:
        raise NumericalError(
            f"orientation coverage {coverage:.4f} below required {min_coverage}"
        )
    angles = fo.angles
    if not fo.valid.all():
        angles = angles[_nearest_valid(fo.valid)]
    direction = np.array(angles, dtype=np.float64)
    counts, anchor = _spanning_tree_unwrap(2.0 * direction)
    odd = (counts.astype(np.int64) & 1).astype(bool)
    np.add(direction, np.pi, out=direction, where=odd)
    np.subtract(direction, TAU, out=direction, where=direction >= TAU)
    return direction, {
        "row": anchor[0],
        "col": anchor[1],
        "direction": float(direction[anchor]),
    }
