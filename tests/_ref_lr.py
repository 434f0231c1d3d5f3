"""The Littlewood-Richardson tableau search that ``chowcalc.schur.lr_product``
replaced with a Schubert product by the dual Pieri rule, kept verbatim as the
oracle that tests/test_schur.py and tests/test_geometry.py compare the
library against.  ``Partition.contains`` and ``_partitions_of``, which it
used, are copied in as ``_contains`` and ``_partitions_of``."""
from __future__ import annotations

from chowcalc.schur import Partition, SchurDecomposition


def _contains(nu: Partition, other: Partition) -> bool:
    padded = nu.parts + (0,) * max(0, other.length - nu.length)
    return all(a >= b for a, b in zip(padded, other.parts))


def _lr_fillings(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Count LR skew tableaux of shape nu/lam and content mu.

    Cells are visited in reverse reading order (top to bottom, right to left
    within each row), so the lattice-word condition can be enforced at
    placement time by comparing running entry counts.
    """
    rows = nu.length
    lam_parts = lam.parts + (0,) * (rows - lam.length)
    shape = [(lam_parts[i], nu.parts[i]) for i in range(rows)]  # fill columns a..b-1

    cells = [(i, j) for i in range(rows) for j in range(shape[i][1] - 1, shape[i][0] - 1, -1)]
    counts = [0] * (mu.length + 2)  # counts[v] = number of entries v placed so far
    grid: dict[tuple[int, int], int] = {}

    def place_rl(cell_idx: int) -> int:
        if cell_idx == len(cells):
            return 1 if tuple(counts[1 : mu.length + 1]) == mu.parts else 0
        i, j = cells[cell_idx]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j))
        total = 0
        for v in range(1, mu.length + 1):
            if counts[v] >= mu.parts[v - 1]:
                continue
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            if above is not None and v <= above:
                continue  # columns strictly increase top to bottom
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word
            grid[(i, j)] = v
            counts[v] += 1
            total += place_rl(cell_idx + 1)
            counts[v] -= 1
            del grid[(i, j)]
        return total

    return place_rl(0)


def lr_product(lam: Partition, mu: Partition) -> SchurDecomposition:
    """Littlewood-Richardson expansion of s_lam * s_mu."""
    n = lam.size + mu.size
    max_len = lam.length + mu.length
    max_width = (lam.parts[0] if lam.parts else 0) + (mu.parts[0] if mu.parts else 0)
    out: dict[Partition, int] = {}
    for nu_parts in _partitions_of(n, max_len, max_width):
        nu = Partition(nu_parts)
        if not _contains(nu, lam):
            continue
        c = _lr_fillings(nu, lam, mu)
        if c:
            out[nu] = c
    return SchurDecomposition.from_dict(out)


def _partitions_of(n: int, max_len: int, max_part: int):
    def go(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if len(prefix) == max_len:
            return
        for p in range(min(largest, remaining), 0, -1):
            yield from go(remaining - p, p, prefix + (p,))

    yield from go(n, max_part, ())
