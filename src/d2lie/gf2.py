"""Exact linear algebra over GF(2) with rows bit-packed into Python ints.

Bit i of a packed row is coordinate i.  The library passes rows as ints
or tuples of ints; GF2Matrix, an immutable dense matrix, is only the
view of a weight block (cohomology.weight_block) that the benchmark's
probe ranks.

bit_indices is the one walk over the set bits of a packed int; the
rest of the library calls it rather than repeat its loop.

PivotBasis is the one elimination: every rank, canonical form, span
test and kernel reduces packed ints against it, and add is reduce plus
one insert of what is left, pivoted on its lowest set bit.

- Rank and canonical form eliminate the rows.  The RREF of a row space
  is unique, and the basis sorted by pivot and back-substituted is one,
  so the function row_reduce returns the RREF bit for bit, as a tuple
  of rows sorted by pivot.  A vector is in the span when it reduces to
  0 (the coboundary and torus-character tests).
- The kernel eliminates the columns, column j tagged with bit nrows + j,
  above every row bit.  A stored row with no row bit left names in its
  tag bits columns that sum to 0, and those rows are a kernel basis.
  It depends on the column order, so it is canonical only after
  row_reduce, as the centre takes it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bit_indices(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class PivotBasis:
    """Incremental independent set of packed rows, pivoted on lowest set bit.

    A stored row has no set bit below its pivot.  The ambient coordinate
    space may be discovered lazily: no length is fixed.
    """

    __slots__ = ("pivots",)

    def __init__(self, rows: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        """v minus stored rows until its lowest set bit is no pivot (0 if none is left)."""
        pivots = self.pivots
        while v:
            low = v & -v
            row = pivots.get(low)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v if independent of the current rows; True when inserted."""
        if v := self.reduce(v):
            self.pivots[v & -v] = v
        return bool(v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(rows: Iterable[int]) -> tuple[int, ...]:
    """The RREF of the span of rows, zero rows dropped, sorted by pivot; canonical for row-space comparison."""
    pivots = PivotBasis(rows).pivots
    mask = sum(pivots)  # the pivots are distinct powers of two
    reduced: dict[int, int] = {}
    # A row's other pivot bits lie above its own; rows reduced earlier
    # carry no pivot bit but their own, so one pass clears each.
    for low in sorted(pivots, reverse=True):
        v = pivots[low]
        for q in bit_indices((v & mask) ^ low):
            v ^= reduced[1 << q]
        reduced[low] = v
    return tuple(reversed(reduced.values()))


def column_kernel(cols: Sequence[int], nrows: int) -> list[int]:
    """A basis of the x with the sum of the columns j in x equal to 0, packed over the columns."""
    rows = PivotBasis(c | 1 << (nrows + j) for j, c in enumerate(cols)).pivots.values()
    return [v >> nrows for v in rows if not v & ((1 << nrows) - 1)]


class GF2Matrix:
    """Immutable dense matrix over GF(2), rows stored as packed ints: the weight-block view."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = tuple(rows)
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        if any(r < 0 or r >> ncols for r in rows):
            raise ValueError(f"a row has bits outside the {ncols} columns")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    def transpose(self) -> GF2Matrix:
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            for c in bit_indices(r):
                cols[c] |= 1 << i
        return GF2Matrix(self.ncols, self.nrows, cols)

    def rank(self) -> int:
        return PivotBasis(self.rows).rank
