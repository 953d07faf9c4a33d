"""Exact linear algebra over GF(2) with rows bit-packed into Python ints.

Bit i of a packed row is coordinate i.  The library passes rows as ints
or tuples of ints; GF2Matrix, an immutable dense matrix, is only the
view of a weight block (cohomology.weight_block) that the benchmark's
probe ranks.

bit_indices is the one walk over the set bits of a packed int; the
rest of the library calls it rather than repeat its loop.

PivotBasis is the one elimination: every rank, canonical form, span
test and kernel reduces packed ints against it, and add is reduce plus
one insert of what is left, pivoted on its top set bit.  A pivot is
keyed by v.bit_length(), a small int read off the int's size in O(1);
the lowest set bit, v & -v, builds two ints as wide as the row.

- Rank and span test eliminate the rows.  A vector is in the span when
  it reduces to 0 (the coboundary and torus-character tests).
- The RREF of a row space is unique.  The reports print, and
  find_graded_isomorphism reads, the one pivoted on lowest bits, so
  row_reduce re-pivots the few basis rows on their lowest set bits and
  returns it bit for bit, as a tuple of rows sorted by pivot.
- The kernel eliminates the columns, column j shifted above len(cols)
  tag bits and tagged with bit j.  A stored row whose top bit is a tag
  has no column bit left: its tags name columns that sum to 0, and
  those rows are a kernel basis.  It depends on the column order, so it
  is canonical only after row_reduce, as the centre takes it.
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
    """Incremental independent set of packed rows, pivoted on the top set bit.

    pivots maps a stored row's bit_length() to the row: no other stored
    row has that top bit.  The ambient coordinate space may be discovered
    lazily: no length is fixed.
    """

    __slots__ = ("pivots",)

    def __init__(self, rows: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        """v minus stored rows until its top set bit is no pivot (0 if none is left)."""
        pivots = self.pivots
        while v:
            row = pivots.get(v.bit_length())
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v if independent of the current rows; True when inserted."""
        if v := self.reduce(v):
            self.pivots[v.bit_length()] = v
        return bool(v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(rows: Iterable[int]) -> tuple[int, ...]:
    """The RREF of the span of rows, pivoted on lowest bits, zero rows dropped, sorted by pivot; canonical."""
    reduced: dict[int, int] = {}
    for v in PivotBasis(rows).pivots.values():
        for low, r in reduced.items():
            if v & low:
                v ^= r
        low = v & -v
        reduced = {p: r ^ v if r & low else r for p, r in reduced.items()}
        reduced[low] = v
    return tuple(reduced[p] for p in sorted(reduced))


def column_kernel(cols: Sequence[int]) -> list[int]:
    """A basis of the x with the sum of the columns j in x equal to 0, packed over the columns.

    Column j sits above len(cols) tag bits, tagged with bit j; the stored rows pivoted on a tag span the kernel."""
    pivots = PivotBasis(c << len(cols) | 1 << j for j, c in enumerate(cols)).pivots
    return [v for p, v in pivots.items() if p <= len(cols)]


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
