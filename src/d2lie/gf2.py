"""Exact linear algebra over GF(2) with rows bit-packed into Python ints.

Bit i of a packed row is coordinate i.  Matrices are immutable.

PivotBasis is the one elimination: every rank, canonical form, span
test, kernel and solve reduces packed ints against it, and each result
equals the one a reduced row echelon form (RREF) gives, bit for bit.

- Rank and canonical form eliminate the rows.  The RREF of a row space
  is unique, and the basis sorted by pivot and back-substituted is one.
  A vector is in the span when it reduces to 0 (the coboundary test).
- Kernel and solve eliminate the columns in order, column j tagged with
  bit nrows + j, above every row bit.  A column that reduces to a pure
  tag is e_f plus the earlier independent columns summing to column f;
  reducing b leaves in the tag bits a solution supported on the columns
  independent of those before them.  Both vectors are unique, so they
  are the RREF kernel basis and the RREF solution with free coordinates
  0.  The kernel serves the centre, the solve only the torus functionals.
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
        pivots = self.pivots
        while v:
            low = v & -v
            row = pivots.get(low)
            if row is None:
                pivots[low] = v
                return True
            v ^= row
        return False

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def eliminate_columns(cols: Sequence[int], nrows: int) -> tuple[PivotBasis, list[int]]:
    """Eliminate the columns in order, column j tagged with bit nrows + j.

    Returns the basis of the independent columns, each carrying the
    columns it sums in its tag bits, and one kernel vector per dependent
    column f: e_f plus the earlier independent columns that sum to it.
    """
    mask = (1 << nrows) - 1
    basis = PivotBasis()
    kernel = []
    for j, c in enumerate(cols):
        v = basis.reduce(c | 1 << (nrows + j))
        if v & mask:
            basis.add(v)
        else:
            kernel.append(v >> nrows)
    return basis, kernel


def solve_columns(cols: Sequence[int], nrows: int, b: int) -> int | None:
    """x with the sum of the columns j in x equal to b, or None if b is outside their span.

    x is supported on the columns independent of those before them.  A b
    with bits at or above nrows has the wrong length, and raises.
    """
    if b < 0 or b >> nrows:
        raise ValueError(f"right-hand side has bits outside the {nrows} rows")
    basis, _ = eliminate_columns(cols, nrows)
    v = basis.reduce(b)
    return None if v & ((1 << nrows) - 1) else v >> nrows


class GF2Matrix:
    """Immutable matrix over GF(2); rows stored as packed ints."""

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

    def row_reduce(self) -> GF2Matrix:
        """RREF with zero rows dropped; canonical for row-space comparison."""
        pivots = PivotBasis(self.rows).pivots
        mask = sum(pivots)  # the pivots are distinct powers of two
        reduced: dict[int, int] = {}
        # A row's other pivot bits lie above its own; rows reduced earlier
        # carry no pivot bit but their own, so one pass clears each.
        for low in sorted(pivots, reverse=True):
            v = pivots[low]
            for q in bit_indices((v & mask) ^ low):
                v ^= reduced[1 << q]
            reduced[low] = v
        return GF2Matrix(len(reduced), self.ncols, [reduced[p] for p in sorted(reduced)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"
