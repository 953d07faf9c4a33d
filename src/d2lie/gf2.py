"""Exact linear algebra over GF(2) with rows bit-packed into Python ints.

Bit i of a packed row is coordinate i.  All values are immutable;
operations return fresh objects, so concurrent use is safe.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bit_indices(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class GF2Vector:
    """Immutable vector over the two-element field."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vector length must be non-negative")
        self.n = n
        self.bits = bits & ((1 << n) - 1) if n else 0

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> GF2Vector:
        coords = list(coords)
        bits = 0
        for i, c in enumerate(coords):
            if c & 1:
                bits |= 1 << i
        return cls(len(coords), bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> GF2Vector:
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"support index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    def __add__(self, other: GF2Vector) -> GF2Vector:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return GF2Vector(self.n, self.bits ^ other.bits)

    def scale(self, k: int) -> GF2Vector:
        if k not in (0, 1):
            raise ValueError("scalars over GF(2) are 0 or 1")
        return self if k else GF2Vector(self.n, 0)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Vector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"GF2Vector({''.join(str(b) for b in self.coords())})"


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if (rows[k] >> c) & 1:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(nrows):
            if k != r and (rows[k] >> c) & 1:
                rows[k] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


class GF2Matrix:
    """Immutable matrix over GF(2); rows stored as packed ints."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        mask = (1 << ncols) - 1 if ncols else 0
        rows = tuple(r & mask for r in rows)
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, vectors: Iterable[GF2Vector]) -> GF2Matrix:
        vectors = list(vectors)
        if not vectors:
            raise ValueError("from_rows needs at least one row; use zeros()")
        n = vectors[0].n
        if any(v.n != n for v in vectors):
            raise ValueError("rows of differing lengths")
        return cls(len(vectors), n, (v.bits for v in vectors))

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        return cls(n, n, (1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> GF2Matrix:
        return cls(nrows, ncols, (0,) * nrows)

    def row(self, i: int) -> GF2Vector:
        return GF2Vector(self.ncols, self.rows[i])

    def mul_vector(self, v: GF2Vector) -> GF2Vector:
        if v.n != self.ncols:
            raise ValueError(f"dimension mismatch: {self.ncols} cols vs vector {v.n}")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return GF2Vector(self.nrows, bits)

    def transpose(self) -> GF2Matrix:
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            for c in bit_indices(r):
                cols[c] |= 1 << i
        return GF2Matrix(self.ncols, self.nrows, cols)

    def __matmul__(self, other: GF2Matrix) -> GF2Matrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        out = []
        for r in self.rows:
            acc = 0
            for j in bit_indices(r):
                acc ^= other.rows[j]
            out.append(acc)
        return GF2Matrix(self.nrows, other.ncols, out)

    def rank(self) -> int:
        _, pivots = _rref(list(self.rows), self.ncols)
        return len(pivots)

    def row_reduce(self) -> GF2Matrix:
        """RREF with zero rows dropped; canonical for row-space comparison."""
        rows, pivots = _rref(list(self.rows), self.ncols)
        return GF2Matrix(len(pivots), self.ncols, rows[: len(pivots)])

    def nullspace(self) -> GF2Matrix:
        """Basis of {v : Mv = 0}, one kernel vector per row."""
        rows, pivots = _rref(list(self.rows), self.ncols)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = 1 << f
            for r, c in enumerate(pivots):
                if (rows[r] >> f) & 1:
                    v |= 1 << c
            basis.append(v)
        return GF2Matrix(len(basis), self.ncols, basis)

    def solve(self, b: GF2Vector) -> GF2Vector | None:
        """One solution x of Mx = b (free coordinates 0), or None if none exists.

        A length mismatch between b and the row count is a usage error and
        raises; unsolvable systems return None.
        """
        if b.n != self.nrows:
            raise ValueError(f"dimension mismatch: {self.nrows} rows vs rhs {b.n}")
        aug = [r | (((b.bits >> i) & 1) << self.ncols) for i, r in enumerate(self.rows)]
        aug, pivots = _rref(aug, self.ncols)
        np = len(pivots)
        for r in range(np, self.nrows):
            if aug[r] >> self.ncols:
                return None
        x = 0
        for r, c in enumerate(pivots):
            if aug[r] >> self.ncols:
                x |= 1 << c
        return GF2Vector(self.ncols, x)

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


class PivotBasis:
    """Incremental independent set of packed rows, pivoted on lowest set bit.

    Used where the ambient coordinate space is discovered lazily and only
    rank / membership questions are asked.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def reduce(self, v: int) -> int:
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
