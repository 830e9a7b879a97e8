"""Permutations in one-line notation and the split patterns 3|12 and 23|1.

A permutation w contains 3|12 with respect to a position r when some
positions i_1 <= r < i_2 < i_3 carry values w(i_2) < w(i_3) < w(i_1), and
contains 23|1 when some positions i_1 < i_2 <= r < i_3 carry values
w(i_3) < w(i_1) < w(i_2); ``contains_split`` transcribes this definition.
The permutations avoiding both with respect to r form the classes counted
in splitpat.counting; the same condition characterises when the projection
of the associated Schubert variety to the rank-r Grassmannian is a fiber
bundle.

Positions and values are 1-based in every public interface, a witness is
the tuple of its positions, and the empty permutation (n = 0) is valid.
"""

from __future__ import annotations

import reprlib
from itertools import combinations
from math import inf

__all__ = [
    "BadInputError",
    "Permutation",
    "parse_permutation",
    "format_permutation",
    "contains_split",
    "split_witnesses",
    "is_avoider",
    "remove_max",
    "rotate180",
]


class BadInputError(ValueError):
    """Raised when an argument or an input text is refused; the CLI maps
    exactly this error to exit 2.

    A refused argument value also carries ``argument``, the argument's name,
    which its message starts with, so a front end can name the argument in
    its own terms; for any other refusal it is None.
    """

    def __init__(self, message: str, argument: str | None = None) -> None:
        super().__init__(message)
        self.argument = argument


class _Record:
    """Base of the immutable value types.  A subclass names its fields in
    ``__slots__`` and sets them once, through ``_Record.__init__``; equality,
    hashing, the repr, copy and pickle go by the fields."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __reduce__(self) -> tuple:  # __setattr__ refuses the default slot restore
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Permutation(_Record):
    """A permutation of {1, ..., n} in one-line notation w(1) ... w(n).

    Construction validates that ``values`` is a rearrangement of 1..n and
    rejects duplicates, zeros, negatives, out-of-range entries and values
    that are not plain ints (floats and bools compare equal to ints).

    >>> Permutation((3, 1, 2)).w(1)
    3
    >>> Permutation(())
    Permutation(values=())
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        if not {*map(type, values)} <= {int} or sorted(values) != list(range(1, len(values) + 1)):
            # reprlib keeps the message short for inputs of any size.
            raise BadInputError(
                f"not a rearrangement of 1..{len(values)}: {reprlib.repr(values)}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def w(self, k: int) -> int:
        """Value at the 1-indexed position k (defined for 1 <= k <= n)."""
        if not 1 <= k <= len(self.values):
            raise IndexError(f"position {k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def __str__(self) -> str:
        return format_permutation(self)


def parse_permutation(text: str) -> Permutation:
    """Parse compact ("315642") or comma-separated ("3,1,5,6,4,2") notation.

    The compact form carries one digit per value and therefore only exists
    for n <= 9; the comma-separated form works for any size, with optional
    whitespace around each field.  Only ASCII digits are accepted.  The
    empty string parses to the empty permutation.
    """
    text = text.strip()
    if not text:
        return Permutation(())
    # int() and str.isdigit also accept non-ASCII digits, int() also signs
    # and underscores, so each field must be ASCII digits before conversion.
    fields = [part.strip() for part in text.split(",")] if "," in text else list(text)
    if not all(field.isascii() and field.isdigit() for field in fields):
        raise BadInputError(f"bad permutation text: {reprlib.repr(text)}")
    try:
        values = tuple(map(int, fields))
    except ValueError:  # a field past CPython's digit cap for int()
        raise BadInputError(f"bad permutation text: {reprlib.repr(text)}") from None
    return Permutation(values)


def format_permutation(w: Permutation) -> str:
    """Compact digit string for n <= 9, comma-separated list otherwise."""
    return _format_values(w.values)


def _format_values(vals: tuple[int, ...]) -> str:
    """``format_permutation`` on a raw tuple."""
    return ("" if len(vals) <= 9 else ",").join(map(str, vals))


def _check_int(name: str, value: int, lo: int, hi: int) -> None:
    # Floats and bools compare equal to ints, so the type itself is tested.
    if type(value) is not int or not lo <= value <= hi:
        allowed = f">= {lo}" if hi == inf else f"in {lo}..{hi}"
        raise BadInputError(f"{name} must be an int {allowed}, got {value!r}", name)


# 3|12 and 23|1, each as (values, split): the pattern permutation and how
# many of its positions lie at or before r.
_PATTERNS = (((3, 1, 2), 1), ((2, 3, 1), 2))


def contains_split(
    w: Permutation, r: int
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """The 3|12 and 23|1 witnesses of w with respect to r, by the definition.

    Each entry is the lexicographically smallest tuple of positions that
    carries the pattern as the module docstring defines it, or None when w
    avoids that pattern.  This subset scan is the reference that the linear
    scans ``split_witnesses`` and ``_avoids`` are tested against.

    >>> contains_split(Permutation((3, 1, 5, 6, 4, 2)), 3)
    (None, (1, 3, 6))
    """
    _check_int("r", r, 0, w.n)
    return tuple(_first_occurrence(w.values, u, j, r) for u, j in _PATTERNS)


def _first_occurrence(vals: tuple[int, ...], u: tuple[int, ...], j: int, r: int) -> tuple[int, ...] | None:
    for left in combinations(range(r), j):
        for right in combinations(range(r, len(vals)), 3 - j):
            chosen = left + right
            if all((u[a] < u[b]) == (vals[chosen[a]] < vals[chosen[b]]) for a, b in combinations(range(3), 2)):
                return tuple(p + 1 for p in chosen)
    return None


def split_witnesses(
    w: Permutation, r: int
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """The 3|12 and 23|1 witnesses of w with respect to r, in O(n).

    Equal to ``contains_split(w, r)``, the definition: each entry is the
    lexicographically smallest position tuple, or None.  Tested against it
    exhaustively for small n and by a property test beyond.

    >>> split_witnesses(parse_permutation("315642"), 3)
    (None, (1, 3, 6))
    """
    _check_int("r", r, 0, w.n)
    return _witness_3_12(w.values, r), _witness_23_1(w.values, r)


def _witness_3_12(vals: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    n = len(vals)
    # t: the least right-block value that ends an ascent inside the right
    # block.  A left value starts a 3|12 exactly when it exceeds t.
    t = low = n + 1
    for v in vals[r:]:
        if v > low:
            t = min(t, v)
        else:
            low = v
    i1 = next((p for p in range(r) if vals[p] > t), None)
    if i1 is None:
        return None
    top = vals[i1]
    # i2: the first right position below top with a later value between it
    # and top; scanning backward, ``best`` is the largest later value below
    # top.  The ascent ending at t qualifies, so i2 is always found.
    best = 0
    for p in range(n - 1, r - 1, -1):
        v = vals[p]
        if v < top:
            if v < best:
                i2 = p
            else:
                best = v
    low = vals[i2]
    i3 = next(q for q in range(i2 + 1, n) if low < vals[q] < top)
    return i1 + 1, i2 + 1, i3 + 1


def _witness_23_1(vals: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    n = len(vals)
    if r == n:
        return None
    bottom = min(vals[r:])
    # i1: the first left position above bottom with a larger value later in
    # the left block; scanning backward, ``high`` is that suffix maximum.
    i1 = None
    high = 0
    for p in range(r - 1, -1, -1):
        v = vals[p]
        if v > high:
            high = v
        elif v > bottom:
            i1 = p
    if i1 is None:
        return None
    mid = vals[i1]
    i2 = next(q for q in range(i1 + 1, r) if vals[q] > mid)
    i3 = next(q for q in range(r, n) if vals[q] < mid)
    return i1 + 1, i2 + 1, i3 + 1


def _avoids(vals: tuple[int, ...], r: int) -> bool:
    """Raw-tuple avoidance test behind ``is_avoider`` and the full S_n sweep
    of ``verify.structure_checks``.

    w contains 3|12 at r iff two right-block values below max(left block)
    ascend, and contains 23|1 at r iff two left-block values above
    min(right block) ascend.  So w avoids both iff each of those two
    subsequences is decreasing, which one pass over each block decides.
    Must equal the definition, ``contains_split(w, r) == (None, None)``;
    tested exhaustively for small n and by a property test beyond.
    """
    n = len(vals)
    if not 0 < r < n:
        return True
    left, right = vals[:r], vals[r:]
    top = last = max(left)
    for v in right:
        if v < top:
            if v > last:
                return False
            last = v
    bottom = min(right)
    last = n + 1
    for v in left:
        if v > bottom:
            if v > last:
                return False
            last = v
    return True


def is_avoider(w: Permutation, r: int) -> bool:
    """True iff w avoids both 3|12 and 23|1 with respect to position r.

    Avoidance at r = 0 and r = n is universal: the split constraint leaves
    no room for the block on the short side of the divider.
    """
    _check_int("r", r, 0, w.n)
    return _avoids(w.values, r)


def remove_max(w: Permutation) -> Permutation:
    """Delete the maximal value n from the one-line notation.

    >>> str(remove_max(parse_permutation("432615")))
    '43215'
    """
    if not w.values:
        raise ValueError("cannot remove from the empty permutation")
    return Permutation(_remove_max(w.values))


def _remove_max(vals: tuple[int, ...]) -> tuple[int, ...]:
    """``remove_max`` on the raw tuple of a nonempty permutation."""
    i = vals.index(len(vals))
    return vals[:i] + vals[i + 1 :]


def rotate180(w: Permutation) -> Permutation:
    """Rotate the permutation matrix by 180 degrees.

    The result satisfies result(k) = n+1-w(n+1-k); the operation is an
    involution and maps the avoidance class at position r bijectively onto
    the one at position n-r.

    >>> str(rotate180(parse_permutation("315642")))
    '531264'
    """
    return Permutation(_rotate180(w.values))


def _rotate180(vals: tuple[int, ...]) -> tuple[int, ...]:
    """``rotate180`` on a raw tuple."""
    top = len(vals) + 1
    return tuple(top - v for v in reversed(vals))
