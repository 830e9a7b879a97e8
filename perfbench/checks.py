"""Output checkers that share no code path with the library.

Every expected value is rebuilt here from first principles: counts from the
integer excess recurrence, avoidance from the decreasing-run
characterisation, witnesses from the pattern definition.  A checker returns
None for an accepted output and a one-line reason otherwise.
"""

from __future__ import annotations

import json

# The published count table: (r, n) -> count for n <= 9, r <= 4.
PUBLISHED = {
    (0, 1): 1, (0, 2): 2, (0, 3): 6, (0, 4): 24, (0, 5): 120, (0, 6): 720,
    (0, 7): 5040, (0, 8): 40320, (0, 9): 362880,
    (1, 1): 1, (1, 2): 2, (1, 3): 5, (1, 4): 16, (1, 5): 65, (1, 6): 326,
    (1, 7): 1957, (1, 8): 13700, (1, 9): 109601,
    (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 47, (2, 6): 194, (2, 7): 977,
    (2, 8): 5870, (2, 9): 41099,
    (3, 3): 6, (3, 4): 16, (3, 5): 47, (3, 6): 162, (3, 7): 676, (3, 8): 3416,
    (3, 9): 20541,
    (4, 4): 24, (4, 5): 65, (4, 6): 194, (4, 7): 676, (4, 8): 2836, (4, 9): 14359,
}

# Number of checks each verify target prints; oracle prints one per n <= n_max.
SUITE_CHECKS = {"fibers": 5, "symmetry": 3, "recursion": 1, "bessel": 2, "main2": 5}

PATTERN_3_12 = ((3, 1, 2), 1)
PATTERN_23_1 = ((2, 3, 1), 2)


def contains_3_12(w: list[int], r: int) -> bool:
    """w contains 3|12 at r iff the right-block values below max(left) ascend somewhere."""
    if r == 0 or r == len(w):
        return False
    top = max(w[:r])
    below = [v for v in w[r:] if v < top]
    return any(a < b for a, b in zip(below, below[1:]))


def contains_23_1(w: list[int], r: int) -> bool:
    """w contains 23|1 at r iff the left-block values above min(right) ascend somewhere."""
    if r == 0 or r == len(w):
        return False
    bottom = min(w[r:])
    above = [v for v in w[:r] if v > bottom]
    return any(a < b for a, b in zip(above, above[1:]))


def expected_counts(cells) -> dict[tuple[int, int], int]:
    """Avoider counts for the (r, n) cells, from the integer recurrence

        K(r,s) = s K(r,s-1) + r K(r-1,s) - r s K(r-1,s-1) + C(r+s-2, r-1)

    with K(r,0) = r!, K(0,s) = s! and s = n - r.  The binomial P(r,s) =
    C(r+s-2, r-1) follows Pascal's rule on the same grid.  One sweep over
    the rectangle covering every cell; only two rows are kept.
    """
    want = {(r, n - r) for r, n in cells}
    if not want:
        return {}
    rows, cols = max(r for r, _ in want), max(s for _, s in want)
    fact = [1]
    for i in range(1, max(rows, cols) + 1):
        fact.append(fact[-1] * i)
    out = {}
    prev_k, prev_p = fact[: cols + 1], [0] * (cols + 1)
    for r in range(rows + 1):
        if r == 0:
            k = prev_k
        else:
            k, p = [fact[r]] + [0] * cols, [0] * (cols + 1)
            for s in range(1, cols + 1):
                p[s] = 1 if r == 1 or s == 1 else prev_p[s] + p[s - 1]
                k[s] = s * k[s - 1] + r * prev_k[s] - r * s * prev_k[s - 1] + p[s]
            prev_k, prev_p = k, p
        for s in range(cols + 1):
            if (r, s) in want:
                out[(r, r + s)] = k[s]
    return out


def table_cells(n_max: int) -> list[tuple[int, int]]:
    """The (r, n) cells ``table --n-max`` prints, in its (n, r) order."""
    return [(r, n) for n in range(1, n_max + 1) for r in range(n + 1)]


def valid_witness(w: list[int], r: int, pattern, idx) -> bool:
    """Whether the 1-based positions idx realise the split pattern in w at r."""
    values, split = pattern
    if not isinstance(idx, list) or len(idx) != len(values):
        return False
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in idx):
        return False
    if not (1 <= idx[0] and all(a < b for a, b in zip(idx, idx[1:])) and idx[-1] <= len(w)):
        return False
    if any(i > r for i in idx[:split]) or any(i <= r for i in idx[split:]):
        return False
    got = [w[i - 1] for i in idx]
    return all(
        (got[a] < got[b]) == (values[a] < values[b])
        for a in range(len(idx))
        for b in range(a + 1, len(idx))
    )


class Checker:
    """Checks the outputs of one command script.

    Expected counts for the whole script are computed once, up front, so
    repeating the script costs nothing extra.
    """

    def __init__(self, commands) -> None:
        cells = set()
        for cmd in commands:
            if cmd.kind in ("count", "enumerate"):
                cells.add((cmd.params["r"], cmd.params["n"]))
            elif cmd.kind in ("table_csv", "table_json"):
                cells.update(table_cells(cmd.params["n_max"]))
        self.counts = expected_counts(cells)

    def check(self, cmd, rc: int, out: str) -> str | None:
        """None if the output of ``cmd`` is right, else the reason it is not."""
        return getattr(self, "_" + cmd.kind)(cmd.params, rc, out)

    def _rows(self, n_max: int) -> list[tuple[int, int, int]]:
        return [(r, n, self.counts[(r, n)]) for r, n in table_cells(n_max)]

    def _compare_rows(self, n_max: int, got: list[tuple[int, int, int]]) -> str | None:
        for r, n, k in got:
            if (r, n) in PUBLISHED and PUBLISHED[(r, n)] != k:
                return f"cell ({r},{n}) = {k} differs from the published {PUBLISHED[(r, n)]}"
        want = self._rows(n_max)
        if len(got) != len(want):
            return f"{len(got)} rows, expected {len(want)}"
        for g, e in zip(got, want):
            if g != e:
                return f"row {g[:2]} reads {g[2]}, recurrence gives {e[:2]} = {e[2]}"
        return None

    def _table_csv(self, p: dict, rc: int, out: str) -> str | None:
        lines = out.splitlines()
        if rc != 0 or not lines or lines[0] != "r,n,k":
            return f"exit {rc} or missing header"
        try:
            got = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        except ValueError:
            return "non-integer CSV field"
        if any(len(row) != 3 for row in got):
            return "CSV row without three fields"
        return self._compare_rows(p["n_max"], got)

    def _table_json(self, p: dict, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        try:
            got = [(row["r"], row["n"], int(row["k"])) for row in json.loads(out)]
        except (ValueError, KeyError, TypeError):
            return "malformed table JSON"
        return self._compare_rows(p["n_max"], got)

    def _count(self, p: dict, rc: int, out: str) -> str | None:
        want = self.counts[(p["r"], p["n"])]
        if rc != 0 or out != f"{want}\n":
            return f"exit {rc}, printed {out.strip()[:40]!r}, recurrence gives {want}"
        return None

    def _verify(self, p: dict, rc: int, out: str) -> str | None:
        lines = out.splitlines()
        target = p["target"]
        if target == "oracle":
            n = p["n_max"] + 1
        elif target == "all":
            n = p["n_max"] + 1 + sum(SUITE_CHECKS.values())
        else:
            n = SUITE_CHECKS[target]
        if rc != 0 or not lines or lines[-1] != f"summary: {n}/{n} checks passed":
            return f"exit {rc}, last line {lines[-1] if lines else ''!r}, expected {n}/{n}"
        if len(lines) != n + 1 or not all(line.startswith("PASS ") for line in lines[:-1]):
            return "check lines do not all read PASS"
        return None

    def _enumerate(self, p: dict, rc: int, out: str) -> str | None:
        r, n = p["r"], p["n"]
        lines = out.splitlines()
        if rc != 0 or len(lines) != self.counts[(r, n)]:
            return f"exit {rc}, {len(lines)} lines, expected {self.counts[(r, n)]}"
        digits = "".join(str(v) for v in range(1, n + 1))
        for prev, line in zip([""] + lines, lines):
            if "".join(sorted(line)) != digits:
                return f"{line!r} is not a permutation of 1..{n}"
            if line <= prev:
                return f"{line!r} breaks strict lexicographic order"
            w = [int(ch) for ch in line]
            if contains_3_12(w, r) or contains_23_1(w, r):
                return f"{line!r} does not avoid at r={r}"
        return None

    def _check(self, p: dict, rc: int, out: str) -> str | None:
        w, r = p["perm"], p["r"]
        c312, c231 = p["contains"]
        avoids = not (c312 or c231)
        try:
            got = json.loads(out)
        except ValueError:
            return "malformed check JSON"
        if rc != (0 if avoids else 1) or got.get("avoids") is not avoids or got.get("fiber_bundle") is not avoids:
            return f"verdict exit {rc} avoids={got.get('avoids')}, expected avoids={avoids}"
        for key, pattern, present in (("witness_3_12", PATTERN_3_12, c312), ("witness_23_1", PATTERN_23_1, c231)):
            idx = got.get(key)
            if (idx is not None) != present:
                return f"{key} is {idx}, pattern {'present' if present else 'absent'}"
            if present and not valid_witness(w, r, pattern, idx):
                return f"{key} {idx} is not an occurrence at r={r}"
        return None

    def _help(self, p: dict, rc: int, out: str) -> str | None:
        return None if rc == 0 and out.startswith("usage: splitpat") else f"exit {rc}"
