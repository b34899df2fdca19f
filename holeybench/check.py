"""Independent correctness checker for benchmark outputs.

Shares no code with holeymagic: its own MRX reader, its own magic-axiom
check in doubled integer sums, its own Kotzig and magic-set checks.  Every
check raises WrongOutput on the first defect, so a wrong answer can never
be timed as a fast one.
"""

from __future__ import annotations


class WrongOutput(Exception):
    """An output of the program failed an independent check."""


def read_blocks(text: str) -> list:
    """Split MRX text into grids (lists of rows, None for '.').

    Accepts one or more concatenated blocks, each "<rows> <cols>" followed
    by that many rows of exactly <cols> tokens; every line ends in '\\n'.
    """
    if not text.endswith("\n"):
        raise WrongOutput("MRX text lacks its trailing newline")
    lines = text[:-1].split("\n")
    grids = []
    pos = 0
    while pos < len(lines):
        head = lines[pos].split(" ")
        if len(head) != 2 or not all(t.isascii() and t.isdigit() for t in head):
            raise WrongOutput(f"bad MRX header {lines[pos][:40]!r}")
        rows, cols = int(head[0]), int(head[1])
        if rows < 1 or cols < 1 or pos + rows > len(lines) - 1:
            raise WrongOutput(f"MRX block of {rows} rows is truncated")
        grid = []
        for line in lines[pos + 1:pos + 1 + rows]:
            toks = line.split(" ")
            if len(toks) != cols:
                raise WrongOutput(f"MRX row has {len(toks)} tokens, expected {cols}")
            row = []
            for t in toks:
                if t == ".":
                    row.append(None)
                elif t.isascii() and t.isdigit() and (t == "0" or t[0] != "0"):
                    row.append(int(t))
                else:
                    raise WrongOutput(f"bad MRX token {t[:20]!r}")
            grid.append(row)
        grids.append(grid)
        pos += rows + 1
    if not grids:
        raise WrongOutput("no MRX block")
    return grids


def read_one(text: str) -> list:
    grids = read_blocks(text)
    if len(grids) != 1:
        raise WrongOutput(f"expected one MRX block, got {len(grids)}")
    return grids[0]


def magic(grid, m: int, n: int, r: int, s: int) -> None:
    """MR(m,n;r,s): r filled per row, s per column, values exactly
    0..mr-1, rows summing to r(mr-1)/2 and columns to s(mr-1)/2."""
    if len(grid) != m or any(len(row) != n for row in grid):
        raise WrongOutput(f"grid is not {m}x{n}")
    total = m * r
    seen = []
    for i, row in enumerate(grid):
        vals = [v for v in row if v is not None]
        if len(vals) != r:
            raise WrongOutput(f"row {i} holds {len(vals)} values, expected {r}")
        if 2 * sum(vals) != r * (total - 1):
            raise WrongOutput(f"row {i} sum breaks the row constant")
        seen.extend(vals)
    for j in range(n):
        vals = [row[j] for row in grid if row[j] is not None]
        if len(vals) != s:
            raise WrongOutput(f"column {j} holds {len(vals)} values, expected {s}")
        if 2 * sum(vals) != s * (total - 1):
            raise WrongOutput(f"column {j} sum breaks the column constant")
    if sorted(seen) != list(range(total)):
        raise WrongOutput(f"values are not exactly 0..{total - 1}")


def grid_rows(holey_grid) -> list:
    """Rows of a library grid object as plain lists (reads only .cells)."""
    return [list(row) for row in holey_grid.cells]


def s_diagonal(grid, m: int, s: int) -> None:
    """MS(m;s) whose filled cells lie on s cyclically consecutive broken
    diagonals."""
    magic(grid, m, m, s, s)
    diags = {(j - i) % m for i in range(m) for j in range(m) if grid[i][j] is not None}
    starts = [d for d in diags if (d - 1) % m not in diags]
    if len(diags) != s or (s < m and len(starts) != 1):
        raise WrongOutput(f"MS({m};{s}) support {sorted(diags)} is not {s} consecutive diagonals")


def square_set(grids, m: int, s: int, t: int) -> None:
    """t holey m x m squares jointly holding 0..mst-1, every row and column
    of every square holding s values summing to s(mst-1)/2."""
    if len(grids) != t:
        raise WrongOutput(f"expected {t} squares, got {len(grids)}")
    total = m * s * t
    seen = []
    for g in grids:
        if len(g) != m or any(len(row) != m for row in g):
            raise WrongOutput(f"set member is not {m}x{m}")
        lines = [list(row) for row in g] + [[row[j] for row in g] for j in range(m)]
        for line in lines:
            vals = [v for v in line if v is not None]
            if len(vals) != s or 2 * sum(vals) != s * (total - 1):
                raise WrongOutput("set member breaks a line constant")
        seen.extend(v for row in g for v in row if v is not None)
    if sorted(seen) != list(range(total)):
        raise WrongOutput(f"set values are not exactly 0..{total - 1}")


def rectangle_set(grids, a: int, b: int, c: int) -> None:
    """MRS(a,b;c): c full a x b rectangles jointly holding 0..abc-1 with
    row sums b(abc-1)/2 and column sums a(abc-1)/2."""
    if len(grids) != c:
        raise WrongOutput(f"expected {c} rectangles, got {len(grids)}")
    total = a * b * c
    seen = []
    for g in grids:
        if len(g) != a or any(len(row) != b for row in g):
            raise WrongOutput(f"set member is not {a}x{b}")
        for row in g:
            if None in row or 2 * sum(row) != b * (total - 1):
                raise WrongOutput("set member breaks a row constant")
        for j in range(b):
            if 2 * sum(row[j] for row in g) != a * (total - 1):
                raise WrongOutput("set member breaks a column constant")
        seen.extend(v for row in g for v in row)
    if sorted(seen) != list(range(total)):
        raise WrongOutput(f"set values are not exactly 0..{total - 1}")


def verify_line(text: str, m: int, n: int, r: int, s: int) -> None:
    """The one line `verify` prints for a good MR(m,n;r,s) grid."""
    total = m * r
    want = f"OK row={r * (total - 1) // 2} col={s * (total - 1) // 2}\n"
    if text != want:
        raise WrongOutput(f"verify printed {text[:60]!r}, expected {want!r}")


def kotzig_rows(text: str, s: int, k: int) -> None:
    """s rows, each a permutation of 0..k-1, all columns summing to
    (k-1)s/2."""
    try:
        rows = [[int(t) for t in line.split(" ")] for line in text.splitlines()]
    except ValueError as exc:
        raise WrongOutput(f"Kotzig output is not rows of integers: {exc}") from exc
    if len(rows) != s:
        raise WrongOutput(f"Kotzig array has {len(rows)} rows, expected {s}")
    for row in rows:
        if sorted(row) != list(range(k)):
            raise WrongOutput("Kotzig row is not a permutation")
    for j in range(k):
        if 2 * sum(row[j] for row in rows) != (k - 1) * s:
            raise WrongOutput("Kotzig column sum is wrong")


def integral(m: int, n: int, r: int, s: int) -> bool:
    """Both line constants r(mr-1)/2 and s(mr-1)/2 are integers."""
    total = m * r
    return (r * (total - 1)) % 2 == 0 and (s * (total - 1)) % 2 == 0


def is_well_shaped(m: int, n: int, r: int, s: int) -> bool:
    return m * r == n * s and 1 <= r <= n and 1 <= s <= m


def decide_line(text: str, code: int, shape) -> None:
    """A `decide` answer: its format, its exit code, and agreement with the
    two screens every proof rests on (shape and integrality)."""
    words = text.split()
    if not text.endswith("\n") or text.count("\n") != 1 or not words:
        raise WrongOutput(f"decide printed {text[:60]!r}")
    verdict = words[0]
    if verdict not in ("EXISTS", "NOT-EXISTS", "UNKNOWN"):
        raise WrongOutput(f"decide printed unknown verdict {verdict!r}")
    if code != (1 if verdict == "NOT-EXISTS" else 0):
        raise WrongOutput(f"decide {verdict} exited {code}")
    if verdict == "EXISTS" and not (is_well_shaped(*shape) and integral(*shape)):
        raise WrongOutput(f"decide claims EXISTS for impossible {shape}")
    if verdict != "NOT-EXISTS" and not is_well_shaped(*shape):
        raise WrongOutput(f"decide did not reject malformed {shape}")


def oracle_answer(shape, verdict: str, count: int, exhausted: bool, witnesses) -> None:
    """Witnesses must be genuine, and the brute-force answer may not
    contradict the decision procedure in either direction."""
    for w in witnesses:
        magic(grid_rows(w), *shape)
    if count > 0 and not witnesses:
        raise WrongOutput(f"oracle counted {count} grids for {shape} but kept none")
    if verdict == "not-exists" and count > 0:
        raise WrongOutput(f"oracle found a witness for not-exists {shape}")
    if verdict == "exists" and exhausted and count == 0:
        raise WrongOutput(f"oracle exhausted {shape} empty, but decide says exists")
