"""Walk the doubling pipeline from a bare square to a wide striped rectangle.

Starts with a square with holes, stretches it into towers, then prints each
stage with its verified line sums so the constant growth is visible.  A
stage that fails verification makes the script exit 1.
"""

import sys

from holeymagic import (
    MagicSpec,
    magic_square_holes,
    serialize,
    stacked,
    two_per_column,
    verify,
)

SIDE = 5          # square side, odd so every diagonal count works
DIAGONALS = 3     # filled cells per line in the seed square
COPIES = 3        # towers laid side by side; odd keeps SIDE*COPIES odd,
                  # which the odd-diagonal stacking needs


def show(title, grid, spec):
    report = verify(grid, spec)
    state = "ok" if report.ok else "BROKEN"
    print(f"--- {title}: {grid.rows}x{grid.cols}, "
          f"row sum {report.row_constant}, col sum {report.col_constant} [{state}]")
    print(serialize(grid), end="")
    return report.ok


def main():
    square = magic_square_holes(SIDE, DIAGONALS)
    ok = show(f"seed square, {DIAGONALS} per line",
              square, MagicSpec(SIDE, SIDE, DIAGONALS, DIAGONALS))
    print()

    plain = two_per_column(SIDE, COPIES)
    ok &= show(f"{COPIES} copies, two per column",
               plain, MagicSpec(SIDE, COPIES * SIDE, 2 * COPIES, 2))
    print()

    wide = stacked(SIDE, COPIES, DIAGONALS, square)
    ok &= show(f"{COPIES} towers from the seed",
               wide, MagicSpec(SIDE, COPIES * SIDE, COPIES * DIAGONALS, DIAGONALS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
