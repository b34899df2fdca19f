"""Stock an ingredient cache once, then rebuild rectangles from it.

The composite constructors want searched ingredients (squares with holes,
classical rectangles, rectangle sets).  Searching is the slow part, so the
high-level builder takes a cache file; the second pass below should come
back near-instant with byte-identical output.  A search that runs out of
budget is not stored, but the cache object remembers it: asking again
fails at once instead of searching again.  An odd coprime rectangle with
both sides at least 7 and prime to 15 has no construction and is refused
unsearched.
"""

import tempfile
import time
from pathlib import Path

from holeymagic import (IngredientCache, MagicSpec, SearchBudgetExceeded, realize,
                        serialize, verify)

SHAPES = [
    (7, 21, 9, 3),     # towers over a searched 7x7 square
    (15, 25, 15, 9),   # product of a square and a 3x5 rectangle, no search
    (8, 12, 6, 4),     # the five-case splice, its big square lifted from its strip
    (5, 10, 4, 2),     # pure construction, no search involved
]
BUDGET = 20_000_000
# towers over MS(7;4), whose search needs more than SHORT_BUDGET nodes,
# asked twice; then classical MR(7,11), which no search is run for
DRY_SHAPES = [(7, 21, 12, 4), (7, 21, 12, 4), (7, 11, 11, 7)]
SHORT_BUDGET = 20_000


def build_all(cache):
    outputs = {}
    for shape in SHAPES:
        start = time.perf_counter()
        grid = realize(*shape, cache=cache, budget=BUDGET)
        elapsed = time.perf_counter() - start
        report = verify(grid, MagicSpec(*shape))
        assert report.ok
        print(f"  {shape}: {elapsed * 1000:8.1f} ms, "
              f"sums {report.row_constant}/{report.col_constant}")
        outputs[shape] = serialize(grid)
    return outputs


def main():
    with tempfile.TemporaryDirectory() as tmp:
        pantry = Path(tmp) / "pantry.mrx"
        cache = IngredientCache(pantry)

        print("cold pass (searches run, results stored):")
        first = build_all(cache)

        print("warm pass (everything from the pantry):")
        second = build_all(cache)

        identical = all(first[s] == second[s] for s in SHAPES)
        size = pantry.stat().st_size
        print(f"pantry file: {size} bytes, outputs identical: {identical}")

        print(f"failures at {SHORT_BUDGET} nodes (searched once, then remembered; "
              "MR(7,11) never searched):")
        for shape in DRY_SHAPES:
            start = time.perf_counter()
            try:
                realize(*shape, cache=cache, budget=SHORT_BUDGET)
            except SearchBudgetExceeded as exc:
                elapsed = time.perf_counter() - start
                print(f"  {shape}: {elapsed * 1000:8.3f} ms, {exc}")
        print(f"pantry file: {pantry.stat().st_size} bytes (failures are not stored)")


if __name__ == "__main__":
    main()
