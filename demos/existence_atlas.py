"""Chart which hole patterns admit a magic filling.

Sweeps every well-shaped (m, n, r, s) up to a cell-count bound, asks the
decision procedure for a verdict, and tallies the answers by route and by
refutation reason.  Shapes small enough for brute force get cross-checked
against the exhaustive oracle on the way; any disagreement makes the
script exit 1.
"""

import argparse
import sys
from collections import Counter

from holeymagic import decide
from holeymagic.oracle import exists_brute

ORACLE_LIMIT = 24   # m*r at or below this is cheap to enumerate outright


def well_shaped(limit):
    for m in range(1, limit + 1):
        for r in range(1, limit + 1):
            total = m * r
            if total > limit:
                break
            for n in range(1, total + 1):
                if total % n == 0:
                    s = total // n
                    if r <= n and s <= m:
                        yield m, n, r, s


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=60,
                    help="largest m*r to include (default 60)")
    args = ap.parse_args()

    verdicts = Counter()
    routes = Counter()
    reasons = Counter()
    checked = mismatches = 0

    for m, n, r, s in well_shaped(args.limit):
        d = decide(m, n, r, s)
        verdicts[d.verdict] += 1
        if d.verdict == "exists":
            routes[d.route] += 1
        elif d.verdict == "not-exists":
            reasons[d.reason] += 1

        if m * r <= ORACLE_LIMIT:
            answer = exists_brute(m, n, r, s, node_budget=2_000_000)
            if answer != "inconclusive":
                checked += 1
                agree = (answer == "yes") == (d.verdict == "exists")
                if d.verdict != "unknown" and not agree:
                    mismatches += 1
                    print(f"!! disagreement at ({m},{n},{r},{s}): "
                          f"decided {d.verdict}, oracle says {answer}")

    print(f"shapes with m*r <= {args.limit}: {sum(verdicts.values())}")
    for verdict, count in verdicts.most_common():
        print(f"  {verdict:>10}: {count}")
    print("existence routes:")
    for route, count in routes.most_common():
        print(f"  {route:>14}: {count}")
    print("refutation reasons:")
    for reason, count in reasons.most_common():
        print(f"  {reason:>20}: {count}")
    print(f"oracle cross-checks: {checked}, disagreements: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
