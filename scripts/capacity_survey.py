#!/usr/bin/env python3
"""Tabulate rate bounds for every supported graph family over a size sweep.

For each family and server count, print the best achievable rate the
package constructs, the converse ceiling, whether they meet, the subset
sizes attaining the achievable side, and the strongest published rate a
fully private scheme reaches on the same graph (the "full privacy" column;
blank when the cited form only states a growth order).

The "witness" column checks the achievable side: it builds the plan
family of the scheme `default_component_config` picks for the graph,
audits it with `check_scheme`, and prints PASS when the audit passes at
a rate equal to the tabulated lower bound, FAIL otherwise.  The script
exits 1 if any row fails.
"""

import argparse

from localpir.capacity import family_bounds
from localpir.errors import InvalidFamilyParams
from localpir.graphs import FAMILIES, family
from localpir.scheme import build_plan_family, default_component_config
from localpir.verify import check_scheme


def witness(rep) -> str:
    """PASS when the scheme picked for the graph verifies at rate `lower`."""
    g = family(rep.family, rep.n)
    report = check_scheme(build_plan_family(g, default_component_config(g)), g)
    return "PASS" if report.ok and report.cost.rate == rep.lower else "FAIL"


def row(rep):
    comp = ""
    cited = next((c for c in rep.comparators if c.value is not None), None)
    if cited is not None:
        comp = f"{cited.value:.4f} [{cited.source}]"
    t_i, t_j = rep.optimizer if rep.optimizer else ("", "")
    return [rep.family, str(rep.n), str(rep.lower), str(rep.upper),
            "yes" if rep.exact else "no",
            f"{t_i},{t_j}" if rep.optimizer else "-", witness(rep), comp]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10,
                        help="largest server count per family")
    args = parser.parse_args()

    header = ["family", "n", "lower", "upper", "exact", "t_i,t_j", "witness",
              "full privacy"]
    rows = []
    for name in FAMILIES:
        for n in range(2, args.max_n + 1):
            try:
                rows.append(row(family_bounds(name, n)))
            except InvalidFamilyParams:
                continue
        rows.append([""] * len(header))

    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return int(any("FAIL" in r for r in rows))


if __name__ == "__main__":
    raise SystemExit(main())
