"""Record the outputs the benchmark checks without an independent route.

Writes ``expected.json`` beside this file: the sorting-index distributions
under the natural order for every tie rule, a pool of non-bipartitional
relations on the permutation class with their three distributions, and the
disagreements every sweep reports.  The inputs themselves are defined in
``workloads.py``.  Run it only at a commit whose outputs are trusted, from
the repository root:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mahonian as lib  # noqa: E402

from workloads import DIST_LARGE, SIZES, SWEEP  # noqa: E402

POOL_SIZE = 16


def relation_pool(n: int, label: str, edges: tuple[int, int, int]) -> list[int]:
    """Non-bipartitional relations with a fixed number of descending,
    ascending and loop edges, so every pool member costs the kernels about
    the same."""
    rng = random.Random(f"pool:{label}")
    down = [(x, y) for x in range(1, n + 1) for y in range(1, x)]
    up = [(y, x) for x, y in down]
    loops = [(x, x) for x in range(1, n + 1)]
    masks: list[int] = []
    while len(masks) < POOL_SIZE:
        pairs = [
            pair
            for group, count in zip((down, up, loops), edges)
            for pair in rng.sample(group, count)
        ]
        relation = lib.Relation(n, frozenset(pairs))
        mask = lib.relation_to_mask(relation)
        if mask not in masks and not lib.is_bipartitional(relation):
            masks.append(mask)
    return masks


def coeffs(poly) -> list[int]:
    return list(poly.coeffs)


def record_dist(size: str) -> dict:
    shape = DIST_LARGE[size]
    rep = lib.MultiplicityVector(shape["repeated"])
    nat = lib.natural_order(rep.n)
    perm = lib.MultiplicityVector((1,) * shape["permutation_n"])
    pool = {}
    for mask in relation_pool(perm.n, size, shape["pool_edges"]):
        relation = lib.relation_from_mask(perm.n, mask)
        pool[str(mask)] = {
            base: coeffs(lib.distribution(f"{base}-graphical", perm, relation))
            for base in ("inv", "maj", "sor")
        }
    return {
        "sor_natural": {
            rule: coeffs(lib.distribution("sor-graphical", rep, nat, tie_rule=rule))
            for rule in lib.TIE_RULES
        },
        "pool": pool,
    }


def record_sweep(size: str) -> dict:
    n, alphas, pinned = SWEEP[size]
    found = {}
    for counts in alphas + (pinned,):
        alpha = lib.MultiplicityVector(counts)
        for theorem, verify in (("thm1", lib.verify_theorem1),
                                ("thm2", lib.verify_theorem2)):
            report = verify(n, alpha)
            found[f"{theorem}:{','.join(map(str, counts))}"] = sorted(
                [lib.relation_to_mask(d.relation), d.predicate_holds,
                 d.equidistributed_holds]
                for d in report.disagreements
            )
    return {"disagreements": found}


def main() -> None:
    expected = {
        "dist-large": {size: record_dist(size) for size in SIZES},
        "sweep-n3": {size: record_sweep(size) for size in SIZES},
    }
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
