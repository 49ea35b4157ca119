"""Workload definitions and seeded input generation.

A pass is one fresh interpreter running one plan: a list of items.  For the
verify workloads an item is a ``run_suite(suite, rank)`` call and the seed
only fixes the order of the suites in each pass.  For ``queries`` an item is
one single-parameter CLI call and the seed fixes the draw.  The same
(workload, seed, pass index) always gives the same plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

QUERIES_PER_PASS = 1000
# share of each query kind in the draw; the rest are supports/hecke halves
ENUMERATE_SHARE = 0.05
SPECIALIZE_SHARE = 0.05
ENUMERATE_GROUPS = ("o-even", "so-odd", "sp", "u")
ENUMERATE_MAX_RANK = 4
SPECIALIZE_KINDS = ("o-even", "so-odd", "sp", "unitary")
SPECIALIZE_MAX_RANK = 6
# every classical ambient up to this dimension feeds the parameter files
PARAM_MAX_DIM = 8


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[tuple[str, int], ...]  # empty for the queries workload

    @property
    def is_verify(self) -> bool:
        return bool(self.suites)

    @property
    def tail_q(self) -> float:
        """Per-pass latency quantile reported as ``latency_p99_ms``: p99 of a
        queries pass leaves ten of its samples beyond it; a verify pass has
        at most six items, one per suite, so its tail is the slowest (p100)."""
        return 1.0 if self.is_verify else 0.99


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", (("thm11", 9), ("thm16", 8), ("thm18", 8), ("thm31", 6), ("thm32", 8), ("thm33", 12))),
        Workload("matrix", (("thm26-matrix", 10),)),
        Workload("weyl", (("lemA3", 5), ("lemA4", 4))),
        Workload("queries", ()),
    )
}


def suite_key(suite: str, rank: int) -> str:
    return f"{suite}_r{rank}"


def _rng(seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{seed}:{pass_index}")


def verify_plan(workload: Workload, seed: int, pass_index: int) -> list[tuple[str, int]]:
    plan = list(workload.suites)
    _rng(seed, pass_index).shuffle(plan)
    return plan


def query_universe(n_params: int) -> list[tuple]:
    """Every query the draw can produce; parameter files are indexed 0..n-1."""
    out: list[tuple] = []
    for i in range(n_params):
        out.append(("supports", i))
        out.append(("hecke", i))
    out += [("enumerate", g, r) for g in ENUMERATE_GROUPS for r in range(1, ENUMERATE_MAX_RANK + 1)]
    out += [("specialize", k, r) for k in SPECIALIZE_KINDS for r in range(1, SPECIALIZE_MAX_RANK + 1)]
    return out


def query_plan(seed: int, pass_index: int, n_params: int, n_queries: int = QUERIES_PER_PASS) -> list[tuple]:
    """Draw ``n_queries`` queries with replacement."""
    rng = _rng(seed, pass_index)
    out: list[tuple] = []
    for _ in range(n_queries):
        u = rng.random()
        if u < ENUMERATE_SHARE:
            out.append(("enumerate", rng.choice(ENUMERATE_GROUPS), rng.randint(1, ENUMERATE_MAX_RANK)))
        elif u < ENUMERATE_SHARE + SPECIALIZE_SHARE:
            out.append(("specialize", rng.choice(SPECIALIZE_KINDS), rng.randint(1, SPECIALIZE_MAX_RANK)))
        else:
            out.append((rng.choice(("supports", "hecke")), rng.randrange(n_params)))
    return out


def repeat_share(plan: list[tuple]) -> float:
    """Share of items that repeat an earlier item of the same pass."""
    return (len(plan) - len(set(plan))) / len(plan) if plan else 0.0
