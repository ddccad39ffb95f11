"""atlas-sweep: every vertex pair of the 996 connected graphs on at most
7 vertices (the networkx graph atlas), each graph relabeled by a seeded
permutation.

A request is one pair. A graph's first pair also pays for its
``decompose``; the other pairs reuse it, so the certifier's per-call cost
dominates. The referee is a verdict table keyed by atlas index and pair in
atlas labels (``atlas_verdicts.json``), so every request is checked, and
every proper pair must also be confirmed by the oracle at ``tau_min``.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

from harness import Layers, Request, oracle

MAX_N = 7
SMOKE_MAX_N = 5
TAU_TOL = 1e-9
VERDICTS = Path(__file__).resolve().parent / "atlas_verdicts.json"

# Request time of one pass on the reference machine (see NOTES.md).
PASS_SECONDS = 2.5


@lru_cache(maxsize=None)
def _atlas(max_n: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """(atlas index, n, edges) of every connected atlas graph with n <= max_n."""
    import networkx as nx

    return tuple((i, g.number_of_nodes(), tuple(g.edges()))
                 for i, g in enumerate(nx.graph_atlas_g())
                 if 1 <= g.number_of_nodes() <= max_n and nx.is_connected(g))


@lru_cache(maxsize=None)
def expected_verdicts() -> dict[tuple[int, int, int], tuple[str, float]]:
    doc = json.loads(VERDICTS.read_text())
    table = {(i, a, b): (verdict, tau) for i, a, b, verdict, tau in doc["pairs"]}
    listed = Counter(verdict for verdict, _ in table.values())
    pairs = sum(n * (n - 1) // 2 for _, n, _ in _atlas(MAX_N))
    if any(listed[v] != doc["histogram"][v] for v in listed) or \
            pairs - len(table) != doc["histogram"]["none"]:
        raise ValueError(f"{VERDICTS.name} disagrees with its own histogram")
    return table


def expected_histogram() -> dict[str, int]:
    return json.loads(VERDICTS.read_text())["histogram"]


def generate(seed: int, pass_idx: int, smoke: bool) -> list:
    rng = random.Random(f"atlas-sweep/{seed}/{pass_idx}")
    graphs = []
    for index, n, edges in _atlas(SMOKE_MAX_N if smoke else MAX_N):
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append((index, perm, n, [(perm[u], perm[v]) for u, v in edges]))
    rng.shuffle(graphs)
    # The untimed warm-up pass (-1) needs only a quarter of the graphs.
    return graphs[:len(graphs) // 4] if pass_idx < 0 else graphs


def build(L: Layers, raw: list) -> list:
    return [(index, perm, L.from_edges(n, edges)) for index, perm, n, edges in raw]


def requests(inputs: list, verdicts: Counter) -> list[Request]:
    table = expected_verdicts()
    out = []
    for index, perm, X in inputs:
        shared: dict = {}  # the graph's decomposition, made by its first pair
        for a, b in itertools.combinations(range(X.n), 2):
            u, v = sorted((perm.index(a), perm.index(b)))
            expected = table.get((index, u, v), ("none", None))
            out.append(Request(_run(X, a, b, shared),
                               _check(expected, verdicts)))
    return out


def _run(X, a: int, b: int, shared: dict):
    def run(L: Layers):
        D = shared.get("D")
        if D is None:
            D = shared["D"] = L.decompose(X)
        cert = L.certify_fr(D, a, b)
        confirmed = (oracle(L, D, a, b, cert.tau_min)[1]
                     if cert.is_proper else None)
        return cert, confirmed
    return run


def _check(expected: tuple[str, float | None], verdicts: Counter):
    verdict, tau = expected

    def check(answer) -> list[str]:
        cert, confirmed = answer
        verdicts[cert.verdict] += 1
        problems = []
        if cert.verdict != verdict:
            problems.append(f"verdict {cert.verdict}, expected {verdict}")
        elif tau is not None and abs(cert.tau_min - tau) > TAU_TOL:
            problems.append(f"tau_min {cert.tau_min}, expected {tau}")
        if confirmed is False:
            problems.append("oracle does not confirm the proper verdict")
        return problems
    return check
