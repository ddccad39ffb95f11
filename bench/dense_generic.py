"""dense-generic: large graphs with no fused-star or equitable structure.

Per pass, ROUNDS rounds of the same sizes of each kind, each graph
relabeled by a seeded permutation and handed to the program as graph-file
text:

- paths P_n (m = n distinct eigenvalues, the worst case for dense
  projectors), up to P400; the largest two (ONCE) in the first round only;
- connected G(n, p) with mean degree about 6, n <= 220;
- prisms C_m x K2 and ladders P_m x K2, n <= 200;
- paths P60..P80 that also run ``support_graph`` on their two ends;
- one prism and one ladder (n = 50) that also run ``detect_subset_transfer``
  from one side to the other, one at pi/2 (a transfer), the other at a
  seeded time in (0.3, 1.3) (no transfer);
- the anchor P4, whose ends are known to be proper-FR.

A request is one graph: ``decompose``, ``certify_fr`` on one seeded pair,
then ``verify_fr_at`` at ``tau_min`` if the pair is proper, else at a seeded
time. Nothing is shared between requests.

The referee recomputes rows a and b of U(t) with scipy.linalg.expm, outside
the timed region: the off-block norm and the cross amplitude must agree with
the program's within 1e-8.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import numpy as np

from harness import Layers, Request, oracle

PATHS = (60, 100, 160, 250, 400)
# Paths served in a pass's first round only. P400 alone takes about a third
# of a round; three of them made a pass too long to serve three times.
ONCE = (250, 400)
RANDOM = (60, 70, 80, 90, 100, 120, 140, 160, 180, 200, 220)
PRISMS = (30, 40, 50, 60, 80, 100)
LADDERS = (30, 40, 50, 60, 80, 100)
SUPPORT_PATHS = (60, 64, 68, 72, 76, 80)
SUBSET = (("prism", 25), ("ladder", 25))
SMOKE = {"paths": (8, 12), "once": (), "random": (10, 14), "prisms": (4, 5),
         "ladders": (4, 6), "support": (6, 8),
         "subset": (("prism", 4), ("ladder", 4))}
# A round has 37 requests; three, less the ONCE paths of two of them, give
# a pass 107, enough for a p90 with at least 10 samples beyond it.
ROUNDS = 3
MEAN_DEGREE = 6
AGREE_TOL = 1e-8

# Request time of one pass on the reference machine (see NOTES.md).
PASS_SECONDS = 7.5


def _path(m: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(m - 1)]


def _cycle(m: int) -> list[tuple[int, int]]:
    return _path(m) + [(m - 1, 0)]


def _times_k2(edges: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """Cartesian product with K2: side 0 is 0..m-1, side 1 is m..2m-1."""
    return edges + [(u + m, v + m) for u, v in edges] + [(x, x + m) for x in range(m)]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _gnp(n: int, rng: random.Random) -> list[tuple[int, int]]:
    p = MEAN_DEGREE / (n - 1)
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        if _connected(n, edges):
            return edges


def generate(seed: int, pass_idx: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"dense-generic/{seed}/{pass_idx}")
    sizes = SMOKE if smoke else {
        "paths": PATHS, "once": ONCE, "random": RANDOM, "prisms": PRISMS,
        "ladders": LADDERS, "support": SUPPORT_PATHS, "subset": SUBSET}
    items = []

    def add(kind: str, n: int, edges, pair=None, **extra) -> None:
        perm = list(range(n))
        rng.shuffle(perm)
        a, b = pair if pair is not None else rng.sample(range(n), 2)
        item = {"kind": kind, "n": n,
                "edges": [(perm[u], perm[v]) for u, v in edges],
                "a": perm[a], "b": perm[b], "t": rng.uniform(0.5, 6.0)}
        for key, value in extra.items():
            item[key] = ([perm[v] for v in value]
                         if isinstance(value, list) else value)
        items.append(item)

    # The untimed warm-up pass (-1) needs one round to settle the allocator.
    for round_idx in range(1 if smoke or pass_idx < 0 else ROUNDS):
        # Which slots get a special pair (path ends, a rung) is fixed, not
        # seeded: the certifier's cost depends on it, and a run's cost must not.
        for i, n in enumerate(sizes["paths"]):
            if round_idx == 0 or n not in sizes["once"]:
                add("path", n, _path(n), (0, n - 1) if i % 2 == 0 else None)
        for n in sizes["random"]:
            add("random", n, _gnp(n, rng))
        products = [(m, _cycle(m)) for m in sizes["prisms"]] + \
            [(m, _path(m)) for m in sizes["ladders"]]
        for i, (m, base) in enumerate(products):
            x = rng.randrange(m)
            add("product", 2 * m, _times_k2(base, m), (x, x + m) if i % 2 == 0 else None)
        for n in sizes["support"]:
            add("support", n, _path(n), (0, n - 1))
        for i, (shape, m) in enumerate(sizes["subset"]):
            base = _cycle(m) if shape == "prism" else _path(m)
            at_half_pi = (i + pass_idx) % 2 == 0
            x = rng.randrange(m)
            add("subset", 2 * m, _times_k2(base, m), (x, x + m),
                S=list(range(m)), T=list(range(m, 2 * m)),
                t_subset=math.pi / 2 if at_half_pi else rng.uniform(0.3, 1.3),
                transfer=at_half_pi)
        add("anchor", 4, _path(4), (0, 3), verdict="proper-FR")
    rng.shuffle(items)
    for item in items:
        item["file"] = json.dumps({"n": item["n"], "edges": item["edges"]})
    return items


def build(L: Layers, raw: list[dict]) -> list:
    return [(item, L.graph_from_json(item["file"])) for item in raw]


def requests(inputs: list, verdicts: Counter) -> list[Request]:
    return [Request(_run(item, X), _check(item, verdicts)) for item, X in inputs]


def _run(item: dict, X):
    a, b, kind = item["a"], item["b"], item["kind"]

    def run(L: Layers):
        D = L.decompose(X)
        cert = L.certify_fr(D, a, b)
        if cert.is_proper:
            obs, confirmed = oracle(L, D, a, b, cert.tau_min)
        else:
            obs, confirmed = L.verify_fr_at(D, a, b, item["t"]), None
        extra = None
        if kind == "support":
            extra = L.support_graph(D, L.subset_state({a, b}, X.n))
        elif kind == "subset":
            extra = L.detect_subset_transfer(D, set(item["S"]), set(item["T"]),
                                             item["t_subset"])
        return cert, obs, confirmed, extra
    return run


def _adjacency(item: dict) -> np.ndarray:
    A = np.zeros((item["n"], item["n"]))
    for u, v in item["edges"]:
        A[u, v] = A[v, u] = 1.0
    return A


def _check(item: dict, verdicts: Counter):
    def check(answer) -> list[str]:
        from scipy.linalg import expm

        cert, obs, confirmed, extra = answer
        verdicts[cert.verdict] += 1
        problems = []
        a, b, n = item["a"], item["b"], item["n"]
        A = _adjacency(item)
        U = expm(1j * obs.t * A)
        others = [v for v in range(n) if v not in (a, b)]
        off = float(np.abs(U[np.ix_([a, b], others)]).max()) if others else 0.0
        if abs(off - obs.off_block_norm) > AGREE_TOL:
            problems.append(f"off-block {obs.off_block_norm:.3e}, expm {off:.3e}")
        if abs(abs(U[a, b]) - obs.cross_amplitude) > AGREE_TOL:
            problems.append(f"cross {obs.cross_amplitude:.3e}, expm {abs(U[a, b]):.3e}")
        if confirmed is False:
            problems.append("oracle does not confirm the proper verdict")
        if "verdict" in item and cert.verdict != item["verdict"]:
            problems.append(f"verdict {cert.verdict}, known {item['verdict']}")
        if item["kind"] == "support":
            problems += _check_path_support(extra, n)
        elif item["kind"] == "subset":
            problems += _check_subset(extra, item, A)
        return problems
    return check


def _check_path_support(G, n: int) -> list[str]:
    """On a path the eigenvectors are alternately symmetric and antisymmetric,
    so the support graph of the two ends is two complete-with-loops
    components of sizes ceil(n/2) and floor(n/2)."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for r, s in G.edges:
        parent[find(r)] = find(s)
    comps: dict[int, set[int]] = {}
    for r in range(n):
        comps.setdefault(find(r), set()).add(r)
    sizes = sorted(len(c) for c in comps.values())
    complete = all(len(G.edges & {(r, s) for r in c for s in c if r < s})
                   == len(c) * (len(c) - 1) // 2 for c in comps.values())
    if sizes != sorted((n // 2, n - n // 2)) or set(G.loops) != set(range(n)) \
            or not complete:
        return [f"support graph of the path ends: component sizes {sizes}, "
                f"{len(G.loops)} loops"]
    return []


def _check_subset(rep, item: dict, A: np.ndarray) -> list[str]:
    from scipy.linalg import expm

    n = item["n"]
    DS = np.diag([1.0 if v in item["S"] else 0.0 for v in range(n)])
    DT = np.diag([1.0 if v in item["T"] else 0.0 for v in range(n)])
    U = expm(1j * item["t_subset"] * A)
    residual = float(np.abs(U @ DS @ U.conj().T - DT).max())
    problems = []
    if abs(residual - rep.residual) > AGREE_TOL:
        problems.append(f"subset residual {rep.residual:.3e}, expm {residual:.3e}")
    if rep.is_transfer != item["transfer"]:
        problems.append(f"subset transfer {rep.is_transfer}, known {item['transfer']}")
    if not (rep.induced_cospectral and rep.complement_cospectral):
        problems.append("the two sides are isomorphic but not found cospectral")
    return problems
