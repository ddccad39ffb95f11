"""Certification of fractional revival on a vertex pair.

The certifier evaluates the four-part exact characterization (parallelity,
commutativity of the induced algebra, quadratic-integer support, and the
gcd obstruction) and cross-checks against direct evaluation of the
transition matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import rationalize, square_free_part, two_adic_valuation
from .spectral import SpectralDecomposition, transition_rows

SUPPORT_TOL = 1e-8
PARALLEL_TOL = 1e-9
COSPECTRAL_TOL = 1e-9
INTEGRALITY_TOL = 1e-7
GAMMA_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class FRObservation:
    """Direct measurement of U(t) around a vertex pair."""

    t: float
    off_block_norm: float
    cross_amplitude: float
    block: np.ndarray = field(repr=False)

    def is_fr(self, tol: float = 1e-8) -> bool:
        return self.off_block_norm < tol

    def is_proper(self, tol: float = 1e-8, cross_tol: float = 1e-8) -> bool:
        return self.is_fr(tol) and self.cross_amplitude > cross_tol

    def block_is_scalar(self, tol: float = 1e-8) -> bool:
        B = self.block
        return (abs(B[0, 0] - B[1, 1]) < tol and abs(B[0, 1]) < tol
                and abs(B[1, 0]) < tol)


@dataclass(frozen=True)
class RevivalCertificate:
    """Outcome of the exact fractional-revival test on a vertex pair."""

    pair: tuple[int, int]
    parallel: bool
    commutative: bool
    gamma: Fraction | None
    cospectral: bool
    c_plus: tuple[float, ...]
    c_minus: tuple[float, ...]
    delta: int | None
    g: int | None
    tau_min: float | None
    verdict: str  # none | improper-only | proper-FR | proper-PST
    two_adic: tuple[int, int] | None = None
    warnings: tuple[str, ...] = ()

    @property
    def is_proper(self) -> bool:
        return self.verdict in ("proper-FR", "proper-PST")

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "parallel": self.parallel,
            "commutative": self.commutative,
            "gamma": (f"{self.gamma.numerator}/{self.gamma.denominator}"
                      if self.gamma is not None else None),
            "cospectral": self.cospectral,
            "C_plus": [float(x) for x in self.c_plus],
            "C_minus": [float(x) for x in self.c_minus],
            "Delta": self.delta,
            "g": self.g,
            "tau_min": self.tau_min,
            "verdict": self.verdict,
            "two_adic": list(self.two_adic) if self.two_adic else None,
            "warnings": list(self.warnings),
        }


def _cospectral(blocks: np.ndarray, tol: float) -> bool:
    return bool((abs(blocks[:, 0, 0] - blocks[:, 1, 1]) < tol).all())


def _parallel(blocks: np.ndarray, tol: float) -> bool:
    dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    return bool((abs(dets) <= tol).all())


def _gamma(D: SpectralDecomposition, blocks: np.ndarray, a: int, b: int,
           tol: float) -> Fraction | None:
    if D.exact is not None and (a, b) in ((0, 1), (1, 0)):
        ex = D.exact
        gamma = Fraction(ex.a - ex.c, ex.k)
        return gamma if (a, b) == (0, 1) else -gamma
    off = blocks[:, 0, 1]
    diff = blocks[:, 0, 0] - blocks[:, 1, 1]
    small = abs(off) <= SUPPORT_TOL * max(float(abs(off).max()), 1.0)
    if (abs(diff[small]) > tol).any():
        return None
    ratios = diff[~small] / off[~small]
    if not ratios.size:
        # no off-diagonal weight anywhere: degenerate, treat as cospectral
        return Fraction(0)
    if (abs(ratios - ratios[0]) > tol).any():
        return None
    return rationalize(float(ratios[0]), tol=tol)


def are_cospectral(D: SpectralDecomposition, a: int, b: int,
                   tol: float = COSPECTRAL_TOL) -> bool:
    """(E_r)_{a,a} = (E_r)_{b,b} for every projector."""
    return _cospectral(D.pair_blocks(a, b), tol)


def are_parallel(D: SpectralDecomposition, a: int, b: int,
                 tol: float = PARALLEL_TOL) -> bool:
    """Every projector restricted to {a, b} has rank at most 1."""
    return a == b or _parallel(D.pair_blocks(a, b), tol)


def fractional_cospectrality(D: SpectralDecomposition, a: int, b: int,
                             tol: float = GAMMA_RESIDUAL_TOL) -> Fraction | None:
    """The rational scalar gamma with (E_r)_aa - (E_r)_bb = gamma (E_r)_ab.

    Returns None when no single rational satisfies the identity for all r.
    Exact-quadratic decompositions of the fused-star family give gamma
    exactly for the pair (0, 1).
    """
    return _gamma(D, D.pair_blocks(a, b), a, b, tol)


def _support_indices(D: SpectralDecomposition, a: int, b: int,
                     tol: float) -> np.ndarray:
    """Eigenvalue indices r with E_r e_a or E_r e_b above tol."""
    V = D.vectors
    # entry [i, v, r] is (E_r)_{v, a} for i = 0 and (E_r)_{v, b} for i = 1
    columns = np.add.reduceat(V * V[[a, b], None, :], D.bounds[:-1], axis=2)
    return np.flatnonzero(abs(columns).max(axis=(0, 1)) > tol)


def _integer_of(x: float, tol: float) -> int | None:
    n = round(x)
    return int(n) if abs(x - n) < tol else None


def _class_delta_and_ms(thetas: list[float], tol: float) -> tuple[int | None, list[int]]:
    """Square-free delta and integer multipliers for all pairwise gaps.

    Every within-class gap must be m * sqrt(delta) with a common square-free
    delta; returns (delta, list of m over all pairs) or (None, []) on failure.
    """
    delta: int | None = None
    ms: list[int] = []
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            d = abs(thetas[i] - thetas[j])
            n = _integer_of(d * d, tol * max(1.0, d * d))
            if n is None or n == 0:
                return None, []
            sf, m = square_free_part(n)
            if delta is None:
                delta = sf
            elif sf != delta:
                return None, []
            ms.append(m)
    return delta, ms


def certify_fr(D: SpectralDecomposition, a: int, b: int,
               support_tol: float = SUPPORT_TOL) -> RevivalCertificate:
    """Evaluate the exact characterization of proper fractional revival.

    Singleton support classes (where the gcd over within-class gaps is
    empty) are handled by a recorded convention: the pair gap fixes the
    reported minimum time.
    """
    if a == b:
        raise ValueError("vertex pair must be distinct")
    if not D.connected:
        raise ValueError("certification requires a connected graph")
    warnings: list[str] = []

    blocks = D.pair_blocks(a, b)
    parallel = _parallel(blocks, PARALLEL_TOL)
    gamma = _gamma(D, blocks, a, b, GAMMA_RESIDUAL_TOL)
    commutative = gamma is not None
    if not commutative:
        warnings.append("no consistent rational gamma found")
    cospectral = _cospectral(blocks, COSPECTRAL_TOL)

    support = _support_indices(D, a, b, support_tol)
    off = blocks[support, 0, 1]
    c_plus = tuple(D.eigenvalues[r] for r in support[off > support_tol])
    c_minus = tuple(D.eigenvalues[r] for r in support[off < -support_tol])
    unclassified = len(c_plus) + len(c_minus) < len(support)

    def result(verdict: str, delta=None, g=None, tau=None, two_adic=None):
        return RevivalCertificate((a, b), parallel, commutative, gamma,
                                  cospectral, c_plus, c_minus, delta, g, tau,
                                  verdict, two_adic, tuple(warnings))

    if not (parallel and commutative) or not c_plus or not c_minus \
            or unclassified:
        return result("none")

    # condition (c): common square-free delta for all within-class gaps
    d_plus, ms_plus = _class_delta_and_ms(list(c_plus), INTEGRALITY_TOL)
    d_minus, ms_minus = _class_delta_and_ms(list(c_minus), INTEGRALITY_TOL)
    singles = len(c_plus) == 1 and len(c_minus) == 1
    if not singles:
        if (len(c_plus) > 1 and d_plus is None) or \
                (len(c_minus) > 1 and d_minus is None):
            return result("none")
        if d_plus is not None and d_minus is not None and d_plus != d_minus:
            return result("none")
        delta = d_plus if d_plus is not None else d_minus
        assert delta is not None
        ms = ms_plus + ms_minus
        g = math.gcd(*ms) if len(ms) > 1 else ms[0]
        root = math.sqrt(delta)
        # condition (d): some cross-class gap not divisible by g
        proper = False
        for th_j in c_plus:
            for th_l in c_minus:
                q = (th_j - th_l) / (g * root)
                if _integer_of(q, INTEGRALITY_TOL) is None:
                    proper = True
        tau = 2 * math.pi / (g * root)
        if not proper:
            return result("improper-only", delta, g, tau)
    else:
        # both classes singleton: within-class gcd undefined; the pair gap
        # fixes the minimum time (convention; always proper here)
        gap = c_plus[0] - c_minus[0]
        n = _integer_of(gap * gap, INTEGRALITY_TOL * max(1.0, gap * gap))
        if n is not None and n > 0:
            delta, m = square_free_part(n)
            g = 2 * m
            tau = 2 * math.pi / (g * math.sqrt(delta))
        else:
            delta, g = None, None
            tau = math.pi / abs(gap)
        warnings.append("singleton support classes: minimum time set from "
                        "the cross-class gap")

    two_adic = None
    if delta is not None and len(c_plus) == 2 and len(c_minus) == 2:
        root = math.sqrt(delta)
        alpha = _integer_of(max(abs(t) for t in c_minus) / root,
                            INTEGRALITY_TOL)
        beta = _integer_of(max(abs(t) for t in c_plus) / root,
                           INTEGRALITY_TOL)
        if alpha and beta:
            two_adic = (two_adic_valuation(alpha), two_adic_valuation(beta))

    obs = verify_fr_at(D, a, b, tau)
    verdict = "proper-FR"
    if obs.off_block_norm < 1e-7 and abs(obs.block[0, 0]) < 1e-7 \
            and abs(obs.block[1, 1]) < 1e-7:
        verdict = "proper-PST"
    return result(verdict, delta, g, tau, two_adic)


def verify_fr_at(D: SpectralDecomposition, a: int, b: int,
                 t: float) -> FRObservation:
    """Measure off-block leakage and cross amplitude of U(t) at {a, b}."""
    rows = transition_rows(D, [a, b], t)
    block = rows[:, [a, b]]
    leak = np.abs(rows)
    leak[:, [a, b]] = 0.0
    return FRObservation(float(t), float(leak.max()), float(abs(block[0, 1])),
                         block)


def support_structure_check(D: SpectralDecomposition, a: int, b: int,
                            tol: float | None = None) -> bool:
    """Support graph of D_{a,b} splits into exactly two complete-with-loops
    components plus loopless isolated vertices.
    """
    from .states import subset_state, support_graph

    G = support_graph(D, subset_state({a, b}, D.n), tol)
    comps = G.components()
    if len(comps) != 2:
        return False
    return all(G.is_complete_with_loops(comp) for comp in comps)


@dataclass(frozen=True)
class BalancedResult:
    kind: str  # not-balanced | balanced-PST-route | balanced-noncospectral-route
    witness_time: float | None = None


def balanced_fr_analysis(D: SpectralDecomposition, a: int, b: int,
                         tol: float = 1e-8) -> BalancedResult:
    """Search fractional-revival times for a balanced split.

    Candidates are the odd multiples of the certified minimum time; when the
    support classes are singletons the revival is continuous in time and a
    fine grid over one period is scanned as well.
    """
    cert = certify_fr(D, a, b)
    if not cert.is_proper:
        raise ValueError("balanced analysis requires proper fractional revival")
    assert cert.tau_min is not None
    period = 2 * cert.tau_min
    candidates = [(2 * j + 1) * cert.tau_min for j in range(3)]
    if len(cert.c_plus) == 1 and len(cert.c_minus) == 1:
        candidates += [period * i / 4096 for i in range(1, 4096)]
    target = 1 / math.sqrt(2)
    for t in candidates:
        obs = verify_fr_at(D, a, b, t)
        if obs.off_block_norm > tol:
            continue
        if abs(abs(obs.block[0, 0]) - target) < tol and \
                abs(obs.cross_amplitude - target) < tol:
            kind = ("balanced-PST-route" if cert.cospectral
                    else "balanced-noncospectral-route")
            return BalancedResult(kind, t)
    return BalancedResult("not-balanced")


__all__ = [
    "FRObservation", "RevivalCertificate", "BalancedResult",
    "are_cospectral", "are_parallel", "fractional_cospectrality",
    "certify_fr", "verify_fr_at", "support_structure_check",
    "balanced_fr_analysis", "square_free_part", "two_adic_valuation",
]
