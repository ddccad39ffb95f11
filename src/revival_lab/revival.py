"""Certification of fractional revival on a vertex pair.

The certifier evaluates the four-part exact characterization (parallelity,
commutativity of the induced algebra, quadratic-integer support, and the
gcd obstruction) and cross-checks against direct evaluation of the
transition matrix.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import rationalize, square_free_part, two_adic_valuation
from .spectral import SpectralDecomposition, _transition_cells

SUPPORT_TOL = 1e-8
PARALLEL_TOL = 1e-9
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


@dataclass(frozen=True, init=False)
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

    def __init__(self, pair, parallel, commutative, gamma, cospectral,
                 c_plus, c_minus, delta, g, tau_min, verdict,
                 two_adic=None, warnings=()):
        # the generated __init__ of a frozen dataclass sets each field with
        # object.__setattr__; one update of the instance dict is about 3x
        # faster, and a certificate is built for every pair certified
        self.__dict__.update(
            pair=pair, parallel=parallel, commutative=commutative,
            gamma=gamma, cospectral=cospectral, c_plus=c_plus,
            c_minus=c_minus, delta=delta, g=g, tau_min=tau_min,
            verdict=verdict, two_adic=two_adic, warnings=warnings)

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


# The gates below take the entries (E_r)_aa, (E_r)_bb and (E_r)_ab of a pair
# with the eigenvalue index r on the last axis and any leading batch shape:
# () for one pair, (n, n) for every pair of a decomposition, or a stack of
# either. The entries are finite (``decompose`` guarantees it).


def _first_ratio(diff: np.ndarray, ab: np.ndarray,
                 weighty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(broken, ratio): the ratio diff / ab at the first weighty r (+-0 if
    none is: degenerate, treated as cospectral), and whether each r breaks
    it past GAMMA_RESIDUAL_TOL, by its own ratio or, not weighty, its diff."""
    ratios = diff / np.where(weighty, ab, np.inf)
    first = weighty.argmax(axis=-1)
    first += np.arange(0, ratios.size, ratios.shape[-1]).reshape(first.shape)
    ratio = ratios.reshape(-1)[first]
    residual = np.where(weighty, ratios - ratio[..., None], diff)
    return abs(residual) > GAMMA_RESIDUAL_TOL, ratio


# Bit flags of a pair's gate outcomes.
_PARALLEL, _COMMUTATIVE, _UNCLASSIFIED = 1, 2, 4
# The gate table of all pairs is built from an (n, n, m) float array. Up to
# 2**13 entries it costs at most about four pairs answered one by one
# (n = m = 20: 0.26 ms against 0.06 ms a pair on 2 x86 cores); past that
# (n = m = 40: 2.6 ms against 0.07 ms) a decomposition keeps answering
# pairs one by one.
_TABLE_MAX_ENTRIES = 2 ** 13


class _Gates(NamedTuple):
    """Gate outcomes over a batch of pairs: bit flags, the gamma ratio and
    the class sign of every eigenvalue (+1 in C+, -1 in C-, else 0)."""

    flags: np.ndarray  # uint8, batch shape
    ratio: np.ndarray  # float64, batch shape
    signs: np.ndarray  # int8, batch shape + (m,)


def _gates(aa: np.ndarray, bb: np.ndarray, ab: np.ndarray,
           reach_a: np.ndarray, reach_b: np.ndarray) -> _Gates:
    """Every gate of certify_fr before conditions (c) and (d). Each r has
    one byte of the gates it violates and the unclassified bit (supported,
    in no class): one OR over r, with the first two bits flipped, gives the
    flags."""
    # the negligible level is SUPPORT_TOL * max(1, max_r |ab|), and |ab| <=
    # 1/2 for a != b: a 2x2 block of a projector lies between 0 and I
    pos, neg = ab > SUPPORT_TOL, ab < -SUPPORT_TOL
    signs = np.subtract(pos, neg, dtype=np.int8)
    weighty = pos | neg
    # every block [[aa, ab], [ab, bb]] has rank at most 1 (|det| <= tol)
    bits = (abs(aa * bb - ab * ab) > PARALLEL_TOL).view(np.uint8)
    # |ab| <= reach_a, so a signed eigenvalue is always in the support
    supported = np.maximum(reach_a, reach_b) > SUPPORT_TOL
    bits |= (supported & ~weighty) * np.uint8(_UNCLASSIFIED)
    broken, ratio = _first_ratio(aa - bb, ab, weighty)
    bits |= broken * np.uint8(_COMMUTATIVE)
    flags = np.bitwise_or.reduce(bits, axis=-1) ^ (_PARALLEL | _COMMUTATIVE)
    return _Gates(flags, ratio, signs)


def _gate_block(D: SpectralDecomposition, rows: list[int] | slice,
                cols: list[int] | slice) -> tuple:
    """(aa, bb, ab, reach_a, reach_b) of the pairs rows x cols, of shapes
    (rows, 1, m), (cols, m), (rows, cols, m), (rows, 1, m) and (cols, m),
    with the reach of a max_v |(E_r)_av|: all x all (slice(None) twice) is
    the table of all pairs, [a] x [b] a lone pair. Each line is read once
    over the columns of the row factors, where a quotient's cells stand for
    their vertices. With one factor column per eigenvalue, (E_r)_uv is
    V[u, r] V[v, r], and |V[u, r]| max_v |V[v, r]| is the reach bit for bit
    (rounding preserves order): no n x m ``projector_rows`` product a line."""
    lines, k = (rows, None) if rows == cols else (rows + cols, len(rows))
    R, V = D._row_factors(lines)[:2]
    if V.shape[1] == D.m:
        diag, reach, ab = R * R, abs(R) * abs(V).max(axis=0), \
            R[:k, None] * R[k:]
    else:
        P, at = D.projector_rows(lines)
        own = P[:, at]  # each line at the columns of the lines
        diag = own.reshape(-1, D.m)[::len(own) + 1]
        reach, ab = abs(P).max(axis=1), own[:k, k:]
    return diag[:k, None], diag[k:], ab, reach[:k, None], reach[k:]


class _GateRows(NamedTuple):
    """The gate table in flat stdlib buffers, read with no numpy scalar
    access: pair (a, b) is entry i = a n + b of ``flags`` and ``ratio``, and
    its signs are ``signs[i m:(i + 1) m]``. Over the connected graphs on at
    most 7 vertices they take 1.1 KB a graph, where nested lists of Python
    numbers took 8.8 KB."""

    n: int
    m: int
    flags: bytes
    ratio: array  # of float64
    signs: array  # of int8


def _gate_rows(D: SpectralDecomposition) -> _GateRows:
    flags, ratio, signs = _gates(*_gate_block(D, slice(None), slice(None)))
    return _GateRows(D.n, D.m, flags.tobytes(), array("d", ratio.tobytes()),
                     array("b", signs.tobytes()))


def _pair_gates(D: SpectralDecomposition, a: int,
                b: int) -> tuple[int, float, list[int] | array]:
    """The flags, the gamma ratio and the signs of (a, b).

    A decomposition's first certification builds the table of all pairs,
    if it fits, and keeps it in ``D.memo``. Without a table, the pair is
    the block [a] x [b], whose entries go to the kernel as (m,) arrays:
    numpy's per-call cost grows with the number of axes.
    """
    rows = D.memo.get("gates")
    if rows is None and D.n * D.n * D.m <= _TABLE_MAX_ENTRIES:
        rows = D.memo["gates"] = _gate_rows(D)
    if rows is None:
        aa, bb, ab, reach_a, reach_b = _gate_block(D, [a], [b])
        flags, ratio, signs = _gates(aa[0, 0], bb[0], ab[0, 0], reach_a[0, 0],
                                     reach_b[0])
        return int(flags), float(ratio), signs.tolist()
    i, m = a * rows.n + b, rows.m
    return rows.flags[i], rows.ratio[i], rows.signs[i * m:(i + 1) * m]


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


def certify_fr(D: SpectralDecomposition, a: int, b: int) -> RevivalCertificate:
    """Evaluate the exact characterization of proper fractional revival.

    Singleton support classes (where the gcd over within-class gaps is
    empty) are handled by a recorded convention: the pair gap fixes the
    reported minimum time.
    """
    if a == b:
        raise ValueError("vertex pair must be distinct")
    # the gate table is read at a n + b, where an index out of range
    # would name another pair
    if not (0 <= a < D.n and 0 <= b < D.n):
        raise ValueError(f"vertex pair ({a}, {b}) out of range for "
                         f"{D.n} vertices")
    if not D.connected:
        raise ValueError("certification requires a connected graph")

    if D.exact is not None and (a, b) in ((0, 1), (1, 0)):
        return _stellar_certificate(D, a)
    flags, ratio, signs = _pair_gates(D, a, b)
    parallel = bool(flags & _PARALLEL)
    gamma = rationalize(ratio, tol=GAMMA_RESIDUAL_TOL) \
        if flags & _COMMUTATIVE else None
    commutative = gamma is not None
    # cospectral is the gamma = 0 case of (E_r)_aa - (E_r)_bb = gamma (E_r)_ab
    cospectral = gamma == 0
    warnings = () if commutative else ("no consistent rational gamma found",)

    # one pass, not a generator per class: this runs for every pair
    plus: list[float] = []
    minus: list[float] = []
    for th, s in zip(D.eigenvalues, signs):
        if s > 0:
            plus.append(th)
        elif s < 0:
            minus.append(th)
    c_plus, c_minus = tuple(plus), tuple(minus)
    if not (parallel and commutative) or not c_plus or not c_minus \
            or flags & _UNCLASSIFIED:
        return RevivalCertificate((a, b), parallel, commutative, gamma,
                                  cospectral, c_plus, c_minus, None, None,
                                  None, "none", None, warnings)
    return RevivalCertificate((a, b), parallel, commutative, gamma,
                              cospectral, c_plus, c_minus,
                              *_revival_time(D, a, b, gamma, c_plus, c_minus))


def _stellar_certificate(D: SpectralDecomposition,
                         a: int) -> RevivalCertificate:
    """The certificate of the fused-star centers (a, 1 - a), read from the
    exact analysis ``D.exact`` alone. Their blocks of E_r have rank 1, and
    +-theta share one (both centers lie on one side), so C+ = {+-theta5},
    C- = {+-theta3} and g = 2 gcd(alpha, beta), the gcd of the within-class
    gaps. At tau_min the block of U is (-1)^(beta/gcd) E+ + (-1)^(alpha/gcd)
    E-: proper when the signs differ, and then PST exactly when a = c."""
    e, th = D.exact, D.eigenvalues
    gamma = e.gamma if a == 0 else -e.gamma
    if e.verdict == "proper-FR":
        verdict = "proper-PST" if gamma == 0 else "proper-FR"
    else:
        verdict = "none" if e.verdict == "no-FR" else "improper-only"
    return RevivalCertificate(
        (a, 1 - a), True, True, gamma, gamma == 0, (th[0], th[4]),
        (th[1], th[3]), e.delta, e.alpha and 2 * math.gcd(e.alpha, e.beta),
        e.tau_min, verdict, None if verdict == "improper-only" else e.two_adic)


def _revival_time(D: SpectralDecomposition, a: int, b: int, gamma: Fraction,
                  c_plus: tuple[float, ...],
                  c_minus: tuple[float, ...]) -> tuple:
    """The certificate's (delta, g, tau_min, verdict, two_adic, warnings)
    of a parallel pair with a rational gamma and two nonempty classes:
    conditions (c) and (d), and the oracle's PST check at tau_min."""
    # condition (c): common square-free delta for all within-class gaps
    d_plus, ms_plus = _class_delta_and_ms(list(c_plus), INTEGRALITY_TOL)
    d_minus, ms_minus = _class_delta_and_ms(list(c_minus), INTEGRALITY_TOL)
    warnings: tuple[str, ...] = ()
    if len(c_plus) > 1 or len(c_minus) > 1:
        if (len(c_plus) > 1 and d_plus is None) or \
                (len(c_minus) > 1 and d_minus is None):
            return None, None, None, "none", None, warnings
        if d_plus is not None and d_minus is not None and d_plus != d_minus:
            return None, None, None, "none", None, warnings
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
            return delta, g, tau, "improper-only", None, warnings
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
        warnings = ("singleton support classes: minimum time set from "
                    "the cross-class gap",)

    two_adic = None
    if delta is not None and len(c_plus) == 2 and len(c_minus) == 2:
        root = math.sqrt(delta)
        alpha = _integer_of(max(abs(t) for t in c_minus) / root,
                            INTEGRALITY_TOL)
        beta = _integer_of(max(abs(t) for t in c_plus) / root,
                           INTEGRALITY_TOL)
        if alpha and beta:
            two_adic = (two_adic_valuation(alpha), two_adic_valuation(beta))

    # PST makes a and b strongly cospectral, so gamma = 0
    verdict = "proper-FR"
    if gamma == 0:
        obs = verify_fr_at(D, a, b, tau)
        if obs.off_block_norm < 1e-7 and abs(obs.block[0, 0]) < 1e-7 \
                and abs(obs.block[1, 1]) < 1e-7:
            verdict = "proper-PST"
    return delta, g, tau, verdict, two_adic, warnings


def verify_fr_at(D: SpectralDecomposition, a: int, b: int,
                 t: float) -> FRObservation:
    """Measure off-block leakage and cross amplitude of U(t) at {a, b}.

    A fused star is measured over its cells, with no lift to the vertices:
    every cell stands for the vertices that share its entry."""
    return _fr_observation(*_transition_cells(D, [a, b], t), t)


def _fr_observation(rows: np.ndarray, cols: list[int],
                    t: float) -> FRObservation:
    """The observation at {a, b} from the rows a and b of U(t), with a and
    b at the columns ``cols``."""
    a, b = cols
    block = rows[:, [a, b]]
    leak = np.abs(rows)
    leak[:, [a, b]] = 0.0
    return FRObservation(float(t), float(leak.max()), float(abs(block[0, 1])),
                         block)


__all__ = [
    "FRObservation", "RevivalCertificate", "certify_fr", "verify_fr_at",
]
