"""Command-line surface: batch certification, family generation, exports.

Exit codes: 0 when the requested certification succeeds (proper FR, or plain
success for generation/export commands), 1 when the analysis ran but found
no proper revival/transfer, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Iterator

from . import graphs, revival, spectral, states, stellar, transfer


def parse_time(text: str) -> float:
    """Parse a time expression: a number, or rational multiples of pi
    optionally divided by an integer and/or sqrt(D), e.g. "pi/sqrt(2)",
    "2pi/5", "3/2*pi".
    """
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    m = re.fullmatch(r"(\d+(?:/\d+)?)?\*?pi(?:/(.+))?", s)
    if not m:
        raise ValueError(f"cannot parse time expression {text!r}")
    try:
        value = (float(Fraction(m.group(1))) * math.pi if m.group(1)
                 else math.pi)
        if m.group(2):
            dm = re.fullmatch(r"(?:(\d+)\*?)?(?:sqrt\((\d+)\))?",
                              m.group(2))
            if not dm or (dm.group(1) is None and dm.group(2) is None):
                raise ValueError(f"cannot parse time denominator in {text!r}")
            if dm.group(1):
                value /= int(dm.group(1))
            if dm.group(2):
                value /= math.sqrt(int(dm.group(2)))
    except ZeroDivisionError:
        raise ValueError(f"division by zero in time {text!r}") from None
    return value


def parse_vertex_set(text: str) -> set[int]:
    try:
        return {int(part) for part in text.split(",") if part.strip() != ""}
    except ValueError:
        raise ValueError(f"cannot parse vertex set {text!r}")


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected a,k,c, got {text!r}")
    a, k, c = (int(p) for p in parts)
    return a, k, c


def parse_range(text: str) -> range:
    """Parse "3" or "1..5" into an inclusive integer range; "5..1" is an
    input error, not an empty range."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"range {text!r} ends before it starts")
        return range(lo, hi + 1)
    v = int(text)
    return range(v, v + 1)


def load_graph(path: str) -> graphs.Graph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return graphs.graph_from_json(stripped)
    return graphs.graph_from_graph6(stripped)


def _graph_arg(args) -> graphs.Graph:
    if getattr(args, "stellar", None):
        return graphs.build_stellar(*parse_triple(args.stellar))
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    raise ValueError("provide --graph FILE or --stellar a,k,c")


def _decomposition(args) -> spectral.SpectralDecomposition:
    # a fused star is decomposed from its triple, with no graph of n vertices
    if getattr(args, "stellar", None):
        return spectral.stellar_decompose(*parse_triple(args.stellar))
    return spectral.decompose(_graph_arg(args))


def _emit(doc, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        flat = _flatten(doc)
        writer = csv.writer(out)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
    else:
        for key, value in _flatten(doc).items():
            out.write(f"{key}: {value}\n")


def _flatten(doc, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
        return {k.rstrip("."): v for k, v in out.items()} if not prefix else out
    key = prefix.rstrip(".")
    if isinstance(doc, list):
        out[key] = ";".join(str(x) for x in doc)
    else:
        out[key] = doc
    return out


def _oracle(D, a: int, b: int, t: float) -> dict:
    obs = revival.verify_fr_at(D, a, b, t)
    return {"t": obs.t, "off_block_norm": obs.off_block_norm,
            "cross_amplitude": obs.cross_amplitude}


def _warned(doc: dict, D) -> dict:
    """doc with D's distinct warnings, if any, as decomposition_warnings."""
    if D.warnings:
        doc["decomposition_warnings"] = list(dict.fromkeys(D.warnings))
    return doc


def cmd_analyze(args, out) -> int:
    D = _decomposition(args)
    a, b = args.pair
    cert = revival.certify_fr(D, a, b)
    doc = {"certificate": cert.to_json_dict()}
    if cert.tau_min is not None:
        doc["oracle"] = _oracle(D, a, b, cert.tau_min)
    if args.time is not None:
        doc["oracle_at_time"] = _oracle(D, a, b, parse_time(args.time))
    _emit(_warned(doc, D), args.format, out)
    return 0 if cert.is_proper else 1


def cmd_stellar(args, out) -> int:
    a, k, c = parse_triple(args.stellar)
    an = stellar.analyze(a, k, c)
    _emit(an.to_json_dict(), args.format, out)
    return 0 if an.verdict == "proper-FR" else 1


def _family_line(triple: tuple[int, int, int]) -> dict:
    a, k, c = triple
    an = stellar.analyze(a, k, c)
    doc = an.to_json_dict()
    if an.delta is not None:
        doc["diophantine"] = stellar.diophantine_check(
            a, k, c, an.delta, an.alpha, an.beta)
    return doc


def _family_triples(args) -> Iterator[tuple[int, int, int]]:
    """The triples of ``family``'s ranges, made one at a time."""
    if args.polygamy:
        for r in parse_range(args.polygamy):
            yield stellar.generate_polygamy_triple(args.p, r)
        return
    if args.delta is None or args.alpha is None:
        raise ValueError("family needs --delta and --alpha (or --polygamy)")
    betas = parse_range(args.beta) if args.beta else None
    for alpha in parse_range(args.alpha):
        candidates = ([args.beta_factor * alpha] if args.beta_factor
                      else list(betas or []))
        for beta in candidates:
            try:
                triple = stellar.generate_family(
                    stellar.FamilyRecipe.from_parameters(
                        args.p, args.delta, alpha, beta))
            except ValueError:
                continue
            yield triple


def cmd_family(args, out) -> int:
    if args.count is not None and args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    # the triple after the last line is still made, so that bad parameters
    # are an input error under --count 0 too. No line is written before an
    # error: a polygamy triple's a is convex in r and negative at r = 0, so
    # the r it rejects come first in a range
    for i, triple in enumerate(_family_triples(args)):
        if i == args.count:
            break
        out.write(json.dumps(_family_line(triple)) + "\n")
    return 0


def cmd_product(args, out) -> int:
    a, k, c = parse_triple(args.stellar)
    report = transfer.polygamy_witness(a, k, c, args.ell)
    doc = {
        "graph": f"K2 x X({a},{k},{c})",
        "tau_min": report.tau_min,
        "is_polygamous": report.is_polygamous,
        "twin_pair": list(report.twin_pair),
        "twin_time": report.twin_time,
        "twin_off_block_norm": report.twin_observation.off_block_norm,
        "twin_cross_amplitude": report.twin_observation.cross_amplitude,
        "center_pair": list(report.center_pair),
        "center_time": report.center_time,
        "center_off_block_norm": report.center_observation.off_block_norm,
        "center_cross_amplitude": report.center_observation.cross_amplitude,
    }
    _emit(doc, args.format, out)
    return 0 if report.is_polygamous else 1


def cmd_subset(args, out) -> int:
    D = _decomposition(args)
    S = parse_vertex_set(args.s)
    T = parse_vertex_set(args.t)
    t = parse_time(args.time)
    report = transfer.detect_subset_transfer(D, S, T, t, args.tol)
    _emit(_warned(report.to_json_dict(), D), args.format, out)
    return 0 if report.is_transfer else 1


def cmd_export(args, out) -> int:
    if args.format == "json" or args.state is None:
        to_text = {"json": graphs.graph_to_json, "dot": graphs.graph_to_dot}
        out.write(to_text[args.format](_graph_arg(args)) + "\n")
        return 0
    D = _decomposition(args)
    S = states.subset_state(parse_vertex_set(args.state), D.n)
    G = states.support_graph(D, S)
    colors = None
    # the classes of a pair come from its certificate, which needs a
    # connected graph; a disconnected one prints its support uncoloured
    if len(S) == 2 and D.connected:
        a, b = sorted(S)
        cert = revival.certify_fr(D, a, b)
        if cert.is_proper:
            index = {th: r for r, th in enumerate(D.eigenvalues)}
            colors = {index[th]: "lightblue" for th in cert.c_plus}
            colors.update({index[th]: "lightsalmon" for th in cert.c_minus})
    out.write(states.support_graph_to_dot(G, colors=colors) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revival-lab",
        description="Certify fractional revival, periodicity and subset "
                    "state transfer in continuous quantum walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair=False, time=False, formats=("json", "csv", "text"),
               graph=True):
        if graph:
            p.add_argument("--graph", help="graph file (JSON or graph6)")
        p.add_argument("--stellar", required=not graph,
                       help="fused-star parameters a,k,c")
        if pair:
            p.add_argument("--pair", nargs=2, type=int, default=[0, 1],
                           metavar=("A", "B"))
        if time:
            p.add_argument("--time", help='time expression, e.g. "pi/sqrt(2)"')
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("analyze", help="certify FR on a vertex pair")
    common(p, pair=True, time=True)

    p = sub.add_parser("stellar", help="exact analysis of X(a,k,c)")
    common(p, graph=False)

    p = sub.add_parser("family", help="stream generated FR triples")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--delta", type=int)
    p.add_argument("--alpha", help='value or range "1..5"')
    p.add_argument("--beta", help='value or range')
    p.add_argument("--beta-factor", type=int,
                   help="use beta = factor * alpha")
    p.add_argument("--polygamy", help='r value or range "1..3"')
    p.add_argument("--count", type=int)
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; lines are computed one after another")
    p.add_argument("--format", choices=["json"], default="json")

    p = sub.add_parser("product", help="polygamy witness on K2 x X(a,k,c)")
    common(p, graph=False)
    p.add_argument("--ell", type=int, required=True,
                   help="tau_min must equal pi/(2*ell+1)")

    p = sub.add_parser("subset", help="detect subset state transfer")
    common(p, time=True)
    # no default: main reads REVIVAL_LAB_TOL each time subset runs, so one
    # parser serves every call and a bad value is a usage error of subset
    p.add_argument("--tol", type=float,
                   help="transfer residual threshold (env REVIVAL_LAB_TOL)")
    p.set_defaults(usage_error=p.error)
    p.add_argument("--s", required=True, help="source subset, e.g. 0,3")
    p.add_argument("--t", required=True, help="target subset, e.g. 2,5")

    p = sub.add_parser("export", help="emit graph JSON/DOT or support DOT")
    common(p, formats=("json", "dot"))
    p.add_argument("--state", help="vertex subset for the support graph")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "stellar": cmd_stellar,
    "family": cmd_family,
    "product": cmd_product,
    "subset": cmd_subset,
    "export": cmd_export,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None, out=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "subset" and args.tol is None:
        text = os.environ.get("REVIVAL_LAB_TOL",
                              str(transfer.DEFAULT_TRANSFER_TOL))
        try:
            args.tol = float(text)
        except ValueError:
            # the message argparse gives for a bad string default
            args.usage_error(f"argument --tol: invalid float value: {text!r}")
    out = out or sys.stdout
    # nan would refuse every transfer and inf accept every one
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args, out)
    except (ValueError, KeyError, IndexError, OSError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
