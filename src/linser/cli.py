"""Command-line driver: JSON problem files in, deterministic JSON out.

Subcommands wrap the library one-to-one.  stdout carries nothing but the
JSON report; human-oriented diagnostics go to stderr.  Exit codes: 0 on
success, 2 for unparseable or invalid input, 3 when a mathematical
precondition fails (common factor, missing adjoint, not a basepoint),
4 for internal errors and tripped recursion guards.  The report is
written in the layout of json.dumps(report, indent=2), byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import baselocus, linseries, nslattice, parsing
from .baselocus import DEFAULT_MAX_DEPTH
from .bipoly import common_tower
from .errors import (
    InvalidExtension,
    InvalidInput,
    LinserError,
    NoAdjoint,
    NonConstantGcd,
    NotABasepoint,
    ParseError,
    SizeLimitExceeded,
)
from .linseries import Bidegree, LinearSeries, TotalDegree
from .numfield import QQ

MAX_BASIS_DEGREE = 100  # complete at deg:100 takes seconds, at deg:200 over a minute

_SERIES_FIELDS = {"variables", "extensions", "series", "chart", "sequence"}


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} is nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SizeLimitExceeded(f"{path}: {exc}") from None


def _series_document(doc, allow_sequence=False):
    """Parse an input document into (polynomials, tower, raw sequence)."""
    if not isinstance(doc, dict):
        raise InvalidInput("the input document must be a JSON object")
    allowed = _SERIES_FIELDS if allow_sequence else _SERIES_FIELDS - {"sequence"}
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidInput(f"unknown input fields: {sorted(unknown)}")
    variables = doc.get("variables", ["u", "v"])
    if variables != ["u", "v"]:
        raise InvalidInput('the only supported variables are ["u", "v"]')
    chart = doc.get("chart")
    if chart is not None and not isinstance(chart, str):
        raise InvalidInput("chart must be a string when present")
    tower = parsing.tower_from_json(doc.get("extensions", []))
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        raise InvalidInput('the document needs a nonempty "series" list')
    if not all(isinstance(s, str) for s in series):
        raise InvalidInput("series entries must be expression strings")
    polys = [parsing.parse_bipoly(s, tower) for s in series]
    return polys, tower, doc.get("sequence")


def _basis_spec(text: str):
    if text.startswith("deg:"):
        body = text[len("deg:"):]
        try:
            degrees = [int(body)]
        except ValueError:
            raise InvalidInput(f"bad total degree {body!r}") from None
    elif text.startswith("bideg:"):
        body = text[len("bideg:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise InvalidInput("bidegree must look like bideg:A,B")
        try:
            degrees = [int(parts[0]), int(parts[1])]
        except ValueError:
            raise InvalidInput(f"bad bidegree {body!r}") from None
    else:
        raise InvalidInput(f"unknown basis spec {text!r}; use deg:N or bideg:A,B")
    if max(degrees) > MAX_BASIS_DEGREE:
        raise SizeLimitExceeded(f"basis {text} exceeds degree {MAX_BASIS_DEGREE}")
    return TotalDegree(*degrees) if len(degrees) == 1 else Bidegree(*degrees)


def _series_json(polys, tower):
    return {
        "tower": parsing.tower_to_json(tower),
        "series": [str(f) for f in polys],
    }


def _pretty_tree(tree) -> str:
    lines = []

    def walk(node, depth, label):
        head = "  " * depth + (f"{label} -> " if label else "")
        lines.append(
            f"{head}<({node.point[0]}, {node.point[1]}), mult {node.mult}>"
        )
        for child in node.children_t:
            walk(child, depth + 1, "t")
        for child in node.children_s:
            walk(child, depth + 1, "s")

    for root in tree.roots:
        walk(root, 0, "")
    return "\n".join(lines) if lines else "(no basepoints)"


def _cmd_basepoints(args):
    polys, tower, _ = _series_document(_load_json(args.input))
    tree = baselocus.get_basepoints(polys, tower=tower, max_depth=args.max_depth)
    if args.pretty:
        print(_pretty_tree(tree), file=sys.stderr)
    return baselocus.tree_to_json(tree)


def _cmd_series(args):
    doc = _load_json(args.input)
    tree = baselocus.tree_from_json(doc, max_depth=args.max_depth)
    G = linseries.monomial_basis(_basis_spec(args.basis))
    M = linseries.set_basepoints(tree, G)
    kernel = linseries.kernel_basis(M)
    series = linseries.kernel_members(M, G, kernel)
    if args.pretty:
        print(_pretty_tree(tree), file=sys.stderr)
    return {
        "tower": parsing.tower_to_json(M.tower),
        "basis": [str(g) for g in G],
        "matrix": [[str(e) for e in row] for row in M.rows],
        "kernel": [[str(e) for e in vec] for vec in kernel],
        "series": [str(f) for f in series],
    }


def _cmd_invariants(args):
    polys, tower, _ = _series_document(_load_json(args.input))
    # the series first: the default degree is only defined for valid generators
    F = LinearSeries(polys, tower)
    if args.basis is not None:
        spec = _basis_spec(args.basis)
    else:
        spec = TotalDegree(max(f.degree() for f in polys))
    linseries._check_fits(F, spec)
    tree = baselocus.get_basepoints(F.generators, tower=F.tower, max_depth=args.max_depth)
    h, k, ctx = nslattice.class_of_series(tree, spec)
    h0 = nslattice.h0_of_class(h, tree)
    if args.pretty:
        print(_pretty_tree(tree), file=sys.stderr)
    report = {
        "tower": parsing.tower_to_json(tree.tower),
        "tree": baselocus.tree_to_json(tree)["tree"],
        "h": nslattice.class_to_json(h),
        "k": nslattice.class_to_json(k),
        "h_squared": nslattice.intersect(h, h),
        "h_dot_k": nslattice.intersect(h, k),
        "degree": nslattice.degree_of_surface(ctx),
        "sectional_genus": nslattice.sectional_genus(ctx),
        "h0": h0,
        "arithmetic_genus": (
            nslattice.arithmetic_genus(ctx, h0) if h0 >= 1 else None
        ),
        "adjoint_class": nslattice.class_to_json(nslattice.adjoint_class(ctx)),
        "involution": (
            list(ctx.involution) if ctx.involution is not None else None
        ),
    }
    return report


def _cmd_complete(args):
    polys, tower, _ = _series_document(_load_json(args.input))
    F = LinearSeries(polys, tower)
    out = linseries.complete_series(F, _basis_spec(args.basis))
    return _series_json(out.generators, out.tower)


def _cmd_adjoint(args):
    polys, tower, _ = _series_document(_load_json(args.input))
    spec = _basis_spec(args.basis)
    if not isinstance(spec, TotalDegree):
        raise InvalidInput("the adjoint construction needs --basis deg:N")
    F = LinearSeries(polys, tower)
    out = linseries.adjoint_series(F, spec)
    return _series_json(out.generators, out.tower)


def _cmd_strict_transform(args):
    polys, tower, raw_seq = _series_document(_load_json(args.input), allow_sequence=True)
    if not isinstance(raw_seq, list) or not raw_seq:
        raise InvalidInput('strict-transform needs a nonempty "sequence" list')
    steps = baselocus.sequence_from_json(raw_seq, tower)
    out = baselocus.strict_transform(polys, steps)
    t = tower
    for f in out:
        t = common_tower(t, f.tower)
    return _series_json(out, t)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so every main() in a process shares one
    parser = argparse.ArgumentParser(
        prog="linser",
        description="Basepoint trees, linear series and lattice invariants "
        "of plane curve systems, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, basis=None):
        p.add_argument("input", help="path to a JSON problem file, or - for stdin")
        p.add_argument(
            "--max-depth",
            type=int,
            default=DEFAULT_MAX_DEPTH,
            help="blowup/tree recursion bound (default %(default)s)",
        )
        p.add_argument(
            "--pretty",
            action="store_true",
            help="also draw the basepoint tree on stderr",
        )
        if basis == "required":
            p.add_argument("--basis", required=True, help="deg:N or bideg:A,B")
        elif basis == "optional":
            p.add_argument(
                "--basis",
                default=None,
                help="deg:N or bideg:A,B (default: deg of the input series)",
            )

    p = sub.add_parser("basepoints", help="resolve all basepoints of a series")
    common(p)
    p.set_defaults(handler=_cmd_basepoints)

    p = sub.add_parser("series", help="series through a basepoint tree")
    common(p, basis="required")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("invariants", help="lattice invariants of a series")
    common(p, basis="optional")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("complete", help="complete a series within a degree bound")
    common(p, basis="required")
    p.set_defaults(handler=_cmd_complete)

    p = sub.add_parser("adjoint", help="adjoint series of a planar series")
    common(p, basis="required")
    p.set_defaults(handler=_cmd_adjoint)

    p = sub.add_parser(
        "strict-transform", help="transform a series along a blowup sequence"
    )
    common(p)
    p.set_defaults(handler=_cmd_strict_transform)

    return parser


def _dumps(x, newline="\n") -> str:
    """json.dumps(x, indent=2) for string-keyed reports, each string
    escaped by the C encoder (with an indent, json.dumps runs in Python)."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if not isinstance(x, (list, tuple, dict)):
        return json.dumps(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = newline + "  "
    if isinstance(x, dict):
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [encode_basestring_ascii(v) if isinstance(v, str) else _dumps(v, inner) for v in x]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_depth < 1:
        print("error: --max-depth must be at least 1", file=sys.stderr)
        return 2
    try:
        text = _dumps(args.handler(args))
    except (InvalidInput, InvalidExtension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConstantGcd, NoAdjoint, NotABasepoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LinserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print("error: recursion went past Python's limit", file=sys.stderr)
        return 4
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
