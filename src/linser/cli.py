"""usage: linser COMMAND INPUT [--basis SPEC] [--max-depth N] [--pretty]

COMMAND: basepoints, series, invariants, complete, adjoint, strict-transform.
INPUT: a JSON file, or - for stdin.  Options go before or after INPUT, as
--name value or --name=value; the last wins.  --basis deg:N or bideg:A,B
picks the monomial space (series, complete and adjoint need it; invariants
defaults to the series' degree); --max-depth bounds the blowup recursion
(default 32); --pretty draws the basepoint tree on stderr.  Only the JSON
report goes to stdout.  Exit codes: 0 ok, 2 misuse or invalid input, 3 a
mathematical precondition fails, 4 an internal limit tripped.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
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


_COMMANDS = {  # command: (handler, --basis "required", "optional" or None for not taken)
    "basepoints": (_cmd_basepoints, None),
    "series": (_cmd_series, "required"),
    "invariants": (_cmd_invariants, "optional"),
    "complete": (_cmd_complete, "required"),
    "adjoint": (_cmd_adjoint, "required"),
    "strict-transform": (_cmd_strict_transform, None),
}
USAGE = "usage: linser COMMAND INPUT [--basis SPEC] [--max-depth N] [--pretty]"


def _misuse(message):
    print(f"{USAGE}\nlinser: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_option(arg: str) -> bool:
    # "-" and negative numbers such as "-5" are values, as in argparse
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


def _read_argv(argv):
    args = SimpleNamespace(input=None, basis=None, max_depth=DEFAULT_MAX_DEPTH, pretty=False)
    handler = rule = stray = None
    rest = iter(argv)
    for arg in rest:
        name, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            print((__doc__ or USAGE).strip())
            raise SystemExit(0)
        if handler and name == "--pretty":
            if eq:
                _misuse(f"--pretty takes no value, got {value!r}")
            args.pretty = True
        elif handler and name == "--max-depth" or rule and name == "--basis":
            value = value if eq else next(rest, None)
            if value is None or not eq and _is_option(value):
                _misuse(f"{name} needs a value")
            try:
                value = int(value) if name == "--max-depth" else value
            except ValueError:
                _misuse(f"--max-depth needs an integer, got {value!r}")
            setattr(args, name[2:].replace("-", "_"), value)
        elif _is_option(arg) or args.input is not None:
            stray = stray or arg  # refused once argv is read, as by argparse: -h still helps
        elif handler is None:
            if arg not in _COMMANDS:
                _misuse(f"unknown command {arg!r}")
            handler, rule = _COMMANDS[arg]
        else:
            args.input = arg
    if args.input is None:
        _misuse("INPUT is needed" if handler else "COMMAND is needed")
    if rule == "required" and args.basis is None:
        _misuse("this command needs --basis")
    if stray is not None:
        _misuse(f"unrecognized argument {stray!r}")
    return handler, args


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
    handler, args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args.max_depth < 1:
        print("error: --max-depth must be at least 1", file=sys.stderr)
        return 2
    try:
        text = _dumps(handler(args))
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
