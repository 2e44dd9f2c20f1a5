"""Independent checks of the program's answers, computed with sympy.

Nothing here imports linser.  Field elements are polynomials in the
tower's generator names, reduced modulo the minimal polynomials, which
form a Groebner basis (their leading terms are coprime pure powers), so
an element reduces to zero exactly when it is zero.  Linear algebra over
a tower of degree n runs over QQ on the n-fold blown-up matrix, where
each entry becomes its multiplication matrix on the power basis.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import lex
from sympy.polys.rings import ring


class Field:
    """Polynomials in u, v over a tower given by its JSON declaration."""

    def __init__(self, tower):
        self.names = [g["name"] for g in tower]
        symbols = ["u", "v"] + self.names[::-1]
        self.ring, self.u, self.v, *gens = ring(symbols, QQ, lex)
        self.gens = gens[::-1]  # tower order
        self.locals = {name: sympy.Symbol(name) for name in symbols}
        self.minpolys = []
        for j, g in enumerate(tower):
            self.locals["t"] = sympy.Symbol(self.names[j])
            self.minpolys.append(self.parse(g["minpoly"]))
        self.locals.pop("t", None)
        self.degrees = [p.degree(x) for p, x in zip(self.minpolys, self.gens)]
        self.basis = list(itertools.product(*[range(d) for d in self.degrees]))
        self.index = {e: k for k, e in enumerate(self.basis)}

    @property
    def degree(self) -> int:
        return len(self.basis)

    def reduce(self, p):
        return p.rem(self.minpolys) if self.minpolys else p

    def parse(self, text: str):
        expr = sympy.sympify(text.replace("^", "**"), locals=self.locals)
        return self.reduce(self.ring(expr))

    def constant(self, x):
        x = Fraction(x)
        return self.ring(QQ(x.numerator, x.denominator))

    def coords(self, c):
        """Rational coordinates of a reduced constant on the power basis."""
        vec = [QQ(0)] * self.degree
        for monom, coeff in c.iterterms():
            if monom[0] or monom[1]:
                raise ValueError(f"{c} is not a constant")
            vec[self.index[tuple(monom[2:][::-1])]] = coeff
        return vec

    def monomial(self, e):
        out = self.ring.one
        for g, k in zip(self.gens, e):
            out *= g ** k
        return out

    def mul_matrix(self, c):
        cols = [self.coords(self.reduce(c * self.monomial(e))) for e in self.basis]
        return [[cols[j][i] for j in range(self.degree)] for i in range(self.degree)]

    def rank(self, rows, ncols: int) -> int:
        """Rank over the tower of a matrix of reduced constants."""
        n = self.degree
        if not rows:
            return 0
        big = [[QQ(0)] * (ncols * n) for _ in range(len(rows) * n)]
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    block = self.mul_matrix(c)
                    for a in range(n):
                        big[i * n + a][j * n:(j + 1) * n] = block[a]
        r = DomainMatrix(big, (len(big), ncols * n), QQ).rank()
        if r % n:
            raise ValueError("blown-up rank is not a multiple of the field degree")
        return r // n

    def split_rows(self, rows):
        """Rational rows whose common kernel is the rational part of the kernel."""
        out = []
        for row in rows:
            coords = [self.coords(c) for c in row]
            for k in range(self.degree):
                out.append([cc[k] for cc in coords])
        return out

    # -- blowup charts ---------------------------------------------------------

    def chart(self, p, point, chart):
        """Pull p back through the blowup chart at point: t is (v*u+x, v+y), s is (u+x, u*v+y)."""
        x, y = point
        u, v = self.u, self.v
        if chart == "t":
            images = [(u, v * u + x), (v, v + y)]
        else:
            images = [(u, u + x), (v, u * v + y)]
        return self.reduce(p.compose(images))

    def order(self, p, chart) -> int:
        """Power of the exceptional coordinate dividing p (v in chart t, u in chart s)."""
        k = 1 if chart == "t" else 0
        return min((m[k] for m in p.itermonoms()), default=math.inf)

    def shift_down(self, p, chart, m):
        """Divide by the exceptional power, dropping terms of lower order."""
        k = 1 if chart == "t" else 0
        terms = {}
        for monom, coeff in p.iterterms():
            if monom[k] >= m:
                monom = list(monom)
                monom[k] -= m
                terms[tuple(monom)] = coeff
        return self.ring.from_dict(terms) if terms else self.ring.zero

    def low_coeffs(self, p, m):
        """Coefficients of u^a v^(a+b), a+b < m, of a chart-t pullback: the order-<m jet."""
        out = []
        for a in range(m):
            for b in range(m - a):
                c = self.ring.zero
                for monom, coeff in p.iterterms():
                    if monom[0] == a and monom[1] == a + b:
                        c += self.ring.from_dict({(0, 0) + tuple(monom[2:]): coeff})
                out.append(c)
        return out


def tree_nodes(tree):
    """Nodes in the program's order: depth first, T-branches before S-branches."""
    out = []

    def walk(node):
        out.append(node)
        for c in node["children_t"]:
            walk(c)
        for c in node["children_s"]:
            walk(c)

    for root in tree:
        walk(root)
    return out


def monomials(basis: str):
    if basis.startswith("deg:"):
        d = int(basis[4:])
        return [(j, k) for j in range(d, -1, -1) for k in range(d - j, -1, -1)]
    a, b = (int(x) for x in basis[6:].split(","))
    return [(j, k) for j in range(a + 1) for k in range(b + 1)]


def condition_rows(field, tree, mults, basis):
    """The vanishing conditions a tree with the given multiplicities imposes.

    One row per node and jet coefficient of order below the node's
    multiplicity, one column per basis monomial; entering a branch pulls
    the transform back and divides by the exceptional power.
    """
    mono = monomials(basis)
    it = iter(mults)
    rows = []

    def walk(node, polys):
        m = next(it)
        point = tuple(field.parse(c) for c in node["point"])
        pulled_t = [field.chart(p, point, "t") for p in polys]
        cols = [field.low_coeffs(p, m) for p in pulled_t]
        rows.extend([c[r] for c in cols] for r in range(m * (m + 1) // 2))
        for child in node["children_t"]:
            walk(child, [field.shift_down(p, "t", m) for p in pulled_t])
        if node["children_s"]:
            pulled_s = [field.chart(p, point, "s") for p in polys]
            for child in node["children_s"]:
                walk(child, [field.shift_down(p, "s", m) for p in pulled_s])

    gens = [field.u ** j * field.v ** k for j, k in mono]
    for root in tree:
        walk(root, gens)
    return rows, mono


def coefficient_vector(field, poly, mono):
    """Coefficients of poly on the monomials, or None if it leaves their span."""
    index = {e: k for k, e in enumerate(mono)}
    vec = [field.ring.zero] * len(mono)
    for monom, coeff in poly.iterterms():
        e = (monom[0], monom[1])
        if e not in index:
            return None
        vec[index[e]] += field.ring.from_dict({(0, 0) + tuple(monom[2:]): coeff})
    return vec


def members_satisfy(field, rows, mono, members):
    """Error text for the first member outside the span or the kernel, else None."""
    for text in members:
        vec = coefficient_vector(field, field.parse(text), mono)
        if vec is None:
            return f"member {text} leaves the monomial basis"
        for row in rows:
            if field.reduce(sum((a * b for a, b in zip(row, vec)), field.ring.zero)):
                return f"member {text} breaks a vanishing condition"
    return None


# -- construction of the invariants workload's series --------------------------------


def complete_series_through(points, square, degree):
    """A rational basis of all curves of a degree through assigned points.

    points holds (x, z, y, m): the point (x + y*g, z) with multiplicity m,
    where g^2 = square; with y nonzero the conjugate point is imposed too,
    because the basis is rational.
    """
    tower = [] if square is None else [{"name": "g", "minpoly": f"t^2 - ({square})"}]
    field = Field(tower)
    g = field.gens[0] if field.gens else field.ring.zero
    tree = []
    for x, z, y, m in points:
        pt = field.constant(x) + field.constant(y) * g
        tree.append({
            "point": [str(pt.as_expr()), str(field.constant(z).as_expr())],
            "children_t": [], "children_s": [],
        })
    rows, mono = condition_rows(field, tree, [m for *_, m in points], f"deg:{degree}")
    rational = field.split_rows(rows)
    kernel = DomainMatrix(rational, (len(rational), len(mono)), QQ).nullspace()
    out = []
    for vec in kernel.to_Matrix().tolist():
        poly = sum(
            (field.ring(c) * field.u ** j * field.v ** k for c, (j, k) in zip(vec, mono)),
            field.ring.zero,
        )
        out.append(str(poly).replace("**", "^"))
    return out


# -- per-workload checks --------------------------------------------------------------


def _mult_errors(field, tree, polys):
    """Each node's multiplicity must be the exact order of the generators there."""
    errors = []

    def walk(node, current):
        point = tuple(field.parse(c) for c in node["point"])
        m = node["mult"]
        for chart, kids in (("t", node["children_t"]), ("s", node["children_s"])):
            pulled = [field.chart(p, point, chart) for p in current]
            order = min(field.order(p, chart) for p in pulled)
            if order != m:
                errors.append(f"node at {node['point']}: order {order}, mult {m}")
                return
            for child in kids:
                walk(child, [field.shift_down(p, chart, m) for p in pulled])

    for root in tree:
        walk(root, polys)
    return errors


def _quotient_dim(polys_text, tower):
    """dim over the tower of K[u,v]/(f, g), from a Groebner basis over QQ."""
    field = Field(tower)
    syms = [sympy.Symbol(s) for s in ["u", "v"] + field.names]
    exprs = [sympy.sympify(p.replace("^", "**"), locals=field.locals) for p in polys_text]
    exprs += [p.as_expr() for p in field.minpolys]
    G = sympy.groebner(exprs, *syms, order="grevlex")
    if not G.is_zero_dimensional:
        return None
    leads = [sympy.Poly(p, *syms).monoms(order="grevlex")[0] for p in G.exprs]
    bounds = [min(l[k] for l in leads if all(l[j] == 0 for j in range(len(syms)) if j != k))
              for k in range(len(syms))]
    count = sum(
        1 for e in itertools.product(*[range(b) for b in bounds])
        if not any(all(a >= b for a, b in zip(e, l)) for l in leads)
    )
    return Fraction(count, field.degree)


def check_basepoints(case, out):
    doc = case["doc"]
    field = Field(out["tower"])
    polys = [field.parse(p) for p in doc["series"]]
    errors = _mult_errors(field, out["tree"], polys)
    nodes = tree_nodes(out["tree"])
    if len(doc["series"]) == 2:
        dim = _quotient_dim(doc["series"], doc.get("extensions", []))
        total = sum(n["mult"] ** 2 for n in nodes)
        if dim != total:
            errors.append(f"sum of squared multiplicities {total} != dim {dim}")
    else:
        # no intersection-number identity for more generators: compare the
        # proper basepoints with sympy's solutions, all rational here
        u, v = sympy.symbols("u v")
        exprs = [sympy.sympify(p.replace("^", "**")) for p in doc["series"]]
        sols = {(Fraction(str(s[u])), Fraction(str(s[v])))
                for s in sympy.solve(exprs, [u, v], dict=True)}
        try:
            roots = {(Fraction(r["point"][0]), Fraction(r["point"][1])) for r in out["tree"]}
        except ValueError:
            return errors + ["a proper basepoint is not rational"]
        if sols != roots:
            errors.append(f"proper basepoints {sorted(roots)} != common zeros {sorted(sols)}")
    return errors


def check_series(case, out):
    doc = case["doc"]
    basis = case["argv"][case["argv"].index("--basis") + 1]
    field = Field(out["tower"])
    mults = [n["mult"] for n in tree_nodes(doc["tree"])]
    rows, mono = condition_rows(field, doc["tree"], mults, basis)
    errors = []
    nullity = len(mono) - field.rank(rows, len(mono))
    members = out["series"]
    if len(members) != nullity:
        errors.append(f"{len(members)} members, nullity {nullity}")
    if basis.startswith("deg:"):
        d = int(basis[4:])
        if d >= sum(mults) - 1:
            expected = math.comb(d + 2, 2) - sum(m * (m + 1) // 2 for m in mults)
            if len(members) != expected:
                errors.append(f"{len(members)} members, expected {expected}")
    bad = members_satisfy(field, rows, mono, members)
    if bad:
        errors.append(bad)
    vecs = [coefficient_vector(field, field.parse(t), mono) for t in members]
    if None not in vecs and field.rank(vecs, len(mono)) != len(members):
        errors.append("members are linearly dependent")
    return errors


def _span_rank(field, texts, mono):
    vecs = [coefficient_vector(field, field.parse(t), mono) for t in texts]
    if None in vecs:
        return None
    return field.rank(vecs, len(mono))


def check_invariants_doc(doc_cases, outputs):
    """Checks across the invariants, complete and adjoint outputs of one document."""
    inv = outputs["invariants"]
    case = doc_cases["invariants"]
    d = case["meta"]["degree"]
    nodes = tree_nodes(inv["tree"])
    mults = [n["mult"] for n in nodes]
    r = len(mults)
    h2 = d * d - sum(m * m for m in mults)
    hk = -3 * d + sum(mults)
    h0 = inv["h0"]
    expected = {
        "h": {"basis": "type1", "coeffs": [d] + [-m for m in mults]},
        "k": {"basis": "type1", "coeffs": [-3] + [1] * r},
        "h_squared": h2,
        "h_dot_k": hk,
        "degree": h2,
        "sectional_genus": (h2 + hk) // 2 + 1,
        "arithmetic_genus": h0 - (h2 - hk) // 2 - 1,
        "adjoint_class": {"basis": "type1", "coeffs": [d - 3] + [1 - m for m in mults]},
    }
    errors = [f"{k}: {inv[k]} != {v}" for k, v in expected.items() if inv[k] != v]
    made = case["meta"].get("construction")
    if made is not None:
        errors += _construction_errors(inv, made)
    comp = outputs["complete"]
    if len(comp["series"]) != h0:
        errors.append(f"complete has {len(comp['series'])} members, h0 is {h0}")
    field = Field(comp["tower"])
    mono = monomials(f"deg:{d}")
    base = _span_rank(field, comp["series"], mono)
    both = _span_rank(field, comp["series"] + case["doc"]["series"], mono)
    if base is None or base != len(comp["series"]) or both != base:
        errors.append("the input series is not in the span of the completed series")
    adj = outputs.get("adjoint")
    if adj is not None:
        if adj["tower"] != inv["tower"]:
            errors.append("adjoint and invariants trees live over different towers")
        else:
            field = Field(adj["tower"])
            rows, mono = condition_rows(field, inv["tree"], [m - 1 for m in mults], f"deg:{d - 3}")
            bad = members_satisfy(field, rows, mono, adj["series"])
            if bad:
                errors.append("adjoint " + bad)
    return errors


def _construction_errors(inv, made):
    """The tree must hold exactly the assigned points, with their multiplicities."""
    field = Field(inv["tower"])
    nodes = tree_nodes(inv["tree"])
    if any(n["children_t"] or n["children_s"] for n in nodes):
        return ["the tree has infinitely near points none were assigned"]
    want = []
    for x, z, y, m in made["points"]:
        want += [(x, z, y, m)] * (1 if Fraction(y) == 0 else 2)
    if len(nodes) != len(want):
        return [f"{len(nodes)} basepoints, {len(want)} assigned"]
    unmatched = list(nodes)
    for x, z, y, m in want:
        for n in unmatched:
            pu, pv = (field.parse(c) for c in n["point"])
            # pu is x + y*g or its conjugate: (pu - x)^2 = y^2 g^2
            dx = pu - field.constant(x)
            rhs = field.constant(Fraction(y) ** 2 * Fraction(made["square"] or 0))
            if n["mult"] == m and not field.reduce(pv - field.constant(z)) and (
                not field.reduce(dx) if Fraction(y) == 0 else not field.reduce(dx * dx - rhs)
            ):
                unmatched.remove(n)
                break
        else:
            return [f"assigned point ({x} + {y}*g, {z}) of multiplicity {m} is missing"]
    return []


def check_workload(workload, cases, outputs):
    """Error texts for every case whose output fails its checks."""
    errors = []
    if workload == "invariants":
        groups = {}
        for case in cases:
            doc, cmd = case["name"].rsplit(".", 1)
            groups.setdefault(doc, {})[cmd] = case
        for doc, group in groups.items():
            outs = {cmd: outputs[c["name"]] for cmd, c in group.items()}
            errors += [f"{doc}: {e}" for e in check_invariants_doc(group, outs)]
        return errors
    check = check_basepoints if workload == "basepoints" else check_series
    for case in cases:
        if case["name"] in outputs:
            errors += [f"{case['name']}: {e}" for e in check(case, outputs[case["name"]])]
    return errors


def output_sizes(case, out):
    """Output sizes recorded beside the trace, for context; not metrics."""
    sizes = {}
    if "tree" in case["doc"]:
        sizes["input_nodes"] = len(tree_nodes(case["doc"]["tree"]))
    if "tree" in out:
        nodes = tree_nodes(out["tree"])
        sizes["points_found"] = len(out["tree"])
        sizes["tree_nodes"] = len(nodes)
        sizes["tree_depth"] = max((len(n["sequence"]) + 1 for n in nodes), default=0)
    if "matrix" in out:
        sizes["matrix_rows"] = len(out["matrix"])
        sizes["kernel_dim"] = len(out["kernel"])
    if "series" in out:
        sizes["members"] = len(out["series"])
    return sizes
