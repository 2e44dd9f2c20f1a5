"""Self-tests of the benchmark's output checks: each must reject a corrupted answer.

    python3 -m pytest bench/test_checks.py

The correct answers are the repository's ex2, conic and quintic goldens,
written out by hand; the checks see them with one fault planted.
"""

import copy

import checks
import workloads


def node(point, mult, sequence=(), children_t=()):
    return {"sequence": list(sequence), "point": list(point), "mult": mult,
            "children_t": list(children_t), "children_s": []}


TOWER_I = [{"name": "i", "minpoly": "t^2 + 1"}]
EX2_TREE = [
    node(["0", "0"], 1, children_t=[node(["0", "0"], 1, [[["0", "0"], "t"]])]),
    node(["1", "-i"], 1),
    node(["1", "i"], 1),
]
EX2_BASEPOINTS = {"tower": TOWER_I, "tree": EX2_TREE}
EX2_CASE = {"name": "ex2", "argv": ["basepoints", "-"], "doc": workloads.EX2, "meta": {}}
SERIES_CASE = {"name": "ex2", "argv": ["series", "-", "--basis", "deg:2"],
               "doc": EX2_BASEPOINTS, "meta": {}}
EX2_SERIES = {"tower": TOWER_I, "series": ["u^2 + v^2", "u + v^2"]}


def test_basepoints_accepts_the_golden_tree():
    assert checks.check_basepoints(EX2_CASE, EX2_BASEPOINTS) == []


def test_basepoints_rejects_a_raised_multiplicity():
    for k in range(3):
        bad = copy.deepcopy(EX2_BASEPOINTS)
        bad["tree"][k]["mult"] += 1
        assert checks.check_basepoints(EX2_CASE, bad)


def test_basepoints_rejects_a_moved_point():
    bad = copy.deepcopy(EX2_BASEPOINTS)
    bad["tree"][1]["point"] = ["1", "-i + 1"]
    assert checks.check_basepoints(EX2_CASE, bad)
    bad = copy.deepcopy(EX2_BASEPOINTS)
    bad["tree"][0]["children_t"][0]["point"] = ["1", "0"]
    assert checks.check_basepoints(EX2_CASE, bad)


def test_basepoints_rejects_a_missing_point():
    bad = copy.deepcopy(EX2_BASEPOINTS)
    del bad["tree"][2]
    assert checks.check_basepoints(EX2_CASE, bad)


def test_basepoints_without_pencil_compares_proper_points():
    case = {"name": "quintic", "argv": ["basepoints", "-"], "doc": workloads.QUINTIC, "meta": {}}
    good = {"tower": [], "tree": [node(["0", "0"], 2), node(["0", "1"], 1)]}
    assert checks.check_basepoints(case, good) == []
    bad = copy.deepcopy(good)
    bad["tree"][1]["point"] = ["0", "2"]
    assert checks.check_basepoints(case, bad)


def test_series_accepts_the_golden_series():
    assert checks.check_series(SERIES_CASE, EX2_SERIES) == []


def test_series_rejects_a_member_perturbed_by_a_monomial():
    for k, mono in ((0, "u*v"), (1, "1"), (1, "v")):
        bad = copy.deepcopy(EX2_SERIES)
        bad["series"][k] += f" + {mono}"
        assert checks.check_series(SERIES_CASE, bad)


def test_series_rejects_a_missing_or_dependent_member():
    assert checks.check_series(SERIES_CASE, dict(EX2_SERIES, series=["u^2 + v^2"]))
    doubled = dict(EX2_SERIES, series=["u^2 + v^2", "2*u^2 + 2*v^2"])
    assert checks.check_series(SERIES_CASE, doubled)


def test_series_counts_conditions_of_infinitely_near_points():
    # a double point with one simple point infinitely near: 3 + 1 conditions
    tree = [node(["1", "2"], 2, children_t=[node(["3", "0"], 1, [[["1", "2"], "t"]])])]
    case = {"name": "chain", "argv": ["series", "-", "--basis", "deg:2"],
            "doc": {"tower": [], "tree": tree}, "meta": {}}
    # conics singular at (1, 2) whose tangent cone contains u - 1 = 3*(v - 2)
    good = {"tower": [], "series": ["(u - 1)^2 - 3*(u - 1)*(v - 2)",
                                    "(u - 1)*(v - 2) - 3*(v - 2)^2"]}
    assert checks.check_series(case, good) == []
    assert checks.check_series(case, dict(good, series=["(u - 1)^2", "(v - 2)^2"]))


INVARIANT_CASES = {
    cmd: {"name": f"conic.{cmd}", "argv": [cmd, "-"], "doc": workloads.CONIC,
          "meta": {"degree": 2}}
    for cmd in ("invariants", "complete")
}
CONIC_OUTPUTS = {
    "invariants": {
        "tower": [], "tree": [node(["0", "0"], 1)],
        "h": {"basis": "type1", "coeffs": [2, -1]},
        "k": {"basis": "type1", "coeffs": [-3, 1]},
        "h_squared": 3, "h_dot_k": -5, "degree": 3, "sectional_genus": 0, "h0": 5,
        "arithmetic_genus": 0, "adjoint_class": {"basis": "type1", "coeffs": [-1, 0]},
        "involution": [0],
    },
    "complete": {"tower": [], "series": ["u^2", "u*v", "u", "v^2", "v"]},
}


def test_invariants_accept_the_golden_answers():
    assert checks.check_invariants_doc(INVARIANT_CASES, CONIC_OUTPUTS) == []


def test_invariants_reject_corrupted_answers():
    bad = copy.deepcopy(CONIC_OUTPUTS)
    bad["invariants"]["tree"][0]["mult"] += 1
    assert checks.check_invariants_doc(INVARIANT_CASES, bad)
    bad = copy.deepcopy(CONIC_OUTPUTS)
    bad["invariants"]["h0"] = 4
    assert checks.check_invariants_doc(INVARIANT_CASES, bad)
    bad = copy.deepcopy(CONIC_OUTPUTS)
    bad["complete"]["series"][4] = "v + 1"
    assert checks.check_invariants_doc(INVARIANT_CASES, bad)


def test_adjoint_members_must_pass_through_the_points_once_less():
    cases = {cmd: {"name": f"quintic.{cmd}", "argv": [cmd, "-"], "doc": workloads.QUINTIC,
                   "meta": {"degree": 5}} for cmd in ("invariants", "complete", "adjoint")}
    tree = [node(["0", "0"], 2), node(["0", "1"], 1)]
    outputs = {
        "invariants": {
            "tower": [], "tree": tree,
            "h": {"basis": "type1", "coeffs": [5, -2, -1]},
            "k": {"basis": "type1", "coeffs": [-3, 1, 1]},
            "h_squared": 20, "h_dot_k": -12, "degree": 20, "sectional_genus": 5, "h0": 17,
            "arithmetic_genus": 0, "adjoint_class": {"basis": "type1", "coeffs": [2, -1, 0]},
            "involution": [0, 1],
        },
        "complete": {"tower": [], "series": workloads.QUINTIC["series"]},
        "adjoint": {"tower": [], "series": ["u^2", "u*v", "u", "v^2", "v"]},
    }
    assert checks.check_invariants_doc(cases, outputs) == []
    bad = copy.deepcopy(outputs)
    bad["adjoint"]["series"][4] = "v + 1"
    assert checks.check_invariants_doc(cases, bad)


def test_constructed_points_must_all_be_found():
    made = {"square": 2, "points": [["1", "0", "1", 1], ["0", "1", "0", 1]]}
    tower = [{"name": "a0", "minpoly": "t^2 - 2"}]
    found = {"tower": tower,
             "tree": [node(["0", "1"], 1), node(["-a0 + 1", "0"], 1), node(["a0 + 1", "0"], 1)]}
    assert checks._construction_errors(found, made) == []
    moved = copy.deepcopy(found)
    moved["tree"][2]["point"] = ["a0 + 2", "0"]
    assert checks._construction_errors(moved, made)
    raised = copy.deepcopy(found)
    raised["tree"][0]["mult"] = 2
    assert checks._construction_errors(raised, made)


def test_constructed_series_has_the_expected_dimension():
    # three simple points and one double point on quartics: 15 - 3 - 3
    points = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (2, 2, 0, 2)]
    assert len(checks.complete_series_through(points, None, 4)) == 9
    # a conjugate pair (1 +- sqrt 2, 0) on cubics: 10 - 2
    assert len(checks.complete_series_through([(1, 0, 1, 1)], 2, 3)) == 8
