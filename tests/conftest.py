"""Prints one PASS/FAIL line per acceptance criterion after the run, and
provides the extend_field_calls fixture."""

import pytest

from linser import factorize, numfield

CRITERIA = {
    "test_criterion_1_basepoint_tree_and_chart_transforms":
        "criterion 1: basepoint tree with an infinitely near point and a "
        "conjugate pair, plus both chart transforms",
    "test_criterion_2_constraint_matrix_kernel_series":
        "criterion 2: derivative-condition matrix, kernel, and the series "
        "through an assigned tree",
    "test_criterion_3_simple_point_and_strict_transform":
        "criterion 3: simple basepoint of the conic system and its strict "
        "transform",
    "test_criterion_4_series_completion":
        "criterion 4: completion of a partial series to every curve through "
        "its basepoints",
    "test_criterion_5_lattice_invariants_and_adjoint":
        "criterion 5: lattice invariants of the conic and quintic systems, "
        "adjoint class and adjoint series",
    "test_criterion_6_product_surface_series":
        "criterion 6: bidegree series on the product surface, dimensions, "
        "span, and self-intersection",
    "test_criterion_7_randomized_property_suites":
        "criterion 7: randomized property suites over exact arithmetic",
    "test_criterion_8_failure_modes_and_round_trips":
        "criterion 8: failure exit codes and byte-identical serialization "
        "round trips",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _outcomes[name] = report.passed
    elif report.failed:
        _outcomes[name] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in CRITERIA.items():
        if name in _outcomes:
            status = "PASS" if _outcomes[name] else "FAIL"
            terminalreporter.write_line(f"{status}  {label}")


@pytest.fixture
def extend_field_calls(monkeypatch):
    """The arguments of each call of the public numfield.extend_field, under
    every name the library looks it up by."""
    calls = []
    real = numfield.extend_field

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (numfield, factorize):
        monkeypatch.setattr(module, "extend_field", spied)
    return calls
