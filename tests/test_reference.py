"""The tests' one exact reference: each reference quantity is defined once,
the mpmath precision is set once, and the integer checks agree with mpmath."""

import ast
import math
from pathlib import Path

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import circle_step_within, root_within

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference.py"


def modules_under_tests():
    """(path, syntax tree) of every module under tests/."""
    modules = sorted(TESTS.glob("*.py"))
    assert REFERENCE in modules
    for path in modules:
        yield path, ast.parse(path.read_text(), filename=str(path))


def sets_mp_precision(target):
    """Whether an assignment target is ``mpmath.mp.dps``, ``mp.prec`` or alike."""
    if not (isinstance(target, ast.Attribute) and target.attr in ("dps", "prec")):
        return False
    owner = target.value
    return (isinstance(owner, ast.Name) and owner.id == "mp"
            or isinstance(owner, ast.Attribute) and owner.attr == "mp")


def function_names(tree):
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_no_module_assigns_the_mpmath_precision():
    # the conftest fixture runs every test at 40 digits; a test that needs
    # more opens its own workdps block (a decimal context's prec is no concern)
    for path, tree in modules_under_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                assert not sets_mp_precision(target), f"{path.name}:{node.lineno}"


def test_reference_quantities_are_defined_once():
    shared = function_names(ast.parse(REFERENCE.read_text()))
    assert {"to_mp", "integrate_swap_oracle", "circle_step_within"} <= shared
    for path, tree in modules_under_tests():
        if path == REFERENCE:
            continue
        own = {name for name in function_names(tree)
               if name in shared or ("oracle" in name and not name.startswith("test_"))}
        assert not own, f"{path.name} defines {sorted(own)}"


def test_fixture_sets_40_digits():
    assert mpmath.mp.dps == 40


def test_circle_step_anchors():
    # a 3-4-5 circle about (5, 5): in-reserve 1 puts the out-reserve at 2
    assert circle_step_within(5, 25, 1, 2, halves=0)
    assert not circle_step_within(5, 25, 1, 3)
    assert circle_step_within(5, 25, 1, 3, halves=2)


@given(st.one_of(st.integers(0, 10 ** 42), st.integers(0, 10 ** 21).map(lambda r: r * r)),
       st.integers(-2, 2), st.integers(0, 4))
@settings(max_examples=300)
def test_root_check_matches_100_digit_mpmath(n, shift, halves):
    # 4n and (2 root +- halves)^2 differ by at least 1 unless equal, so
    # 100 digits decide every case up to n = 1e42
    root = math.isqrt(n) + shift
    with mpmath.workdps(100):
        want = abs(root - mpmath.sqrt(n)) <= mpmath.mpf(halves) / 2
    assert root_within(root, n, halves) == want
