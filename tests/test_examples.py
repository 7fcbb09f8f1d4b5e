"""Smoke tests for the runnable examples (the fast ones)."""

import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(_REPO, "examples", script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return result.stdout


def test_quickstart_example():
    out = _run("quickstart.py")
    assert "(define-fun max2" in out
    assert "(define-fun max3" in out
    assert "verified: True" in out


def test_multi_function_example():
    out = _run("multi_function.py", timeout=240)
    assert "(define-fun next" in out
    assert "jointly verified: True" in out


@pytest.mark.parametrize(
    "script, expected",
    [
        ("invariant_synthesis.py", "verified (pre, inductive, post): True"),
        ("custom_grammar.py", "solved by deduction (Match): True"),
    ],
)
def test_solver_example(script, expected):
    # These build solvers directly, so they break if a solver's
    # constructor changes.
    assert expected in _run(script)


def test_examples_exist_and_have_docstrings():
    for script in os.listdir(os.path.join(_REPO, "examples")):
        if not script.endswith(".py"):
            continue
        with open(os.path.join(_REPO, "examples", script)) as handle:
            source = handle.read()
        assert '"""' in source.split("\n", 2)[-1] or source.startswith(
            '#!'
        ), f"{script} needs a docstring"
