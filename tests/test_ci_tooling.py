"""The CI gate: .github/known_failures.py passes a junit file only if its failures are the known ones."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "known_failures.py"
KNOWN = ["tests.test_a::test_known", "tests.test_b::test_also_known"]


@pytest.fixture(scope="module")
def known_failures():
    spec = importlib.util.spec_from_file_location("known_failures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def junit(tmp_path, cases):
    """A junit file of {"classname::name": outcome}, the outcome "", "failure" or "error"."""
    body = ""
    for case, outcome in cases.items():
        classname, name = case.split("::")
        inner = f'<{outcome} message="x"/>' if outcome else ""
        body += f'<testcase classname="{classname}" name="{name}">{inner}</testcase>'
    path = tmp_path / "junit.xml"
    path.write_text(f'<?xml version="1.0"?><testsuites><testsuite name="pytest">{body}'
                    "</testsuite></testsuites>")
    return str(path)


def test_exactly_the_known_failures_pass(known_failures, tmp_path, capsys):
    path = junit(tmp_path, {KNOWN[0]: "failure", KNOWN[1]: "failure",
                            "tests.test_a::test_fine": ""})
    assert known_failures.main([path, *KNOWN]) == 0
    assert capsys.readouterr().out == ""


def test_an_extra_failure_fails(known_failures, tmp_path, capsys):
    path = junit(tmp_path, {KNOWN[0]: "failure", KNOWN[1]: "failure",
                            "tests.test_a::test_new": "failure"})
    assert known_failures.main([path, *KNOWN]) == 1
    assert capsys.readouterr().out == "unexpected failure: tests.test_a::test_new\n"


def test_an_error_fails(known_failures, tmp_path, capsys):
    path = junit(tmp_path, {KNOWN[0]: "failure", KNOWN[1]: "failure",
                            "tests.test_a::test_setup": "error"})
    assert known_failures.main([path, *KNOWN]) == 1
    assert capsys.readouterr().out == "unexpected failure: tests.test_a::test_setup\n"


def test_a_known_failure_that_passed_fails(known_failures, tmp_path, capsys):
    path = junit(tmp_path, {KNOWN[0]: "failure", KNOWN[1]: ""})
    assert known_failures.main([path, *KNOWN]) == 1
    assert capsys.readouterr().out == "expected failure passed: tests.test_b::test_also_known\n"
