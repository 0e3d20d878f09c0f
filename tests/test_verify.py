"""The verdict rule: checks return (details, failures), run_check decides."""

from types import SimpleNamespace

import pytest

import lynmag.verify as verify
from lynmag.errors import ConsistencyError


def run_with(monkeypatch, name, fn):
    statement, _ = verify.CHECKS[name]
    monkeypatch.setitem(verify.CHECKS, name, (statement, fn))
    return verify.run_check(name)


def test_passing_check_reports_its_details(monkeypatch):
    result = run_with(monkeypatch, "standard-factorization", lambda config: ({"words": 3}, []))
    assert result["passed"] is True
    assert result["details"] == {"words": 3}


def test_failing_check_reports_its_first_ten_failures(monkeypatch):
    failures = [f"case {i}" for i in range(25)]
    result = run_with(
        monkeypatch, "standard-factorization", lambda config: ({"words": 25}, list(failures))
    )
    assert result["passed"] is False
    assert result["details"] == {"words": 25, "failures": failures[:10]}


def test_consistency_error_is_reported_as_the_error(monkeypatch):
    # pairing-triangularity-n4 raises on a wrong dimension; run_check reports it.
    seven = SimpleNamespace(dimension=lambda: 7)
    monkeypatch.setattr(verify, "pairing_matrix", lambda n, p, alphabet: seven)
    with pytest.raises(ConsistencyError, match="dimension 7 != 8"):
        verify._check_pairing_triangularity_n4(verify.VerifyConfig())
    result = verify.run_check("pairing-triangularity-n4")
    assert result["passed"] is False
    assert result["details"] == {"error": "dimension 7 != 8"}


def test_vanishing_counterexamples_are_failures(monkeypatch):
    def fake(n, p, alphabet):
        found = [{"w": "x", "w_prime": "y" * n, "value": 1}]
        return {
            "pairs_checked": 1,
            "by_rule": {"letters": 1, "length-gap": 0},
            "counterexamples": found,
            "passed": False,
        }

    monkeypatch.setattr(verify, "vanishing_checks", fake)
    result = verify.run_check("pairing-vanishing-rules")
    assert result["passed"] is False
    assert "counterexamples" not in result["details"]
    assert result["details"]["failures"] == [
        "n3_p3_3_letters: <(x),(yyy)> = 1",
        "n4_p2_2_letters: <(x),(yyyy)> = 1",
    ]
