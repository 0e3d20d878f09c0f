"""Reports compared byte for byte with fixtures in tests/golden/.

A change meant to keep every report the same must pass this unchanged.
Regenerate a fixture only when its report is meant to change, with
``python -m lynmag.cli ARGV --out tests/golden/NAME``, ARGV as below.
"""

from pathlib import Path

import pytest

from lynmag.cli import main
from lynmag.verify import CHECKS

GOLDEN = Path(__file__).parent / "golden"
# Every check except cfl-identity, which takes over a second.
FAST_CHECKS = [name for name in CHECKS if name != "cfl-identity"]
CASES = {
    "verify-seed0.json": ["verify", "--format", "json", "--seed", "0"]
    + [arg for name in FAST_CHECKS for arg in ("--check", name)],
    "verify-cfl-sigma.json": [
        "verify", "--check", "cfl", "--sigma", "x y x^-1 y^2", "--format", "json",
    ],
    "pairing-matrix-p5-n3-xyz.json": [
        "pairing-matrix", "--p", "5", "--n", "3", "--alphabet", "xyz", "--format", "json",
    ],
    "pairing-matrix-p13-n5-xy.json": [
        "pairing-matrix", "--alphabet", "xy", "--n", "5", "--p", "13", "--format", "json",
    ],
    # The 64-word Lyndon map of degree 3 over four letters, and one word's.
    "shuffle-span-p5-deg3-xyzt.json": [
        "shuffle", "--span", "--deg", "3", "--alphabet", "xyzt", "--p", "5", "--format", "json",
    ],
    "shuffle-reduce-p7-zyx.json": [
        "shuffle", "--reduce", "zyx", "--alphabet", "xyz", "--p", "7", "--format", "json",
    ],
    # Nested and powered brackets, the identity token and a zero exponent.
    "magnus-nested-mod125-deg5.json": [
        "magnus", "[[x,y]^-2, x y^-1]^3 1 x^0 [y,x]^2", "--deg", "5", "--mod", "125",
        "--format", "json",
    ],
}
# rho is evaluated on letter matrices, the series on letter series; both pinned.
MAGNUS_RHO = [
    "magnus", "x^-1 [x, y]^2 y^3", "--deg", "4", "--mod", "27",
    "--rho", "xy,xyx,yxy", "--coeff", "xy,yx",
]
CASES["magnus-rho-mod27-deg4.text"] = MAGNUS_RHO + ["--format", "text"]
CASES["magnus-rho-mod27-deg4.json"] = MAGNUS_RHO + ["--format", "json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
