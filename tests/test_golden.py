"""One table of pinned outputs: each entry is run in a fresh Python process.

An entry pins an argv's exit code and, where given, its stdout (a fixture
in tests/golden/ or a sha256), its own peak RSS and its wall time. README
"Testing" says when and how to regenerate a pin.
"""

import hashlib
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from lynmag.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BIG = "1000000000000000003"


class Pin(NamedTuple):
    argv: tuple
    stdout: Path | str | None = None  # a fixture, or the sha256 of stdout
    rss_mb: float | None = None
    seconds: float = 60
    code: int = 0
    files: tuple = ()  # (name, text) pairs written to the child's directory


def lynmag(command, *args):
    return (sys.executable, "-m", "lynmag.cli", *shlex.split(command), *args)


def exits_2(command, *args, files=()):
    return Pin(lynmag(command, *args), seconds=10, code=2, files=files)


# Every check except cfl-identity, which takes over a second.
FAST_CHECKS = [arg for name in CHECKS if name != "cfl-identity" for arg in ("--check", name)]
MAGNUS_RHO = "magnus 'x^-1 [x, y]^2 y^3' --deg 4 --mod 27 --rho xy,xyx,yxy --coeff xy,yx"
CLOSURE = (
    "from lynmag import UnipotentMatrix as U, generate_group\n"
    "g = generate_group([U.elementary(3, 49, 1, 2), U.elementary(3, 49, 2, 3)])\n"
    "assert len(g) == 49**3, len(g)"
)
MANY_RHO = ",".join("".join(random.Random(i).choice("xy") for _ in range(64)) for i in range(200))
FIXTURES = {
    "verify-seed0.json": lynmag("verify --format json --seed 0", *FAST_CHECKS),
    "verify-cfl-sigma.json": lynmag("verify --check cfl --sigma 'x y x^-1 y^2' --format json"),
    "pairing-matrix-p5-n3-xyz.json": lynmag("pairing-matrix --p 5 --n 3 --alphabet xyz --format json"),
    "pairing-matrix-p13-n5-xy.json": lynmag("pairing-matrix --alphabet xy --n 5 --p 13 --format json"),
    # The 64-word Lyndon map of degree 3 over four letters, and one word's.
    "shuffle-span-p5-deg3-xyzt.json": lynmag("shuffle --span --deg 3 --alphabet xyzt --p 5 --format json"),
    "shuffle-reduce-p7-zyx.json": lynmag("shuffle --reduce zyx --alphabet xyz --p 7 --format json"),
    # Nested and powered brackets, the identity token and a zero exponent.
    "magnus-nested-mod125-deg5.json": lynmag(
        "magnus '[[x,y]^-2, x y^-1]^3 1 x^0 [y,x]^2' --deg 5 --mod 125 --format json"),
    # rho is evaluated on letter matrices, the series on letter series; both pinned.
    "magnus-rho-mod27-deg4.text": lynmag(MAGNUS_RHO + " --format text"),
    "magnus-rho-mod27-deg4.json": lynmag(MAGNUS_RHO + " --format json"),
}
PINS = {name: Pin(argv, GOLDEN / name) for name, argv in FIXTURES.items()}
PINS.update({
    "shuffle-span-cap": Pin(
        lynmag("shuffle --span --deg 6 --alphabet xyzt --p 5 --format json"),
        "91f01008c3bf750960449e60cad7707eae1f1568353afd9de9d7d49a476e9e86", rss_mb=100),
    # Seeded by Lyndon factorizations; at p = 5, which divides some i1, every pair is reduced.
    "shuffle-span-deg12-xy-p13": Pin(
        lynmag("shuffle --span --deg 12 --alphabet xy --p 13 --format json"),
        "f9acdfc522285f1f4ef7fcc0933eda88bcb33f18420b1e4281ebc8240f390657", rss_mb=150),
    "shuffle-span-deg12-xy-p5": Pin(
        lynmag("shuffle --span --deg 12 --alphabet xy --p 5 --format json"),
        "561dd6a6ebfa74d56936c1913ec8675d8128fcfe6fee8b2a3e77d7245608a5fb", rss_mb=400),
    "pairing-matrix-ceiling": Pin(
        lynmag("pairing-matrix --alphabet xyzt --n 6 --p 13 --format json"),
        "1058ffe39b4b19112766d488593b02c38de10124c6d90f953c93c351092bcde9", rss_mb=100),
    "verify-seed0": Pin(lynmag("verify --format json --seed 0"),
                        "56267bbc5a6a9890cc1f027925a211362663f6b0ed75697efd4d9b2552e4435b"),
    "verify-seed1": Pin(lynmag("verify --format json --seed 1"),
                        "648ac9dc3f827c072b0e91b17d6d8300725186a0e0c6fba3a5f2f3ac414a096a"),
    "verify-seed2": Pin(lynmag("verify --format json --seed 2"),
                        "a621d0c685d9e631926d22397b7b2b4fbe63d7c7159b4f319901b26cd36b257a"),
    "magnus-rho-syllable-cap": Pin(
        lynmag("magnus '[x,y]^16384' --deg 4 --mod 9 --rho xyxyx,xy --format json"),
        "7a2eef241d6646a9201399e41185b4b8f778c93e714c3a443acda69424bd6976"),
    "magnus-deg-cap-huge-inverse": Pin(
        lynmag("magnus 'x^-1000000007 y^-3' --deg 256 --mod 2 --format json"), rss_mb=55),
    "shuffle-ten-letter-words": Pin(
        lynmag("shuffle xyztxyztxy tzyxtzyxtz --alphabet xyzt --format json"), rss_mb=125),
    "closure-uni3-mod49": Pin((sys.executable, "-c", CLOSURE), rss_mb=66),
    "exit2-pairing-big-p": exits_2(f"pairing-matrix --p {BIG} --n 2"),
    "exit2-magnus-big-mod": exits_2(f"magnus 'x y' --mod {BIG} --deg 2"),
    "exit2-verify-config-big-p": exits_2("verify --config big.cfg", files=[("big.cfg", f"p={BIG}\n")]),
    "exit2-span-deg1000-x": exits_2("shuffle --span --deg 1000 --alphabet x"),
    "exit2-span-deg1e9-xyz": exits_2("shuffle --span --deg 1000000000 --alphabet xyz"),
    "exit2-shuffle-long-words": exits_2("shuffle xyzxyzxyzxyzxyz zyxzyxzyxzyxzyx --alphabet xyz"),
    "exit2-rho-long-word": exits_2("magnus [x,y] --deg 4 --mod 9 --rho", "xy" * 160),
    "exit2-rho-many-words": exits_2("magnus [x,y] --deg 4 --mod 9 --rho", MANY_RHO),
    "exit2-rho-syllable-cap": exits_2("magnus '[x,y]^16384' --deg 4 --mod 9 --rho", "xy" * 16),
})
for demo in sorted((ROOT / "demos").glob("*.py")):
    PINS[f"demo-{demo.stem}"] = Pin((sys.executable, str(demo)))


# A child spawned by this process would count this process's peak RSS as its
# own: Linux keeps the parent's high-water mark across exec. So a small Python
# process spawns each child, waits for it and writes down what wait4 reports.
LAUNCH = """\
import os, sys, time
start, limit = time.monotonic(), float(sys.argv[1])
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
while not (done := os.wait4(pid, os.WNOHANG))[0] and time.monotonic() - start <= limit:
    time.sleep(0.01)
if not done[0]:
    os.kill(pid, 9)
    done = os.wait4(pid, 0)
with open("rusage", "w") as f:
    print(os.waitstatus_to_exitcode(done[1]), time.monotonic() - start, done[2].ru_maxrss, file=f)
"""


def run(argv, cwd, seconds=60):
    """Run argv in cwd with PYTHONPATH=src, killed after `seconds`.

    Returns its exit code, stdout, wall time and peak RSS in MB, its own alone.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with open(cwd / "stdout", "wb") as out:
        subprocess.run([sys.executable, "-c", LAUNCH, str(seconds), *argv], stdout=out, cwd=cwd,
                       env=dict(os.environ, PYTHONPATH=path), check=True)
    code, elapsed, rss_kb = (cwd / "rusage").read_text().split()
    return int(code), (cwd / "stdout").read_bytes(), float(elapsed), int(rss_kb) / 1024


def shown(argv):
    return shlex.join(arg if len(arg) <= 80 else f"{arg[:20]}...({len(arg)} chars)" for arg in argv)


@pytest.mark.parametrize("name", PINS)
def test_report_matches_golden(name, tmp_path):
    pin = PINS[name]
    for file, text in pin.files:
        (tmp_path / file).write_text(text)
    code, stdout, seconds, rss_mb = run(pin.argv, tmp_path, pin.seconds)
    argv = shown(pin.argv)
    assert seconds <= pin.seconds, f"{argv}: killed after {pin.seconds} s"
    assert code == pin.code, f"{argv}: exit {code}, want {pin.code}"
    if isinstance(pin.stdout, Path):
        assert stdout == pin.stdout.read_bytes(), f"{argv}: stdout differs from {pin.stdout.name}"
    elif pin.stdout:
        digest = hashlib.sha256(stdout).hexdigest()
        assert digest == pin.stdout, f"{argv}: stdout sha256 {digest}, want {pin.stdout}"
    if pin.rss_mb:
        assert rss_mb <= pin.rss_mb, f"{argv}: peak RSS {rss_mb:.1f} MB, more than {pin.rss_mb} MB"


def test_peak_rss_is_each_childs_own(tmp_path):
    big = run((sys.executable, "-c", "b = b'x' * (150 << 20)"), tmp_path)[3]
    held = b"x" * (150 << 20)  # nor is this process's peak the child's
    small = run((sys.executable, "-c", "pass"), tmp_path)[3]
    del held
    assert big > 150 and small < 60, (big, small)


def test_workflow_pins_nothing_itself():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.search(r"\b[0-9a-f]{64}\b", workflow)
    assert "ru_maxrss" not in workflow
    assert "lynmag --help" in workflow  # the console script is still run once
