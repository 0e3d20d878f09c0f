"""Command-line behavior: outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import random
import re
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lynmag.cli as cli
import lynmag.verify as verify
from lynmag.cli import (
    MAX_DEGREE,
    MAX_INTERLEAVINGS,
    MAX_RHO_LETTERS,
    MAX_RHO_WORK,
    MAX_TERMS,
    main,
)
from lynmag.errors import ConsistencyError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLyndon:
    def test_text_listing(self, capsys):
        code, out, _ = run(["lyndon", "--alphabet", "xy", "--n", "3"], capsys)
        assert code == 0
        assert "5 total" in out
        assert "length 2: count 1" in out

    def test_json_listing(self, capsys):
        code, out, _ = run(
            ["lyndon", "--alphabet", "xy", "--n", "3", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1 and report["seed"] == 0
        assert [row["count"] for row in report["lengths"]] == [2, 1, 2]
        assert report["total"] == 5

    def test_single_letter_counts(self, capsys):
        code, out, _ = run(
            ["lyndon", "--alphabet", "x", "--n", "4", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert [row["count"] for row in report["lengths"]] == [1, 0, 0, 0]

    def test_four_letter_quartics_present(self, capsys):
        code, out, _ = run(
            ["lyndon", "--alphabet", "xyzt", "--n", "4", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        quartics = report["lengths"][3]["words"]
        for needed in ("xyzt", "xytz", "xzyt", "xzty", "xtyz", "xtzy"):
            assert needed in quartics

    def test_csv(self, capsys):
        code, out, _ = run(["lyndon", "--n", "2", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema=1 seed=0"
        assert lines[1] == "length,word"
        assert "2,xy" in lines


class TestPairingMatrix:
    def test_identity_json(self, capsys):
        code, out, _ = run(
            ["pairing-matrix", "--p", "3", "--n", "2", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["index"] == ["x", "y", "xy"]
        assert report["rows"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_depth_three_text_shows_balanced_entry(self, capsys):
        code, out, _ = run(
            ["pairing-matrix", "--p", "5", "--n", "3", "--alphabet", "xyz"], capsys
        )
        assert code == 0
        assert "-1" in out

    def test_csv_header(self, capsys):
        code, out, _ = run(
            ["pairing-matrix", "--p", "2", "--n", "2", "--format", "csv"], capsys
        )
        assert code == 0
        assert "w,x,y,xy" in out.splitlines()[1]

    def test_consistency_failure_exits_one(self, capsys, monkeypatch):
        def broken(n, p, alphabet):
            raise ConsistencyError("forced failure")

        monkeypatch.setattr(cli, "pairing_matrix", broken)
        code, _, err = run(["pairing-matrix"], capsys)
        assert code == 1
        assert "consistency failure" in err


class TestMagnus:
    def test_inverse_expansion(self, capsys):
        code, out, _ = run(["magnus", "x^-1", "--deg", "3", "--mod", "8"], capsys)
        assert code == 0
        assert "1 - x + xx - xxx" in out

    def test_commutator_expansion(self, capsys):
        code, out, _ = run(["magnus", "[x, y]", "--deg", "2", "--mod", "9"], capsys)
        assert code == 0
        assert "1 + xy - yx" in out

    def test_koch_verdict(self, capsys):
        code, out, _ = run(["magnus", "x^4", "--koch", "--n", "2", "--p", "2"], capsys)
        assert code == 0
        assert "koch criterion (n=2, p=2): pass" in out
        code, out, _ = run(["magnus", "x", "--koch", "--n", "2", "--p", "2"], capsys)
        assert code == 0
        assert "fail" in out

    def test_coefficients_and_rho_json(self, capsys):
        code, out, _ = run(
            [
                "magnus", "[x, y]", "--deg", "2", "--mod", "9",
                "--coeff", "xy,yx", "--rho", "xy",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["coefficients"] == {"xy": 1, "yx": 8}
        assert report["rho"]["xy"]["entries"] == [[1, 3, 1]]

    def test_rho_requires_modulus(self, capsys):
        code, _, err = run(["magnus", "x", "--rho", "x"], capsys)
        assert code == 2
        assert "--mod" in err

    @pytest.mark.parametrize(
        "word",
        [
            "[" * 22 + "x,y]" + ",y]" * 21,  # 89 bytes, doubles per bracket
            "[" * 3000 + "x,y]" + ",y]" * 2999,
            "[x,y]^200000",
        ],
    )
    def test_oversized_word_exits_two_quickly(self, word, capsys):
        start = time.perf_counter()
        code, out, err = run(["magnus", word, "--deg", "2", "--mod", "9"], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "group word '" + word[:20] in err

    def test_malformed_word(self, capsys):
        code, _, err = run(["magnus", "x^"], capsys)
        assert code == 2
        assert "error" in err

    def test_degree_bound(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(["magnus", "x^-1", "--deg", str(MAX_DEGREE), "--mod", "9"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out
        for deg in (MAX_DEGREE + 1, -1):
            code, out, err = run(["magnus", "x^-1", "--deg", str(deg), "--mod", "9"], capsys)
            assert code == 2 and out == ""
            assert "--deg" in err

    def test_term_cap(self, capsys):
        start = time.perf_counter()
        word = "x^-1 y^-1 x^-1 y^-1"
        code, out, err = run(["magnus", word, "--deg", "48", "--mod", "9"], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert word in err and "--deg 48" in err and str(MAX_TERMS) in err
        code, out, _ = run(["magnus", "[x,y]^16384", "--deg", "4", "--mod", "9"], capsys)
        assert code == 0
        assert "xyxy - xyyx" in out

    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["x", "y", "z", "^", "[", "]", ",", " ", "1"]),
                st.sampled_from(["x", "y", "]"]).flatmap(
                    lambda head: st.integers(-(10**30), 10**30).map(
                        lambda e: f"{head}^{e} "
                    )
                ),
                st.integers(-99, 99).map(lambda e: f"{e:+d}"),
            ),
            max_size=40,
        ).map("".join)
    )
    def test_random_words_exit_zero_or_two(self, word):
        # argparse reports a usage error (a word read as an option) as
        # SystemExit(2); anything else must come back as a return code.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["magnus", word, "--deg", "3", "--mod", "9"])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2)


class TestShuffle:
    def test_product_text(self, capsys):
        code, out, _ = run(
            ["shuffle", "xy", "xz", "--alphabet", "xyz", "--infiltration"], capsys
        )
        assert code == 0
        assert "2·xxyz" in out
        assert "infiltration" in out

    def test_product_json(self, capsys):
        code, out, _ = run(["shuffle", "x", "y", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["shuffle"] == {
            "terms": [{"word": "xy", "coeff": 1}, {"word": "yx", "coeff": 1}]
        }
        code, out, _ = run(
            ["shuffle", "xy", "y", "--infiltration", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["infiltration"] == {
            "terms": [
                {"word": "xy", "coeff": 1},
                {"word": "xyy", "coeff": 2},
                {"word": "yxy", "coeff": 1},
            ]
        }

    def test_span_report(self, capsys):
        code, out, _ = run(
            ["shuffle", "--span", "--deg", "2", "--p", "5", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 3 and report["quotient_dim"] == 1
        assert report["lyndon_map"]["yx"] == {"xy": 4}

    def test_reduce(self, capsys):
        code, out, _ = run(
            ["shuffle", "--reduce", "yx", "--p", "5", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["lyndon_combination"] == {"xy": 4}

    def test_usage_errors(self, capsys):
        assert run(["shuffle"], capsys)[0] == 2
        assert run(["shuffle", "x"], capsys)[0] == 2
        assert run(["shuffle", "x", "y", "--span"], capsys)[0] == 2
        assert run(["shuffle", "--span"], capsys)[0] == 2
        assert run(["shuffle", "--reduce", "xy", "--p", "3"], capsys)[0] == 2

    @pytest.mark.parametrize("mode", [["xy", "x"], ["--span", "--deg", "3"], ["--reduce", "yx"]])
    def test_csv_rejected(self, mode, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        for extra in (["--format", "csv"], ["--config", str(cfg)]):
            code, out, err = run(["shuffle", *mode, *extra], capsys)
            assert code == 2
            assert out == ""
            assert "shuffle has no csv output" in err


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(
            ["verify", "--check", "standard-factorization", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["checks"][0]["name"] == "standard-factorization"

    def test_name_resolution_by_prefix(self, capsys):
        code, out, _ = run(
            ["verify", "--check", "lyndon", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["checks"][0]["name"] == "lyndon-necklace-counts"

    def test_ambiguous_name_rejected(self, capsys):
        code, _, err = run(["verify", "--check", "pairing"], capsys)
        assert code == 2
        assert "unknown check" in err

    def test_sigma_mode(self, capsys):
        code, out, _ = run(
            ["verify", "--check", "cfl", "--sigma", "x y x^-1", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["details"]["words_per_prime"] == 1

    def test_reports_are_deterministic(self, capsys):
        argv = [
            "verify", "--check", "standard", "--check", "tau",
            "--seed", "5", "--format", "json",
        ]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second and first[0] == 0

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify.CHECKS,
            "standard-factorization",
            ("forced to fail", lambda config: (False, {"reason": "forced"})),
        )
        code, out, _ = run(["verify", "--check", "standard-factorization"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_text_summary(self, capsys):
        code, out, _ = run(["verify", "--check", "tau-triangularity"], capsys)
        assert code == 0
        assert out.startswith("PASS")
        assert "overall: PASS (1/1), seed 0" in out


class TestConfigPlumbing:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=5\nn=3\nalphabet=xyz  # three letters\n\nseed=9\n")
        code, out, _ = run(
            ["lyndon", "--config", str(cfg), "--n", "2", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["alphabet"] == ["x", "y", "z"]
        assert report["n"] == 2  # flag wins over the file
        assert report["seed"] == 9

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a setting\n")
        code, _, err = run(["lyndon", "--config", str(cfg)], capsys)
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("line", ["bogus=1", "group_cap=10", "span_cap=4096"])
    def test_unknown_config_key(self, line, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=3\n{line}\n")
        code, out, err = run(["lyndon", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert line.split("=")[0] in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(["lyndon", "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "words.json"
        code, out, _ = run(
            ["lyndon", "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["pairing-matrix", "--p", "9"],
            ["pairing-matrix", "--p", "17"],
            ["lyndon", "--n", "0"],
            ["lyndon", "--n", "7"],
            ["lyndon", "--alphabet", "xxy"],
            ["lyndon", "--alphabet", "vwxyz"],
        ],
    )
    def test_config_validation(self, argv, capsys):
        assert run(argv, capsys)[0] == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--mod", "32"],
            ["verify", "--check", "lyndon", "--mod", "32", "--p", "7", "--n", "5",
             "--deg", "9"],
            ["verify", "--alphabet", "xyz"],
            ["lyndon", "--p", "3"],
            ["pairing-matrix", "--deg", "3"],
            ["shuffle", "x", "y", "--n", "3"],
            ["shuffle", "x", "y", "--mod", "9"],
        ],
    )
    def test_unread_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_format_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lyndon", "--format", "yaml"])
        assert info.value.code == 2


class TestBoundedInputs:
    """Inputs whose validation or construction used to run without bound."""

    BIG_PRIME = "1000000000000000003"

    def exits_two_quickly(self, argv, flag, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert flag in err

    def test_huge_p(self, capsys, tmp_path):
        self.exits_two_quickly(["pairing-matrix", "--p", self.BIG_PRIME, "--n", "2"], "--p", capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p={self.BIG_PRIME}\n")
        self.exits_two_quickly(["verify", "--config", str(cfg)], "--p", capsys)

    def test_huge_mod(self, capsys, tmp_path):
        argv = ["magnus", "x y", "--deg", "2"]
        self.exits_two_quickly(argv + ["--mod", self.BIG_PRIME], "--mod", capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mod={self.BIG_PRIME}\n")
        self.exits_two_quickly(argv + ["--config", str(cfg)], "--mod", capsys)

    @pytest.mark.parametrize("mod", [2**64, 3**40, 13**5, 1000003, 2**40 - 87])
    def test_large_prime_power_moduli_accepted(self, mod, capsys):
        code, out, _ = run(["magnus", "x y", "--deg", "2", "--mod", str(mod)], capsys)
        assert code == 0 and out

    @pytest.mark.parametrize("deg,letters", [(1000, "x"), (10**9, "xyz"), (0, "xy")])
    def test_span_degree(self, deg, letters, capsys):
        argv = ["shuffle", "--span", "--deg", str(deg), "--alphabet", letters]
        self.exits_two_quickly(argv, "--deg", capsys)

    def test_span_at_the_degree_cap(self, capsys):
        # One letter: one pattern block, one column, never a factorial
        # number of rearrangements of the content.
        argv = ["shuffle", "--span", "--deg", str(MAX_DEGREE), "--alphabet", "x"]
        start = time.perf_counter()
        code, out, _ = run(argv + ["--p", "5", "--format", "json"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["quotient_dim"] == 0

    @pytest.mark.parametrize(
        "words,named",
        [
            (["xyzxyzxyzxyzxyz", "zyxzyxzyxzyxzyx", "--alphabet", "xyz"], "(xyzxyzxyzxyzxyz)"),
            (["xyxyxyxyxyxy", "yxyxyxyxyxyx", "--infiltration"], "(yxyxyxyxyxyx)"),
            (["x" * 200, "y" * 57], "200 + 57 letters"),
        ],
    )
    def test_shuffle_words(self, words, named, capsys):
        self.exits_two_quickly(["shuffle", *words], named, capsys)

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 5), (4, 4), (6, 2)])
    def test_interleaving_counts(self, a, b, capsys):
        # The bound counts the terms a product sums, with multiplicity; on
        # one repeated letter every pair of letters may overlap.
        words = ["x" * a, "x" * b]
        for extra, key in (([], "shuffle"), (["--infiltration"], "infiltration")):
            code, out, _ = run(["shuffle", *words, *extra, "--format", "json"], capsys)
            total = sum(t["coeff"] for t in json.loads(out)[key]["terms"])
            overlaps = range(min(a, b) + 1) if extra else [0]
            assert total == sum(
                math.comb(a + b - k, k) * math.comb(a + b - 2 * k, a - k) for k in overlaps
            )

    @pytest.mark.parametrize(
        "word,rho",
        [
            ("[x,y]", "xy" * 160),  # one 320-letter word
            ("[x,y]", ",".join(  # 200 words of 64 letters
                "".join(random.Random(i).choice("xy") for _ in range(64)) for i in range(200)
            )),
            ("[x,y]^16384", "xy" * 16),  # 65,536 syllables x 33^3
            ("[x,y]^16384", "xyxyx,xy,yyxy"),  # 65,536 x (6^3 + 3^3 + 5^3)
        ],
    )
    def test_rho(self, word, rho, capsys):
        argv = ["magnus", word, "--deg", "4", "--mod", "9", "--rho", rho]
        self.exits_two_quickly(argv, "--rho", capsys)

    def test_rho_below_the_bounds(self, capsys):
        # A word at the letter cap runs; so does the syllable cap with
        # --rho xyxyx,xy, which the CI workflow runs end to end.
        assert 65_536 * (6**3 + 3**3) <= MAX_RHO_WORK
        rho = "xy" * (MAX_RHO_LETTERS // 2)
        code, out, _ = run(["magnus", "[x,y]", "--deg", "2", "--mod", "9", "--rho", rho], capsys)
        assert code == 0 and out

    def test_rho_distinct_syllables_at_the_work_bound(self, capsys):
        # Every syllable distinct, with exponents past the word length: the
        # syllable images must cost no more than the bound charges.
        count = MAX_RHO_WORK // (MAX_RHO_LETTERS + 1) ** 3
        word = " ".join(f"{'xy'[i % 2]}^{MAX_RHO_LETTERS + i}" for i in range(count))
        rho = "xy" * (MAX_RHO_LETTERS // 2)
        start = time.perf_counter()
        code, out, _ = run(["magnus", word, "--deg", "2", "--mod", "9", "--rho", rho], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and out

    def test_rho_of_each_distinct_word_once(self, capsys, monkeypatch):
        argv = ["magnus", "x y^-2", "--deg", "3", "--mod", "27", "--format", "json"]
        _, once, _ = run(argv + ["--rho", "xy,yx"], capsys)
        calls = []
        real = cli.rho
        monkeypatch.setattr(cli, "rho", lambda *args: calls.append(args[0]) or real(*args))
        code, out, _ = run(argv + ["--rho", "xy,yx,xy,yx,xy"], capsys)
        assert code == 0 and out == once
        assert sorted(map(str, calls)) == ["xy", "yx"]

    def test_shuffle_words_below_the_bound(self, capsys):
        code, out, _ = run(["shuffle", "xyxyxyxyxyxy", "yxyxyxyxyxyx", "--format", "json"], capsys)
        assert code == 0
        terms = json.loads(out)["shuffle"]["terms"]
        assert sum(t["coeff"] for t in terms) == 2704156 <= MAX_INTERLEAVINGS


class TestParserBuiltOnce:
    """The cached parser answers like a freshly built one, call after call."""

    SEQUENCE = [
        ["lyndon", "--n", "3", "--format", "json"],
        ["magnus", "x^-1 y", "--deg", "3", "--mod", "9"],
        ["lyndon", "--n", "7"],
        ["shuffle", "x", "y", "--infiltration"],
        ["lyndon", "--p", "3"],
        ["pairing-matrix", "--n", "2", "--p", "5", "--format", "csv"],
        ["bogus"],
        ["magnus", "x", "--coeff", "x"],
        ["verify", "--check", "standard-factorization", "--seed", "4"],
        ["shuffle", "--span", "--deg", "2", "--p", "5", "--format", "json"],
        ["lyndon"],
    ]

    @staticmethod
    def outcomes(argv_list, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=2\nbogus=1\n")
        results = []
        for argv in argv_list + [["lyndon", "--config", str(cfg)]]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def test_same_as_fresh_parser(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        cached = self.outcomes(self.SEQUENCE, tmp_path)
        cached_reversed = self.outcomes(self.SEQUENCE[::-1], tmp_path)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.outcomes(self.SEQUENCE, tmp_path)
        assert cached == fresh
        assert cached_reversed[:-1] == fresh[:-1][::-1]
        codes = [code for code, _, _ in cached]
        assert codes == [0, 0, 2, 0, 2, 0, 2, 0, 0, 0, 0, 2]
        assert "unknown config key(s)" in cached[-1][2] and "bogus" in cached[-1][2]


GOLDEN = Path(__file__).parent / "golden"

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(),
)
keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
reports = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=6)
    | st.lists(st.integers(), max_size=6)
    | st.lists(st.text(), max_size=6)
    | st.dictionaries(keys, children, max_size=6),
    max_leaves=40,
)


class TestJsonWriter:
    """``format_json`` writes the bytes of ``json.dumps(indent=2)``."""

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_golden_fixtures(self, name):
        text = (GOLDEN / name).read_text()
        assert cli.format_json(json.loads(text)) + "\n" == text

    @settings(max_examples=200)
    @given(reports)
    def test_generated_reports(self, report):
        assert cli.format_json(report) == json.dumps(report, indent=2)

    def test_edge_values(self):
        report = {
            "empty": [[], {}, "", [[]], {"": {}}],
            "escapes": ['"quoted"', "back\\slash", "\x00\x1f\t\n\r", "é☃\U0001f600\ud800"],
            "ints": [0, -1, 2**64, -(10**40), 10**300],
            "mixed": [True, False, None, 1.5, -0.0, float("inf"), float("nan"), 1e300, 3],
            1: "int key", 2.5: "float key", False: "bool key", None: "null key",
            "tuple": (1, (2, "three"), ()),
        }
        assert cli.format_json(report) == json.dumps(report, indent=2)
        for bad in ({(1, 2): 3}, [object()], {"k": {1, 2}}):
            with pytest.raises(TypeError) as want:
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError, match=re.escape(str(want.value))):
                cli.format_json(bad)
