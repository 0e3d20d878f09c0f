"""Named verification checks across all modules, seeded and reproducible.

Each check establishes one mathematical fact at a fixed scale and returns
its details and its failures; ``run_check`` alone turns these into a plain
dict (name, statement, passed, details).  Reports carry no
timestamps, and every random choice flows from the recorded seed, so a
report is a pure function of (seed, selected checks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Optional

from .errors import ConsistencyError
from .freegrp import GroupWord, gr_generators, parse_group_word, tau
from .matgrp import UnipotentMatrix, generate_group, lower_p_central, rho
from .pairing import h2_dimension, pairing_matrix, pairing_rows, vanishing_checks
from .series import TruncatedSeries, _word_code, koch_test, magnus, p_poly
from .shufalg import (
    cfl_check,
    palindrome_identity,
    shuffle,
    shuffle_congruence_check,
    shuffle_span_basis,
)
from .words import (
    Alphabet,
    Word,
    all_words,
    is_lyndon,
    lyndon_words,
    necklace,
    standard_factorization,
)

X1 = Alphabet(("x",))
XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))
XYZT = Alphabet(("x", "y", "z", "t"))

# Frozen small tables used as enumeration oracles.
TWO_LETTER_LYNDON_4 = ("x", "y", "xy", "xxy", "xyy", "xxxy", "xxyy", "xyyy")
THREE_LETTER_LYNDON_3 = (
    "x", "y", "z",
    "xy", "xz", "yz",
    "xxy", "xxz", "xyy", "xyz", "xzy", "xzz", "yyz", "yzz",
)
FOUR_LETTER_QUARTICS = ("xyzt", "xytz", "xzyt", "xzty", "xtyz", "xtzy")

# Degree <= 3 congruences modulo shuffles, exact over Z, letters x < y < z:
# lhs = sum of c * (u shuffle v) + extra.
CONGRUENCE_TABLE = (
    ({"yx": 1}, ((1, "x", "y"),), {"xy": -1}),
    ({"xx": 2}, ((1, "x", "x"),), {}),
    ({"xyx": 1}, ((1, "x", "xy"),), {"xxy": -2}),
    ({"yxx": 1}, ((1, "x", "yx"), (-1, "xx", "y")), {"xxy": 1}),
    ({"yxy": 1}, ((1, "xy", "y"),), {"xyy": -2}),
    ({"yyx": 1}, ((1, "yy", "x"), (-1, "y", "xy")), {"xyy": 1}),
    ({"yxz": 1}, ((1, "y", "xz"),), {"xyz": -1, "xzy": -1}),
    ({"zxy": 1}, ((1, "z", "xy"),), {"xzy": -1, "xyz": -1}),
    ({"yzx": 1}, ((1, "zx", "y"), (-1, "x", "zy")), {"xzy": 1}),
    ({"zyx": 1}, ((1, "yx", "z"), (-1, "x", "yz")), {"xyz": 1}),
    ({"xxx": 3}, ((1, "x", "xx"),), {}),
)


# Scale of the randomized suites.
SIGMA_COUNT = 1000  # random group words in the cfl suite
SAMPLE_COUNT = 100  # filtration samples per (p, n)
PAIR_COUNT = 1000  # random pairs in the homomorphism suites
MAX_FAILURES = 10  # failures listed in a failing check's report


@dataclass(frozen=True)
class VerifyConfig:
    """Inputs of the randomized suites."""

    seed: int = 0
    sigma: Optional[str] = None  # fixed group word for the cfl suite


def _rng(config: VerifyConfig, label: str) -> random.Random:
    # String seeding is deterministic across processes, unlike hash().
    return random.Random(f"{config.seed}:{label}")


def random_group_word(alphabet: Alphabet, rng: random.Random, max_len: int) -> GroupWord:
    g = GroupWord.identity(alphabet)
    for _ in range(rng.randint(1, max_len)):
        letter = rng.choice(alphabet.letters)
        g = g * GroupWord.generator(alphabet, letter) ** rng.choice((1, -1))
    return g


def random_filtration_element(
    gens: list[tuple[Word, GroupWord]], rng: random.Random, max_factors: int = 4
) -> GroupWord:
    """Product of random conjugates of the given filtration generators."""
    alphabet = gens[0][1].alphabet
    g = GroupWord.identity(alphabet)
    for _ in range(rng.randint(1, max_factors)):
        h = rng.choice(gens)[1]
        c = random_group_word(alphabet, rng, 3)
        g = g * c.inverse() * h * c
    return g


def _check_lyndon_necklace_counts(config: VerifyConfig):
    details: dict = {}
    failures: list[str] = []
    for m, alphabet in ((1, X1), (2, XY), (3, XYZ), (4, XYZT)):
        found = lyndon_words(alphabet, 8)
        counts = [sum(1 for w in found if len(w) == k) for k in range(1, 9)]
        expected = [necklace(k, m) for k in range(1, 9)]
        details[f"counts_{m}_letters"] = counts
        if counts != expected:
            failures.append(f"{m} letters: {counts} != {expected}")
    if tuple(str(w) for w in lyndon_words(XY, 4)) != TWO_LETTER_LYNDON_4:
        failures.append("two-letter table mismatch")
    if tuple(str(w) for w in lyndon_words(XYZ, 3)) != THREE_LETTER_LYNDON_3:
        failures.append("three-letter table mismatch")
    quartics = tuple(
        str(w)
        for w in lyndon_words(XYZT, 4)
        if len(w) == 4 and len(set(w.indices)) == 4
    )
    if quartics != FOUR_LETTER_QUARTICS:
        failures.append("four-letter multilinear table mismatch")
    return details, failures


def _check_duality_n2(config: VerifyConfig):
    failures: list[str] = []
    matrices = 0
    for p in (2, 3, 5):
        for alphabet in (X1, XY, XYZ):
            m = pairing_matrix(2, p, alphabet)
            matrices += 1
            if not m.is_identity():
                failures.append(f"matrix p={p} |X|={len(alphabet)} not identity")
    # The displayed degree-2 values over three letters, one pairing_rows call per prime.
    ws = [XYZ.word(t) for t in ("x", "y", "z", "xy", "xz", "yz")]
    words = [XYZ.word(t) for t in "xyz"] + list(all_words(XYZ, 2))
    values = 0
    for p in (2, 3, 5):
        for w, row in zip(ws, pairing_rows(ws, words, 2, p)):
            for w2, got in zip(words, row):
                values += 1
                if len(w) == 1:
                    # For p = 2 the square word of the same letter pairs to 1.
                    want = int(w2 == w or (p == 2 and w2.indices == w.indices * 2))
                elif w2 == w:
                    want = 1
                elif w2.indices == w.indices[::-1]:
                    want = (p - 1) % p
                else:
                    want = 0
                if got != want:
                    failures.append(f"<({w}),({w2})> p={p}")
    return {"matrices": matrices, "values": values}, failures


def _check_pairing_matrix_n3(config: VerifyConfig):
    failures: list[str] = []
    details: dict = {}
    special = (XYZ.word("xyz"), XYZ.word("xzy"))
    for p in (2, 3, 5):
        m = pairing_matrix(3, p, XYZ)
        details[f"dimension_p{p}"] = m.dimension()
        for w in m.index:
            for w2 in m.index:
                got = m.entry(w, w2)
                if w == w2:
                    want = 1
                elif (w, w2) == special:
                    want = (p - 1) % p
                else:
                    want = 0
                if got != want:
                    failures.append(f"p={p} ({w},{w2}) = {got}, want {want}")
    return details, failures


def _check_pairing_triangularity_n4(config: VerifyConfig):
    # Every entry runs both computation routes internally; assembly
    # asserts unipotent upper-triangular shape.
    details: dict = {}
    for p in (2, 3):
        m = pairing_matrix(4, p, XY)
        if m.dimension() != 8:
            raise ConsistencyError(f"dimension {m.dimension()} != 8")
        details[f"matrix_p{p}"] = [[int(v) for v in row] for row in m.rows]
        details["index"] = [str(w) for w in m.index]
    return details, []


FILTRATION_CASES = (
    (1, 2, 1), (1, 2, 2), (1, 2, 3),
    (1, 3, 1), (1, 3, 2), (1, 3, 3),
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3),
    (3, 2, 3),
)


def _check_matrix_filtration_bruteforce(config: VerifyConfig):
    failures: list[str] = []
    details: dict = {}
    for s, p, n in FILTRATION_CASES:
        size, modulus, shift = s + 1, p ** (n - s + 1), p ** (n - s)
        gens = [
            UnipotentMatrix.elementary(size, modulus, i, i + 1)
            for i in range(1, size)
        ]
        table = generate_group(gens, size=size, modulus=modulus)
        term = lower_p_central(table, p, n)
        expected = {
            UnipotentMatrix.elementary(size, modulus, 1, size, a * shift)
            for a in range(p)
        }
        details[f"case_s{s}_p{p}_n{n}"] = {
            "group_order": len(table),
            "term_order": len(term),
        }
        if set(term) != expected:
            failures.append(f"(s,p,n)=({s},{p},{n}): wrong subgroup")
            continue
        central = all(z * g == g * z for z in term for g in table)
        if not central:
            failures.append(f"(s,p,n)=({s},{p},{n}): term not central")
    return details, failures


def _check_koch_criterion(config: VerifyConfig):
    failures: list[str] = []
    generators = 0
    samples = 0
    for p, n in product((2, 3, 5), (2, 3)):
        gens = gr_generators(n, p, XY)
        for w, g in gens:
            generators += 1
            if not koch_test(g, n, p):
                failures.append(f"generator tau({w}) p={p} n={n}")
        rng = _rng(config, f"koch:{p}:{n}")
        for _ in range(SAMPLE_COUNT):
            g = random_filtration_element(gens, rng)
            samples += 1
            if not koch_test(g, n, p):
                failures.append(f"sample #{samples} p={p} n={n}: {g}")
    return {"generators": generators, "samples": samples}, failures


def _check_cfl_identity(config: VerifyConfig):
    failures: list[str] = []
    words = [w for s in (1, 2, 3) for w in all_words(XY, s)]
    pairs = [(u, v) for u in words for v in words]
    if config.sigma is not None:
        sigmas = [parse_group_word(XY, config.sigma)]
    else:
        sigmas = None
    checked = 0
    # One instance per distinct word: magnus's cache then matches keys by identity.
    canon: dict[GroupWord, GroupWord] = {}
    for p in (2, 3, 5):
        if sigmas is None:
            rng = _rng(config, f"cfl:{p}")
            batch = [random_group_word(XY, rng, 8) for _ in range(SIGMA_COUNT)]
            batch = [canon.setdefault(sigma, sigma) for sigma in batch]
        else:
            batch = sigmas
        for sigma in batch:
            for u, v in pairs:
                checked += 1
                if not cfl_check(u, v, sigma, p**5):
                    failures.append(f"p={p} u={u} v={v} sigma={sigma}")
    return {
        "pairs": len(pairs),
        "words_per_prime": SIGMA_COUNT if sigmas is None else 1,
        "checked": checked,
    }, failures


def _check_shuffle_congruence(config: VerifyConfig):
    failures: list[str] = []
    checked = 0
    for p, n in product((2, 3, 5), (2, 3)):
        pairs = [
            (u, v)
            for a in range(1, n)
            for b in range(1, n - a + 1)
            for u in all_words(XY, a)
            for v in all_words(XY, b)
        ]
        gens = gr_generators(n, p, XY)
        rng = _rng(config, f"shuffle-congruence:{p}:{n}")
        for _ in range(SAMPLE_COUNT):
            sigma = random_filtration_element(gens, rng)
            for u, v in pairs:
                checked += 1
                if not shuffle_congruence_check(u, v, sigma, n, p):
                    failures.append(f"p={p} n={n} u={u} v={v} sigma={sigma}")
    # Designated control: xy is not in the second filtration term, and
    # the (x),(y) shuffle pairing detects that.
    control = parse_group_word(XY, "x y")
    control_failed = all(
        not shuffle_congruence_check(XY.word("x"), XY.word("y"), control, 2, p)
        for p in (2, 3, 5)
    )
    if not control_failed:
        failures.append("negative control passed but must fail")
    return {"checked": checked, "negative_control_fails": control_failed}, failures


def _poly_from(alphabet: Alphabet, coeffs: dict) -> TruncatedSeries:
    keys = {alphabet.word(text).indices: c for text, c in coeffs.items()}
    return TruncatedSeries(alphabet, None, None, keys)


def _check_shuffle_span_structure(config: VerifyConfig):
    failures: list[str] = []
    details: dict = {}
    for alphabet in (XY, XYZ):
        m = len(alphabet)
        dims = [shuffle_span_basis(d, 5, alphabet).quotient_dim for d in (1, 2, 3)]
        expected = [necklace(d, m) for d in (1, 2, 3)]
        details[f"quotient_dims_{m}_letters"] = dims
        if dims != expected:
            failures.append(f"{m} letters: dims {dims} != {expected}")
        if sum(dims) != h2_dimension(3, alphabet):
            failures.append(f"{m} letters: sum {sum(dims)} != h2 dimension")
    congruences = 0
    for lhs, shuffles, extra in CONGRUENCE_TABLE:
        rhs = _poly_from(XYZ, extra)
        for c, u, v in shuffles:
            rhs = rhs + shuffle(XYZ.word(u), XYZ.word(v)).scale(c)
        congruences += 1
        if _poly_from(XYZ, lhs) != rhs:
            failures.append(f"congruence for {list(lhs)} fails")
    details["congruences"] = congruences
    for k in (2, 3, 4, 5):
        alphabet = Alphabet(tuple("abcde"[:k]))
        try:
            palindrome_identity(Word(alphabet, tuple(range(k))))
        except ConsistencyError:
            failures.append(f"palindrome identity fails at k={k}")
    # Sign probe: with the reversed word taken negatively at k=3 the
    # combination is a shuffle; taken positively it is not.
    basis = shuffle_span_basis(3, 5, XYZ)
    fwd, bwd = _poly_from(XYZ, {"xyz": 1}), _poly_from(XYZ, {"zyx": 1})
    details["palindrome_sign"] = {
        "reversed_word_sign": "(-1)^k",
        "minus_at_k3_in_span": basis.contains(fwd - bwd),
        "plus_at_k3_in_span": basis.contains(fwd + bwd),
    }
    if not basis.contains(fwd - bwd) or basis.contains(fwd + bwd):
        failures.append("k=3 sign probe inconsistent")
    return details, failures


def _check_homomorphism_properties(config: VerifyConfig):
    failures: list[str] = []
    rng = _rng(config, "homomorphism")
    moduli = (16, 81, 625)
    magnus_pairs = 0
    rho_pairs = 0
    for _ in range(PAIR_COUNT):
        alphabet = XY if rng.random() < 0.5 else XYZ
        g = random_group_word(alphabet, rng, 6)
        h = random_group_word(alphabet, rng, 6)
        modulus = rng.choice(moduli)
        magnus_pairs += 1
        lhs = magnus(g * h, modulus, 4)
        if lhs != magnus(g, modulus, 4) * magnus(h, modulus, 4):
            failures.append(f"magnus: g={g} h={h} mod {modulus}")
        w = Word(
            alphabet,
            tuple(
                rng.randrange(len(alphabet)) for _ in range(rng.randint(1, 4))
            ),
        )
        rho_pairs += 1
        rho_g = rho(w, g, modulus)
        if rho(w, g * h, modulus) != rho_g * rho(w, h, modulus):
            failures.append(f"rho: w={w} g={g} h={h} mod {modulus}")
        # rho is built from letter matrices, so this compares two routes.
        u, dense = w.indices, rho_g.dense()
        codes = magnus(g, modulus, len(w)).codes
        spans = combinations(range(len(u) + 1), 2)  # 0-based (i, j), i < j
        m = len(alphabet)
        if any(dense[i][j] != codes.get(_word_code(u[i:j], m), 0) for i, j in spans):
            failures.append(f"rho vs magnus: w={w} g={g} mod {modulus}")
    return {"magnus_pairs": magnus_pairs, "rho_pairs": rho_pairs}, failures


def _check_tau_triangularity(config: VerifyConfig):
    failures: list[str] = []
    checked = 0
    for w in lyndon_words(XY, 4) + lyndon_words(XYZ, 3):
        d = len(w)
        f = magnus(tau(w), None, d)
        checked += 1
        if any(f.homogeneous_part(k).codes for k in range(1, d)):
            failures.append(f"{w}: expansion starts below degree {d}")
            continue
        bracket = p_poly(w)
        if f.homogeneous_part(d).codes != bracket.codes:
            failures.append(f"{w}: leading part differs from bracket polynomial")
            continue
        if bracket.coefficient(w) != 1:
            failures.append(f"{w}: bracket coefficient of {w} is not 1")
            continue
        # every word of the bracket has length d, so code order is alphabetical
        if min(bracket.codes) < _word_code(w.indices, len(w.alphabet)):
            failures.append(f"{w}: tail not alphabetically above {w}")
    return {"words": checked}, failures


def _check_standard_factorization(config: VerifyConfig):
    failures: list[str] = []
    checked = 0
    for alphabet, max_len in ((XY, 6), (XYZ, 4)):
        for w in lyndon_words(alphabet, max_len):
            if len(w) < 2:
                continue
            checked += 1
            left, right = standard_factorization(w)
            least = min(
                (Word(alphabet, w.indices[i:]) for i in range(1, len(w))),
                key=lambda u: u.indices,
            )
            if left + right != w:
                failures.append(f"{w}: parts do not concatenate back")
            elif not (is_lyndon(left) and is_lyndon(right)):
                failures.append(f"{w}: a part is not Lyndon")
            elif right != least:
                failures.append(f"{w}: right part is not the least proper suffix")
            elif not left.indices < right.indices:
                failures.append(f"{w}: parts not strictly increasing")
    return {"words": checked}, failures


def _check_pairing_vanishing_rules(config: VerifyConfig):
    details: dict = {}
    failures: list[str] = []
    for n, p, alphabet in ((3, 3, XYZ), (4, 2, XY)):
        report = vanishing_checks(n, p, alphabet)
        case = f"n{n}_p{p}_{len(alphabet)}_letters"
        details[case] = {
            "pairs_checked": report["pairs_checked"],
            "by_rule": report["by_rule"],
        }
        failures += [
            f"{case}: <({c['w']}),({c['w_prime']})> = {c['value']}"
            for c in report["counterexamples"]
        ]
    return details, failures


# A check returns (details, failures); run_check alone turns that into a verdict.
Check = Callable[[VerifyConfig], tuple[dict, list[str]]]

CHECKS: dict[str, tuple[str, Check]] = {
    "lyndon-necklace-counts": (
        "Lyndon word enumeration matches Witt necklace counts for up to "
        "4 letters and length 8, and the frozen small tables",
        _check_lyndon_necklace_counts,
    ),
    "duality-n2": (
        "the depth-2 pairing matrix is the identity for p in {2,3,5} on "
        "up to 3 letters, with the displayed degree-2 values",
        _check_duality_n2,
    ),
    "pairing-matrix-n3": (
        "the depth-3 pairing matrix over {x,y,z} is the identity except "
        "a single -1 at ((xyz),(xzy))",
        _check_pairing_matrix_n3,
    ),
    "pairing-triangularity-n4": (
        "the depth-4 pairing matrix over {x,y} is 8x8 unipotent "
        "upper-triangular with both computation routes agreeing",
        _check_pairing_triangularity_n4,
    ),
    "matrix-filtration-bruteforce": (
        "brute-force lower p-central terms of unipotent matrix groups "
        "equal the central line I + p^(n-s) Z E(1,s+1)",
        _check_matrix_filtration_bruteforce,
    ),
    "koch-criterion": (
        "filtration generators and random products of their conjugates "
        "pass the Magnus coefficient divisibility criterion",
        _check_koch_criterion,
    ),
    "cfl-identity": (
        "coefficient products agree with infiltration pairings mod p^5 "
        "for all short word pairs",
        _check_cfl_identity,
    ),
    "shuffle-congruence": (
        "Magnus pairings against shuffle products vanish to order "
        "p^(n-s+1) on filtration elements; the xy control fails",
        _check_shuffle_congruence,
    ),
    "shuffle-span-structure": (
        "shuffle-span quotients have necklace dimensions for degree <= 3 "
        "at p=5; the congruence table and palindrome identity hold",
        _check_shuffle_span_structure,
    ),
    "homomorphism-properties": (
        "magnus and rho are multiplicative on random pairs of group words",
        _check_homomorphism_properties,
    ),
    "tau-triangularity": (
        "the Magnus expansion of tau(w) starts with the bracket "
        "polynomial of w, whose tail lies strictly above w",
        _check_tau_triangularity,
    ),
    "standard-factorization": (
        "every Lyndon word splits at its least proper suffix into two "
        "Lyndon words, exhaustively in small sizes",
        _check_standard_factorization,
    ),
    "pairing-vanishing-rules": (
        "letter-support and length-gap vanishing rules hold across the "
        "pairing table",
        _check_pairing_vanishing_rules,
    ),
}


def resolve_check_name(text: str) -> str:
    """Exact, prefix, or unique-substring match against check names."""
    if text in CHECKS:
        return text
    by_prefix = [name for name in CHECKS if name.startswith(text)]
    if len(by_prefix) == 1:
        return by_prefix[0]
    by_substring = [name for name in CHECKS if text in name]
    if len(by_substring) == 1:
        return by_substring[0]
    raise ValueError(
        f"unknown check {text!r}; available: {', '.join(CHECKS)}"
    )


def run_check(name: str, config: Optional[VerifyConfig] = None) -> dict:
    """Run one named check and package the outcome.

    The check passes when it returns no failures; the first MAX_FAILURES of
    them are reported under details["failures"].  A ConsistencyError fails
    the check with details {"error": message}.
    """
    config = config or VerifyConfig()
    statement, fn = CHECKS[name]
    try:
        details, failures = fn(config)
        passed = not failures
        if failures:
            details["failures"] = failures[:MAX_FAILURES]
    except ConsistencyError as exc:
        details, passed = {"error": str(exc)}, False
    return {
        "name": name,
        "statement": statement,
        "passed": passed,
        "details": details,
    }


def run_checks(
    config: Optional[VerifyConfig] = None, names: Optional[list[str]] = None
) -> dict:
    """Run the selected checks (all by default) into one report."""
    config = config or VerifyConfig()
    selected = list(CHECKS) if names is None else [resolve_check_name(t) for t in names]
    results = [run_check(name, config) for name in selected]
    return {
        "schema": 1,
        "seed": config.seed,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
