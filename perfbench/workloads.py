"""Seeded inputs, timed operations and output checks for each workload.

Inputs are generated with the standard library alone and never touch
lynmag, so one seed yields byte-identical inputs on every commit and the
program receives only the generated values.  Each workload's mix is fixed
by strata; the seed draws the values inside each stratum (primes, letter
names, generators, group words), so seeds differ in content but hardly
in the amount of work.

Checks run after the timed phase and do not trust it: they recompute
what they need (Lyndon words, necklace counts, shuffle products, group
orders) with the small reference code in this file, never with lynmag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product

PRIMES = (2, 3, 5, 7, 11, 13)
LETTER_POOL = "abcdefgh"

# pairing-cli: the large-p^(n-|w|) cases where eagerly expanding
# tau(w)**(p**k) into a reduced word dominates, run in every round.  The
# CLI ceiling (4 letters, n=6, p=13) does not finish within a run at the
# seed commit and is left out until group elements are evaluated without
# that expansion.
PAIRING_HEAVY = ((2, 5, 13), (3, 5, 7))
# (letters, n) strata of the light requests, two requests each.
PAIRING_LIGHT = (
    (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3),
    (4, 1), (4, 2), (4, 3),
)

# filtration-bruteforce: (s, p, n) on the unitriangular group of size s+1
# over Z/p^(n-s+1), group orders 27..343.
FILTRATION_CASES = (
    (2, 2, 3), (3, 2, 3), (2, 3, 2), (1, 3, 4), (2, 5, 2), (1, 5, 3),
    (1, 11, 2), (1, 13, 2), (1, 2, 6), (1, 3, 5), (2, 7, 2),
)

# shuffle-coeffs
CFL_PRIMES = (2, 3, 5)
CFL_SIGMAS_PER_PRIME = 100
CFL_MAX_LENGTH = 8
CONGRUENCE_CASES = tuple(product((2, 3, 5), (2, 3)))  # (p, n)
CONGRUENCE_SAMPLES = 30
CONGRUENCE_FACTORS = 3
CONJUGATOR_LENGTH = 2
# (letters, degree) strata of the --span requests.
SPAN_STRATA = ((2, 6), (3, 3), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5))
REDUCE_DEGREES = (2, 3)

WORKLOADS = ("pairing-cli", "filtration-bruteforce", "shuffle-coeffs")


# ---------------------------------------------------------------- reference math


def is_lyndon(u: tuple) -> bool:
    return bool(u) and all(u < u[i:] for i in range(1, len(u)))


def lyndon_words(k: int, n: int) -> list[tuple]:
    """Lyndon words over range(k) of length 1..n, by brute force, (len, alp) order."""
    found = [
        u for length in range(1, n + 1)
        for u in product(range(k), repeat=length) if is_lyndon(u)
    ]
    return sorted(found, key=lambda u: (len(u), u))


def necklace(n: int, k: int) -> int:
    return sum(1 for u in product(range(k), repeat=n) if is_lyndon(u))


def standard_factorization(u: tuple) -> tuple[tuple, tuple]:
    cut = min(range(1, len(u)), key=lambda i: u[i:])
    return u[:cut], u[cut:]


def shuffle_product(u: tuple, v: tuple) -> dict[tuple, int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple, int] = {}
    for head, rest in ((u[-1:], shuffle_product(u[:-1], v)), (v[-1:], shuffle_product(u, v[:-1]))):
        for key, c in rest.items():
            out[key + head] = out.get(key + head, 0) + c
    return out


# ---------------------------------------------------------------- inputs


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is stable across processes, unlike hash().
    return random.Random(f"{workload}:{seed}")


def _letters(rng: random.Random, k: int) -> str:
    return "".join(rng.sample(LETTER_POOL, k))


def _group_word_text(rng: random.Random, letters: str, length: int) -> list[str]:
    return [rng.choice(letters) + rng.choice(("", "^-1")) for _ in range(length)]


def _inverse_tokens(tokens: list[str]) -> list[str]:
    return [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(tokens)]


def _tau_text(u: tuple, letters: str) -> str:
    if len(u) == 1:
        return letters[u[0]]
    left, right = standard_factorization(u)
    return f"[{_tau_text(left, letters)}, {_tau_text(right, letters)}]"


def _balanced(rng: random.Random, values, count: int) -> list:
    """count values cycling through values, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _filtration_elements(rng: random.Random, n: int, p: int, count: int) -> list[str]:
    """Products of random conjugates of generators of the n-th term.

    Each element has CONGRUENCE_FACTORS factors with conjugators of
    CONJUGATOR_LENGTH letters, and the generators are dealt evenly across
    the elements, so every seed does about the same work.
    """
    gens = [(u, p ** (n - len(u))) for u in lyndon_words(2, n)]
    dealt = _balanced(rng, gens, count * CONGRUENCE_FACTORS)
    elements = []
    for k in range(count):
        tokens: list[str] = []
        for u, e in dealt[k * CONGRUENCE_FACTORS:(k + 1) * CONGRUENCE_FACTORS]:
            c = _group_word_text(rng, "xy", CONJUGATOR_LENGTH)
            tokens += _inverse_tokens(c) + [f"{_tau_text(u, 'xy')}^{e}"] + c
        elements.append(" ".join(tokens))
    return elements


def _pairing_inputs(rng: random.Random) -> dict:
    # One small and one large prime per stratum keeps the cost of a round
    # nearly the same for every seed.
    cases = list(PAIRING_HEAVY) + [
        (k, n, rng.choice(primes)) for k, n in PAIRING_LIGHT
        for primes in (PRIMES[:3], PRIMES[3:])
    ]
    rng.shuffle(cases)
    return {
        "requests": [
            {"letters": _letters(rng, k), "n": n, "p": p} for k, n, p in cases
        ]
    }


def _unit(rng: random.Random, modulus: int, p: int) -> int:
    while True:
        u = rng.randrange(1, modulus)
        if u % p:
            return u


def _filtration_inputs(rng: random.Random) -> dict:
    cases = []
    for s, p, n in FILTRATION_CASES:
        size, modulus = s + 1, p ** (n - s + 1)
        upper = [(i, j) for i in range(1, size) for j in range(i + 1, size + 1)]
        # Random lifts of the standard generators (a unit on the
        # superdiagonal, anything above it) still generate the whole
        # nilpotent group; one fully random element rides along.
        gens = [
            [[i, j, _unit(rng, modulus, p) if j == i + 1 else rng.randrange(modulus)]
             for j in range(i + 1, size + 1)]
            for i in range(1, size)
        ]
        gens.append([[i, j, rng.randrange(modulus)] for i, j in upper])
        cases.append({"s": s, "p": p, "n": n, "generators": gens})
    rng.shuffle(cases)
    return {"cases": cases}


def _shuffle_inputs(rng: random.Random) -> dict:
    cfl = {
        str(p): [
            " ".join(_group_word_text(rng, "xy", length))
            for length in _balanced(rng, range(1, CFL_MAX_LENGTH + 1), CFL_SIGMAS_PER_PRIME)
        ]
        for p in CFL_PRIMES
    }
    congruence = [
        {"p": p, "n": n, "sigma": sigma}
        for p, n in CONGRUENCE_CASES
        for sigma in _filtration_elements(rng, n, p, CONGRUENCE_SAMPLES)
    ]
    # p > 3 so that Lyndon coordinates are reported at degree <= 3.
    spans = [
        {"letters": _letters(rng, k), "deg": d, "p": rng.choice(PRIMES[2:])}
        for k, d in SPAN_STRATA
    ]
    letters, p = _letters(rng, 3), rng.choice(PRIMES[2:])
    reduce = {
        "letters": letters,
        "p": p,
        "words": [
            "".join(letters[i] for i in u)
            for d in REDUCE_DEGREES for u in product(range(3), repeat=d)
        ],
    }
    return {"cfl": cfl, "congruence": congruence, "spans": spans, "reduce": reduce}


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload, as plain JSON-able data."""
    build = {
        "pairing-cli": _pairing_inputs,
        "filtration-bruteforce": _filtration_inputs,
        "shuffle-coeffs": _shuffle_inputs,
    }[workload]
    return build(_rng(workload, seed))


# ---------------------------------------------------------------- operations
#
# Every operation looks lynmag names up at call time through the package
# modules, so wrappers installed by a traced round are seen.


def _cli(lm, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lm.cli.main(argv)
    return code, out.getvalue() if code == 0 else err.getvalue()


def _pairing_ops(lm, inputs: dict) -> list:
    ops = []
    for r in inputs["requests"]:
        argv = [
            "pairing-matrix", "--alphabet", r["letters"], "--n", str(r["n"]),
            "--p", str(r["p"]), "--format", "json",
        ]
        ops.append(("pairing-matrix", lambda argv=argv: _cli(lm, argv)))
    return ops


def _filtration_op(lm, case: dict):
    s, p, n = case["s"], case["p"], case["n"]
    size, modulus = s + 1, p ** (n - s + 1)
    gens = [
        lm.UnipotentMatrix.from_entries(size, modulus, {(i, j): v for i, j, v in g})
        for g in case["generators"]
    ]
    table = lm.generate_group(gens)
    return table, lm.lower_p_central(table, p, n)


def _filtration_ops(lm, inputs: dict) -> list:
    return [("filtration", lambda c=c: _filtration_op(lm, c)) for c in inputs["cases"]]


def _cfl_op(lm, sigma_text: str, p: int) -> list[bool]:
    xy = lm.Alphabet(("x", "y"))
    words = [xy.word("".join(t)) for s in (1, 2, 3) for t in product("xy", repeat=s)]
    sigma = lm.parse_group_word(xy, sigma_text)
    return [lm.cfl_check(u, v, sigma, p**5) for u in words for v in words]


def _congruence_pairs(n: int) -> list[tuple[str, str]]:
    return [
        ("".join(u), "".join(v))
        for a in range(1, n) for b in range(1, n - a + 1)
        for u in product("xy", repeat=a) for v in product("xy", repeat=b)
    ]


def _congruence_op(lm, sigma_text: str, n: int, p: int, pairs) -> list[bool]:
    xy = lm.Alphabet(("x", "y"))
    sigma = lm.parse_group_word(xy, sigma_text)
    return [lm.shuffle_congruence_check(xy.word(u), xy.word(v), sigma, n, p) for u, v in pairs]


def _shuffle_ops(lm, inputs: dict) -> list:
    ops = []
    for p_text, sigmas in inputs["cfl"].items():
        ops += [("cfl", lambda t=t, p=int(p_text): _cfl_op(lm, t, p)) for t in sigmas]
    for c in inputs["congruence"]:
        pairs = _congruence_pairs(c["n"])
        ops.append(("congruence", lambda c=c, pairs=pairs: _congruence_op(lm, c["sigma"], c["n"], c["p"], pairs)))
    # Negative control: x y is not in the second term, and the (x),(y)
    # shuffle pairing must detect that.
    for p in CFL_PRIMES:
        ops.append(("control", lambda p=p: _congruence_op(lm, "x y", 2, p, [("x", "y")])))
    for sp in inputs["spans"]:
        argv = [
            "shuffle", "--span", "--deg", str(sp["deg"]), "--p", str(sp["p"]),
            "--alphabet", sp["letters"], "--format", "json",
        ]
        ops.append(("span", lambda argv=argv: _cli(lm, argv)))
    red = inputs["reduce"]
    for w in red["words"]:
        argv = [
            "shuffle", "--reduce", w, "--p", str(red["p"]),
            "--alphabet", red["letters"], "--format", "json",
        ]
        ops.append(("reduce", lambda argv=argv: _cli(lm, argv)))
    return ops


def make_ops(lm, workload: str, inputs: dict) -> list:
    """(kind, zero-argument callable) per operation, in execution order."""
    build = {
        "pairing-cli": _pairing_ops,
        "filtration-bruteforce": _filtration_ops,
        "shuffle-coeffs": _shuffle_ops,
    }[workload]
    return build(lm, inputs)


# ---------------------------------------------------------------- checks
#
# A checker takes the inputs and the per-operation outputs (an output is
# whatever the operation returned) and yields, per operation, an error
# message or None, and a JSON-able value whose digest identifies it.


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _cli_json(out) -> tuple[dict | None, str | None]:
    if isinstance(out, Raised):
        return None, out.text
    code, text = out
    if code != 0:
        return None, f"exit code {code}: {text.strip()[:200]}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_pairing(req: dict, out) -> tuple[str | None, object]:
    report, error = _cli_json(out)
    if error:
        return error, None
    letters, n, p = req["letters"], req["n"], req["p"]
    index = ["".join(letters[i] for i in u) for u in lyndon_words(len(letters), n)]
    if report.get("schema") != 1 or report.get("index") != index:
        return "index is not the Lyndon words up to n in preceq order", report
    rows = report.get("rows")
    d = sum(necklace(s, len(letters)) for s in range(1, n + 1))
    if len(index) != d or len(rows) != d or any(len(row) != d for row in rows):
        return f"matrix is not {d} x {d}", report
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 0 <= v < p:
                return f"entry ({index[i]},{index[j]}) = {v} is not a residue mod {p}", report
            if (i == j and v != 1) or (i > j and v != 0):
                return f"entry ({index[i]},{index[j]}) = {v} breaks unitriangularity", report
    if n <= 3:
        # Closed form: the identity, except -1 at ((abc),(acb)) for a < b < c.
        for i, w in enumerate(index):
            for j, w2 in enumerate(index):
                want = int(i == j)
                if len(w) == 3 and letters.index(w[0]) < letters.index(w[1]) < letters.index(w[2]) \
                        and w2 == w[0] + w[2] + w[1]:
                    want = p - 1
                if rows[i][j] != want:
                    return f"entry ({w},{w2}) = {rows[i][j]}, closed form gives {want}", report
    return None, report


def check_filtration(case: dict, out) -> tuple[str | None, object]:
    if isinstance(out, Raised):
        return out.text, None
    table, term = out
    s, p, n = case["s"], case["p"], case["n"]
    size, modulus, shift = s + 1, p ** (n - s + 1), p ** (n - s)
    corners = []
    for m in term:
        entries = m.to_json()["entries"]
        if entries and (len(entries) != 1 or entries[0][:2] != [1, size]):
            return f"term element {entries} is off the corner line", None
        corners.append(entries[0][2] if entries else 0)
    value = {"group_order": len(table), "term_corners": sorted(corners)}
    order = modulus ** (s * (s + 1) // 2)
    if len(table) != order:
        return f"group order {len(table)}, expected {order}", value
    if sorted(corners) != [a * shift for a in range(p)]:
        return f"term corners {sorted(corners)} != multiples of {shift} mod {modulus}", value
    return None, value


def _check_bools(out, want: bool) -> tuple[str | None, object]:
    if isinstance(out, Raised):
        return out.text, None
    bad = [i for i, ok in enumerate(out) if ok is not want]
    if bad:
        return f"{len(bad)} of {len(out)} results are not {want}", out
    return None, out


def _kills_shuffles(coords: dict[str, dict[str, int]], letters: str, d: int, p: int) -> str | None:
    """coords maps each word of length d to its Lyndon coordinates mod p.

    The map must fix Lyndon words and send every shuffle u ш v with
    |u| + |v| = d to zero; that characterizes it.
    """
    text = lambda u: "".join(letters[i] for i in u)  # noqa: E731
    for u in lyndon_words(len(letters), d):
        if len(u) == d and coords.get(text(u)) != {text(u): 1}:
            return f"Lyndon word {text(u)} maps to {coords.get(text(u))}"
    for a in range(1, d // 2 + 1):
        for u in product(range(len(letters)), repeat=a):
            for v in product(range(len(letters)), repeat=d - a):
                total: dict[str, int] = {}
                for w, c in shuffle_product(u, v).items():
                    if text(w) not in coords:
                        return f"no Lyndon coordinates for {text(w)}"
                    for lw, x in coords[text(w)].items():
                        total[lw] = (total.get(lw, 0) + c * x) % p
                if any(total.values()):
                    return f"shuffle {text(u)} ш {text(v)} does not vanish"
    return None


def check_span(sp: dict, out) -> tuple[str | None, object]:
    report, error = _cli_json(out)
    if error:
        return error, None
    k, d, p = len(sp["letters"]), sp["deg"], sp["p"]
    rank, qdim = report.get("rank"), report.get("quotient_dim")
    lyn = necklace(d, k)
    if rank + qdim != k**d:
        return f"rank {rank} + quotient {qdim} != {k}^{d}", report
    if qdim < lyn or (p > d and qdim != lyn):
        return f"quotient dimension {qdim} vs {lyn} Lyndon words at p={p}", report
    if d <= 3 and p > 3:
        error = _kills_shuffles(report.get("lyndon_map", {}), sp["letters"], d, p)
        if error:
            return error, report
    return None, report


def check_reduce(red: dict, outs: list) -> list[tuple[str | None, object]]:
    reports = [_cli_json(out) for out in outs]
    results = [(error, report) for report, error in reports]
    if any(error for error, _ in results):
        return results
    letters, p = red["letters"], red["p"]
    for d in REDUCE_DEGREES:
        coords = {
            w: {lw: c % p for lw, c in report["lyndon_combination"].items()}
            for w, (_, report) in zip(red["words"], results)
            if len(w) == d and report.get("word") == w
        }
        error = _kills_shuffles(coords, letters, d, p)
        if error:
            results = [
                (error if len(w) == d else e, r) for w, (e, r) in zip(red["words"], results)
            ]
    return results


MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _guarded(check, *args) -> tuple[str | None, object]:
    try:
        return check(*args)
    except MALFORMED as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", None


def check_outputs(workload: str, inputs: dict, outputs: list) -> list[tuple[str | None, object]]:
    """(error or None, digest value) per operation, in execution order."""
    if workload == "pairing-cli":
        return [_guarded(check_pairing, r, o) for r, o in zip(inputs["requests"], outputs)]
    if workload == "filtration-bruteforce":
        return [_guarded(check_filtration, c, o) for c, o in zip(inputs["cases"], outputs)]
    results = []
    it = iter(outputs)
    for sigmas in inputs["cfl"].values():
        results += [_guarded(_check_bools, next(it), True) for _ in sigmas]
    results += [_guarded(_check_bools, next(it), True) for _ in inputs["congruence"]]
    results += [_guarded(_check_bools, next(it), False) for _ in CFL_PRIMES]
    results += [_guarded(check_span, sp, next(it)) for sp in inputs["spans"]]
    rest = list(it)
    try:
        results += check_reduce(inputs["reduce"], rest)
    except MALFORMED as exc:
        results += [(f"malformed output: {type(exc).__name__}: {exc}", None)] * len(rest)
    return results


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]
