"""Command-line surface: enumeration, evaluation, matrices, verification.

Subcommands: lyndon, pairing-matrix, magnus, shuffle, verify.  Exit codes
form a stable contract: 0 all good, 1 a mathematical consistency check
failed, 2 usage or configuration error.  Reports carry "schema": 1 and
the seed, and are byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path
from typing import Optional

from .errors import ConsistencyError
from .freegrp import format_group_word, parse_group_word
from .matgrp import rho
from .pairing import pairing_matrix
from .series import balanced, is_prime, koch_test, magnus, prime_power
from .shufalg import infiltration, reduce_mod_shuffles, shuffle, shuffle_span_basis
from .verify import CHECKS, VerifyConfig, run_checks
from .words import Alphabet, lyndon_words, necklace

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by all subcommands."""

    p: int = 2
    n: int = 2
    alphabet: Alphabet = Alphabet(("x", "y"))
    deg: Optional[int] = None
    mod: Optional[int] = None
    seed: int = 0
    fmt: str = "text"
    out: Optional[str] = None


def parse_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments are ignored."""
    settings: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def build_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = parse_config_file(args.config) if args.config else {}
    known: set[str] = set()

    def pick(key: str, default, convert):
        known.add(key)
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_cfg:
            return convert(file_cfg[key])
        return default

    letters = pick("alphabet", "xy", str)
    if len(set(letters)) != len(letters):
        raise ValueError(f"alphabet letters must be distinct: {letters!r}")
    config = RunConfig(
        p=pick("p", 2, int),
        n=pick("n", 2, int),
        alphabet=Alphabet(tuple(letters)),
        deg=pick("deg", None, int),
        mod=pick("mod", None, int),
        seed=pick("seed", 0, int),
        fmt=pick("format", "text", str),
        out=pick("out", None, str),
    )
    unknown = sorted(set(file_cfg) - known)
    if unknown:
        raise ValueError(
            f"unknown config key(s) in {args.config}: {', '.join(unknown)}"
        )
    if not 2 <= config.p <= 13 or not is_prime(config.p):
        raise ValueError(f"--p must be a prime in 2..13, got {config.p}")
    if not 1 <= config.n <= 6:
        raise ValueError(f"n must be in 1..6, got {config.n}")
    if not 1 <= len(config.alphabet) <= 4:
        raise ValueError("alphabet must have 1 to 4 letters")
    if config.fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}")
    if config.mod is not None:
        # prime_power trial-divides up to the square root; above 2^40 a
        # factor up to 2^20 must turn up first, so that stays bounded.
        if config.mod > 2**40 and all(config.mod % d for d in range(2, 2**20 + 1)):
            raise ValueError(
                f"--mod above 2^40 must have a prime factor up to 2^20, got {config.mod}"
            )
        prime_power(config.mod)
    return config


def emit(text: str, config: RunConfig) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


# Lists of only plain ints or only plain strings are written in one join.
FLAT_JSON = {int: str, str: encode_basestring_ascii}


def format_json(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without its slow encoder.

    An indent sends ``json`` to its pure-Python encoder.  This writer joins
    a list of plain ints or plain strings in one ``str.join`` and escapes
    strings with the C ``encode_basestring_ascii``; bools, None, floats
    and anything else go to ``json`` itself, and so do keys that are not
    strings.
    """
    chunks: list[str] = []
    out = chunks.append

    def write(value, newline: str) -> None:
        inner = newline + "  "
        if isinstance(value, str):
            out(encode_basestring_ascii(value))
        elif type(value) is int:
            out(str(value))
        elif isinstance(value, (list, tuple, dict)) and not value:
            out("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            sep = "{"
            for key, item in value.items():
                if not isinstance(key, str):
                    (key,) = json.loads(json.dumps({key: None}))  # json's key rules
                out(sep + inner + encode_basestring_ascii(key) + ": ")
                write(item, inner)
                sep = ","
            out(newline + "}")
        elif isinstance(value, (list, tuple)):
            kinds = set(map(type, value))
            flat = FLAT_JSON.get(kinds.pop()) if len(kinds) == 1 else None
            if flat:
                out("[" + inner + ("," + inner).join(map(flat, value)) + newline + "]")
                return
            sep = "["
            for item in value:
                out(sep + inner)
                write(item, inner)
                sep = ","
            out(newline + "]")
        else:
            out(json.dumps(value))

    write(value, "\n")
    return "".join(chunks)


def emit_json(payload: dict, config: RunConfig) -> None:
    report = {"schema": 1, "seed": config.seed}
    report.update(payload)
    emit(format_json(report), config)


def cmd_lyndon(config: RunConfig, args: argparse.Namespace) -> int:
    words = lyndon_words(config.alphabet, config.n)
    m = len(config.alphabet)
    lengths = []
    for k in range(1, config.n + 1):
        of_length = [str(w) for w in words if len(w) == k]
        lengths.append(
            {
                "length": k,
                "count": len(of_length),
                "necklace": necklace(k, m),
                "words": of_length,
            }
        )
    if config.fmt == "json":
        emit_json(
            {
                "alphabet": list(config.alphabet.letters),
                "n": config.n,
                "total": len(words),
                "lengths": lengths,
            },
            config,
        )
    elif config.fmt == "csv":
        lines = [f"# schema=1 seed={config.seed}", "length,word"]
        lines += [f"{len(w)},{w}" for w in words]
        emit("\n".join(lines), config)
    else:
        lines = [
            f"Lyndon words over {{{', '.join(config.alphabet.letters)}}} "
            f"up to length {config.n}: {len(words)} total"
        ]
        for row in lengths:
            lines.append(
                f"  length {row['length']}: count {row['count']} "
                f"(necklace {row['necklace']}): {' '.join(row['words'])}"
            )
        emit("\n".join(lines), config)
    return 0


def cmd_pairing_matrix(config: RunConfig, args: argparse.Namespace) -> int:
    matrix = pairing_matrix(config.n, config.p, config.alphabet)
    if config.fmt == "json":
        emit_json(matrix.to_json(), config)
    elif config.fmt == "csv":
        emit(f"# schema=1 seed={config.seed}\n" + matrix.to_csv(), config)
    else:
        labels = [str(w) for w in matrix.index]
        width = max(len(s) for s in labels)
        cells = [
            [str(balanced(int(v), config.p)) for v in row]
            for row in matrix.rows
        ]
        cell_width = max(2, max(len(c) for row in cells for c in row), width)
        lines = [
            f"pairing matrix n={config.n} p={config.p} over "
            f"{{{', '.join(config.alphabet.letters)}}}",
            " " * (width + 2)
            + " ".join(label.rjust(cell_width) for label in labels),
        ]
        for label, row in zip(labels, cells):
            lines.append(
                label.rjust(width) + ": "
                + " ".join(c.rjust(cell_width) for c in row)
            )
        emit("\n".join(lines), config)
    return 0


# Largest truncation degree of a Magnus image, degree of a shuffle span and
# length of a shuffle the CLI computes; it bounds every printed word.
MAX_DEGREE = 256
# Most interleavings (overlapping ones too, for an infiltration) one
# `shuffle u v` may sum: C(24, 12) = 2,704,156 for two 12-letter words fits.
MAX_INTERLEAVINGS = 2**22
# Most terms one syllable product of a CLI Magnus image may form; with
# several inverse syllables the support grows like degree^k.
MAX_TERMS = 65_536
# Longest `magnus --rho` index word, and the most work its matrices may
# take: one (|w|+1)^3 product per syllable of g and distinct word w.  The
# syllable cap with --rho xyxyx,xy is 65,536 * (6^3 + 3^3) = 15,925,248.
MAX_RHO_LETTERS = 32
MAX_RHO_WORK = 2**24


def cmd_magnus(config: RunConfig, args: argparse.Namespace) -> int:
    g = parse_group_word(config.alphabet, args.word)
    degree = config.deg if config.deg is not None else 4
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"--deg must be in 0..{MAX_DEGREE}, got {degree}")
    rho_words = []
    if args.rho:
        if config.mod is None:
            raise ValueError("--rho requires --mod (a prime power)")
        texts = args.rho.split(",")
        rho_words = list(dict.fromkeys(config.alphabet.word(t.strip()) for t in texts))
        if max(map(len, rho_words)) > MAX_RHO_LETTERS:
            raise ValueError(f"--rho words may have at most {MAX_RHO_LETTERS} letters")
        cubes = sum((len(w) + 1) ** 3 for w in rho_words)
        if max(1, len(g.syllables)) * cubes > MAX_RHO_WORK:
            raise ValueError(
                f"--rho: {len(g.syllables)} syllables x {cubes} is more than {MAX_RHO_WORK}"
            )
    try:
        series = magnus(g, config.mod, degree, limit=MAX_TERMS)
    except ValueError as exc:
        shown = repr(args.word if len(args.word) <= 60 else args.word[:57] + "...")
        raise ValueError(f"Magnus image of {shown} at --deg {degree}: {exc}") from exc
    payload: dict = {
        "word": format_group_word(g),
        "modulus": config.mod,
        "degree": degree,
        "series": str(series),
        "terms": series.to_json()["terms"],
    }
    if args.coeff:
        coeffs = {}
        for text in args.coeff.split(","):
            w = config.alphabet.word(text.strip())
            if len(w) > degree:
                raise ValueError(f"coefficient word {w} exceeds degree {degree}")
            coeffs[str(w)] = series.coefficient(w)
        payload["coefficients"] = coeffs
    if args.koch:
        payload["koch"] = {
            "n": config.n,
            "p": config.p,
            "passed": koch_test(g, config.n, config.p),
        }
    if rho_words:
        matrices = {str(w): rho(w, g, config.mod) for w in rho_words}
        payload["rho"] = {w_text: m.to_json() for w_text, m in matrices.items()}
    if config.fmt == "json":
        emit_json(payload, config)
    elif config.fmt == "csv":
        lines = [f"# schema=1 seed={config.seed}", "word,coeff"]
        lines += [f"{t['word']},{t['coeff']}" for t in payload["terms"]]
        emit("\n".join(lines), config)
    else:
        mod_text = "exact" if config.mod is None else f"mod {config.mod}"
        lines = [
            f"word: {payload['word']}",
            f"magnus expansion ({mod_text}, degree {degree}):",
            f"  {payload['series']}",
        ]
        if "coefficients" in payload:
            for w_text, c in payload["coefficients"].items():
                lines.append(f"coefficient of {w_text}: {c}")
        if "koch" in payload:
            verdict = "pass" if payload["koch"]["passed"] else "fail"
            lines.append(
                f"koch criterion (n={config.n}, p={config.p}): {verdict}"
            )
        if rho_words:
            for w_text, matrix in matrices.items():
                lines.append(f"rho^({w_text}) mod {config.mod}:")
                dense = matrix.dense()
                width = max(len(str(v)) for row in dense for v in row)
                for row in dense:
                    lines.append("  " + " ".join(str(v).rjust(width) for v in row))
        emit("\n".join(lines), config)
    return 0


def cmd_shuffle(config: RunConfig, args: argparse.Namespace) -> int:
    modes = sum(bool(flag) for flag in (args.words, args.span, args.reduce))
    if modes != 1:
        raise ValueError(
            "give two words to shuffle, or --span --deg D, or --reduce WORD"
        )
    if config.fmt == "csv":
        raise ValueError("shuffle has no csv output; use --format text or json")
    if args.span:
        if config.deg is None:
            raise ValueError("--span requires --deg")
        if not 1 <= config.deg <= MAX_DEGREE:
            raise ValueError(f"--deg must be in 1..{MAX_DEGREE}, got {config.deg}")
        basis = shuffle_span_basis(config.deg, config.p, config.alphabet)
        if config.fmt == "json":
            emit_json(basis.to_json(), config)
        else:
            lines = [
                f"shuffle span at degree {config.deg} over "
                f"{{{', '.join(config.alphabet.letters)}}} mod {config.p}",
                f"rank {basis.rank}, quotient dimension {basis.quotient_dim}",
            ]
            emit("\n".join(lines), config)
        return 0
    if args.reduce:
        w = config.alphabet.word(args.reduce)
        combo = reduce_mod_shuffles(w, config.p)
        as_text = " + ".join(f"{c}·({wl})" for wl, c in combo.items()) or "0"
        if config.fmt == "json":
            emit_json(
                {
                    "word": str(w),
                    "p": config.p,
                    "lyndon_combination": {str(wl): c for wl, c in combo.items()},
                },
                config,
            )
        else:
            emit(f"({w}) = {as_text}  (mod shuffles and {config.p})", config)
        return 0
    if len(args.words) != 2:
        raise ValueError("exactly two words are required")
    u = config.alphabet.word(args.words[0])
    v = config.alphabet.word(args.words[1])
    a, b = len(u), len(v)
    if a + b > MAX_DEGREE:
        raise ValueError(f"shuffle words have {a} + {b} letters, more than {MAX_DEGREE}")
    # (a+b-k)! / (k! (a-k)! (b-k)!) interleavings overlap k letter pairs.  A
    # shuffle has k = 0; an infiltration sums all k (the Delannoy number).
    overlaps = range(min(a, b) + 1) if args.infiltration else [0]
    count = sum(comb(a + b - k, k) * comb(a + b - 2 * k, a - k) for k in overlaps)
    if count > MAX_INTERLEAVINGS:
        raise ValueError(
            f"shuffle of ({u}) and ({v}): {count} interleavings, more than {MAX_INTERLEAVINGS}"
        )
    sh = shuffle(u, v)
    payload = {"u": str(u), "v": str(v), "shuffle": {"terms": sh.to_json()["terms"]}}
    if args.infiltration:
        payload["infiltration"] = {"terms": infiltration(u, v).to_json()["terms"]}
    if config.fmt == "json":
        emit_json(payload, config)
    else:
        lines = [f"({u}) shuffle ({v}) = {sh}"]
        if args.infiltration:
            lines.append(f"({u}) infiltration ({v}) = {infiltration(u, v)}")
        emit("\n".join(lines), config)
    return 0


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    vconfig = VerifyConfig(seed=config.seed, sigma=args.sigma)
    report = run_checks(vconfig, names=args.check or None)
    if config.fmt == "json":
        emit(format_json(report), config)
    elif config.fmt == "csv":
        lines = [f"# schema=1 seed={config.seed}", "check,passed"]
        lines += [f"{c['name']},{c['passed']}" for c in report["checks"]]
        emit("\n".join(lines), config)
    else:
        lines = []
        for c in report["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{mark}  {c['name']}: {c['statement']}")
        done = sum(c["passed"] for c in report["checks"])
        overall = "PASS" if report["passed"] else "FAIL"
        lines.append(
            f"overall: {overall} ({done}/{len(report['checks'])}), seed {config.seed}"
        )
        emit("\n".join(lines), config)
    return 0 if report["passed"] else 1


FLAGS = {
    "p": {"type": int, "help": "prime, 2..13 (default 2)"},
    "n": {"type": int, "help": "filtration depth, 1..6 (default 2)"},
    "alphabet": {"help": "letters, e.g. xy or xyz (default xy)"},
    "deg": {"type": int, "help": "truncation or span degree"},
    "mod": {"type": int, "help": "prime-power working modulus"},
    "seed": {"type": int, "help": "seed for randomized suites (default 0)"},
    "format": {"choices": FORMATS, "help": "output format (default text)"},
    "out": {"help": "write output to this file instead of stdout"},
    "config": {"help": "key=value config file; flags override it"},
}


def _add_flags(sub: argparse.ArgumentParser, *reads: str) -> None:
    """Register the flags a subcommand reads, plus seed, format, out, config.

    Passing a flag the subcommand would ignore is then a usage error.
    """
    for name, kwargs in FLAGS.items():
        if name in reads or name in ("seed", "format", "out", "config"):
            sub.add_argument(f"--{name}", **kwargs)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lynmag",
        description="Lyndon words, Magnus expansions, duality pairings, "
        "and shuffle relations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("lyndon", help="enumerate Lyndon words with counts")
    _add_flags(sub, "alphabet", "n")
    sub.set_defaults(handler=cmd_lyndon)

    sub = subs.add_parser("pairing-matrix", help="duality pairing matrix")
    _add_flags(sub, "p", "alphabet", "n")
    sub.set_defaults(handler=cmd_pairing_matrix)

    sub = subs.add_parser("magnus", help="Magnus expansion of a group word")
    sub.add_argument("word", help="group word, e.g. \"x^-1 [x, y]^2\"")
    sub.add_argument("--coeff", help="comma-separated words to read off")
    sub.add_argument("--koch", action="store_true", help="report the divisibility verdict")
    sub.add_argument("--rho", help="comma-separated index words for matrices")
    _add_flags(sub, "p", "n", "alphabet", "deg", "mod")
    sub.set_defaults(handler=cmd_magnus)

    sub = subs.add_parser("shuffle", help="shuffle products and span reduction")
    sub.add_argument("words", nargs="*", help="two words to shuffle")
    sub.add_argument(
        "--infiltration", action="store_true", help="also print the infiltration"
    )
    sub.add_argument("--span", action="store_true", help="span report at --deg")
    sub.add_argument("--reduce", help="write this word in the Lyndon basis")
    _add_flags(sub, "p", "alphabet", "deg")
    sub.set_defaults(handler=cmd_shuffle)

    sub = subs.add_parser("verify", help="run the named verification checks")
    sub.add_argument(
        "--check",
        action="append",
        help=f"run one check (repeatable); names: {', '.join(CHECKS)}",
    )
    sub.add_argument("--sigma", help="group word over x,y for the cfl check")
    _add_flags(sub)
    sub.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_run_config(args)
        return args.handler(config, args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
