"""A seeded fuzz run of the command line (after Miller, Fredriksen & So, "An
empirical study of the reliability of UNIX utilities", CACM 1990).

Every call goes through ``main`` in-process, on every subcommand, with two
kinds of input: random strings of at most 12 tokens drawn from both
grammars plus characters that neither lexes, and printed ``gen_term`` and
``gen_res`` draws.  Each call must return 0, 1 or 2 (argparse's usage
errors raise ``SystemExit(2)``), write no traceback and end within
``_CALL_SECONDS``.  The bounds keep every run small: ``--max-steps`` at most
20, ``--max-size`` at most 7, ``--fuel`` at most 60 and ``check --samples``
at most 3, so no call fans out into a large sum.
"""

import contextlib
import io
import random
import time

import pytest

from mulam.cli import main
from mulam.gen import gen_res, gen_term
from mulam.textio import print_res, print_term

_TOKENS = ("\\", ".", "(", ")", "[", "]", ",", "+", "*", "<", ">", "mu", "'a", "'b", "'mu",
           "x", "y", "f", "0", "1", "2", "'",
           # Neither grammar lexes these.
           "#", "_", "~", ";", "X", "é", "²", "-")
# The slowest of the 1700 calls of both seeds takes about 0.016 s (the
# slowest ``check`` about 0.005 s) on a shared 2-core x86-64 VM, so the bound
# leaves a margin of over 100 for a loaded machine.
_CALL_SECONDS = 2.0

# ``E`` is replaced by an input; the last shape of each command draws its
# bounds from the generator.
_SHAPES = (
    ("parse", "-e", "E"),
    ("parse", "--json", "-e", "E"),
    ("reduce", "--max-steps", "20", "-e", "E"),
    ("reduce", "--strategy", "head", "--max-steps", "20", "-e", "E"),
    ("reduce", "--calculus", "res", "--max-steps", "20", "-e", "E"),
    ("reduce", "--calculus", "res", "--strategy", "random", "--semiring", "bool",
     "--max-steps", "20", "-e", "E"),
    ("normalize", "-e", "E"),
    ("normalize", "--semiring", "bool", "--json", "-e", "E"),
    ("normalize", "--trace", "-e", "E"),
    ("measure", "-e", "E"),
    ("measure", "--json", "-e", "E"),
    ("taylor", "--max-size", "7", "--limit", "3", "-e", "E"),
    ("taylor", "--max-size", "5", "--json", "-e", "E"),
    ("nft", "--max-size", "7", "-e", "E"),
    ("nft", "--max-size", "6", "--json", "-e", "E"),
    ("nft-eq", "E", "E", "--max-size", "7"),
    ("nft-eq", "E", "x", "--max-size", "5", "--json"),
    ("solvable", "--fuel", "60", "-e", "E"),
    ("solvable", "--fuel", "20", "--json", "-e", "E"),
)
_SUITES = ("confluence", "counterexamples", "injectivity", "lemmas", "simulation", "sn",
           "support")


def _check_argv(rng: random.Random) -> list[str]:
    argv = ["check", "--suite", rng.choice(_SUITES), "--samples", str(rng.randrange(4)),
            "--seed", str(rng.randrange(100))]
    if rng.random() < 0.5:
        argv += ["--max-term-size", str(rng.randint(1, 7))]
    if rng.random() < 0.3:
        argv += ["--node-cap", str(rng.randint(1, 200))]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _call(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert elapsed < _CALL_SECONDS, (argv, elapsed)
    return code


def _run(rng: random.Random, calls: int, draw) -> set:
    codes = set()
    for _ in range(calls):
        if rng.random() < 0.05:
            codes.add(_call(_check_argv(rng)))
            continue
        shape = rng.choice(_SHAPES)
        codes.add(_call([draw(rng) if a == "E" else a for a in shape]))
    return codes


def _tokens(rng: random.Random) -> str:
    words = [rng.choice(_TOKENS) for _ in range(rng.randint(0, 12))]
    return rng.choice(("", " ")).join(words)


def _printed_draw(rng: random.Random) -> str:
    size = rng.randint(1, 7)
    if rng.random() < 0.5:
        return print_term(gen_term(rng, size))
    return print_res(gen_res(rng, size))


@pytest.mark.parametrize("seed", [0, 1])
def test_token_strings_end_in_0_1_or_2(seed):
    codes = _run(random.Random(seed), 500, _tokens)
    # Most random strings do not parse, but some do.
    assert {0, 2} <= codes


@pytest.mark.parametrize("seed", [0, 1])
def test_printed_draws_end_in_0_1_or_2(seed):
    codes = _run(random.Random(100 + seed), 350, _printed_draw)
    assert {0, 2} <= codes
