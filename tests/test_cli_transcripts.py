"""Whole CLI runs, pinned byte for byte.

Each run calls ``main(argv)`` in-process and compares its exit code, stdout
and stderr with ``cli_transcripts.json``; the ``wall time:`` line of a suite
report (and its ``"wall_time"`` line under ``--json``) is the only output
that varies between runs, so it is left out.  The goldens were written by
``python tests/test_cli_transcripts.py --write``; a refactoring of the CLI
or of what it prints must leave them as they are.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from mulam.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcripts.json")

_LAM_BETA = r"(\x.x x) (\y.y)"
_LAM_MU = r"(mu 'a.<'a> \x.x) y z"
_LAM_RHO = r"mu 'a.<'b> mu 'c.<'a> (\x.x) y"
_OMEGA3 = r"(\x.x x x) (\x.x x x)"
_RES_WIDE = r"(\x.x[x])[(\y.y)[z],w] + 2*(\x.x)[(\y.y)[w]]"
_RES_MU = r"(mu 'a.<'a> x[y])[z, w] + (mu 'a.<'a> mu 'b.<'a> x)[y]"
_RES_DUP = r"(\x.x[x])[(\y.y)[z],(\y.y)[z]]"
_CHURCH_2 = r"(\f.\x.f (f x)) (\f.\x.f (f x))"
# Equal bag elements: over nat every addend has coefficient 2, counted
# through sub-results that the substitution shares between its branches.
_RES_FANOUT = r"(\x. x[x][x][x])[y, y, z, w]"

RUNS = {
    "reduce-lamu-leftmost": ["reduce", "-e", _LAM_BETA],
    "reduce-lamu-leftmost-mu": ["reduce", "-e", _LAM_MU],
    "reduce-lamu-head": ["reduce", "--strategy", "head", "-e", _LAM_MU],
    "reduce-lamu-head-rho": ["reduce", "--strategy", "head", "-e", _LAM_RHO],
    "reduce-lamu-random": ["reduce", "--strategy", "random", "--seed", "3", "-e", _CHURCH_2],
    "reduce-lamu-max-steps": ["reduce", "--max-steps", "3", "-e", _OMEGA3],
    "reduce-lamu-normal": ["reduce", "-e", r"\x.x y"],
    "reduce-res-leftmost": ["reduce", "--calculus", "res", "-e", _RES_WIDE],
    "reduce-res-head": ["reduce", "--calculus", "res", "--strategy", "head", "-e", _RES_WIDE],
    "reduce-res-head-mu": ["reduce", "--calculus", "res", "--strategy", "head", "-e", _RES_MU],
    "reduce-res-random": ["reduce", "--calculus", "res", "--strategy", "random", "--seed", "5",
                          "-e", _RES_WIDE],
    "reduce-res-bool": ["reduce", "--calculus", "res", "--semiring", "bool", "-e", _RES_DUP],
    "reduce-res-max-steps": ["reduce", "--calculus", "res", "--max-steps", "2", "-e", _RES_WIDE],
    "reduce-res-max-steps-0": ["reduce", "--calculus", "res", "--max-steps", "0", "-e", _RES_MU],
    "reduce-res-normal": ["reduce", "--calculus", "res", "-e", "x[y] + 0*z"],
    "normalize-nat": ["normalize", "-e", _RES_DUP],
    "normalize-bool": ["normalize", "--semiring", "bool", "-e", _RES_DUP],
    "normalize-mu": ["normalize", "-e", _RES_MU],
    "normalize-fanout-nat": ["normalize", "-e", _RES_FANOUT],
    "normalize-fanout-bool": ["normalize", "--semiring", "bool", "-e", _RES_FANOUT],
    "normalize-trace-nat": ["normalize", "--trace", "-e", _RES_WIDE],
    "normalize-trace-bool": ["normalize", "--trace", "--semiring", "bool", "-e", _RES_DUP],
    "normalize-trace-mu": ["normalize", "--trace", "-e", _RES_MU],
    "normalize-json-nat": ["normalize", "--json", "-e", _RES_WIDE],
    "normalize-json-bool": ["normalize", "--json", "--semiring", "bool", "-e", _RES_MU],
    "normalize-trace-json": ["normalize", "--trace", "--json", "-e", _RES_DUP],
    "normalize-lamu-term": ["normalize", "-e", _LAM_BETA],
    "parse-lamu": ["parse", "-e", r"(\x.  x)   y"],
    "parse-lamu-mu": ["parse", "-e", _LAM_RHO],
    "parse-res": ["parse", "-e", _RES_WIDE],
    "parse-json-lamu": ["parse", "--json", "-e", _LAM_MU],
    "parse-json-res": ["parse", "--json", "-e", _RES_MU],
    "measure": ["measure", "-e", r"(\x.x[x])[(\y.y)[z],w]"],
    "measure-mu": ["measure", "-e", r"(mu 'a.<'a> x[y])[z, w]"],
    "measure-json": ["measure", "--json", "-e", r"(mu 'a.<'a> x[y])[(\y.y)[z], w]"],
    "taylor": ["taylor", "--max-size", "8", "-e", r"\x.x x"],
    "taylor-limit": ["taylor", "--max-size", "10", "--limit", "3", "-e", _LAM_MU],
    "taylor-json-limit": ["taylor", "--max-size", "8", "--limit", "2", "--json", "-e", _LAM_BETA],
    "nft": ["nft", "--max-size", "12", "-e", _LAM_BETA],
    "nft-limit": ["nft", "--max-size", "12", "--limit", "2", "-e", _LAM_MU],
    "nft-json": ["nft", "--max-size", "10", "--json", "-e", _LAM_MU],
    "nft-eq-equal": ["nft-eq", r"(\x.x) y", "y", "--max-size", "8"],
    "nft-eq-different": ["nft-eq", r"\x.x", r"\x.\y.x", "--max-size", "8"],
    "nft-eq-json-different": ["nft-eq", "--json", r"\x.x", r"\x.\y.x", "--max-size", "8"],
    "solvable": ["solvable", "-e", _CHURCH_2],
    "solvable-unknown": ["solvable", "--fuel", "10", "-e", _OMEGA3],
    "solvable-json": ["solvable", "--json", "-e", _LAM_MU],
    "solvable-json-unknown": ["solvable", "--json", "--fuel", "6", "-e", _OMEGA3],
    "error-parse": ["parse", "-e", r"\x. )"],
    "error-reduce-lamu": ["reduce", "-e", "x )"],
    "error-reduce-res": ["reduce", "--calculus", "res", "-e", "x[y"],
    "error-normalize": ["normalize", "-e", "x[y]]"],
    "error-measure": ["measure", "-e", "mu 'a. x"],
    "error-solvable": ["solvable", "-e", r"\x"],
    "check-counterexamples": ["check", "--suite", "counterexamples"],
    "check-counterexamples-samples": ["check", "--suite", "counterexamples", "--samples", "3"],
    "check-counterexamples-json": ["check", "--suite", "counterexamples", "--json"],
    "check-lemmas-small": ["check", "--suite", "lemmas", "--samples", "2", "--seed", "4"],
}


def _varies(line: str) -> bool:
    return line.startswith("wall time: ") or line.lstrip().startswith('"wall_time": ')


def transcript(argv: list[str]) -> dict:
    """The exit code and output of ``mulam argv``, without the lines that
    vary between runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code,
            "out": [line for line in out.getvalue().splitlines(True) if not _varies(line)],
            "err": err.getvalue().splitlines(True)}


def _goldens() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_run_is_as_pinned(run):
    assert transcript(RUNS[run]) == _goldens()[run]


def test_every_run_is_pinned():
    assert sorted(_goldens()) == sorted(RUNS)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({run: transcript(argv) for run, argv in sorted(RUNS.items())}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
