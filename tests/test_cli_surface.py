"""The argparse surface of the command line, pinned action by action.

For each subcommand, in order: its help line, the function it dispatches
to, and every action with its option strings, dest, default, choices,
nargs, required flag, help text and the values its type accepts.  A change
to how the parser is declared must leave all of these as they are, and, on
the CPython version they were recorded on, the help texts byte for byte.
"""

import argparse
import hashlib
import sys

import pytest

from mulam.cli import build_parser

_INPUTS = [
    ([], "file", None, None, "?", False, "file holding the expression ('-' or omitted: stdin)",
     "str"),
    (["-e", "--expr"], "expr", None, None, None, False, "expression given inline", "str"),
]
_JSON = [(["--json"], "json", False, None, 0, False, None, "-")]
_SEMIRING = (["--semiring"], "semiring", "nat", ("bool", "nat"), None, False, None, "str")
_AT_LEAST_0 = "accepts 0 1 2"
_AT_LEAST_1 = "accepts 1 2"
_ANY_INT = "accepts -1 0 1 2"

SURFACE = {
    "parse": ("parse and echo in canonical form", "_cmd_parse", _INPUTS + _JSON),
    "reduce": ("step-by-step reduction trace", "_cmd_reduce", _INPUTS + [
        (["--calculus"], "calculus", "lamu", ("lamu", "res"), None, False, None, "str"),
        (["--strategy"], "strategy", "leftmost", ("head", "leftmost", "random"), None, False,
         None, "str"),
        (["--seed"], "seed", 0, None, None, False, None, _ANY_INT),
        (["--max-steps"], "max_steps", 100, None, None, False, None, _AT_LEAST_0),
        _SEMIRING[:6] + ("coefficients for --calculus res", "str"),
    ]),
    "normalize": ("resource normal form", "_cmd_normalize", _INPUTS + [
        _SEMIRING,
        (["--trace"], "trace", False, None, 0, False, "print every leftmost step", "-"),
    ] + _JSON),
    "measure": ("termination measures of a resource term", "_cmd_measure", _INPUTS + _JSON),
    "taylor": ("finite approximants up to a size bound", "_cmd_taylor", _INPUTS + [
        (["--max-size"], "max_size", None, None, None, True, None, _AT_LEAST_0),
        (["--limit"], "limit", None, None, None, False, "print at most this many", _AT_LEAST_0),
    ] + _JSON),
    "nft": ("truncated normal-form set of the approximants", "_cmd_nft", _INPUTS + [
        (["--max-size"], "max_size", None, None, None, True, None, _AT_LEAST_0),
        (["--limit"], "limit", None, None, None, False, None, _AT_LEAST_0),
    ] + _JSON),
    "nft-eq": ("compare two truncated normal-form sets", "_cmd_nft_eq", [
        ([], "expr1", None, None, None, True, None, "str"),
        ([], "expr2", None, None, None, True, None, "str"),
        (["--max-size"], "max_size", None, None, None, True, None, _AT_LEAST_0),
    ] + _JSON),
    "solvable": ("bounded head-reduction query", "_cmd_solvable", _INPUTS + [
        (["--fuel"], "fuel", 1000, None, None, False, None, _AT_LEAST_0),
    ] + _JSON),
    "check": ("run a property suite", "_cmd_check", [
        (["--suite"], "suite", None, ["confluence", "counterexamples", "injectivity", "lemmas",
                                      "simulation", "sn", "support"], None, True, None, "str"),
        (["--samples"], "samples", None, None, None, False, None, _AT_LEAST_0),
        (["--seed"], "seed", 0, None, None, False, None, _ANY_INT),
        (["--max-term-size"], "max_term_size", None, None, None, False, None, _AT_LEAST_1),
        (["--node-cap"], "node_cap", None, None, None, False, "graph size guard", _AT_LEAST_1),
    ] + _JSON),
}

_HELP = (["-h", "--help"], "help", "==SUPPRESS==", None, 0, False,
         "show this help message and exit", "-")


def _type(action) -> str:
    """What an action's type makes of its values: "str" for none, "-" for a
    flag that takes no value, else the integers among -1..2 it accepts."""
    if action.nargs == 0:
        return "-"
    if action.type is None:
        return "str"
    ok = []
    for k in range(-1, 3):
        try:
            action.type(str(k))
        except argparse.ArgumentTypeError:
            continue
        ok.append(str(k))
    return "accepts " + " ".join(ok)


def _subparsers(ap):
    [sub] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_every_subcommand_declares_what_it_did():
    sub = _subparsers(build_parser())
    assert (sub.dest, sub.required) == ("command", True)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help) for name, (help, _, _) in SURFACE.items()]
    for name, sp in sub.choices.items():
        _, func, actions = SURFACE[name]
        got = [(a.option_strings, a.dest, a.default, a.choices, a.nargs, a.required, a.help,
                _type(a)) for a in sp._actions]
        assert got == [_HELP] + actions, name
        assert sp.get_default("func").__name__ == func, name


# The hash is of the texts as CPython 3.11's argparse lays them out; other
# versions lay out some lines differently (3.13 writes "-e, --expr EXPR"),
# and the action-by-action pin above holds on every version.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout pinned on CPython 3.11")
def test_the_help_texts_are_as_pinned(monkeypatch):
    # argparse wraps help at the terminal's width, read from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    ap = build_parser()
    text = ap.format_help() + "".join(sp.format_help() for sp in _subparsers(ap).choices.values())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "97fd390c948b9051b5decf6e4f738966d50d82f687b1cd90d9d3ea237e48a52f")
