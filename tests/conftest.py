"""Shared pytest plumbing: the acceptance run prints one line per criterion,
tests can forbid opening or closing binders, and tests can load a mutant
copy of a module to show that they catch it."""

import inspect
import sys
import types

import pytest

from mulam import syntax

# A walk down to a redex that must be opened opens it through
# ``syntax.open_outer``, which its callers and the helper itself (for
# ``fresh_atom``) look up in ``syntax`` when they are called.
_BINDER_OPS = ("fresh_atom", "open_outer", "open_mu_binder", "open_var", "close_var",
               "open_name", "close_name", "open_rvar", "close_rvar", "open_rname",
               "close_rname")

_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_log() -> list[str]:
    return _CRITERION_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def forbid_binder_opening(monkeypatch):
    """Call the returned function to make every later opening or closing of
    a binder, and every fresh atom, fail the test."""

    def boom(*args):
        raise AssertionError("a binder was opened or closed")

    def forbid() -> None:
        for f in _BINDER_OPS:
            monkeypatch.setattr(syntax, f, boom)

    return forbid


@pytest.fixture
def mutant_module(monkeypatch):
    """Call the returned function with a module of the package and a piece
    of its source that occurs exactly once, to get a copy of the module with
    that piece replaced.  The copy imports the rest of the package as it is."""

    def make(module: types.ModuleType, old: str, new: str) -> types.ModuleType:
        src = inspect.getsource(module)
        assert src.count(old) == 1, old
        name = module.__name__.replace(".", "._", 1) + "_mutant"
        mod = types.ModuleType(name)
        mod.__package__ = module.__package__
        monkeypatch.setitem(sys.modules, name, mod)
        exec(compile(src.replace(old, new), module.__file__, "exec"), vars(mod))
        return mod

    return make
