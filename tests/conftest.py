"""Shared pytest plumbing: the acceptance run prints one line per criterion,
and tests can forbid opening or closing binders."""

import pytest

from mulam import syntax

# Every walk down to a redex opens a binder through ``syntax.open_binder``,
# which looks these up in ``syntax`` when it is called.
_BINDER_OPS = ("fresh_atom", "open_mu_binder", "open_var", "close_var", "open_name",
               "close_name", "open_rvar", "close_rvar", "open_rname", "close_rname")

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
