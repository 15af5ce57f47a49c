"""The mutant table: each suite can fail.

Each row plants one fault in the package with ``monkeypatch`` and names the
suites that must then report at least one failure when run at their
defaults.  A suite that passes whatever the engine does proves nothing, so a
row here is the evidence that it can fail.  The counts in the comments were
measured at the defaults; the test asks only for one failure or more.
"""

import pytest

from mulam import measures, resource, suites, syntax
from mulam.syntax import BOOL, RLam, Sum


def _bold_ms_without_mu_or_size(real):
    return lambda t: (measures.ms(t), 0, 0)


def _arity_one_too_high_for_a_lambda(real):
    def arity(head):
        a = real(head)
        return a + 1 if type(head) is RLam else a

    return arity


def _every_semiring_saturated(real):
    return lambda semiring, coeffs: real(BOOL, coeffs)


def _rename_only_outside_every_mu(real):
    # the naming of a mu below another mu binder keeps its old name
    def rename_name(t, alpha, beta):
        alpha, beta = syntax._strip_quote(alpha), syntax._strip_quote(beta)

        def rename(r, d):
            return alpha if r == beta and d == 0 else r

        if isinstance(t, Sum):
            return t.map(lambda u: syntax.map_refs(u, name=rename))
        return syntax.map_refs(t, name=rename)

    return rename_name


def _every_count_one(real):
    def compositions(*args):
        for parts, _ in real(*args):
            yield parts, 1

    return compositions


def _zero_normal_form(real):
    return lambda x, semiring: Sum.zero(semiring)


# (row id, module, attribute, mutant of the real function, suites that fail)
MUTANTS = [
    ("bold_ms-drops-nmu-and-size", suites, "bold_ms", _bold_ms_without_mu_or_size,
     ["sn"]),  # sn 190
    ("arity-plus-one-on-lambda", resource, "_arity", _arity_one_too_high_for_a_lambda,
     ["confluence", "simulation", "counterexamples"]),  # 2, 21, 1
    ("canonical-items-all-bool", syntax, "_canonical_items", _every_semiring_saturated,
     ["counterexamples"]),  # 1
    ("rename-name-skips-nested-mu", suites, "rename_name", _rename_only_outside_every_mu,
     ["lemmas", "counterexamples"]),  # 7, 1
    ("engine-split-counts-one", resource, "weak_compositions_with_counts", _every_count_one,
     ["counterexamples"]),  # 1
    ("normalize-r-zero", suites, "normalize_r", _zero_normal_form,
     ["confluence"]),  # 381
]


@pytest.mark.parametrize(
    "module, attr, mutant, failing",
    [row[1:] for row in MUTANTS],
    ids=[row[0] for row in MUTANTS],
)
def test_each_mutant_fails_its_suites_at_their_defaults(module, attr, mutant, failing, monkeypatch):
    monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
    for name in failing:
        report = suites.run_suite(name)
        assert report.failures, f"suite {name} passes with mutant {module.__name__}.{attr}"
