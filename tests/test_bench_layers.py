"""The benchmark's per-layer counts find the functions they count.

``bench/layers.py`` counts calls by a function's code object and wraps a few
functions by their module-level name.  A refactor that turns one of them into
an alias, a lambda or a function defined elsewhere would silently read 0 in a
traced run; this test fails instead.
"""

import importlib
import importlib.util
import os
import types

import mulam
from mulam import gen, lamu, measures, oracle, resource, suites, syntax, taylor, textio

PKG_DIR = os.path.dirname(os.path.abspath(mulam.__file__))
LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(PKG_DIR)), "bench", "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counted_function_is_a_plain_function_of_the_package():
    layers = _load_layers()
    Sum = syntax.Sum
    counted = [
        *layers.OPEN_CLOSE,
        *layers.RESTERM_INITS,
        *layers.PRINTERS,
        syntax.degree,
        Sum.__init__,
        Sum.add,
        Sum.bind,
        Sum.__hash__,
        resource.step_r,
        resource.normalize_r,
        measures.bold_ms,
        gen.gen_res,
        gen.gen_term,
        oracle.explore,
        taylor.taylor_enum,
        lamu.head_step,
        *layers.SUITE_FUNCS.values(),
    ]
    wrapped = list(layers._wrappers(layers.Counters()))
    for fn in counted + wrapped:
        assert isinstance(fn, types.FunctionType), fn
        # a def at module or class level, not a lambda or a nested function
        assert fn.__name__.isidentifier() and "<locals>" not in fn.__qualname__, fn
        assert os.path.dirname(os.path.abspath(fn.__code__.co_filename)) == PKG_DIR, fn
    # one profiler label per counted function, so no call is counted twice
    keys = [layers._key(fn) for fn in counted]
    assert len(set(keys)) == len(keys)
    # the tracer rebinds wrapped functions by their module-level name
    for fn in wrapped:
        assert getattr(importlib.import_module(fn.__module__), fn.__name__) is fn
    assert dict(suites.SUITES) == layers.SUITE_FUNCS


def test_traced_normalization_counts_its_steps():
    # Normalization must reach step_r through its module-level name, where
    # the tracer's wrapper counts the addends each step produces.
    layers = _load_layers()
    tracer = layers.Tracer()
    untraced = resource.step_r
    s = textio.parse_sum("(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x)[y0, y1, y2]", syntax.NAT)
    with tracer:
        nf = resource.normalize_r(s, syntax.NAT)
    assert textio.print_sum(nf) == "mu 'a.<'a> x[y0,y1,y2]"
    counters = tracer.counters
    assert counters.addends_produced > 0
    assert counters.nf_addends == 1
    assert resource.step_r is untraced
