"""Command line interface, exercised in-process through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import mulam
from mulam.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- parse ----------


def test_parse_echoes_canonical_form(capsys):
    code, out, _ = _run(capsys, "parse", "-e", r"(\x.  x)   y")
    assert code == 0
    assert out == "lamu: (\\x.x) y\n"


def test_parse_classifies_resource_terms(capsys):
    code, out, _ = _run(capsys, "parse", "-e", "x[y] 1")
    assert code == 0
    assert out.startswith("resource: ")


def test_parse_json_uses_tagged_union(capsys):
    code, out, _ = _run(capsys, "parse", "--json", "-e", "x[y]")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "resource"
    assert doc["value"]["tag"] == "sum"
    assert doc["value"]["addends"][0]["term"]["tag"] == "bagapp"


def test_parse_error_has_caret_and_exit_2(capsys):
    code, out, err = _run(capsys, "parse", "-e", "x )")
    assert code == 2
    assert "^" in err and err.startswith("error:")


def test_underscore_digits_are_not_a_token(capsys):
    # '_<digits>' is not part of any grammar, so the lexer stops at the '_'.
    code, out, err = _run(capsys, "parse", "-e", "x _1")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '_' at 2..3\n  x _1\n    ^\n"


# ---------- reduce ----------


def test_reduce_golden_trace_nat_coefficients(capsys):
    src = "(mu 'a.<'a> mu 'e.<'a> x)[y, y]"
    code, out, _ = _run(
        capsys,
        "reduce", "--calculus", "res", "--semiring", "nat",
        "--strategy", "leftmost", "-e", src,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("start:")
    first = lines[1]  # the one mu step that fans out
    assert first.count("+") == 2  # three addends
    assert "2*" in first
    assert lines[-1] == "normal after 5 steps"


def test_reduce_lamu_head_strategy(capsys):
    code, out, _ = _run(
        capsys,
        "reduce", "--calculus", "lamu", "--strategy", "head",
        "-e", r"(\x.x) ((\y.y) z)",
    )
    assert code == 0
    assert "normal for this strategy" in out


def test_reduce_random_is_seed_deterministic(capsys):
    argv = [
        "reduce", "--calculus", "res", "--strategy", "random",
        "--seed", "11", "-e", r"(\x.x[x]) [\y.y, \y.y]",
    ]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reduce_respects_max_steps(capsys):
    code, out, _ = _run(
        capsys,
        "reduce", "--calculus", "lamu", "--strategy", "leftmost",
        "--max-steps", "3", "-e", r"(\x.x x) (\x.x x)",
    )
    assert code == 0
    assert "stopped after 3 steps (still reducible)" in out


# ---------- normalize ----------


def test_normalize_totals_the_golden_example(capsys):
    code, out, _ = _run(
        capsys,
        "normalize", "--semiring", "nat",
        "-e", "(mu 'a.<'a> mu 'e.<'a> x)[y, y]",
    )
    assert code == 0
    assert out.strip() == "normal form: mu 'a.<'a> x[y,y]"


def test_normalize_trace_shows_every_whole_one_step_reduct(capsys):
    # The trace steps the full reducts, dead addends included: 3^3 addends
    # after the first step, and the digest of the trace as the engine printed
    # it before normalization learned to prune them.
    code, out, _ = _run(
        capsys,
        "normalize", "--trace",
        "-e", "(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x)[y0, y1, y2]",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 46
    assert lines[0].count(" + ") == 3 ** 3 - 1
    assert lines[-1] == "normal form: mu 'a.<'a> x[y0,y1,y2]"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "678332402b0a37ab8666c3524afaf154ad29d5efc1bea1a20f5c4a08d7b9e02d"
    )


def test_normalize_rejects_control_terms(capsys):
    code, out, err = _run(capsys, "normalize", "-e", r"\x.x x")
    assert code == 2
    assert "not a resource sum" in err
    assert "reduce --calculus lamu" in err


def test_normalize_accepts_sums_and_bool(capsys):
    code, out, _ = _run(capsys, "normalize", "--semiring", "bool", "-e", "x + 2*x")
    assert code == 0
    assert out.strip() == "normal form: x"


# ---------- measure ----------


def test_measure_reports_all_components(capsys):
    code, out, _ = _run(capsys, "measure", "-e", "mu 'a.<'a> x[mu 'b.<'b> y 1]")
    assert code == 0
    assert "size: 7" in out
    assert "mu degree: 2" in out
    assert "slack multiset: [1, 0]" in out
    assert "layered measure: ([1, 0], 2, 7)" in out


# ---------- taylor / nft ----------


def test_taylor_lists_small_support(capsys):
    code, out, _ = _run(capsys, "taylor", "-e", r"\x.x x", "--max-size", "6")
    assert code == 0
    assert r"\x.x[x]" in out and r"\x.x 1" in out


def test_nft_of_identity_redex(capsys):
    code, out, _ = _run(capsys, "nft", "-e", r"(\x.x) y", "--max-size", "8")
    assert code == 0
    assert out.strip().splitlines()[-1] == "y"


def test_nft_of_looping_term_is_empty(capsys):
    code, out, _ = _run(capsys, "nft", "-e", r"(\x.x x) (\x.x x)", "--max-size", "12")
    assert code == 0
    assert out.strip() == "truncated normal forms (size <= 12): 0"


def test_nft_eq_agrees_and_disagrees(capsys):
    same, _, _ = _run(capsys, "nft-eq", r"(\x.x) y", "y", "--max-size", "8")
    assert same == 0
    diff, out, _ = _run(capsys, "nft-eq", r"\x.\y.x", r"\x.\y.y", "--max-size", "8")
    assert diff == 1
    assert "only left" in out or "only right" in out


# ---------- solvable ----------


def test_solvable_verdicts(capsys):
    code, out, _ = _run(capsys, "solvable", "-e", r"(\x.x) y")
    assert code == 0
    assert out.strip() == "solvable: head normal form after 1 steps: y"
    code, out, _ = _run(capsys, "solvable", "--fuel", "50", "-e", r"(\x.x x) (\x.x x)")
    assert code == 0
    assert out.strip() == "unknown: no head normal form within 50 steps"


@pytest.mark.parametrize("fuel, src, last", [
    ("1", r"(\x.x x) (\y.y)", r"(\x.x) (\x.x)"),
    ("0", r"(\x.x x x) (\x.x x x)", r"(\x.x x x) (\x.x x x)"),
])
def test_solvable_reports_the_term_after_exactly_fuel_steps(capsys, fuel, src, last):
    code, out, _ = _run(capsys, "solvable", "--fuel", fuel, "--json", "-e", src)
    assert code == 0
    assert json.loads(out) == {"solvable": None, "fuel": int(fuel), "last": last}


# ---------- check ----------


def test_check_counterexamples_passes(capsys):
    code, out, _ = _run(capsys, "check", "--suite", "counterexamples")
    assert code == 0
    assert "failures: 0" in out


def test_check_json_report_shape(capsys):
    code, out, _ = _run(
        capsys,
        "check", "--suite", "support", "--samples", "40", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "support"
    assert doc["samples"] == 40
    assert doc["failures"] == []


@pytest.mark.parametrize("size", ["1", "2"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_simulation_below_the_smallest_redex_is_a_usage_error(capsys, size, fmt):
    # The smallest lambda-mu redex, (\x.x) y, has 3 nodes, so no sample can
    # be drawn below that.
    code, out, err = _run(capsys, "check", "--suite", "simulation", "--max-term-size", size,
                          *fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: simulation: no term of at most {size} nodes with a redex in 1000"
                   " draws (sample 0, seed 0); the smallest redex has 3 nodes\n")


def test_simulation_at_the_smallest_redex_runs(capsys):
    code, out, _ = _run(capsys, "check", "--suite", "simulation", "--max-term-size", "3",
                        "--samples", "5")
    assert code == 0 and "failures: 0" in out


def test_unmet_side_conditions_are_a_usage_error(capsys, monkeypatch):
    # With a single name no two distinct names can be drawn, so the lemma
    # instances that need them cannot be sampled.
    from mulam import suites

    monkeypatch.setattr(suites, "_NAME_POOL", ("a",))
    code, out, err = _run(capsys, "check", "--suite", "lemmas", "--samples", "1")
    assert (code, out) == (2, "")
    assert err == "error: lemmas: no draw met the side conditions in 500 tries\n"


def test_check_node_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MULAM_NODE_CAP", "2")
    code, out, _ = _run(
        capsys,
        "check", "--suite", "confluence", "--samples", "60",
    )
    assert code == 1
    assert "failures:" in out and "failures: 0" not in out


def test_check_node_cap_env_var_must_be_numeric(capsys, monkeypatch):
    monkeypatch.setenv("MULAM_NODE_CAP", "lots")
    code, _, err = _run(capsys, "check", "--suite", "confluence", "--samples", "5")
    assert code == 2
    assert "MULAM_NODE_CAP" in err


def test_check_node_cap_env_var_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("MULAM_NODE_CAP", "0")
    code, _, err = _run(capsys, "check", "--suite", "confluence", "--samples", "5")
    assert code == 2
    assert "MULAM_NODE_CAP: must be at least 1" in err


def test_check_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("MULAM_NODE_CAP", "2")
    code, _, _ = _run(
        capsys,
        "check", "--suite", "confluence", "--samples", "60",
        "--node-cap", "50000",
    )
    assert code == 0


# ---------- argparse behaviour ----------


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["parse", "--frobnicate"])
    assert e.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--suite", "sn", "--max-term-size", "0"],
        ["check", "--suite", "sn", "--samples", "-1"],
        ["check", "--suite", "confluence", "--node-cap", "0"],
        ["reduce", "--calculus", "res", "--max-steps", "-1", "-e", "x"],
        ["taylor", "-e", "x", "--max-size", "-3"],
        ["nft", "-e", "x", "--max-size", "-1"],
        ["nft-eq", "x", "y", "--max-size", "-1"],
        ["taylor", "-e", "x", "--max-size", "2", "--limit", "-1"],
        ["solvable", "-e", "x", "--fuel", "-1"],
    ],
    ids=["max-term-size", "samples", "node-cap", "max-steps", "taylor-max-size", "nft-max-size",
         "nft-eq-max-size", "limit", "fuel"],
)
def test_out_of_range_bound_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_reduce_step_budget_does_not_hide_a_normal_form(capsys):
    code, out, _ = _run(capsys, "reduce", "--calculus", "res", "--max-steps", "0", "-e", "x")
    assert (code, out.splitlines()[-1]) == (0, "normal after 0 steps")
    code, out, _ = _run(capsys, "reduce", "--max-steps", "1", "-e", r"(\x.x) y")
    assert (code, out.splitlines()[-1]) == (0, "normal for this strategy after 1 steps")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(r"\x.x"))
    code, out, _ = _run(capsys, "parse", "-")
    assert code == 0
    assert out == "lamu: \\x.x\n"


def test_unreadable_input_file_is_a_usage_error(capsys, tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.txt", tmp_path, binary):
        with pytest.raises(SystemExit) as e:
            main(["parse", str(path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_usage_error_exit_code_holds_under_python_O(tmp_path):
    # python -O strips assert statements, so this checks that the CLI's
    # usage errors do not depend on them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mulam.cli", "parse", str(tmp_path / "missing.txt")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot read ")


@pytest.mark.parametrize("command", ["parse", "normalize"])
def test_deeply_nested_input_is_a_usage_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.txt"
    deep.write_text("\\x." * 1000 + "x")
    code, out, err = _run(capsys, command, str(deep))
    assert code == 2
    assert out == ""
    assert err == "error: input nested too deeply\n"


@pytest.mark.parametrize("expr", [
    "(mu 'a.<'a> mu 'e.<'a> mu 'f.<'a> x)[y0, y1, y2, y3, y4]",
    "(\\x. x[x][x][x])[y0, y0, y1, y1]",
])
def test_normalize_output_is_the_same_under_python_O(expr):
    # Behaviour that sat in an assert statement would change under -O.
    src = os.path.dirname(os.path.dirname(os.path.abspath(mulam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mulam.cli", "normalize", "-e", expr],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"normal form: ")


def test_lemmas_suite_honours_max_term_size(capsys, monkeypatch):
    from mulam import suites

    drawn = []

    def recording_gen_res(rng, max_size, *args, **kwargs):
        t = suites_gen_res(rng, max_size, *args, **kwargs)
        drawn.append((max_size, t.size))
        return t

    suites_gen_res = suites.gen_res
    monkeypatch.setattr(suites, "gen_res", recording_gen_res)
    code, out, _ = _run(capsys, "check", "--suite", "lemmas", "--samples", "20",
                        "--max-term-size", "3")
    assert code == 0, out
    assert len(drawn) >= 15 * 20
    assert all(bound == 3 and n <= 3 for bound, n in drawn), drawn
