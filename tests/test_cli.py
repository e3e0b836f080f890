import argparse
import csv
import io
import json
import random

import pytest
from conftest import parse_job

from binorms.cli import (
    ERROR_CODES,
    KEYS,
    TASKS,
    JobSpecError,
    build_context,
    build_parser,
    main,
    parse_jobfile,
    run_job,
    run_jobfile,
)
from binorms import norms
from binorms.norms import (
    BACKENDS,
    commutator_length_context,
    free_cancellation_context,
    heisenberg_context,
    lattice_context,
    symmetric_transposition_context,
)
from binorms.reports import EmitError, emit, format_number

MINIMAL = """
job {
  task = norm
  family = lattice
  dim = 1
  element = [5]
}
"""


class TestParsing:
    def test_minimal_valid_spec(self):
        job = parse_job(MINIMAL)
        assert job.task == "norm"
        assert job.params["element"] == "[5]"

    def test_unknown_key_named_in_error(self):
        text = MINIMAL.replace("element = [5]", "element = [5]\n  windwo = 3")
        with pytest.raises(JobSpecError) as exc:
            parse_job(text)
        assert any("windwo" in e for e in exc.value.errors)

    def test_missing_element_for_norm(self):
        text = MINIMAL.replace("  element = [5]\n", "")
        with pytest.raises(JobSpecError) as exc:
            parse_job(text)
        assert any("element" in e for e in exc.value.errors)

    def test_all_errors_collected(self):
        text = """
job {
  task = norm
  family = marsian
  windwo = 3
}
"""
        jobs, errors = parse_jobfile(text)
        assert jobs == []
        assert len(errors) >= 2  # bad family and unknown key, not just the first

    def test_syntax_errors_have_line_numbers(self):
        jobs, errors = parse_jobfile("job {\n  task = norm\n")
        assert any("unterminated" in e for e in errors)
        _, errors2 = parse_jobfile("}\n")
        assert any("line 1" in e for e in errors2)

    def test_context_keys_rejected_for_walk(self):
        text = """
job {
  task = walk
  walk = all-up
  family = lattice
}
"""
        with pytest.raises(JobSpecError) as exc:
            parse_job(text)
        assert any("family" in e for e in exc.value.errors)


class TestSpecErrors:
    @pytest.mark.parametrize("text, error", [
        ("job {\n  task = norm\njob {\n  task = norm\n}\n", "line 3: nested job block"),
        ("task = norm\n", "line 1: expected 'job {', got 'task = norm'"),
        ("job {\n  task norm\n}\n", "line 2: expected 'key = value', got 'task norm'"),
        ("job {\n  task = norm\n  task = norm\n}\n", "line 3: duplicate key 'task'"),
        ("job {\n  family = free\n}\n", "job[0]: missing required key 'task' (line 1)"),
        ("job {\n  task = nrom\n}\n", "job[0].task: unknown task 'nrom' (line 1)"),
        ("job {\n  task = norm\n  family = free\n  rank = two\n  element = a\n}\n",
         "job[0].rank: expected an integer, got 'two' (line 1)"),
        ("job {\n  task = norm\n  element = a\n}\n",
         "job[0]: missing required key 'family' (line 1)"),
    ])
    def test_each_error_is_reported(self, text, error):
        _, errors = parse_jobfile(text)
        assert error in errors

    @pytest.mark.parametrize("task, function", [
        ("defect", "--function"), ("lipschitz", "--function"), ("pullback", "--functional"),
    ])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exit_two(self, task, function, samples, capsys):
        value = "cone-norm" if task == "pullback" else "norm"
        code = main([task, "--family", "lattice", "--dim", "2", function, value,
                     "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"job[0].samples: expected at least 1, got '{samples}'" in captured.err


class TestTaskRegistry:
    @staticmethod
    def _job_text(name: str, extra: dict[str, str]) -> str:
        task = TASKS[name]
        params = {k: "1" if KEYS[k].type is int else "x" for k in task.required}
        if task.context:
            params["family"] = "lattice"
        params.update(extra)
        body = "".join(f"  {k} = {v}\n" for k, v in params.items())
        return f"job {{\n  task = {name}\n{body}}}\n"

    @pytest.mark.parametrize("name", sorted(TASKS))
    def test_subcommand_flags_are_the_task_keys(self, name):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in sub.choices[name]._actions}
        assert flags - {"help", "out", "format", "reproducible"} == set(TASKS[name].keys)

    @pytest.mark.parametrize("name", sorted(TASKS))
    def test_keys_the_task_does_not_read_are_rejected(self, name):
        assert parse_job(self._job_text(name, {})).task == name
        ignored = [("tolerance", "1e-6")]
        ignored += [(k, v) for k, v in (("window", "16"), ("scheme", "plain"))
                    if k not in TASKS[name].keys]
        for key, value in ignored:
            with pytest.raises(JobSpecError) as exc:
                parse_job(self._job_text(name, {key: value}))
            assert any(f".{key}: unknown key" in e for e in exc.value.errors)

    @pytest.mark.parametrize("name, extra", [
        ("translation-length", {"element": "[1,0]"}),
        ("cone-norm", {"element": "[1,0]"}),
        ("cone-dist", {"element": "[1,0]", "element2": "[0,1]"}),
        ("pullback", {"functional": "coord:0", "samples": "3"}),
        ("walk", {"walk": "alternating"}),
    ])
    def test_scheme_is_checked_over_the_job_window(self, name, extra):
        assert parse_job(self._job_text(name, {**extra, "window": "8"})).task == name
        for more in ({"window": "4"}, {"window": "7", "scheme": "cesaro"}):
            with pytest.raises(JobSpecError) as exc:
                parse_job(self._job_text(name, {**extra, **more}))
            assert exc.value.errors == [
                "job[0].scheme: scheme window must be >= 8 (line 1)"
            ]

    @pytest.mark.parametrize("family, key", [
        ("free", "dim"), ("free", "degree"), ("perm", "rank"), ("perm", "dim"),
        ("lattice", "rank"), ("lattice", "degree"), ("heisenberg", "dim"),
        ("heisenberg", "rank"),
    ])
    def test_context_takes_only_its_family_size_key(self, family, key):
        with pytest.raises(JobSpecError) as exc:
            parse_job(self._job_text("norm", {"family": family, key: "3", "element": "x"}))
        assert exc.value.errors == [f"job[0].{key}: unknown key for family {family!r} (line 1)"]

    def test_run_overrides_are_validated_like_file_values(self):
        spec = self._job_text("norm", {"element": "[1,0]"})
        spec += self._job_text("cone-norm", {"element": "[1,0]", "window": "16"})
        with pytest.raises(JobSpecError) as exc:
            run_jobfile(spec, window_override=4)
        assert exc.value.errors == ["job[1].scheme: scheme window must be >= 8 (line 6)"]
        with pytest.raises(JobSpecError):
            run_jobfile(spec, scheme_override="arith:0")
        # an override replaces the file value before the check
        small = self._job_text("cone-norm", {"element": "[1,0]", "window": "4"})
        code, text = run_jobfile(small, window_override=8, seed_override=5, reproducible=True)
        row = next(csv.DictReader(io.StringIO(text)))
        assert (code, row["window"], row["seed"]) == (0, "8", "5")

    def test_detect_keeps_small_windows_for_run_time(self):
        job = parse_job(self._job_text("detect", {"element": "[1,0]", "window": "4"}))
        assert run_job(job).rows[0].value == "E_VALUE"

    @pytest.mark.parametrize("name, extra, window, scheme", [
        ("translation-length", {"element": "[1,0]"}, "64", "plain:64"),
        ("detect", {"element": "[1,0]"}, "32", "arith:2:8"),
        ("extend", {"element": "[1,0]", "at": "[2,1]"}, "16", ""),
        ("cone-norm", {"element": "[1,0]"}, "8", "plain:8"),
        ("pullback", {"functional": "coord:0", "samples": "3"}, "8", "plain:8"),
        ("walk", {"walk": "alternating"}, "4096", "plain:4096"),
    ])
    def test_default_window_and_scheme(self, name, extra, window, scheme):
        row = run_job(parse_job(self._job_text(name, extra))).rows[0]
        assert (row.quantity != "error", row.window, row.scheme) == (True, window, scheme)


class TestRunJob:
    def test_lattice_norm(self):
        job = parse_job("""
job {
  task = norm
  family = lattice
  dim = 2
  element = [3,-2]
}
""")
        rows = run_job(job).rows
        assert rows[0].value == "5" and rows[0].exact == "1"

    def test_detect_free_generator(self):
        job = parse_job("""
job {
  task = detect
  family = free
  rank = 2
  element = a
  window = 32
}
""")
        rows = run_job(job).rows
        assert rows[0].witness.startswith("undistorted")
        assert rows[0].value == "1"

    def test_translation_length_regression(self):
        job = parse_job("""
job {
  task = translation-length
  family = free
  rank = 2
  element = a^-1 b^-1 a b
  window = 24
}
""")
        rows = run_job(job).rows
        assert rows[0].value == "1.0832794032206807"  # frozen on first computation

    @pytest.mark.parametrize("context, function, defect, lipschitz", [
        ("family = free\n  rank = 2", "norm", "2", "1"),
        ("family = lattice\n  dim = 1", "scale:3", "0", "3"),
    ])
    def test_function_rows(self, context, function, defect, lipschitz):
        # the norm has defect at most 2 and is 1-Lipschitz; n -> 3n on Z is
        # a homomorphism with Lipschitz constant 3; the samples attain both
        for task, value in (("defect", defect), ("lipschitz", lipschitz)):
            job = parse_job(f"job {{\n  task = {task}\n  {context}\n"
                                f"  function = {function}\n  samples = 40\n}}\n")
            rows = run_job(job).rows
            assert len(rows) == 1
            assert (rows[0].quantity, rows[0].value) == (task, value)
            assert rows[0].inputs == f"function={function};samples=40"

    def test_error_rows_have_stable_codes(self):
        job = parse_job("""
job {
  task = extend
  family = perm
  degree = 5
  element = (1 2)
  c = 1/2
  at = (1 3)
}
""")
        result = run_job(job)
        assert result.failed
        assert result.rows[0].value == "E_FINITE_ORDER"


    @pytest.mark.parametrize("c", ["", "  c = 1/2\n"])
    def test_extend_of_a_finite_order_element(self, c):
        # with c omitted the identity power must not make the default c zero
        job = parse_job(f"job {{\n  task = extend\n  family = perm\n  element = (1 2)\n"
                            f"{c}  at = (1 2)\n}}\n")
        assert run_job(job).rows[0].value == "E_FINITE_ORDER"

    @pytest.mark.parametrize("context, element", [
        ("family = heisenberg", "H(0,0,1)"),  # central, so distorted
        ("family = lattice\n  dim = 2", "[1,0]"),
    ])
    @pytest.mark.parametrize("scheme, message", [
        ("scheme = plain", "detect_undistorted homogenises along an arithmetic scheme"),
        ("scheme = arith:5\n  window = 8", "scheme reaches power 40 beyond the certified window 8"),
    ])
    def test_detect_checks_its_scheme_on_either_branch(self, context, element, scheme, message):
        job = parse_job(f"job {{\n  task = detect\n  {context}\n  element = {element}\n"
                            f"  {scheme}\n}}\n")
        row = run_job(job).rows[0]
        assert (row.value, row.witness) == ("E_VALUE", message)


class TestEmit:
    def test_single_row_csv(self):
        rows = [{"a": "1", "b": "x"}]
        text = emit(rows, "csv", "-", columns=("a", "b"))
        assert text == "a,b\n1,x\n"

    def test_csv_and_json_mirror_fields(self):
        code, csv_text = run_jobfile(MINIMAL, fmt="csv", reproducible=True)
        code2, json_text = run_jobfile(MINIMAL, fmt="json", reproducible=True)
        assert code == code2 == 0
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        json_rows = json.loads(json_text)
        assert len(csv_rows) == len(json_rows) == 1
        for c_row, j_row in zip(csv_rows, json_rows):
            assert dict(c_row) == j_row

    def test_empty_rows_rejected(self):
        with pytest.raises(EmitError):
            emit([], "csv", "-")

    def test_trailing_newline(self):
        _, text = run_jobfile(MINIMAL, reproducible=True)
        assert text.endswith("\n")


class TestDeterminism:
    SPEC = """
job {
  task = defect
  family = free
  rank = 2
  function = brooks:a b
  samples = 200
  seed = 99
}
job {
  task = norm
  family = heisenberg
  element = H(0,0,7)
}
"""

    def test_byte_identical_reruns(self):
        _, first = run_jobfile(self.SPEC, reproducible=True)
        _, second = run_jobfile(self.SPEC, reproducible=True)
        assert first == second

    def test_seed_override_changes_sample_rows(self):
        _, base = run_jobfile(self.SPEC, reproducible=True)
        _, overridden = run_jobfile(self.SPEC, seed_override=7, reproducible=True)
        base_rows = list(csv.DictReader(io.StringIO(base)))
        over_rows = list(csv.DictReader(io.StringIO(overridden)))
        assert base_rows[0]["seed"] == "99" and over_rows[0]["seed"] == "7"


class TestMainEntry:
    def test_subcommand_norm(self, capsys):
        code = main(["norm", "--family", "lattice", "--dim", "2",
                     "--element", "[3,-2]", "--reproducible"])
        out = capsys.readouterr().out
        assert code == 0
        assert ",5," in out

    @pytest.mark.parametrize("argv", [
        ["--family", "lattice", "--dim", "2", "--element", "[1,2,3]"],
        ["--family", "perm", "--degree", "3", "--element", "(1 2 3 4 5 6 7)"],
        ["--family", "perm", "--degree", "3", "--generators", "explicit:(1 7)",
         "--backend", "bfs", "--element", "(1 2)"],
        ["--family", "lattice", "--dim", "2", "--generators", "explicit:[1,0,0]",
         "--element", "[1,0]"],
    ])
    def test_norm_rejects_elements_outside_the_context(self, argv, capsys):
        code = main(["norm", *argv, "--reproducible"])
        out = capsys.readouterr().out
        assert code == 1
        assert ",error,E_FAMILY_MISMATCH," in out

    @pytest.mark.parametrize("argv, code", [
        (["norm", "--family", "lattice", "--dim", "2", "--generators", "unit-ball",
          "--element", "[1,0]"], "E_NORM"),
        (["ctrick", "--family", "free", "--element", "a", "--element2", "b", "--n", "2",
          "--base", "auto"], "E_VALUE"),
    ])
    def test_removed_options_give_error_rows(self, argv, code, capsys):
        assert main([*argv, "--reproducible"]) == 1
        assert f",error,{code}," in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--family", "lattice", "--dim", "2", "--generators", "explicit:[1,1],[1,-1]",
         "--element", "[1,1]"],
        ["--family", "perm", "--degree", "4", "--generators", "normal:(1 2)(3 4)",
         "--element", "(1 2)(3 4)"],
    ])
    def test_closed_forms_refuse_other_generating_sets(self, argv, capsys):
        assert main(["norm", *argv, "--reproducible"]) == 1
        out = capsys.readouterr().out
        assert ",error,E_VALUE," in out and "use bfs for explicit sets or bounded-search" in out
        assert main(["norm", *argv, "--backend", "bfs", "--reproducible"]) == 0
        assert ",norm,1," in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["defect", "--family", "free", "--function", "coord:0"], "E_FAMILY_MISMATCH"),
        (["defect", "--family", "heisenberg", "--function", "scale:2"], "E_FAMILY_MISMATCH"),
        (["defect", "--family", "free", "--function", "walk:all-up"], "E_FAMILY_MISMATCH"),
        (["lipschitz", "--family", "lattice", "--dim", "2", "--function", "coord:5"], "E_VALUE"),
        (["pullback", "--family", "free", "--functional", "coord:0"], "E_FAMILY_MISMATCH"),
        (["pullback", "--family", "lattice", "--dim", "2", "--functional", "coord:7"], "E_VALUE"),
    ])
    def test_lattice_functions_checked_against_the_context(self, argv, code, capsys):
        assert main([*argv, "--samples", "5", "--reproducible"]) == 1
        assert f",error,{code}," in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--family", "free", "--rank", "0", "--element", "1"],
        ["--family", "perm", "--degree", "0", "--element", "()"],
        ["--family", "lattice", "--dim", "0", "--element", "[]"],
    ])
    def test_sizes_below_one_give_value_errors(self, argv, capsys):
        assert main(["norm", *argv, "--reproducible"]) == 1
        out = capsys.readouterr().out
        assert ",error,E_VALUE," in out and "must be at least 1, got 0" in out

    def test_norm_accepts_permutations_within_the_degree(self, capsys):
        code = main(["norm", "--family", "perm", "--degree", "3",
                     "--element", "(1 3)", "--reproducible"])
        assert code == 0
        assert ",norm,1," in capsys.readouterr().out

    def test_run_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "jobs.spec"
        spec.write_text(MINIMAL, encoding="utf-8")
        code = main(["run", "--spec", str(spec), "--reproducible"])
        assert code == 0
        assert ",5," in capsys.readouterr().out

    def test_size_key_of_another_family_exits_two(self, capsys):
        code = main(["norm", "--family", "free", "--dim", "7", "--element", "a"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "job[0].dim: unknown key for family 'free'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["norm", "--family", "free", "--dim", "7", "--element", "a"],
        ["cone-norm", "--family", "lattice", "--element", "[1,2]", "--window", "4"],
    ])
    def test_subcommand_spec_errors_name_no_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: job[0].") and "(line" not in err

    def test_free_bounded_search_over_budget_is_an_error_row(self, capsys):
        code = main(["norm", "--family", "free", "--backend", "bounded-search",
                     "--element", "a b", "--reproducible"])
        assert code == 1
        assert ",error,E_BUDGET," in capsys.readouterr().out

    def test_word_over_the_kernel_letter_cap_is_an_error_row(self, monkeypatch, capsys):
        monkeypatch.setattr(norms, "MAX_LETTERS", 4)
        code = main(["norm", "--family", "free", "--element", "a a b a b", "--reproducible"])
        assert code == 1
        assert ",error,E_BUDGET," in capsys.readouterr().out

    def test_cone_element_over_the_kernel_letter_cap_is_a_budget_row(self, capsys):
        # index 7 of eta((a b)^300) has 4,200 letters: the row a norm job on it gives
        code = main(["cone-norm", "--family", "free", "--element", " ".join(["a b"] * 300),
                     "--reproducible"])
        assert code == 1
        assert ",error,E_BUDGET," in capsys.readouterr().out

    def test_run_window_override_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "cone.spec"
        spec.write_text("job {\n  task = cone-norm\n  family = lattice\n"
                        "  element = [1,1]\n}\n", encoding="utf-8")
        code = main(["run", "--spec", str(spec), "--window", "4", "--reproducible"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "job[0].scheme: scheme window must be >= 8" in captured.err

    def test_spec_errors_exit_two(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("job {\n  task = norm\n  family = lattice\n  windwo = 1\n}\n",
                        encoding="utf-8")
        code = main(["run", "--spec", str(spec)])
        assert code == 2
        assert "windwo" in capsys.readouterr().err
        code = main(["cone-norm", "--family", "lattice", "--element", "[1,2]", "--window", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "scheme window must be >= 8" in captured.err

    def test_error_rows_exit_one(self, tmp_path):
        spec = tmp_path / "err.spec"
        spec.write_text("""
job {
  task = extend
  family = perm
  degree = 5
  element = (1 2)
  c = 1/2
  at = (1 3)
}
""", encoding="utf-8")
        code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_trace_file_written(self, tmp_path):
        spec = tmp_path / "cone.spec"
        spec.write_text("""
job {
  task = cone-norm
  family = lattice
  dim = 2
  element = [1,1]
  window = 8
}
""", encoding="utf-8")
        # a job file and the matching subcommand write the same trace
        for name, argv in [
            ("run", ["run", "--spec", str(spec)]),
            ("sub", ["cone-norm", "--family", "lattice", "--element", "[1,1]"]),
        ]:
            out = tmp_path / f"{name}.csv"
            code = main([*argv, "--out", str(out), "--reproducible"])
            assert code == 0
            trace = tmp_path / f"{name}.csv.trace0.csv"
            assert trace.exists()
            rows = list(csv.DictReader(trace.open()))
            assert rows[0] == {"index": "1", "norm": "2", "ratio": "2"}
            assert len(rows) == 8
        assert (tmp_path / "run.csv").read_text() == (tmp_path / "sub.csv").read_text()


class TestBackendRows:
    @pytest.mark.parametrize("argv, message", [
        (["--family", "lattice", "--dim", "2", "--generators", "explicit:[1,1],[1,-1]",
          "--backend", "bounded-search", "--element", "[1,1]"], "needs the normal-closure"),
        (["--family", "lattice", "--generators", "all-commutators", "--backend", "cl-bounds",
          "--element", "[1,1]"], "needs the free family"),
        (["--family", "lattice", "--backend", "cl-bounds", "--element", "[1,1]"],
         "needs the free family"),
        (["--family", "perm", "--generators", "all-commutators", "--backend", "bfs",
          "--element", "(1 2)"], "all-commutators is a set of free words"),
    ])
    def test_a_set_the_backend_cannot_evaluate_is_refused(self, argv, message, capsys):
        assert main(["norm", *argv, "--reproducible"]) == 1
        out = capsys.readouterr().out
        assert ",error,E_VALUE," in out and message in out

    @pytest.mark.parametrize("family, generators, element, reference", [
        # the same closure searched by BFS, and the DP of the listed standard set
        ("perm", "normal:(2 3)", "(1 2 3)", ["--generators", "normal:(2 3)", "--backend", "bfs"]),
        ("free", "normal:b^-1 a b,b", "a^-1 b^-1 a b", []),
    ])
    def test_standard_closures_listed_by_other_class_members(self, family, generators, element,
                                                             reference, capsys):
        argv = ["norm", "--family", family, "--element", element, "--reproducible"]
        assert main([*argv, "--generators", generators]) == 0
        assert ",norm,2,\"[2,2]\",1," in capsys.readouterr().out
        assert main([*argv, *reference]) == 0
        assert ",norm,2,\"[2,2]\",1," in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "binorms", "norm", "--family", "perm", "--element", "(1 2)",
         "--reproducible"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert ",norm,1," in done.stdout


class TestFormatNumber:
    def test_fraction_and_float_forms(self):
        from fractions import Fraction

        assert format_number(Fraction(5, 2)) == "5/2"
        assert format_number(Fraction(4, 2)) == "2"
        assert format_number(2.0) == "2"
        assert format_number(float("inf")) == "inf"
        assert format_number(None) == ""


def test_build_context_defaults():
    ctx = build_context({"family": "free", "rank": "2"})
    assert ctx.backend == "cancellation-dp"
    ctx2 = build_context({"family": "heisenberg"})
    assert ctx2.backend == "bounded-search"
    ctx3 = build_context({"family": "lattice", "dim": "3",
                          "generators": "explicit:standard"})
    assert len(ctx3.generators.elements) == 6
    assert ctx3 == build_context({"family": "lattice", "dim": "3"}) == lattice_context(3)
    ready_made = {
        "free": free_cancellation_context(2),
        "perm": symmetric_transposition_context(5),
        "lattice": lattice_context(2),
        "heisenberg": heisenberg_context(),
    }
    for family, ctx in ready_made.items():
        assert build_context({"family": family}) == ctx
    assert build_context({"family": "free", "backend": "cl-bounds"}) == commutator_length_context(2)


@pytest.mark.parametrize("body, code, expected", [
    ("task = pullback\nfamily = lattice\ndim = 2\nfunctional = cone-norm\nsamples = 5", 0,
     ("pullback-defect", "2", "violations=0;bound=24")),
    ("task = fekete\nsequence = linear:2\nn = 16", 0, ("limit", "2", "converged=1")),
    ("task = fekete\nsequence = halfceil\nphi = const:1\nn = 16", 0,
     ("limit", "0.5216006216006216", "converged=0")),
    ("task = fekete\nsequence = linear:1\nphi = zero\nn = 16", 0, ("limit", "1", "converged=1")),
    ("task = defect\nfamily = lattice\nfunction = bogus\nsamples = 5", 1,
     ("error", "E_VALUE", "unknown function id 'bogus'")),
    ("task = pullback\nfamily = lattice\nfunctional = bogus\nsamples = 5", 1,
     ("error", "E_VALUE", "unknown functional 'bogus' (cone-norm | coord:<i>)")),
    ("task = fekete\nsequence = bogus\nn = 16", 1,
     ("error", "E_VALUE", "unknown sequence id 'bogus'")),
    ("task = fekete\nsequence = linear:1\nphi = bogus\nn = 16", 1,
     ("error", "E_VALUE", "unknown phi id 'bogus'")),
    ("task = extend\nfamily = free\nelement = a b\nc = 2/0\nat = a", 1,
     ("error", "E_VALUE", "c = '2/0' has a zero denominator")),
    ("task = norm\nfamily = perm\ngenerators = explicit:standard\nelement = (1 2)", 1,
     ("error", "E_NORM", "explicit:standard is only defined for lattice contexts")),
    ("task = norm\nfamily = lattice\ngenerators = explicit:\nelement = [1,0]", 1,
     ("error", "E_NORM", "empty generator list in 'explicit:'")),
    # a file of comments alone holds no job
    (None, 2, "spec error: job file contains no jobs"),
])
def test_branches_of_the_batch_runner(body, code, expected, tmp_path, capsys):
    spec = tmp_path / "branch.jobs"
    spec.write_text("# a comment\n\n# another\n" if body is None else f"job {{\n{body}\n}}\n")
    assert main(["run", "--spec", str(spec), "--reproducible"]) == code
    captured = capsys.readouterr()
    if body is None:
        assert captured.err.strip() == expected
        return
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [(r["quantity"], r["value"], r["witness"]) for r in rows] == [expected]


# Values for fuzzed job specs, valid and invalid, kept small: a family's
# elements come mostly from its own list, windows are at most 16 (every job
# that takes a window gets one) and n at most 20.
FUZZ_ELEMENTS = {
    "free": ["a", "a b", "a b a^-1 b^-1", "a^-1 b a", "c"],
    "perm": ["(1 2)", "(1 2 3)", "(1 2)(3 4)", "()", "(1 1)"],
    "lattice": ["[1,0]", "[3,-2]", "[1]", "[0,0]"],
    "heisenberg": ["H(1,0,0)", "H(0,0,1)", "H(1,-1,2)", "H(1,0)"],
}
FUZZ_VALUES = {
    "n": ["1", "2", "3", "8", "20", "0", "-1"],
    "c": ["1", "1/2", "-1", "0", "2/0", "nan"],
    "function": ["norm", "brooks:a b", "coord:0", "coord:3", "scale:3", "walk:alternating", "sin"],
    "functional": ["cone-norm", "coord:0", "coord:3"],
    "walk": ["alternating", "all-up", "doubling-blocks", "sideways"],
    "sequence": ["linear:2", "halfceil", "sqrt-drift:1", "linear:x"],
    "phi": ["zero", "const:1", "sqrt:2", "sin"],
    "samples": ["1", "3", "8", "0"],
    "maxlen": ["1", "2", "3", "0"],
    "base": ["g", "h"],
    "family": list(FUZZ_ELEMENTS),
    "rank": ["1", "2", "3", "0"],
    "dim": ["1", "2", "3", "0"],
    "degree": ["2", "4", "6", "0"],
    "generators": ["normal:a", "explicit:a", "normal:(1 2)", "normal:(1 2 3)", "explicit:standard",
                   "normal:[1,0]", "normal:H(1,0,0),H(0,1,0)", "all-commutators", "normal:"],
    "backend": [*BACKENDS, "abacus"],
    "seed": ["0", "7"],
    "window": ["8", "12", "16", "4", "0"],
    "scheme": ["plain", "arith:2", "cesaro", "arith:0"],
}


def _fuzzed_job(rng: random.Random) -> str:
    """A job block: a task, its window, each other key it reads with some
    chance (its required keys and family nearly always), and now and then a
    stray key."""
    name = rng.choice(sorted(TASKS))
    task = TASKS[name]
    family = rng.choice(FUZZ_VALUES["family"])
    params = {"task": name}
    for key in task.keys:
        if key != "window" and rng.random() >= (0.95 if key in task.required + ("family",) else 0.3):
            continue
        if key in ("element", "element2", "at"):
            own = rng.random() < 0.9
            pool = FUZZ_ELEMENTS[family if own else rng.choice(FUZZ_VALUES["family"])]
            if key == "at":
                params[key] = ";".join(rng.sample(pool, rng.randint(1, 2)))
            else:
                params[key] = rng.choice(pool)
        else:
            params[key] = family if key == "family" else rng.choice(FUZZ_VALUES[key])
    if rng.random() < 0.05:
        key = rng.choice(sorted(FUZZ_VALUES))
        params.setdefault(key, rng.choice(FUZZ_VALUES[key]))
    return "job {\n" + "".join(f"  {k} = {v}\n" for k, v in params.items()) + "}\n"


def test_fuzzed_jobs_give_rows_or_a_typed_error(monkeypatch):
    # small search budgets, so a search that would run for seconds ends in
    # its budget's typed outcome at once
    monkeypatch.setattr(norms, "MEMORY_CAP", 20_000)
    monkeypatch.setattr(norms, "COMMUTATOR_BALL_CAP", 20_000)
    assert set(FUZZ_VALUES) | {"element", "element2", "at"} == set(KEYS)
    codes = {code for _, code in ERROR_CODES}
    rng = random.Random(3)
    ran = 0
    for _ in range(2500):
        text = _fuzzed_job(rng)
        jobs, errors = parse_jobfile(text)
        if errors:
            continue
        rows = run_job(jobs[0]).rows
        assert rows and all(r.quantity != "error" or r.value in codes for r in rows), (text, rows)
        ran += 1
    assert ran >= 500
