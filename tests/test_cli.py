"""End-to-end CLI behaviour: exit codes, report files, reproducibility."""

from __future__ import annotations

import errno
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submax
import submax.cli as cli
from submax import CapacityError, GroundSet, ModularObjective, NonNegativityError, UniformMatroid
from submax.cli import REPORT_FIELDS, main, verify_report_pair

DATA = Path(__file__).resolve().parent.parent / "data"
SIM = str(DATA / "similarity_sample.csv")
GENRES = str(DATA / "genres_sample.csv")
MODULAR = str(DATA / "modular_sample.csv")
PARTITION = str(DATA / "partition_sample.csv")

SYNTH = "synth:kind=coverage_dispersion,n=12,seed=3"


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_greedy_jsonl_schema(capsys):
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "uniform:3"]) == 0
    line = capsys.readouterr().out.strip()
    rep = json.loads(line)
    assert set(rep) == set(REPORT_FIELDS)
    assert rep["algorithm"] == "greedy"
    assert rep["seed"] is None and rep["ell"] is None
    assert rep["k"] == 1 and rep["r"] == 3 and rep["n"] == 10
    assert isinstance(rep["wall_ms"], float)
    assert rep["solution"] == sorted(rep["solution"])


def test_solve_makes_no_out_directory_for_a_refused_constraint(tmp_path):
    """A constraint the library refuses exits 2 before ``--out``'s directory is made."""
    out = tmp_path / "mk" / "a" / "run.jsonl"
    assert run(["solve", "--alg", "greedy", "--instance", "synth:kind=modular,n=10,seed=1",
                "--constraint", "uniform:-1", "--out", str(out)]) == 2
    assert not (tmp_path / "mk").exists()


def test_solve_partition_constraint(capsys):
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", f"partition:{PARTITION}"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["r"] == 5  # capacities 2 + 2 + 1


def test_solve_best_of_reports_all_trials(tmp_path, capsys):
    out = tmp_path / "best.jsonl"
    assert run(["solve", "--alg", "sample-greedy", "--instance", MODULAR,
                "--constraint", "uniform:3", "--seed", "42",
                "--best-of", "4", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["trial_index"] for r in lines] == [0, 1, 2, 3]
    summary = capsys.readouterr().out
    best = max(r["value"] for r in lines)
    assert f"value={best}" in summary


def test_solve_missing_seed_is_config_error(capsys):
    assert run(["solve", "--alg", "sample-greedy", "--instance", MODULAR,
                "--constraint", "uniform:3"]) == 2
    assert "requires --seed" in capsys.readouterr().err


def test_solve_rand_subroutines_need_seed():
    base = ["solve", "--instance", MODULAR, "--constraint", "uniform:3",
            "--subroutine", "rand"]
    assert run(base + ["--alg", "repeated-greedy"]) == 2
    assert run(base + ["--alg", "double-greedy"]) == 2
    assert run(base + ["--alg", "repeated-greedy", "--seed", "1"]) == 0


def test_solve_config_errors():
    assert run(["solve", "--alg", "nope", "--instance", MODULAR,
                "--constraint", "uniform:3"]) == 2
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "mystery:3"]) == 2
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--similarity", SIM, "--constraint", "uniform:3"]) == 2
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR]) == 2  # no constraint
    assert run(["solve", "--alg", "sample-greedy", "--instance", MODULAR,
                "--constraint", "uniform:3", "--seed", "1", "--p", "1.5"]) == 2
    assert run(["solve", "--alg", "greedy", "--constraint", "uniform:3"]) == 2  # no objective


def test_solve_brute_force_capacity(capsys):
    assert run(["solve", "--alg", "brute-force",
                "--instance", "synth:kind=modular,n=30,seed=1",
                "--constraint", "uniform:3"]) == 2
    assert "cap" in capsys.readouterr().err


def test_solve_oracle_violation_maps_to_exit_3(monkeypatch, capsys):
    def boom(*a, **kw):
        raise NonNegativityError("objective dipped below zero")

    monkeypatch.setattr(cli, "run_one_trial", boom)
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "uniform:3"]) == 3
    assert "oracle violation" in capsys.readouterr().err


def test_program_errors_are_not_config_errors(monkeypatch):
    def bug(*a, **kw):
        raise ValueError("a bug inside the algorithm")

    monkeypatch.setattr(cli, "greedy", bug)
    with pytest.raises(ValueError, match="a bug inside"):
        run(["solve", "--alg", "greedy", "--instance", MODULAR, "--constraint", "uniform:3"])


@pytest.mark.parametrize("constraint, broken, code", [
    ("uniform:3", False, 0), ("uniform:-1", False, 2), ("uniform:3", True, 70),
])
def test_console_script_exits_70_on_a_program_error(monkeypatch, capsys, constraint, broken, code):
    """A program error is not a verification failure (1): the console script
    prints its traceback and exits 70, EX_SOFTWARE of sysexits.h."""
    def bug(*a, **kw):
        raise ValueError("a bug inside the algorithm")

    if broken:
        monkeypatch.setattr(cli, "greedy", bug)
    monkeypatch.setattr(sys, "argv", ["submax", "solve", "--alg", "greedy", "--instance", MODULAR,
                                      "--constraint", constraint])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code
    err = capsys.readouterr().err
    if broken:
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("ValueError: a bug inside the algorithm\n")
    else:
        assert "Traceback" not in err


@pytest.mark.parametrize("flag, source, patched, message", [
    ("--instance", "synth:kind=coverage_dispersion,n=5000,seed=1", "generate",
     "synthetic coverage_dispersion instance with n=5000"),
    ("--similarity", SIM, "CoverageDispersionObjective", f"{SIM} (n=10)"),
], ids=["synth", "similarity"])
def test_an_instance_too_large_for_memory_is_a_capacity_error(monkeypatch, capsys, flag, source,
                                                             patched, message):
    def no_memory(*a, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, "_instances", {})
    monkeypatch.setattr(cli, patched, no_memory)
    assert run(["solve", "--alg", "greedy", flag, source, "--constraint", "uniform:3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message} does not fit in memory\n"


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write (unbuffered) or only the
    flush (buffered) raises BrokenPipeError.  Its file descriptor is a real
    file's, so that the CLI can point it elsewhere."""

    def __init__(self, fd: int, buffered: bool):
        self._fd, self._buffered = fd, buffered

    def write(self, s):
        if not self._buffered:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(s)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "12"],
    ["solve", "--alg", "greedy", "--instance", MODULAR, "--constraint", "uniform:3"],
])
def test_a_closed_output_pipe_exits_141_quietly(tmp_path, monkeypatch, capsys, argv, buffered):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno(), buffered))
        assert run(argv) == 141  # 128 + SIGPIPE, not EXIT_CONFIG
        # the flush at exit goes to devnull, so it raises no second error
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["--instance", MODULAR, "--constraint", "genre:m=x,mg=1,g=action"],
    ["--instance", "synth:kind=modular,n=ten,seed=1", "--constraint", "uniform:2"],
    ["--instance", MODULAR, "--constraint", "uniform:-1"],
    ["--similarity", SIM, "--lam", "2", "--constraint", "uniform:2"],
    ["--alg", "sample-greedy", "--seed", "1", "--k", "-1",
     "--instance", MODULAR, "--constraint", "uniform:2"],
    ["--alg", "sample-greedy-linear", "--seed", "1",
     "--similarity", SIM, "--constraint", "uniform:2"],
])
def test_bad_input_values_are_config_errors(capsys, argv):
    if "--alg" not in argv:
        argv = ["--alg", "greedy"] + argv
    assert run(["solve"] + argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_lam_weighs_the_similarity_objective_only(capsys):
    synth = "synth:kind=coverage_dispersion,n=40,seed=3"
    base = ["solve", "--alg", "greedy", "--constraint", "uniform:5"]
    assert run(base + ["--instance", synth, "--lam", "0.9"]) == 2
    assert "synth:...,lam=" in capsys.readouterr().err
    assert run(base + ["--instance", synth + ",lam=0.9"]) == 0
    assert json.loads(capsys.readouterr().out)["solution"] == [2, 10, 17, 21, 29]
    hashes = []
    for lam in ([], ["--lam", "0.5"]):  # unset weighs and hashes as 0.5
        assert run(base + ["--similarity", SIM] + lam) == 0
        hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("argv,unknown", [
    (["--instance", "synth:kind=coverage_dispersion,n=40,seed=3,lamm=0.9",
      "--constraint", "uniform:3"], "lamm"),
    (["--similarity", SIM, "--genres", GENRES,
      "--constraint", "genre:m=4,mg=2,g=action+drama,mgg=1"], "mgg"),
    (["--similarity", SIM, "--genres", "synth:count=3,seed=1,maxpr=1",
      "--constraint", "genre:m=4,mg=2,g=g0"], "maxpr"),
    (["--instance", "synth:kind=modular,n=16,seed=2",
      "--constraint", "hard:k=2,h=4,m=2,mode=M,hh=3"], "hh"),
], ids=["synth-instance", "genre", "synth-genres", "hard"])
def test_misspelled_spec_keys_are_config_errors(capsys, argv, unknown):
    assert run(["solve", "--alg", "greedy"] + argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"unknown key {unknown!r}" in out.err


@pytest.mark.parametrize("argv,repeated", [
    (["--instance", "synth:kind=modular,n=10,seed=1,n=20", "--constraint", "uniform:2"], "n"),
    (["--similarity", SIM, "--genres", GENRES,
      "--constraint", "genre:m=4,mg=2,g=action+drama,mg=3"], "mg"),
    (["--similarity", SIM, "--genres", "synth:count=3,seed=1,seed=2",
      "--constraint", "genre:m=4,mg=2,g=g0"], "seed"),
    (["--instance", "synth:kind=modular,n=16,seed=2",
      "--constraint", "hard:k=2,h=4,m=2,mode=M,k=3"], "k"),
], ids=["synth-instance", "genre", "synth-genres", "hard"])
def test_repeated_spec_keys_are_config_errors(capsys, argv, repeated):
    """A key given twice is refused, not read as its last value."""
    assert run(["solve", "--alg", "greedy"] + argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"key {repeated!r} given twice" in out.err


def test_tie_free_takes_only_the_listed_values(capsys):
    base = ["solve", "--alg", "greedy", "--constraint", "uniform:3", "--instance"]
    for value in ("ture", "False", "2", ""):
        assert run(base + [f"{SYNTH},tie_free={value}"]) == 2
        assert "tie_free must be one of 0/1/false/true/no/yes" in capsys.readouterr().err
    # each accepted value hashes and solves as it did when any value but 0/false/no read as true
    expected = {False: ("42d75e1c0ee044d0", [1, 7, 10]), True: ("b0e96ebfae417089", [0, 2, 11])}
    for value, flag in (("0", False), ("1", True), ("false", False), ("true", True),
                        ("no", False), ("yes", True)):
        assert run(base + [f"{SYNTH},tie_free={value}"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["config_hash"], rep["solution"]) == expected[flag], value


def test_lam_one_double_greedy_on_real_valued_similarity(tmp_path, capsys):
    # coverage - dispersion summed as two sums rounded below 0 at N on this matrix
    w = np.triu(np.random.default_rng(17).random((40, 40)), 1)
    w = w + w.T
    path = tmp_path / "real.csv"
    path.write_text(",".join(f"e{i}" for i in range(40)) + "\n"
                    + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in w))
    assert run(["solve", "--alg", "double-greedy", "--similarity", str(path), "--lam", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] >= 0.0


def test_cut_under_genre_constraint_keeps_the_whole_ground_set(capsys):
    """A cut is a coverage-dispersion objective, but the genre constraint does
    not restrict it to N_u: double greedy walks all 40 elements."""
    assert run(["solve", "--alg", "double-greedy", "--instance", "synth:kind=cut,n=40,seed=3",
                "--genres", "synth:count=4,seed=2", "--constraint", "genre:m=6,mg=2,g=g0+g1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["f_evals"], rep["value"], rep["r"]) == (81, 1042.125, 3)
    assert rep["solution"] == [0, 1, 3, 4, 7, 8, 9, 10, 13, 19, 21, 23, 25, 26, 27, 29, 30, 31,
                               34, 35]


def test_synthetic_coverage_dispersion_under_genre_constraint_is_restricted_to_n_u(capsys):
    """A synthetic coverage-dispersion objective under a genre constraint is
    the same objective restricted to N_u: double greedy walks N_u only."""
    genres = "synth:count=4,seed=2"
    assert run(["solve", "--alg", "double-greedy", "--genres", genres,
                "--instance", "synth:kind=coverage_dispersion,n=40,seed=3",
                "--constraint", "genre:m=6,mg=2,g=g0+g1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    f, g = submax.generate(submax.SyntheticSpec(kind="coverage_dispersion", n=40, seed=3))
    genre_of = cli._load_genres(cli.parse_genres_spec(genres), g.n)
    nu = submax.GenreConstraint(g, genre_of, ["g0", "g1"], m=6, m_g=2).restricted_universe
    assert 0 < len(nu) < g.n
    obj = submax.CoverageDispersionObjective(g, f.objective.similarity, lam=0.5, universe_u=nu)
    res = submax.unconstrained_max_det(obj.oracle(), nu)
    assert (rep["solution"], rep["value"], rep["f_evals"]) == \
        (list(res.solution.members), res.value, res.f_evals)
    unrestricted = submax.unconstrained_max_det(f, g.full())
    assert rep["solution"] != list(unrestricted.solution.members)


def test_solve_genre_constraint_without_genres(capsys):
    assert run(["solve", "--alg", "greedy", "--similarity", SIM,
                "--constraint", "genre:m=2,mg=1,g=action"]) == 2
    assert "genre constraint requires --genres" in capsys.readouterr().err


def test_lazy_flag_applies_to_greedy(capsys):
    base = ["solve", "--instance", "synth:kind=coverage_dispersion,n=60,seed=3",
            "--constraint", "uniform:5"]
    reports = []
    for extra in (["--alg", "greedy"], ["--alg", "greedy", "--lazy"], ["--alg", "lazy-greedy"]):
        assert run(base + extra) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, flagged, lazy = reports
    assert flagged["solution"] == lazy["solution"]
    assert flagged["marginal_evals"] == lazy["marginal_evals"]
    assert plain["solution"] == lazy["solution"]
    assert plain["marginal_evals"] > lazy["marginal_evals"]


def test_solve_reads_the_partition_csv_once(tmp_path, monkeypatch):
    calls = []
    load = cli._load_partition_csv
    monkeypatch.setattr(cli, "_load_partition_csv",
                        lambda path, n: calls.append(path) or load(path, n))
    monkeypatch.setattr(cli, "_instances", {})
    out = tmp_path / "part.jsonl"
    assert run(["solve", "--alg", "sample-greedy", "--instance", MODULAR,
                "--constraint", f"partition:{PARTITION}", "--seed", "5",
                "--best-of", "4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert calls == [PARTITION]


def test_out_parent_directories_are_created(tmp_path):
    solve_out = tmp_path / "new" / "solve.jsonl"
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "uniform:3", "--out", str(solve_out)]) == 0
    assert solve_out.exists()
    stem = tmp_path / "other" / "deeper" / "b"
    assert run(BENCH_BASE + ["--out", str(stem)]) == 0
    assert Path(f"{stem}.jsonl").exists()


@pytest.mark.parametrize("alg", ["greedy", "lazy-greedy"])
def test_solve_rejects_nan_modular_weights(tmp_path, capsys, alg):
    weights = tmp_path / "nan.csv"
    weights.write_text("element_id,weight\n0,nan\n1,1\n2,2\n")
    assert run(["solve", "--alg", alg, "--instance", str(weights),
                "--constraint", "uniform:2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "finite" in out.err


def test_modular_csv_ids_missing_from_the_file_weigh_zero(tmp_path, capsys):
    """The ground set runs to the largest id listed; the ids between weigh 0."""
    weights = tmp_path / "gaps.csv"
    weights.write_text("element_id,weight\n0,1\n3,2\n")
    assert run(["solve", "--alg", "greedy", "--instance", str(weights),
                "--constraint", "uniform:4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["n"], rep["r"], rep["solution"], rep["value"]) == (4, 4, [0, 3], 3.0)
    assert (rep["f_evals"], rep["marginal_evals"]) == (10, 9)


def test_solve_rejects_negative_modular_ids(tmp_path, capsys):
    weights = tmp_path / "neg.csv"
    weights.write_text("element_id,weight\n-1,5\n0,1\n1,2\n")
    assert run(["solve", "--alg", "greedy", "--instance", str(weights),
                "--constraint", "uniform:2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and str(weights) in out.err and "[-1]" in out.err


@pytest.mark.parametrize("bad", [-3, 10])
def test_solve_rejects_partition_ids_outside_the_ground_set(tmp_path, capsys, bad):
    part = tmp_path / "part.csv"
    part.write_text(f"element_id,block_id,capacity\n0,a,1\n{bad},a,1\n")
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,  # n = 10
                "--constraint", f"partition:{part}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and str(part) in out.err and f"[{bad}]" in out.err


@pytest.mark.parametrize("bad", [-2, 10])
def test_solve_rejects_genre_ids_outside_the_ground_set(tmp_path, capsys, bad):
    genres = tmp_path / "genres.csv"
    genres.write_text(f"element_id,genres\n0,action\n{bad},action\n")
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,  # n = 10
                "--genres", str(genres),
                "--constraint", "genre:m=2,mg=1,g=action+drama"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and str(genres) in out.err and f"[{bad}]" in out.err


def _solve_reading(flag, path):
    """``solve`` argv that reads ``path`` as the id-keyed CSV named by ``flag``."""
    argv = {"--instance": ["--instance", str(path), "--constraint", "uniform:2"],
            "--constraint": ["--instance", MODULAR, "--constraint", f"partition:{path}"],
            "--genres": ["--instance", MODULAR, "--genres", str(path),
                         "--constraint", "genre:m=2,mg=1,g=action"]}[flag]
    return ["solve", "--alg", "greedy"] + argv


@pytest.mark.parametrize("flag, body", [
    ("--instance", "element_id,weight\n0,1\n1\n2,2\n"),
    ("--constraint", "element_id,block_id,capacity\n0,a,1\n1,a\n"),
    ("--genres", "element_id,genres\n0,action\n1\n"),
])
def test_csv_rows_missing_a_field_are_config_errors(tmp_path, capsys, flag, body):
    path = tmp_path / "short.csv"
    path.write_text(body)
    assert run(_solve_reading(flag, path)) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: {path}: line 3: missing field" in out.err


@pytest.mark.parametrize("flag, body", [
    ("--instance", "element_id,weight\n0,1\n1,2.0\n1,5.0\n"),
    ("--constraint", "element_id,block_id,capacity\n0,a,1\n1,a,1\n1,b,1\n"),
    ("--genres", "element_id,genres\n0,action\n1,action\n1,drama\n"),
])
def test_csv_rows_repeating_an_id_are_config_errors(tmp_path, capsys, flag, body):
    """A second row for one element id is refused, not left to overwrite the first."""
    path = tmp_path / "twice.csv"
    path.write_text(body)
    assert run(_solve_reading(flag, path)) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: {path}: line 4: element id 1 listed twice" in out.err


def test_partition_block_with_conflicting_capacities_names_the_line(tmp_path, capsys):
    path = tmp_path / "conflict.csv"
    path.write_text("element_id,block_id,capacity\n0,a,1\n\n1,a,2\n")
    assert run(_solve_reading("--constraint", path)) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: {path}: line 4: block 'a' has conflicting capacities" in out.err


@pytest.mark.parametrize("flag, row", [
    ("--instance", "x,2"),
    ("--instance", "1.0,2"),
    ("--instance", "1,heavy"),
    ("--constraint", "x,a,1"),
    ("--constraint", "1.0,a,1"),
    ("--constraint", "1,a,one"),
    ("--genres", "x,drama"),
    ("--genres", "1.0,drama"),
])
def test_csv_rows_with_a_malformed_field_are_config_errors(tmp_path, capsys, flag, row):
    """A non-integer id, weight or capacity names the file and line it is on."""
    header, first = {"--instance": ("element_id,weight", "0,1"),
                     "--constraint": ("element_id,block_id,capacity", "0,a,1"),
                     "--genres": ("element_id,genres", "0,action")}[flag]
    path = tmp_path / "malformed.csv"
    path.write_text(f"{header}\n{first}\n{row}\n")
    assert run(_solve_reading(flag, path)) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: {path}: line 3: " in out.err


@pytest.mark.parametrize("flag, body", [
    ("--instance", "element_id,weight\n0,1e308\n1,1e308\n"),
    ("--similarity", "a,b\n1e308,1e308\n1e308,1e308\n"),
])
def test_finite_data_whose_total_overflows_is_a_config_error(tmp_path, capsys, flag, body):
    """Every entry is finite, but f of the whole ground set is not."""
    path = tmp_path / "huge.csv"
    path.write_text(body)
    assert run(["solve", "--alg", "greedy", flag, str(path), "--constraint", "uniform:2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "total must be finite" in out.err


def test_report_lines_refuse_nan():

    report = dict.fromkeys(REPORT_FIELDS)
    report["value"] = float("nan")
    with pytest.raises(ValueError):
        cli._report_line(report)


def test_solve_double_greedy_needs_no_constraint(capsys):
    assert run(["solve", "--alg", "double-greedy", "--instance", SYNTH]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["k"] is None and rep["r"] is None
    assert rep["independence_checks"] == 0


def test_solve_genre_constraint_with_shipped_data(capsys):
    assert run(["solve", "--alg", "repeated-greedy", "--similarity", SIM,
                "--genres", GENRES,
                "--constraint", "genre:m=4,mg=2,g=action+drama"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["k"] == 2  # one matroid per favourite genre
    assert rep["ell"] == 2
    assert len(rep["solution"]) <= 4


def test_solve_ell_two_equals_the_library_run(capsys):
    assert run(["solve", "--alg", "repeated-greedy", "--ell", "2", "--instance", SYNTH,
                "--constraint", "uniform:3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    f, g = submax.generate(submax.SyntheticSpec(kind="coverage_dispersion", n=12, seed=3))
    res = submax.repeated_greedy(f, UniformMatroid(g, 3), ell=2)
    assert rep["ell"] == 2
    assert (rep["solution"], rep["value"], rep["f_evals"], rep["marginal_evals"],
            rep["independence_checks"]) == (list(res.solution.members), res.value, res.f_evals,
                                            res.marginal_evals, res.independence_checks)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--alg", "repeated-greedy", "--ell", "0"], "--ell must be >= 1, got 0"),
    (["solve", "--alg", "repeated-greedy", "--ell", "x"],
     "--ell must be an integer or 'auto', got 'x'"),
    (["solve", "--alg", "sample-greedy", "--seed", "1", "--best-of", "0"],
     "--best-of must be >= 1, got 0"),
    (["solve", "--alg", "greedy", "--best-of", "2"],
     "--best-of needs a randomized algorithm; 'greedy' is deterministic"),
    (["solve", "--alg", "sample-greedy", "--seed", "-1"],
     "--seed must be an unsigned 64-bit integer, got -1"),
    (["bench", "--alg", "greedy", "--trials", "0", "--sweep", "m=2:3"],
     "--trials must be >= 1, got 0"),
    (["bench", "--alg", ",", "--sweep", "m=2:3"], "bench needs at least one algorithm in --alg"),
], ids=["ell-0", "ell-x", "best-of-0", "best-of-greedy", "seed-negative", "trials-0", "alg-empty"])
def test_out_of_range_run_options_are_config_errors(tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path / "b")] if argv[0] == "bench" else []
    assert run(argv + ["--instance", SYNTH, "--constraint", "uniform:2"] + out) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("genres, constraint, message", [
    (GENRES, "genre:m=4,mg=2,g=action+dramma", "favourite genre(s) dramma label no element"),
    (GENRES, "genre:m=4,mg=2,g=actoin", "favourite genre(s) actoin label no element"),
    ("synth:count=2,seed=1,maxper=0", "genre:m=4,mg=2,g=g0", "maxper must be >= 1, got 0"),
    ("synth:count=-1,seed=1", "genre:m=4,mg=2,g=g0", "count must be >= 1, got -1"),
    ("synth:count=0,seed=1", "genre:m=4,mg=2,g=g0", "count must be >= 1, got 0"),
], ids=["typo-beside-a-genre", "typo-alone", "maxper-0", "count-negative", "count-0"])
def test_genre_inputs_that_would_skew_k_or_n_are_config_errors(capsys, genres, constraint,
                                                               message):
    """A favourite genre that labels no element still counts in the declared k."""
    assert run(["solve", "--alg", "repeated-greedy", "--similarity", SIM,
                "--genres", genres, "--constraint", constraint]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_solve_hard_constraint_end_to_end(capsys):
    assert run(["solve", "--alg", "greedy",
                "--instance", "synth:kind=modular,n=16,seed=2",
                "--constraint", "hard:k=2,h=4,m=2,mode=M"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["n"] == 16 and rep["k"] == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


BENCH_BASE = ["bench", "--instance", SYNTH, "--constraint", "uniform:2",
              "--alg", "greedy,sample-greedy", "--sweep", "m=2:4",
              "--trials", "3", "--seed", "99"]


def test_bench_line_count_and_schema(tmp_path):
    stem = str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", stem]) == 0
    lines = [json.loads(l) for l in Path(stem + ".jsonl").read_text().splitlines()]
    # 3 sweep points x (1 deterministic + 3 randomized trials)
    assert len(lines) == 3 * (1 + 3)
    assert all(set(r) == set(REPORT_FIELDS) for r in lines)
    assert all(r["wall_ms"] is None for r in lines)
    greedy_lines = [r for r in lines if r["algorithm"] == "greedy"]
    assert [r["trial_index"] for r in greedy_lines] == [0, 0, 0]


def test_bench_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", a]) == 0
    assert run(BENCH_BASE + ["--out", b]) == 0
    assert Path(a + ".jsonl").read_bytes() == Path(b + ".jsonl").read_bytes()


def test_bench_jobs_do_not_change_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", a, "--jobs", "1"]) == 0
    assert run(BENCH_BASE + ["--out", b, "--jobs", "2"]) == 0
    assert Path(a + ".jsonl").read_bytes() == Path(b + ".jsonl").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_bench_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    stem = tmp_path / "b"
    assert run(BENCH_BASE + ["--out", str(stem), "--jobs", jobs]) == 2
    out = capsys.readouterr()
    assert f"--jobs must be >= 1, got {jobs}" in out.err
    assert not os.path.exists(str(stem) + ".jsonl")  # no trial ran


def test_bench_repeated_algorithm_is_a_config_error(tmp_path, capsys):
    """A repeated --alg entry would write duplicate trial lines, each with
    trial_index 0, that the summary merges; it is refused before any trial."""
    stem = tmp_path / "b"
    argv = ["bench", "--instance", MODULAR, "--constraint", "uniform:3", "--alg", "greedy,greedy",
            "--sweep", "m=2:3", "--out", str(stem)]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--alg lists algorithm 'greedy' twice" in out.err
    assert not os.path.exists(str(stem) + ".jsonl")  # no trial ran


def test_bench_summary_recomputable_from_jsonl(tmp_path):

    stem = str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", stem]) == 0
    lines = [json.loads(l) for l in Path(stem + ".jsonl").read_text().splitlines()]
    rows = Path(stem + ".summary.csv").read_text().splitlines()
    assert rows[0].startswith("# config_hash=")
    header = rows[1].split(",")
    assert header == ["sweep_value", "algorithm", "mean_value", "std_value",
                      "mean_f_evals", "mean_wall_ms"]
    # every column except mean_wall_ms must be recomputable from the JSONL
    for row in rows[2:]:
        sweep_value, alg, mean_v, std_v, mean_e, _wall = row.split(",")
        group = [r for r in lines if r["algorithm"] == alg][:]
        # sweep value is not a report field; group by position instead
        del group
    by_key: dict = {}
    order = []
    for r in lines:
        key = r["algorithm"]
        by_key.setdefault(key, []).append(r)
    data_rows = [row.split(",") for row in rows[2:]]
    for alg in ("greedy", "sample-greedy"):
        alg_rows = [r for r in data_rows if r[1] == alg]
        reports = by_key[alg]
        trials = 1 if alg == "greedy" else 3
        for i, r in enumerate(alg_rows):
            chunk = reports[i * trials:(i + 1) * trials]
            vals = np.array([c["value"] for c in chunk])
            evs = np.array([c["f_evals"] for c in chunk])
            assert float(r[2]) == pytest.approx(vals.mean(), abs=1e-12)
            assert float(r[3]) == pytest.approx(vals.std(ddof=0), abs=1e-12)
            assert float(r[4]) == pytest.approx(evs.mean(), abs=1e-12)


def test_bench_writes_plot_files(tmp_path):
    stem = str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", stem]) == 0
    for alg in ("greedy", "sample-greedy"):
        for metric in ("value", "evals"):
            dat = Path(f"{stem}.{alg}.{metric}.dat")
            assert dat.exists()
            rows = dat.read_text().splitlines()
            assert [r.split()[0] for r in rows] == ["2", "3", "4"]


def test_bench_report_pair_verification(tmp_path):
    stem = str(tmp_path / "b")
    assert run(BENCH_BASE + ["--out", stem]) == 0
    ok, _ = verify_report_pair(stem + ".jsonl", stem + ".summary.csv")
    assert ok
    # corrupt the CSV hash line -> detected
    csv_path = Path(stem + ".summary.csv")
    text = csv_path.read_text().splitlines()
    text[0] = "# config_hash=deadbeefdeadbeef"
    csv_path.write_text("\n".join(text) + "\n")
    ok, detail = verify_report_pair(stem + ".jsonl", str(csv_path))
    assert not ok and "deadbeef" in detail


def test_report_pair_verification_refuses_a_missing_header_and_mixed_hashes(tmp_path):
    jsonl, csv_path = tmp_path / "b.jsonl", tmp_path / "b.summary.csv"
    jsonl.write_text('{"config_hash": "aaaa"}\n\n{"config_hash": "aaaa"}\n')
    csv_path.write_text("algorithm,m\ngreedy,2\n")
    assert verify_report_pair(str(jsonl), str(csv_path)) == (
        False, f"{csv_path} lacks a config_hash header")
    csv_path.write_text("# config_hash=aaaa\nalgorithm,m\n")
    assert verify_report_pair(str(jsonl), str(csv_path)) == (True, "")
    jsonl.write_text('{"config_hash": "aaaa"}\n{"config_hash": "bbbb"}\n')
    assert verify_report_pair(str(jsonl), str(csv_path)) == (
        False, f"{jsonl} mixes config hashes: ['aaaa', 'bbbb']")


def test_bench_requires_out_seed_and_constraint(tmp_path):
    assert run(["bench", "--instance", SYNTH, "--constraint", "uniform:2",
                "--alg", "greedy", "--sweep", "m=2:3"]) == 2  # no --out
    assert run(["bench", "--instance", SYNTH, "--constraint", "uniform:2",
                "--alg", "sample-greedy", "--sweep", "m=2:3",
                "--out", str(tmp_path / "x")]) == 2  # randomized, no seed
    assert run(["bench", "--instance", SYNTH, "--alg", "greedy",
                "--sweep", "m=2:3", "--out", str(tmp_path / "x")]) == 2  # no constraint
    assert run(["bench", "--instance", SYNTH, "--constraint", "uniform:2",
                "--alg", "greedy", "--sweep", "mg=2:1",
                "--out", str(tmp_path / "x")]) == 2  # empty range


def test_bench_sample_greedy_saves_evaluations(tmp_path):
    stem = str(tmp_path / "evals")
    assert run(["bench", "--instance", "synth:kind=modular,n=60,seed=8",
                "--constraint", "uniform:5", "--alg", "greedy,sample-greedy",
                "--sweep", "m=5:5", "--trials", "20", "--seed", "31",
                "--out", stem]) == 0
    rows = [r.split(",") for r in
            Path(stem + ".summary.csv").read_text().splitlines()[2:]]
    mean_evals = {r[1]: float(r[4]) for r in rows}
    assert mean_evals["sample-greedy"] < mean_evals["greedy"]


def test_bench_genre_sweep(tmp_path):
    stem = str(tmp_path / "g")
    assert run(["bench", "--similarity", SIM, "--genres", GENRES,
                "--constraint", "genre:m=5,mg=1,g=action+drama",
                "--alg", "greedy", "--sweep", "mg=1:3",
                "--out", stem]) == 0
    lines = [json.loads(l) for l in Path(stem + ".jsonl").read_text().splitlines()]
    assert len(lines) == 3
    # raising the per-genre cap can only help greedy's value
    vals = [r["value"] for r in lines]
    assert vals[0] <= vals[1] <= vals[2]


def test_bench_reads_the_similarity_csv_once(tmp_path, monkeypatch):
    calls = []
    load = cli.load_similarity_csv
    monkeypatch.setattr(cli, "load_similarity_csv", lambda path: calls.append(path) or load(path))
    monkeypatch.setattr(cli, "_instances", {})
    assert run(["bench", "--similarity", SIM, "--genres", GENRES,
                "--constraint", "genre:m=5,mg=1,g=action+drama",
                "--alg", "greedy,lazy-greedy", "--sweep", "mg=1:3",
                "--out", str(tmp_path / "once")]) == 0
    assert calls == [SIM]


@pytest.mark.parametrize("argv", [
    ["--similarity", SIM, "--lam", "0.5", "--constraint", "uniform:3",
     "--alg", "greedy,sample-greedy-linear", "--sweep", "m=2:3"],
    ["--instance", MODULAR, "--constraint", f"partition:{PARTITION}",
     "--alg", "greedy", "--sweep", "m=1:1"],
    ["--instance", "synth:kind=modular,n=32,seed=1", "--constraint", "hard:k=2,h=8,m=2,mode=M",
     "--alg", "greedy", "--sweep", "m=2:3"],  # a hard constraint is not sweepable
    ["--instance", MODULAR, "--constraint", "uniform:3", "--alg", "greedy,lazy-greedy",
     "--sweep", "m=-1:2"],
    ["--instance", "synth:kind=modular,n=30,seed=1", "--constraint", "uniform:3",
     "--alg", "greedy,sample-greedy,brute-force", "--sweep", "m=2:3"],  # past brute force's cap
])
def test_bench_checks_every_point_and_algorithm_before_any_trial(tmp_path, monkeypatch, capsys,
                                                                  argv):
    calls = []
    monkeypatch.setattr(cli, "run_one_trial", lambda *a: calls.append(a))
    stem = tmp_path / "b"
    assert run(["bench"] + argv + ["--trials", "2", "--seed", "1", "--out", str(stem)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")
    assert not Path(f"{stem}.jsonl").exists()


@pytest.mark.parametrize("sweep", ["m=9:10", "m=9:9"])
def test_bench_refuses_a_hard_sweep_before_any_point(tmp_path, monkeypatch, capsys, caplog, sweep):
    """A hard instance's m sizes its ground set (n = h*k*m), so a sweep of it
    would move the ground set under a fixed objective: bench refuses it with
    one error line before any point is built, so no max_feasible_size
    warning, and writes no JSONL.  m=9:10 used to build and warn at m=9 and
    then exit 2 on n=80 against the objective's 72."""
    monkeypatch.setattr(submax.constraints, "_bound_warned", set())
    monkeypatch.setattr(cli, "_points", {})
    stem = tmp_path / "hard"
    assert run(["bench", "--instance", "synth:kind=modular,n=72,seed=1",
                "--constraint", "hard:k=2,h=4,m=9,mode=M", "--alg", "greedy",
                "--sweep", sweep, "--out", str(stem)]) == 2
    assert capsys.readouterr().err == "error: sweep parameter 'm' does not apply to constraint kind 'hard'\n"
    assert not caplog.records
    assert cli._points == {}
    assert not Path(f"{stem}.jsonl").exists()


def test_bench_instances_are_keyed_by_config(tmp_path):
    def argv(lam, stem):
        return ["bench", "--similarity", SIM, "--genres", GENRES, "--lam", lam,
                "--constraint", "genre:m=5,mg=1,g=action+drama",
                "--alg", "greedy", "--sweep", "mg=1:2", "--out", str(tmp_path / stem)]

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for lam in ("0.25", "0.75"):
        assert run(argv(lam, f"warm{lam}")) == 0
        subprocess.run([sys.executable, "-m", "submax.cli"] + argv(lam, f"fresh{lam}"),
                       env=env, check=True, capture_output=True)
    for lam in ("0.25", "0.75"):
        warm = (tmp_path / f"warm{lam}.jsonl").read_bytes()
        assert warm == (tmp_path / f"fresh{lam}.jsonl").read_bytes()
    assert (tmp_path / "warm0.25.jsonl").read_bytes() != (tmp_path / "warm0.75.jsonl").read_bytes()


def test_bench_computes_r_once_per_sweep_point(tmp_path, monkeypatch):
    calls, builds = [], []
    rank, build = cli.max_feasible_size, cli._build_constraint
    monkeypatch.setattr(cli, "max_feasible_size", lambda I: calls.append(I) or rank(I))
    monkeypatch.setattr(cli, "_build_constraint", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(cli, "_points", {})
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    assert run(BENCH_BASE + ["--out", cold]) == 0  # 3 points x 4 trials
    assert [I.m for I in calls] == [2, 3, 4]
    assert len(builds) == 3  # one constraint per point, shared by its trials
    lines = [json.loads(l) for l in Path(cold + ".jsonl").read_text().splitlines()]
    assert [r["r"] for r in lines] == [2] * 4 + [3] * 4 + [4] * 4
    assert run(BENCH_BASE + ["--out", warm]) == 0
    assert len(calls) == 3 and len(builds) == 3
    assert Path(cold + ".jsonl").read_bytes() == Path(warm + ".jsonl").read_bytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched module only when forked")
def test_bench_jobs_compute_r_in_the_parent_process(tmp_path, monkeypatch):
    log = tmp_path / "pids"
    rank = cli.max_feasible_size

    def logged(I):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return rank(I)

    monkeypatch.setattr(cli, "max_feasible_size", logged)
    monkeypatch.setattr(cli, "_points", {})
    assert run(BENCH_BASE + ["--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    assert log.read_text().split() == [str(os.getpid())] * 3  # once per sweep point


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_shipped_similarity(capsys):
    assert run(["verify", "--similarity", SIM, "--constraint", "uniform:3",
                "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "submodular" in out and "PASS" in out and "FAIL" not in out


def test_verify_evaluates_each_subset_once(capsys, monkeypatch):
    """The submodular and monotone checks read one value table: 2^10
    calls of ``evaluate`` at --limit 10, not one table per check."""
    calls = []
    evaluate = submax.CoverageDispersionObjective.evaluate

    def spy(self, S):
        calls.append(S)
        return evaluate(self, S)

    monkeypatch.setattr(submax.CoverageDispersionObjective, "evaluate", spy)
    assert run(["verify", "--instance", "synth:kind=coverage_dispersion,n=40,seed=1",
                "--constraint", "uniform:5", "--limit", "10"]) == 0
    assert "non-negative       PASS  all 1024 subsets evaluated" in capsys.readouterr().out
    assert len(calls) == 1 << 10


def test_verify_hard_instance(capsys):
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out and "gadget-increments" in out


def test_verify_skips_a_witness_of_non_integral_size(capsys):
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=3,mode=M", "--limit", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "witness            INFO  size formula 9/2 not integral; skipped" in lines


def test_verify_catches_wrong_declared_k(capsys):
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M",
                "--k", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_needs_something():
    assert run(["verify"]) == 2


def test_verify_rejects_a_hard_constraint_of_another_size(capsys):
    assert run(["verify", "--instance", "synth:kind=modular,n=10,seed=1",
                "--constraint", "hard:k=2,h=8,m=2,mode=M"]) == 2
    assert "size the instance" in capsys.readouterr().err


def test_verify_synthetic_objective(capsys):
    assert run(["verify", "--instance", "synth:kind=cut,n=8,seed=5"]) == 0
    out = capsys.readouterr().out
    assert "monotone" in out  # cut declares nothing -> observed INFO line
    assert "INFO" in out


def test_verify_limit_applies_to_constraint_checks(capsys):
    assert run(["verify", "--instance", "synth:kind=modular,n=13,seed=1",
                "--constraint", "uniform:3", "--limit", "13"]) == 0
    out = capsys.readouterr().out
    assert "downward-closed    PASS  n=13" in out
    assert "k-extendible(k=1)  PASS  n=13" in out


def test_verify_limit_past_a_verifier_cap_is_a_config_error(capsys, monkeypatch):
    # 15 elements pass the downward-closure and k-system caps (20, 16), not
    # the k-extendibility cap; every cap is compared before any check runs
    called = []
    for name in ("verify_downward_closed", "verify_k_system", "verify_k_extendible"):
        check = getattr(cli, name)

        @functools.wraps(check)
        def spy(*args, _check=check, **kwargs):
            called.append(_check.__name__)
            return _check(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "15"]) == 2
    captured = capsys.readouterr()
    assert "verify_k_extendible is exhaustive; n=15 exceeds cap 14" in captured.err
    assert captured.out == ""
    assert called == []
    # the spies do run the checks when the limit fits
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "6"]) == 0
    assert called == ["verify_downward_closed", "verify_k_system", "verify_k_extendible"]


@pytest.mark.parametrize("argv, routine", [
    (["--instance", "synth:kind=modular,n=16,seed=1", "--limit", "15"], "check_submodular"),
    (["--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "21"], "verify_downward_closed"),
    (["--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "17"], "verify_k_system"),
    (["--constraint", "hard:k=2,h=8,m=2,mode=M", "--limit", "15"], "verify_k_extendible"),
])
def test_verify_limit_past_a_cap_prints_the_routines_message(capsys, argv, routine):
    n = int(argv[-1])
    g = GroundSet(n)
    system = ModularObjective(g, [0.0] * n).oracle() if routine.startswith("check") \
        else UniformMatroid(g, 1)
    with pytest.raises(CapacityError) as exc:
        getattr(submax, routine)(system)
    assert run(["verify"] + argv) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_verify_rejects_a_negative_limit(capsys):
    assert run(["verify", "--similarity", SIM, "--constraint", "uniform:3", "--limit", "-1"]) == 2
    assert "--limit must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spec-string parsing details
# ---------------------------------------------------------------------------


def test_constraint_spec_parsing_errors():
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "uniform:lots"]) == 2
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "genre:m=2"]) == 2
    assert run(["solve", "--alg", "greedy", "--instance", MODULAR,
                "--constraint", "hard:k=2,h=7,m=2,mode=M"]) == 2  # h % 2k != 0


@pytest.mark.parametrize("argv, message", [
    (["solve", "--instance", MODULAR, "--constraint", "genre:m=2,mg"],
     "genre constraint: expected key=value, got 'mg'"),
    (["solve", "--instance", MODULAR, "--constraint", "uniform"],
     "constraint spec needs 'kind:...', got 'uniform'"),
    (["solve", "--instance", MODULAR, "--constraint", "partition:"],
     "partition constraint needs a CSV path: partition:FILE"),
    (["solve", "--instance", MODULAR, "--genres", GENRES, "--constraint", "genre:m=2,mg=1,g="],
     "genre constraint needs at least one genre in g=a+b+c"),
    (["verify", "--constraint", "hard:k=1,h=2,m=1,mode=X"], "hard mode must be M or M', got 'X'"),
    (["bench", "--instance", MODULAR, "--constraint", "uniform:2", "--sweep", "m"],
     "sweep spec must look like mg=1:9, got 'm'"),
    (["bench", "--instance", MODULAR, "--constraint", "uniform:2", "--sweep", "k=1:2"],
     "sweep parameter must be 'm' or 'mg', got 'k'"),
    (["bench", "--instance", MODULAR, "--constraint", "uniform:2", "--sweep", "m=3"],
     "sweep range must be LO:HI, got '3'"),
    (["bench", "--instance", MODULAR, "--constraint", "uniform:2", "--sweep", "m=a:2"],
     "sweep bounds must be integers, got 'a:2'"),
    (["solve", "--instance", "{tmp}/weights.csv", "--constraint", "uniform:2"],
     "{tmp}/weights.csv: no weight rows"),
    (["solve", "--instance", MODULAR, "--constraint", "partition:{tmp}/blocks.csv"],
     "{tmp}/blocks.csv: no partition rows"),
    (["verify", "--constraint", "uniform:3"], "uniform constraint needs an objective for its ground set"),
], ids=["part-without-eq", "no-kind", "partition-no-path", "genre-no-genre", "hard-mode",
        "sweep-no-eq", "sweep-param", "sweep-no-range", "sweep-bounds", "modular-header-only",
        "partition-header-only", "uniform-no-objective"])
def test_spec_and_file_refusals_exit_2_with_their_message(tmp_path, capsys, argv, message):
    (tmp_path / "weights.csv").write_text("element_id,weight\n")
    (tmp_path / "blocks.csv").write_text("element_id,block_id,capacity\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] != "verify":
        argv += ["--alg", "greedy"] + (["--out", str(tmp_path / "b")] if argv[0] == "bench" else [])
    assert run(argv) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err == f"error: {message.format(tmp=tmp_path)}\n"


def test_instance_spec_parsing_errors():
    assert run(["solve", "--alg", "greedy", "--constraint", "uniform:2",
                "--instance", "synth:kind=modular"]) == 2  # missing n, seed
    assert run(["solve", "--alg", "greedy", "--constraint", "uniform:2",
                "--instance", "synth:kind=unknown,n=5,seed=1"]) == 2


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
