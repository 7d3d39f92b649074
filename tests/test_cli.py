"""End-to-end CLI behaviour: exit codes, report files, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import submax.cli as cli
from submax import NonNegativityError
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


@pytest.mark.parametrize("alg", ["greedy", "lazy-greedy"])
def test_solve_rejects_nan_modular_weights(tmp_path, capsys, alg):
    weights = tmp_path / "nan.csv"
    weights.write_text("element_id,weight\n0,nan\n1,1\n2,2\n")
    assert run(["solve", "--alg", alg, "--instance", str(weights),
                "--constraint", "uniform:2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "finite" in out.err


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
    cli._similarity_cache.cache_clear()
    cli._objective_cache.cache_clear()
    assert run(["bench", "--similarity", SIM, "--genres", GENRES,
                "--constraint", "genre:m=5,mg=1,g=action+drama",
                "--alg", "greedy,lazy-greedy", "--sweep", "mg=1:3",
                "--out", str(tmp_path / "once")]) == 0
    assert calls == [SIM]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_shipped_similarity(capsys):
    assert run(["verify", "--similarity", SIM, "--constraint", "uniform:3",
                "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "submodular" in out and "PASS" in out and "FAIL" not in out


def test_verify_hard_instance(capsys):
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out and "gadget-increments" in out


def test_verify_catches_wrong_declared_k(capsys):
    assert run(["verify", "--constraint", "hard:k=2,h=8,m=2,mode=M",
                "--k", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_needs_something():
    assert run(["verify"]) == 2


def test_verify_synthetic_objective(capsys):
    assert run(["verify", "--instance", "synth:kind=cut,n=8,seed=5"]) == 0
    out = capsys.readouterr().out
    assert "monotone" in out  # cut declares nothing -> observed INFO line
    assert "INFO" in out


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


def test_instance_spec_parsing_errors():
    assert run(["solve", "--alg", "greedy", "--constraint", "uniform:2",
                "--instance", "synth:kind=modular"]) == 2  # missing n, seed
    assert run(["solve", "--alg", "greedy", "--constraint", "uniform:2",
                "--instance", "synth:kind=unknown,n=5,seed=1"]) == 2


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
