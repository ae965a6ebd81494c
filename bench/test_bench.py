"""Fast self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import (check_e37a, check_job, check_mu_lambda, load,  # noqa: E402
                    mu_lambda)
from gen_table import check_relations, generate_table  # noqa: E402
from iwt.cli import main as iwt_main  # noqa: E402
from iwt.mazur_tate import (ingest_modular_symbols, theta_sequence,  # noqa: E402
                            validate_queue)
from run import (END_TO_END, layer_metrics, per_layer_units, spawn,  # noqa: E402
                 trace_problems)
from workloads import SYNTH  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "e37a_p3.json"


def cli(*argv):
    return iwt_main([str(a) for a in argv])


@pytest.mark.parametrize("p,ap,max_n", [(2, 0, 5), (2, 1, 5), (3, -3, 4),
                                        (3, 1, 4), (5, 0, 3), (7, 4, 3)])
def test_generated_tables_ingest_and_satisfy_the_queue(p, ap, max_n):
    doc = generate_table(7, p, ap, 1, max_n)
    checked, failed = check_relations(doc)
    assert checked > 0 and failed == 0
    table = ingest_modular_symbols(doc)
    level = max_n - (1 if p != 2 else 2)
    for tame in range(2 if p == 2 else p - 1):
        assert validate_queue(theta_sequence(table, level, tame, level + 8)).valid


def test_generator_is_seeded():
    assert generate_table(1, 3, 1, 1, 4) == generate_table(1, 3, 1, 1, 4)
    assert generate_table(1, 3, 1, 1, 4) != generate_table(2, 3, 1, 1, 4)


def test_relation_checker_accepts_37a_and_catches_a_broken_symbol():
    doc = load(FIXTURE)
    assert check_relations(doc) == (156, 0)
    doc["symbols"][-1]["plus"] = "12345"
    assert check_relations(doc)[1] > 0


def test_mu_lambda_recomputation_agrees_on_37a(tmp_path):
    for tame in (0, 1):
        out = tmp_path / f"t{tame}"
        argv = ["--input", FIXTURE, "--level", 4, "--tame", tame, "--out", out]
        assert cli("decompose", *argv) == 0
        assert cli("invariants", *argv) == 0
        dec, inv = load(out / "decompose.json"), load(out / "invariants.json")
        assert check_mu_lambda(dec, inv) == []
        if tame == 0:
            assert cli("rank-bound", "--invariants", out / "invariants.json",
                       "--out", out) == 0
            assert check_e37a(inv, load(out / "rank_bound.json")) == []
    inv["per_level"][-1]["flat"]["lambda"] += 1
    inv["lambda_flat"] += 1
    assert check_mu_lambda(dec, inv) != []


def test_mu_lambda_of_a_coefficient_vector():
    assert mu_lambda(["9", "3", "6", "1"], 3, 4) == (0, 3)
    assert mu_lambda(["0", "9", "3"], 3, 4) == (1, 2)
    assert mu_lambda(["81", "0"], 3, 4) is None


def test_job_failures_are_counted():
    ok = {"rc": 0, "fail_lines": 0, "error": None}
    assert check_job({"name": "x"}, ok) == []
    assert check_job({"name": "x"}, {**ok, "rc": 1}) != []
    assert check_job({"name": "x"}, {**ok, "fail_lines": 1}) != []
    missing = {"name": "verify", "check": "verify", "out": "/nonexistent"}
    assert check_job(missing, ok) != []
    pinned = {"name": "peel", "check": "pinned", "seed": 0}
    assert check_job(pinned, {**ok, "info": {"theta": "0" * 64}}) != []
    vanishing = {"name": "vanishing", "check": "pinned", "seed": 0, "twist": [0, 1]}
    info = load(HERE / "synth_pins.json")["seeds"]["0"]
    assert check_job(vanishing, {**ok, "info": {"orders": info["orders"]}}) == []
    zeros = {m: 0 for m in info["orders"]}
    assert check_job(vanishing, {**ok, "info": {"orders": zeros}}) != []


def test_pins_describe_the_workload_tower():
    pins = load(HERE / "synth_pins.json")
    assert pins["tower"] == SYNTH and len(pins["seeds"]) == 32
    for info in pins["seeds"].values():
        assert all(info["orders"][str(m)] >= 1 for m in SYNTH["twist"])
        assert info["rank_estimate"] > 0


def test_traced_worker_reports_all_of_its_wall_time(tmp_path):
    out = tmp_path / "verify"
    job = {"name": "verify", "kind": "cli",
           "argv": ["verify", "--input", str(FIXTURE), "--level", "3",
                    "--out", str(out)]}
    setup_s, report = spawn([job], trace=True, trace_path=tmp_path / "trace.json")
    assert setup_s > 0 and report["jobs"][0]["rc"] == 0
    summary = report["trace"]
    layers = summary["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["mazur_tate.ingest_modular_symbols"]["calls"] == 1
    # bound with `from .polyops import ...` in iwasawa_algebra
    assert layers["polyops.poly_divmod_monic"]["calls"] > 0
    assert layers["iwasawa_algebra.LambdaElement.from_unit_basis"]["calls"] > 0
    assert summary["counters"]["mazur_tate.ingest_modular_symbols.symbols"] == 242
    assert summary["missing"] == [] and summary["install_problems"] == []
    values = layer_metrics(summary, 1.0)
    assert values["trace.untraced_self_s"] > 0
    assert trace_problems(report, values, 1.0) == []
    # time that no metric reports, e.g. a span of an unlisted name, is a gap
    values["cli.main.self_s"] -= 0.01
    assert trace_problems(report, values, 1.0) != []
    assert report["jobs"][0]["scale"] > 0 and report["setup_scale"] > 0
    spans = load(tmp_path / "trace.json")
    assert len(spans["spans"]) == summary["spans"]


def test_tracer_lists_missing_names_and_refuses_to_wrap_twice():
    # installing patches the package for good, so do it in a fresh process
    script = """
import json, sys
sys.path[:0] = sys.argv[1:]
import iwt.cli, iwt.logmatrix as logmatrix, iwt.polyops as polyops
from tracer import Tracer
del logmatrix.make_matrix
tracer = Tracer()
polyops.poly_mul = tracer.wrap("polyops.poly_mul", "polyops", polyops.poly_mul)
tracer.install()
print(json.dumps([tracer.missing, tracer.install_problems]))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    missing, problems = json.loads(proc.stdout)
    assert missing == ["logmatrix.make_matrix"]
    assert problems == ["polyops.poly_mul is already traced as polyops.poly_mul"]


def test_benchmark_json_lists_the_reported_metrics():
    doc = load(ROOT / "BENCHMARK.json")
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "curve-sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
