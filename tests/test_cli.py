import hashlib
import json
import shutil
from pathlib import Path

import pytest

from iwt.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "e37a_p3.json"

# sha256 of the level-4 fixture reports, by tame index and command
GOLDEN = {
    0: {"decompose": "a8ebb26f0469f59b536e6f1e1806df50e8ab0e5f5b7bce5c5f711bfba1c6dc38",
        "invariants": "0408135218606b4de1e90210b1eb5250b2d8d13ec06f9df7149e704aeb5516b6",
        "verify": "d1c5126b024e361177dd29dbb18622d9f6c132ae0d57e5d7dcb68c1049e592cc"},
    1: {"decompose": "f36397372832e7328765bb3002bbea5185f9cfd5e22bc3a14565cfa1c3bc4c69",
        "invariants": "216277d7c5a0acc3cc1e2bbbe20a23727d2b646533ed5180b97f1271a2053706",
        "verify": "9178d1ade5562866778d282c1a25397fe89a5ae9a6905e84cc2381612af3c338"},
}

# sha256 of the verify.json written by `verify <argv> --out DIR`
VERIFY_GOLDEN = {
    ("--synthetic-seed", 9, "--p", 3, "--ap", -3, "--level", 3):
        "4cad5a27adcaeefea536d4034b4cdcdf7396cc701b8f7e52ce5213f7b18fefd6",
    ("--synthetic-seed", 9, "--p", 7, "--ap", 0, "--hatted", "--level", 3):
        "def5f0f465aad15136e549335ce0882a7809cf49320f8f5c7b34297ce9806d04",
    ("--synthetic-seed", 9, "--p", 2, "--ap", 2, "--level", 3):
        "b1bdca52b6137a78b21be900d9221171c32f1d94cdd47881fb81a26419739a64",
    ("--input", FIXTURE, "--tame", 1, "--hatted", "--level", 4):
        "973482ba8ce846c4644f58d31d97ae04108af3cb2bb425546a694f8df25731ac",
}


def run(argv):
    return main([str(a) for a in argv])


def test_decompose_invariants_rank_bound_chain(tmp_path):
    out = tmp_path / "run"
    assert run(["decompose", "--input", FIXTURE, "--level", 3, "--tame", 0,
                "--out", out]) == 0
    dec = json.loads((out / "decompose.json").read_text())
    assert [lvl["n"] for lvl in dec["levels"]] == [1, 2, 3]
    assert dec["provenance"]["version"]

    assert run(["invariants", "--input", FIXTURE, "--level", 3, "--tame", 0,
                "--out", out]) == 0
    inv = json.loads((out / "invariants.json").read_text())
    assert (inv["mu_sharp"], inv["lambda_sharp"]) == ("0", 1)
    assert (inv["mu_flat"], inv["lambda_flat"]) == ("0", 5)
    assert inv["stable"] is True and inv["v"] == "1"

    assert run(["rank-bound", "--invariants", out / "invariants.json",
                "--out", out]) == 0
    rb = json.loads((out / "rank_bound.json").read_text())
    assert rb["bound"] == 7 and rb["case"] == "balanced"


def test_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["decompose", "--input", FIXTURE, "--level", 2, "--tame", 1,
                    "--out", out]) == 0
    assert (a / "decompose.json").read_bytes() == (b / "decompose.json").read_bytes()


@pytest.mark.parametrize("tame", sorted(GOLDEN))
def test_fixture_reports_match_golden_digests(tmp_path, tame):
    for command, digest in GOLDEN[tame].items():
        assert run([command, "--input", FIXTURE, "--level", 4, "--tame", tame,
                    "--out", tmp_path]) == 0
        report = (tmp_path / f"{command}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest, command


@pytest.mark.parametrize("argv", list(VERIFY_GOLDEN))
def test_verify_reports_match_golden_digests(tmp_path, argv):
    assert run(["verify", *argv, "--out", tmp_path]) == 0
    report = (tmp_path / "verify.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == VERIFY_GOLDEN[argv]


def test_flag_contradiction_is_rejected(tmp_path):
    assert run(["decompose", "--input", FIXTURE, "--level", 2, "--tame", 0,
                "--ap", 5, "--out", tmp_path]) == 1


def test_precision_floor_enforced(tmp_path):
    assert run(["decompose", "--input", FIXTURE, "--level", 3, "--tame", 0,
                "--precision", 4, "--out", tmp_path]) == 1


def test_corrupted_table_names_the_peel_index(tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    for entry in doc["symbols"]:
        # keep the +- symmetry so ingestion passes: bump a mirrored pair
        if entry["N"] == 4 and entry["a"] in (1, 80):
            entry["plus"] = "99/1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["decompose", "--input", bad, "--level", 3, "--tame", 0,
                "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    report = json.loads(err.strip().splitlines()[-1])
    assert report["error"] == "NotDivisible"
    assert "peel index" in report["message"]


def test_verify_fixture_and_synthetic(tmp_path, capsys):
    assert run(["verify", "--input", FIXTURE, "--level", 3, "--tame", 0,
                "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    names = {c["check"] for c in payload["checks"]}
    assert {"three-term relation", "round trip", "determinant identity",
            "functional equation", "special value at T=0"} <= names
    assert run(["verify", "--synthetic-seed", 9, "--p", 3, "--ap", -3,
                "--eps", 1, "--level", 3]) == 0


def test_sha_growth_and_modesty_map(tmp_path):
    records = [{"kind": "elliptic", "r_infinity": 7, "mu_sharp": "0",
                "mu_flat": "0", "lambda_sharp": 1, "lambda_flat": 5,
                "v": "1", "label": "37a"}]
    rec_path = tmp_path / "records.json"
    rec_path.write_text(json.dumps(records))
    assert run(["sha-growth", "--records", rec_path, "--p", 3,
                "--n-from", 2, "--n-to", 6, "--out", tmp_path]) == 0
    growth = json.loads((tmp_path / "sha_growth.json").read_text())
    assert growth["increments"] == {"2": "0", "3": "0", "4": "18",
                                    "5": "54", "6": "180"}

    assert run(["modesty-map", "--p", 3, "--v-values", "1/6,1/18,inf,0",
                "--mu-gaps", "0", "--out", tmp_path]) == 0
    lines = (tmp_path / "modesty_map.csv").read_text().strip().splitlines()
    assert lines[0] == "v,mu_gap,n_parity,star"
    assert len(lines) == 1 + 4 * 2


@pytest.mark.parametrize("flag, value", [("--mu-gaps", "abc"), ("--mu-gaps", "0,1e-1"),
                                         ("--v-values", "0.5"), ("--v-values", "1/6,1_0")])
def test_modesty_map_reads_strict_rationals(tmp_path, capsys, flag, value):
    argv = {"--v-values": "1/6", "--mu-gaps": "0", flag: value}
    assert run(["modesty-map", "--p", 3, *(x for item in argv.items() for x in item),
                "--out", tmp_path]) == 1
    report = last_error(capsys)
    assert report["error"] == "SchemaError" and repr(flag) in report["message"]


def test_modesty_map_lists_allow_spaces_around_values(tmp_path):
    assert run(["modesty-map", "--p", 3, "--v-values", "1/6, 1/18,inf,0",
                "--mu-gaps", "0, -1/2", "--out", tmp_path]) == 0
    lines = (tmp_path / "modesty_map.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 2 * 2
    assert {line.split(",")[1] for line in lines[1:]} == {"0", "-1/2"}


def test_selfcheck_passes():
    assert run(["selfcheck"]) == 0


@pytest.mark.parametrize("field, value", [("p", "3"), ("maxN", "five"),
                                          ("conductor", None), ("maxN", 5.0)])
def test_mistyped_table_field_fails_with_a_schema_error(tmp_path, capsys, field, value):
    doc = json.loads(FIXTURE.read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["invariants", "--input", bad, "--level", 2, "--out", tmp_path]) == 1
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "SchemaError"
    assert repr(field) in report["message"]
    assert (report["module"], report["operation"]) == ("sharp_flat", "invariants")


def test_mistyped_symbol_entry_fails_with_a_schema_error(tmp_path, capsys):
    doc = json.loads(FIXTURE.read_text())
    doc["symbols"][5]["a"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["invariants", "--input", bad, "--level", 2, "--out", tmp_path]) == 1
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "SchemaError" and "'a'" in report["message"]


def test_reused_parser_keeps_no_state_between_calls(tmp_path):
    # the six golden reports, twice in one process, the second pass reversed:
    # each --tame 1 run is followed by runs that must fall back to --tame 0
    runs = [(tame, command) for tame in sorted(GOLDEN) for command in GOLDEN[tame]]
    for tame, command in runs + runs[::-1]:
        argv = [command, "--input", FIXTURE, "--level", 4, "--out", tmp_path]
        assert run(argv + (["--tame", tame] if tame else [])) == 0
        report = (tmp_path / f"{command}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == GOLDEN[tame][command], (tame, command)


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def without_provenance(path):
    report = json.loads(path.read_text())
    del report["provenance"]
    return report


@pytest.mark.parametrize("command", ["decompose", "invariants"])
def test_table_commands_default_to_the_top_level(tmp_path, command):
    # the fixture has maxN 5, so the top level at p = 3 is 4
    default, four = tmp_path / "default", tmp_path / "four"
    assert run([command, "--input", FIXTURE, "--out", default]) == 0
    assert run([command, "--input", FIXTURE, "--level", 4, "--out", four]) == 0
    name = f"{command}.json"
    assert without_provenance(default / name) == without_provenance(four / name)


@pytest.mark.parametrize("command", ["decompose", "invariants", "verify"])
def test_level_below_one_is_out_of_range(tmp_path, capsys, command):
    assert run([command, "--input", FIXTURE, "--level", 0, "--out", tmp_path]) == 1
    report = last_error(capsys)
    assert report["error"] == "OutOfRange" and "level" in report["message"]


def test_synthetic_verify_level_below_one_is_out_of_range(tmp_path, capsys):
    assert run(["verify", "--synthetic-seed", 9, "--p", 3, "--ap", -3,
                "--level", 0]) == 1
    report = last_error(capsys)
    assert report["error"] == "OutOfRange" and "level" in report["message"]
    assert run(["verify", "--synthetic-seed", 9, "--p", 3, "--ap", -3]) == 0


def test_synthetic_verify_eps_zero_is_not_a_unit(tmp_path, capsys):
    # eps 0 is a value, not "unset": it must reach FormParams and fail there
    assert run(["verify", "--synthetic-seed", 9, "--p", 3, "--ap", -3,
                "--eps", 0, "--level", 2]) == 1
    report = last_error(capsys)
    assert report["error"] == "NotAUnit" and "eps_p=0" in report["message"]


RANK_INPUT = {"p": 3, "mu_sharp": "0", "mu_flat": "0", "lambda_sharp": 1,
              "lambda_flat": 5, "v": "1"}


@pytest.mark.parametrize("doc, field", [
    ({"p": 3}, "mu_sharp"),
    (dict(RANK_INPUT, p="three"), "p"),
    (dict(RANK_INPUT, mu_flat="1/"), "mu_flat"),
    (dict(RANK_INPUT, lambda_sharp=None), "lambda_sharp"),
    (dict(RANK_INPUT, v="abc"), "v"),
    (dict(RANK_INPUT, lambda_sharp=1.7, lambda_flat=True), "lambda_sharp"),
    (dict(RANK_INPUT, lambda_flat=True), "lambda_flat"),
    (dict(RANK_INPUT, p=3.0), "p"),
    (dict(RANK_INPUT, v="1_0"), "v"),
    (dict(RANK_INPUT, v="0.5"), "v"),
])
def test_malformed_invariants_file_is_a_schema_error(tmp_path, capsys, doc, field):
    path = tmp_path / "invariants.json"
    path.write_text(json.dumps(doc))
    assert run(["rank-bound", "--invariants", path, "--out", tmp_path]) == 1
    report = last_error(capsys)
    assert report["error"] == "SchemaError" and repr(field) in report["message"]


def test_wellformed_invariants_file_parses_as_before(tmp_path):
    path = tmp_path / "invariants.json"
    path.write_text(json.dumps(dict(RANK_INPUT, extra="ignored")))
    assert run(["rank-bound", "--invariants", path, "--out", tmp_path]) == 0
    rb = json.loads((tmp_path / "rank_bound.json").read_text())
    assert (rb["p"], rb["bound"], rb["case"]) == (3, 7, "balanced")


RECORD = {"kind": "elliptic", "r_infinity": 7, "mu_sharp": "0", "mu_flat": "0",
          "lambda_sharp": 1, "lambda_flat": 5, "v": "1", "label": "37a"}


@pytest.mark.parametrize("records, field", [
    (RECORD, None),
    ([{k: v for k, v in RECORD.items() if k != "r_infinity"}], "r_infinity"),
    ([dict(RECORD, kind="modular")], "kind"),
    ([dict(RECORD, lam="x")], "lam"),
    ([dict(RECORD, mu_sharp="1_0")], "mu_sharp"),
    ([dict(RECORD, v2="1/0")], "v2"),
    ([{"kind": "form", "r_infinity": 0, "v": "1"}], "mu_sharp"),
    ([{k: v for k, v in RECORD.items() if k != "v"}], "v"),
    ([{k: v for k, v in RECORD.items() if k != "lambda_flat"}], "lambda_flat"),
    ([{"kind": "ordinary", "r_infinity": 0, "mu": "0"}], "lam"),
    ([{"kind": "ordinary", "r_infinity": 0, "lam": 1}], "mu"),
    ([dict(RECORD, v2="1e-1")], "v2"),
])
def test_malformed_records_file_is_a_schema_error(tmp_path, capsys, records, field):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    assert run(["sha-growth", "--records", path, "--p", 3, "--n-from", 2,
                "--n-to", 6, "--out", tmp_path]) == 1
    report = last_error(capsys)
    assert report["error"] == "SchemaError"
    assert field is None or repr(field) in report["message"]


def test_incomplete_record_error_names_the_record(tmp_path, capsys):
    form = {"kind": "form", "r_infinity": 0, "mu_sharp": "0", "mu_flat": "0",
            "lambda_sharp": 1, "lambda_flat": 1, "v": "inf"}
    path = tmp_path / "records.json"
    for records, where in [([RECORD, dict(form, label="f1")], "record f1"),
                           ([RECORD, {k: v for k, v in form.items() if k != "v"}],
                            "record 1")]:
        records[1].pop("mu_flat")
        path.write_text(json.dumps(records))
        assert run(["sha-growth", "--records", path, "--p", 3, "--n-from", 2,
                    "--n-to", 6, "--out", tmp_path]) == 1
        message = last_error(capsys)["message"]
        assert where in message and "'mu_flat'" in message
