import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_contract
from sphervar import cli
from sphervar.cli import ParseError, main, parse_input

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "sphervar.cli", *args],
        capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


def machine_payload(proc):
    return json.loads(proc.stdout)["payload"]


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MINIMAL = {
    "schema": 1,
    "group": {"factors": [["A", 1]], "central_rank": 0},
    "weights": {"alpha": [2]},
    "monoid_generators": ["alpha"],
    "spherical_roots": ["alpha"],
}


# -- parsing -------------------------------------------------------------------

def test_parse_minimal():
    doc = parse_input(json.dumps(MINIMAL))
    assert len(doc.monoid.generators) == 1
    assert len(doc.psi.roots) == 1


def test_parse_degenerate_group():
    doc = parse_input(json.dumps({
        "schema": 1,
        "group": {"factors": [], "central_rank": 0},
        "monoid_generators": [],
    }))
    assert doc.monoid.lattice.rank == 0


def test_parse_unknown_type():
    bad = dict(MINIMAL, group={"factors": [["X", 2]], "central_rank": 0})
    with pytest.raises(ParseError):
        parse_input(json.dumps(bad))


def test_parse_wrong_length():
    bad = dict(MINIMAL, weights={"alpha": [2, 0]})
    with pytest.raises(ParseError) as err:
        parse_input(json.dumps(bad))
    assert "alpha" in str(err.value)


def test_parse_non_integer():
    bad = dict(MINIMAL, weights={"alpha": [2.5]})
    with pytest.raises(ParseError):
        parse_input(json.dumps(bad))


def test_parse_unknown_name():
    bad = dict(MINIMAL, monoid_generators=["beta"])
    with pytest.raises(ParseError):
        parse_input(json.dumps(bad))


def test_parse_bad_schema():
    bad = dict(MINIMAL, schema=2)
    with pytest.raises(ParseError):
        parse_input(json.dumps(bad))


def test_parse_duplicate_weight_name():
    text = ('{"schema": 1, "group": {"factors": [["A", 1]], "central_rank": 0},'
            ' "weights": {"alpha": [2], "alpha": [4]},'
            ' "monoid_generators": ["alpha"]}')
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert "duplicate" in str(err.value)


MALFORMED = {
    "weights list": {"weights": []},
    "weights null": {"weights": None},
    "generators number": {"monoid_generators": 7},
    "roots number": {"spherical_roots": 5},
    "group number": {"group": 5},
    "rank float": {"group": {"factors": [["A", 1.9]]}},
    "rank bool": {"group": {"factors": [["A", True]]}},
    "rank string": {"group": {"factors": [["A", "1"]]}},
    "central rank float": {"group": {"factors": [["A", 1]], "central_rank": 0.5}},
    "central rank bool": {"group": {"factors": [["A", 1]], "central_rank": False}},
    "central rank string": {"group": {"factors": [["A", 1]], "central_rank": "0"}},
    "rank past the limit": {"group": {"factors": [["A", 100000]]}},
    "central rank past the limit": {"group": {"factors": [], "central_rank": 100000}},
}


@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED)
def test_malformed_fields_are_parse_errors(tmp_path, capsys, fields):
    # each used to end in a traceback (exit 1) or to be truncated:
    # ["A", 1.9] read as A1, and a central rank of 0.5 as 0
    doc = {**MINIMAL, "weights": {}, "monoid_generators": [[2]],
           "spherical_roots": [[2]], **fields}
    with pytest.raises(ParseError):
        parse_input(json.dumps(doc))
    path = write_doc(tmp_path, "malformed.json", doc)
    assert main(["recover", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# -- command behavior -----------------------------------------------------------

def test_recover_so3_x1_table():
    proc = run_cli(["recover", "--input", str(DATA / "so3_x1.json"),
                    "--format", "machine"])
    payload = machine_payload(proc)
    assert len(payload["divisors"]) == 2
    for d in payload["divisors"]:
        assert d["phi"] == [1]
        assert d["stabilizer"] == "B"


def test_recover_so3_x0_table():
    proc = run_cli(["recover", "--input", str(DATA / "so3_x0.json"),
                    "--format", "machine"])
    payload = machine_payload(proc)
    assert len(payload["divisors"]) == 1
    assert payload["divisors"][0]["phi"] == [2]


def test_recover_torus_stable():
    proc = run_cli(["recover", "--input", str(DATA / "torus2.json"),
                    "--format", "machine"])
    payload = machine_payload(proc)
    assert [d["stabilizer"] for d in payload["divisors"]] == ["G", "G"]


def test_compare_so3_pair():
    proc = run_cli(["compare", "--input", str(DATA / "so3_x0.json"),
                    "--input", str(DATA / "so3_x1.json"), "--format", "machine"])
    payload = machine_payload(proc)
    assert payload["xplus_equivalent"] is True
    assert payload["xpluspsi_equivalent"] is False


def test_compare_self():
    proc = run_cli(["compare", "--input", str(DATA / "so3_x1.json"),
                    "--input", str(DATA / "so3_x1.json"), "--format", "machine"])
    payload = machine_payload(proc)
    assert payload["xpluspsi_equivalent"] is True
    assert payload["recovered_data_identical"] is True


def test_compare_different_generator_lists(tmp_path):
    doc_a = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 1},
        "monoid_generators": [[2], [3]],
    }
    doc_b = dict(doc_a, monoid_generators=[[2], [3], [5]])
    pa = write_doc(tmp_path, "a.json", doc_a)
    pb = write_doc(tmp_path, "b.json", doc_b)
    proc = run_cli(["compare", "--input", pa, "--input", pb,
                    "--format", "machine"])
    assert machine_payload(proc)["monoid_equal"] is True


def test_compare_spec_mismatch_exit_2(tmp_path):
    doc_b = dict(MINIMAL, group={"factors": [["A", 2]], "central_rank": 0},
                 weights={"alpha": [1, 1]})
    pb = write_doc(tmp_path, "b.json", doc_b)
    proc = run_cli(["compare", "--input", str(DATA / "so3_x1.json"),
                    "--input", pb], check=False)
    assert proc.returncode == 2


def test_validate_round_trip(tmp_path):
    for name in ("so3_x0.json", "so3_x1.json", "torus2.json",
                 "g2_hidden.json", "sl2_torus_twisted.json"):
        proc = run_cli(["recover", "--input", str(DATA / name),
                        "--format", "machine"])
        doc = machine_payload(proc)["document"]
        path = write_doc(tmp_path, "rt_" + name, doc)
        proc2 = run_cli(["validate", "--input", path, "--format", "machine"])
        assert machine_payload(proc2)["passed"] is True


def test_validate_tampered_phi_exits_1(tmp_path):
    proc = run_cli(["recover", "--input", str(DATA / "so3_x1.json"),
                    "--format", "machine"])
    doc = machine_payload(proc)["document"]
    doc["divisors"][0]["phi"] = [2]
    path = write_doc(tmp_path, "bad.json", doc)
    proc2 = run_cli(["validate", "--input", path, "--format", "machine"],
                    check=False)
    assert proc2.returncode == 1
    payload = machine_payload(proc2)
    assert payload["passed"] is False
    codes = {v["code"] for v in payload["violations"]}
    assert codes & {"b_pair_pairing", "b_pair_sum"}


def test_validate_g2_triple_informational(tmp_path):
    proc = run_cli(["recover", "--input", str(DATA / "g2_hidden.json"),
                    "--format", "machine"])
    doc = machine_payload(proc)["document"]
    path = write_doc(tmp_path, "g2rt.json", doc)
    proc2 = run_cli(["validate", "--input", path, "--format", "machine"])
    payload = machine_payload(proc2)
    assert payload["exceptional_triple"] == {"description": "G2", "family": 2}


def test_polytope_torus():
    proc = run_cli(["polytope", "--input", str(DATA / "torus2.json"),
                    "--format", "machine"])
    payload = machine_payload(proc)
    assert payload["vertices"] == [[-1, -1]]
    assert payload["bounded"] is False


def test_parse_error_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    proc = run_cli(["recover", "--input", str(path)], check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("text", [b"\xff{}", "[" * 100000])
def test_undecodable_or_too_deep_document_exit_2(tmp_path, capsys, text):
    with pytest.raises(ParseError):
        parse_input(text)
    path = tmp_path / "bad.json"
    if isinstance(text, str):
        text = text.encode()
    path.write_bytes(text)
    assert main(["recover", "--input", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/0"], ids=str)
def test_divisor_values_must_be_integers_or_fraction_strings(
        tmp_path, capsys, value):
    # a JSON float holds a binary approximation: 0.1 would be read as
    # 3602879701896397/36028797018963968
    doc = dict(MINIMAL, divisors=[{"id": "D1", "phi": [value]}])
    path = write_doc(tmp_path, "float.json", doc)
    assert main(["validate", "--input", path, "--format", "machine"]) == 2
    assert "divisors[0].phi: bad rational" in capsys.readouterr().err


@pytest.mark.parametrize("dropped", [5, [True]], ids=str)
def test_dropped_simple_roots_must_be_a_list_of_indices(
        tmp_path, capsys, dropped):
    doc = dict(MINIMAL, divisors=[{"id": "D1", "phi": [1],
                                   "dropped_simple_roots": dropped}])
    path = write_doc(tmp_path, "dropped.json", doc)
    assert main(["validate", "--input", path, "--format", "machine"]) == 2
    assert "divisors[0]" in capsys.readouterr().err


def test_parses_of_one_group_share_their_root_data(capsys):
    # the root data depend on the group alone, so they are built once
    path = str(DATA / "g2_hidden.json")
    text = Path(path).read_bytes()
    first, second = parse_input(text), parse_input(text)
    assert first.rd is second.rd
    outputs = []
    for _ in range(2):
        assert main(["recover", "--input", path, "--format", "machine"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_lets_unexpected_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("internal")

    monkeypatch.setattr(cli.json, "loads", broken)
    with pytest.raises(ZeroDivisionError):
        parse_input(json.dumps(MINIMAL))


def test_bench_tracer_finds_every_traced_name():
    """The benchmark tracer wraps each traced function in the module that
    looks it up; a name that leaves its module stops `--trace 1` runs."""
    code = ('import sys; sys.path[:0] = ["bench", "src"]; '
            'import sphervar.cli, tracing; tracing.Tracer().install()')
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_file_exit_2():
    proc = run_cli(["recover", "--input", "/nonexistent.json"], check=False)
    assert proc.returncode == 2


def test_closed_stdout_exits_141_without_traceback():
    """A reader that closes the pipe before the output is written, as
    `| head -1` does: a distinct exit code and an empty stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sphervar.cli", "recover", "--verbose",
             "--input", str(DATA / "so3_x1.json")],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_validate_without_divisor_block_exit_2():
    proc = run_cli(["validate", "--input", str(DATA / "so3_x1.json")],
                   check=False)
    assert proc.returncode == 2


def test_invalid_datum_keeps_machine_report(tmp_path):
    # an unsaturated monoid makes the recovery walk fail: the class monoid
    # <2, 3> at the facet through the origin has no single generator; the
    # error is still reported as a machine block
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 1},
        "monoid_generators": [[2], [3]],
    }
    path = write_doc(tmp_path, "unsat.json", doc)
    proc = run_cli(["recover", "--input", path], check=False)
    assert proc.returncode == 1
    message = ("invalid datum: invalid monoid: localized class monoid has "
               "no single generator")
    assert proc.stderr == f"error: {message}\n"
    block = json.loads(proc.stdout)
    assert block["payload"]["error"] == message


def test_compare_a_thousand_generators_with_itself(tmp_path):
    # the membership search descends once per free generator; no
    # recursion limit ends it.  The cone has 4 faces, so the recovery
    # walk takes it too
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 2},
        "monoid_generators": [[k, 1] for k in range(1000)],
    }
    path = write_doc(tmp_path, "fan.json", doc)
    proc = run_cli(["compare", "--input", path, "--input", path,
                    "--format", "machine"])
    payload = machine_payload(proc)
    assert payload["monoid_equal"] is True
    assert payload["recovered_data_identical"] is True
    assert json.loads(proc.stdout)["warnings"] == []


def test_cli_contract_on_the_data_documents(capsys):
    # exit codes and stdout digests as committed in tests/cli_contract.json;
    # the parser is built once per process, and failed calls between two
    # runs of the contract leave no trace in the second
    expected = json.loads(cli_contract.TABLE.read_text())
    assert cli_contract.contract() == expected
    with pytest.raises(SystemExit) as exit_:
        main(["recover"])
    assert exit_.value.code == 2
    assert main(["compare", "--input", str(DATA / "torus2.json")]) == 2
    assert "compare takes 2 input document(s), got 1" in capsys.readouterr().err
    assert cli_contract.contract() == expected


def test_the_module_entry_point_matches_the_contract():
    # `python -m sphervar.cli` parses the real argv with the parser built
    # at import: one document per contract command
    expected = json.loads(cli_contract.TABLE.read_text())
    documents = sorted(DATA.glob("*.json"))
    for (command, argv), path in zip(cli_contract.COMMANDS.items(),
                                     documents):
        name, *flags = argv
        inputs = ["--input", str(path)] * (2 if name == "compare" else 1)
        proc = run_cli([name, *inputs, "--format", "machine", *flags],
                       check=False)
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        key = f"{path.relative_to(ROOT)} {command}"
        assert [proc.returncode, digest] == expected[key], key
    proc = run_cli(["recover"], check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: sphervar ")
    assert "sphervar: error: the following arguments are required: --input" \
        in proc.stderr


def test_byte_identical_output():
    outs = set()
    for _ in range(3):
        proc = run_cli(["recover", "--input", str(DATA / "g2_hidden.json"),
                        "--format", "machine"])
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_verbose_trace():
    proc = run_cli(["recover", "--input", str(DATA / "so3_x1.json"),
                    "--format", "machine", "--verbose"])
    payload = machine_payload(proc)
    assert "trace" in payload
    assert any(n["case"] == "2" for n in payload["trace"])
    assert payload["trace_skipped"].startswith("not walked: ")


def test_pretty_table_and_trace():
    proc = run_cli(["recover", "--input", str(DATA / "sl2_torus_case3.json"),
                    "--verbose"])
    out = proc.stdout
    assert "divisors:" in out
    assert "case_3" in out
    assert "node {1,2}: case 1a" in out
    assert "faces not walked: " in out
    assert "warning: case-2 sign hypothesis failed" in out


def test_polytope_missing_order_exit_2(tmp_path):
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 2},
        "monoid_generators": [[1, 0], [0, 1]],
        "orders": {"D1": 0},
    }
    path = write_doc(tmp_path, "orders.json", doc)
    proc = run_cli(["polytope", "--input", path], check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("orders", [True, False, {"D1": True, "D2": 0}])
def test_polytope_boolean_orders_exit_2(tmp_path, capsys, orders):
    # Python counts a JSON boolean as an int, but it is no order
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 2},
        "monoid_generators": [[1, 0], [0, 1]],
        "orders": orders,
    }
    path = write_doc(tmp_path, "orders.json", doc)
    assert main(["polytope", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: orders")
    doc["orders"] = 1
    path = write_doc(tmp_path, "orders.json", doc)
    assert main(["polytope", "--input", path, "--format", "machine"]) == 0
    halfspaces = json.loads(capsys.readouterr().out)["payload"]["halfspaces"]
    assert [h["min_value"] for h in halfspaces] == [-1, -1]


def test_validate_case3_roundtrip(tmp_path):
    proc = run_cli(["recover", "--input", str(DATA / "sl2_torus_case3.json"),
                    "--format", "machine"])
    doc = machine_payload(proc)["document"]
    path = write_doc(tmp_path, "case3.json", doc)
    proc2 = run_cli(["validate", "--input", path, "--format", "machine"])
    assert machine_payload(proc2)["passed"] is True


def test_main_entry_direct(capsys):
    rc = main(["recover", "--input", str(DATA / "so3_x0.json"),
               "--format", "machine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "recover"


def test_recover_passes_on_a_skipped_saturation_check(tmp_path):
    # a central torus of rank 7 is past the saturation rank limit, so the
    # recovery identity goes unchecked; recover and polytope say so, as
    # validate of the recovered document does
    warning = "saturation not checked (lattice too large)"
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 7},
        "monoid_generators": [[int(i == j) for j in range(7)]
                              for i in range(7)],
    }
    path = write_doc(tmp_path, "torus7.json", doc)
    for command in ("recover", "polytope"):
        proc = run_cli([command, "--input", path, "--format", "machine"])
        assert json.loads(proc.stdout)["warnings"] == [warning]
    proc = run_cli(["recover", "--input", path])
    assert f"warning: {warning}" in proc.stdout.splitlines()
    recovered = write_doc(tmp_path, "recovered.json",
                          machine_payload(run_cli(
                              ["recover", "--input", path,
                               "--format", "machine"]))["document"])
    proc = run_cli(["validate", "--input", recovered, "--format", "machine"])
    assert json.loads(proc.stdout)["warnings"] == [warning]
