import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_contract
from builders import group_case_document, sl_so_document
from corpus import build_corpus, entry_to_document
from sphervar import cli, spherical
from sphervar.cli import ParseError, main, parse_input
from sphervar.monoid import WeightMonoid

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


@pytest.mark.parametrize("schema", [2, True, 1.0], ids=str)
def test_parse_bad_schema(schema):
    # Python counts True and 1.0 equal to 1, but neither is schema 1
    bad = dict(MINIMAL, schema=schema)
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


def different_generator_lists(tmp_path):
    """Two documents of one monoid, the second listing 2 + 3 too."""
    doc_a = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 1},
        "monoid_generators": [[2], [3]],
    }
    doc_b = dict(doc_a, monoid_generators=[[2], [3], [5]])
    return (write_doc(tmp_path, "a.json", doc_a),
            write_doc(tmp_path, "b.json", doc_b))


def test_compare_different_generator_lists(tmp_path):
    pa, pb = different_generator_lists(tmp_path)
    proc = run_cli(["compare", "--input", pa, "--input", pb,
                    "--format", "machine"])
    assert machine_payload(proc)["monoid_equal"] is True


def test_compare_reads_equal_inputs_once(monkeypatch, tmp_path, capsys):
    # inputs with equal bytes, one path twice or a copy, are parsed once
    # and recovered at most once; distinct inputs are each parsed, and
    # each recovered when the verdict needs the divisor data
    def counted(name):
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    parses, recoveries = counted("parse_input"), counted("recover_divisors")

    def compare(first, second):
        parses.clear()
        recoveries.clear()
        return main(["compare", "--format", "machine",
                     "--input", str(first), "--input", str(second)])

    paths = sorted(DATA.glob("*.json")) + \
        sorted((ROOT / "bench" / "inputs").glob("*/*.json"))
    copy = tmp_path / "copy.json"
    for path in paths:
        copy.write_bytes(path.read_bytes())
        for second in (path, copy):
            code = compare(path, second)
            assert len(parses) == 1, path.name
            assert len(recoveries) == (code == 0), path.name
    # N<2, 3> has no recovery, so the first one fails and ends the check
    pa, pb = different_generator_lists(tmp_path)
    assert compare(pa, pb) == 0
    assert (len(parses), len(recoveries)) == (2, 1)
    capsys.readouterr()
    doc = {"schema": 1, "group": {"factors": [], "central_rank": 1},
           "monoid_generators": [[1]]}
    pa = write_doc(tmp_path, "n.json", doc)
    pb = write_doc(tmp_path, "n_again.json", dict(doc, monoid_generators=[[1], [2]]))
    assert compare(pa, pb) == 0
    assert (len(parses), len(recoveries)) == (2, 2)
    assert json.loads(capsys.readouterr().out)["payload"][
        "recovered_data_identical"] is True


def test_compare_the_empty_monoid_with_the_zero_generator(tmp_path):
    # both monoids are {0}, and the empty one has its units in Z^2 too
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 2},
        "monoid_generators": [],
    }
    pa = write_doc(tmp_path, "empty.json", doc)
    pb = write_doc(tmp_path, "zero.json", dict(doc, monoid_generators=[[0, 0]]))
    for first, second in ((pa, pb), (pb, pa)):
        proc = run_cli(["compare", "--input", first, "--input", second,
                        "--format", "machine"])
        assert machine_payload(proc)["monoid_equal"] is True


def test_elementary_forms_are_computed_once_per_recover(monkeypatch, capsys):
    calls = []
    real = spherical.elementary_forms
    monkeypatch.setattr(spherical, "elementary_forms",
                        lambda psi: calls.append(psi) or real(psi))
    paths = sorted(DATA.glob("*.json")) + \
        sorted((ROOT / "bench" / "inputs").glob("*/*.json"))
    for path in paths:
        calls.clear()
        assert main(["recover", "--format", "machine", "--input", str(path)]) == 0
        assert len(calls) == 1, path.name
    capsys.readouterr()


@pytest.mark.parametrize("command", ["recover", "classify"])
def test_negative_spherical_root_exits_2(tmp_path, command):
    # -alpha1 is no spherical root; both commands used to exit 0 on it
    doc = {"schema": 1, "group": {"factors": [["A", 1]]},
           "monoid_generators": [[2]], "spherical_roots": [[-2]]}
    proc = run_cli([command, "--input", write_doc(tmp_path, "neg.json", doc)],
                   check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "spherical root 1 is not a nonnegative combination of simple " \
        "roots" in proc.stderr


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


def _drop_both_roots_from_d1(divisors):
    divisors[0]["dropped_simple_roots"] = [1, 2]


def _duplicate_d1(divisors):
    divisors.append({**divisors[0], "id": "D9"})


A2 = {"schema": 1, "group": {"factors": [["A", 2]]}}
TAMPERED_VIOLATIONS = {
    # alpha2 is type a; D1 belongs to the type-d root alpha1
    "A2 on omega1, D1 moved by both roots": (
        {**A2, "monoid_generators": [[1, 0]]}, _drop_both_roots_from_d1, [
            ("type_a_moved", "type-a root 2 moves D1"),
            ("d_stabilizer", "type-d divisor at root 1 has moved set [1, 2]"),
            ("sharing", "divisor D1 is moved by an incompatible set of "
                        "roots [1, 2]")]),
    # both roots are type d, with no partner; D1 belongs to alpha2
    "A2 full flag, D1 moved by both roots": (
        {**A2, "monoid_generators": [[1, 0], [0, 1]]},
        _drop_both_roots_from_d1, [
            ("d_count", "type-d root 1 moves 2 divisors, not 1"),
            ("d_stabilizer", "type-d divisor at root 2 has moved set [1, 2]"),
            ("sharing", "divisor D1 is moved by an incompatible set of "
                        "roots [1, 2]")]),
    # 2 alpha is the spherical root, so alpha is type c
    "A1 on 2 alpha, D1 twice": (
        {"schema": 1, "group": {"factors": [["A", 1]]},
         "monoid_generators": [[4]], "spherical_roots": [[4]]},
        _duplicate_d1, [
            ("c_count", "type-c root 1 moves 2 divisors, not 1")]),
}


@pytest.mark.parametrize("doc, tamper, violations",
                         TAMPERED_VIOLATIONS.values(), ids=TAMPERED_VIOLATIONS)
def test_validate_names_the_violated_root_type_check(
        tmp_path, capsys, doc, tamper, violations):
    path = write_doc(tmp_path, "doc.json", doc)
    assert main(["recover", "--input", path, "--format", "machine"]) == 0
    recovered = json.loads(capsys.readouterr().out)["payload"]["document"]
    assert main(["validate", "--input", write_doc(
        tmp_path, "recovered.json", recovered), "--format", "machine"]) == 0
    capsys.readouterr()
    tamper(recovered["divisors"])
    assert main(["validate", "--input", write_doc(
        tmp_path, "tampered.json", recovered), "--format", "machine"]) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["passed"] is False
    assert [(v["code"], v["detail"]) for v in payload["violations"]] == \
        violations


def test_validate_refuses_a_duplicate_divisor_id(tmp_path):
    # two divisors under one id would be one divisor to every check keyed
    # by id, so the block is refused as malformed
    proc = run_cli(["recover", "--input", str(DATA / "so3_x1.json"),
                    "--format", "machine"])
    doc = machine_payload(proc)["document"]
    assert [d["id"] for d in doc["divisors"]] == ["D1", "D2"]
    doc["divisors"][1]["id"] = "D1"
    path = write_doc(tmp_path, "dup.json", doc)
    proc2 = run_cli(["validate", "--input", path], check=False)
    assert proc2.returncode == 2
    assert proc2.stderr == "error: divisors[1]: duplicate divisor id 'D1'\n"


@pytest.mark.parametrize("bad_id", [None, 7, True, ["D2"]])
def test_validate_refuses_a_divisor_id_that_is_not_a_string(
        tmp_path, capsys, bad_id):
    # an id is used as the document gives it, so null may not become the
    # id "None", nor 7 the id "7"
    assert main(["recover", "--input", str(DATA / "so3_x1.json"),
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)["payload"]["document"]
    doc["divisors"][1]["id"] = bad_id
    path = write_doc(tmp_path, "bad_id.json", doc)
    assert main(["validate", "--input", path, "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: divisors[1].id must be a string\n"


def test_classify_and_validate_compute_no_minimal_generators(
        tmp_path, capsys, monkeypatch):
    # the type-a roots are read off the generators, and no check of
    # validate reads the minimal generators
    runs = []
    for e in build_corpus():
        path = write_doc(tmp_path, f"{e.name}.json", entry_to_document(e))
        assert main(["recover", "--input", path, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)["payload"]["document"]
        recovered = write_doc(tmp_path, f"{e.name}-recovered.json", doc)
        runs += [["classify", "--input", path],
                 ["validate", "--input", recovered]]

    def outputs():
        out = []
        for argv in runs:
            for fmt in ("machine", "pretty"):
                code = main([*argv, "--format", fmt])
                out.append((argv, fmt, code, *capsys.readouterr()))
        return out

    expected = outputs()
    assert {code for *_, code, _, _ in expected} == {0}

    def refuse(self):
        raise AssertionError("minimal generators computed")

    monkeypatch.setattr(WeightMonoid, "minimal_generators", property(refuse))
    assert outputs() == expected


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


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/0", "1e100000000",
                                   "0.5", " 1"], ids=str)
def test_divisor_values_must_be_integers_or_fraction_strings(
        tmp_path, capsys, value):
    # a JSON float holds a binary approximation: 0.1 would be read as
    # 3602879701896397/36028797018963968; a string is read only in the
    # form a fraction is written, so an exponent is refused before
    # `Fraction` builds its value
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


def test_digest_is_the_sha256_of_the_input_bytes():
    # hashlib is the independent reference for the interpreter's built-in
    # module that the CLI takes its SHA-256 from
    documents = sorted(DATA.glob("*.json")) + \
        sorted((ROOT / "bench" / "inputs").glob("*/*.json"))
    texts = [path.read_bytes() for path in documents]
    texts.append(json.dumps({**MINIMAL, "note": "sphärisch, 球面"},
                            ensure_ascii=False).encode())
    texts.append(json.dumps(MINIMAL).encode() + b" " * 5000)
    for text in texts:
        expected = hashlib.sha256(text).hexdigest()
        assert parse_input(text).digest == expected
        assert parse_input(text.decode()).digest == expected
    for raw in (b"", "sphärisch, 球面".encode(), bytes(range(256)) * 20):
        assert cli.sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()


def test_a_run_loads_no_openssl():
    """The digest comes from the interpreter's built-in SHA-256, so a
    recover in a fresh interpreter imports no `_hashlib`."""
    for name in ("_sha2", "_sha256"):
        try:
            __import__(name)
            break
        except ImportError:
            pass
    else:
        pytest.skip("this interpreter has no built-in SHA-256 module")
    code = ('import sys; from sphervar import cli; '
            'code = cli.main(["recover", "--format", "machine", '
            '"--input", "data/so3_x1.json"]); '
            'sys.exit(3 if "_hashlib" in sys.modules else code)')
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_canonical_run_builds_no_argument_parser():
    """A canonical argv is read without the argument parser, whose help
    formatter loads `shutil` and through it the compression modules, so
    a recover in a fresh interpreter imports neither `shutil` nor
    `lzma`."""
    code = ('import sys; from sphervar import cli; '
            'code = cli.main(["recover", "--format", "machine", '
            '"--input", "data/so3_x1.json"]); '
            'loaded = [m for m in ("shutil", "lzma") if m in sys.modules]; '
            'sys.exit(code or (f"imported {loaded}" if loaded else 0))')
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_finds_every_traced_name():
    """The benchmark tracer wraps each traced function in the module that
    looks it up; a name that leaves its module, or a cached property it
    does not take for one, stops `--trace 1` runs."""
    code = ('import sys; sys.path[:0] = ["bench", "src"]; '
            'import sphervar.cli, tracing; tracing.Tracer().install(); '
            'sys.exit(sphervar.cli.main(["recover", "--format", "machine", '
            '"--input", "data/g2_hidden.json"]))')
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


def test_an_invalid_datum_is_named_once(tmp_path, capsys):
    # C2 x T: the case-3 divisor at F_alpha escapes its node, and the
    # library's message already names an invalid datum
    doc = {
        "schema": 1,
        "group": {"factors": [["C", 2]], "central_rank": 1},
        "monoid_generators": [[1, 0, 0], [1, 1, 1], [1, 0, 1]],
        "spherical_roots": [[2, -1, 0]],
    }
    path = write_doc(tmp_path, "c2t.json", doc)
    message = "invalid datum: recovered divisor escapes its node"
    for fmt in ("pretty", "machine"):
        assert main(["recover", "--input", path, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert json.loads(out)["payload"]["error"] == message


def test_compare_a_thousand_generators_with_itself(tmp_path):
    # every generator has the degree of every other, so the minimal
    # generators, and with them the equality, take no membership search.
    # The cone has 4 faces, so the recovery walk takes it too
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


def test_polytope_orders_naming_an_unknown_divisor_exit_2(tmp_path, capsys):
    doc = json.loads((DATA / "so3_x1.json").read_text())
    doc["orders"] = {"D1": 0, "D2": 0, "D9": 3}
    path = write_doc(tmp_path, "orders.json", doc)
    assert main(["polytope", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orders: unknown divisor D9\n"


@pytest.mark.parametrize("named", [False, True], ids=["vector", "name"])
def test_polytope_base_weight_and_orders_per_divisor(tmp_path, capsys, named):
    # each vertex moves by exactly the base weight, the rays and
    # half-spaces stay, and each min_value is minus its divisor's order
    doc = json.loads((DATA / "sl2_torus_case3.json").read_text())
    doc["orders"] = orders = {"D1": 1, "D2": 0, "D3": 2}

    def polytope():
        path = write_doc(tmp_path, "base.json", doc)
        assert main(["polytope", "--input", path, "--format", "machine"]) == 0
        return json.loads(capsys.readouterr().out)["payload"]

    plain = polytope()
    base = [3, -1]
    doc["base_weight"] = base
    if named:
        doc["weights"]["base"] = base
        doc["base_weight"] = "base"
    moved = polytope()
    assert plain["base_weight"] == [0, 0] and moved["base_weight"] == base
    assert [h["min_value"] for h in moved["halfspaces"]] == \
        [-orders[h["divisor"]] for h in moved["halfspaces"]] == [-1, 0, -2]
    assert moved["halfspaces"] == plain["halfspaces"]
    assert moved["rays"] == plain["rays"]
    assert len(plain["vertices"]) == 2
    assert [[Fraction(x) for x in v] for v in moved["vertices"]] == \
        [[Fraction(x) + b for x, b in zip(v, base)] for v in plain["vertices"]]


@pytest.mark.parametrize("generators, vertices, rays", [
    # the half-plane y >= -1: its line through (1, 0) is the rays (1, 0)
    # and (-1, 0), beside the ray (0, 1)
    ([[1, 0], [-1, 0], [0, 1]], [[0, -1]], [[-1, 0], [0, 1], [1, 0]]),
    # the half-plane y - x >= -1 with the line (1, 1): its vertex is the
    # point of the boundary orthogonal to the line, and the half-plane is
    # that point plus the cone over (1, 1), (-1, -1) and the ray (-1, 1)
    ([[1, 1], [-1, -1], [0, 1]], [["1/2", "-1/2"]],
     [[-1, -1], [-1, 1], [1, 1]]),
    # the half-space phi >= -1 of T^3 with phi = (2, 3, 5): double
    # description spans its plane of lines with index 2, and its lines are
    # the HNF basis (1, 1, -1), (0, 5, -3) of the plane's integer points
    ([[1, 1, -1], [-1, -1, 1], [-3, 2, 0], [3, -2, 0], [-1, 1, 0]],
     [["-1/19", "-3/38", "-5/38"]],
     [[-1, -1, 1], [0, -5, 3], [0, 5, -3], [1, 1, -1], [2, 3, 5]]),
], ids=["axis", "slanted", "unsaturated"])
def test_polytope_reports_each_line_as_two_rays(tmp_path, capsys, generators,
                                                vertices, rays):
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": len(generators[0])},
        "monoid_generators": generators,
        "orders": 1,
    }
    path = write_doc(tmp_path, "lines.json", doc)
    assert main(["polytope", "--input", path, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["vertices"] == vertices
    assert payload["rays"] == rays
    assert payload["bounded"] is False and payload["empty"] is False


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
    # a monoid of a central torus of rank 7 that is not free, the 2 e_i
    # and the all-ones vector, is past the saturation rank limit.  Its
    # recovered divisors cut it out of its lattice, so the identity holds,
    # no normality test is needed, and recover and polytope warn of
    # nothing.  With D1 dropped the identity fails, and the normality test
    # that would decide (vi) is refused: validate warns, and passes
    warning = "saturation not checked (lattice too large)"
    doc = {
        "schema": 1,
        "group": {"factors": [], "central_rank": 7},
        "monoid_generators": [[2 * int(i == j) for j in range(7)]
                              for i in range(7)] + [[1] * 7],
    }
    path = write_doc(tmp_path, "torus7.json", doc)
    for command in ("recover", "polytope"):
        proc = run_cli([command, "--input", path, "--format", "machine"])
        assert json.loads(proc.stdout)["warnings"] == []
    proc = run_cli(["recover", "--input", path])
    assert not any(line.startswith("warning:")
                   for line in proc.stdout.splitlines())
    document = machine_payload(run_cli(
        ["recover", "--input", path, "--format", "machine"]))["document"]
    assert document["divisors"][0]["id"] == "D1"
    document["divisors"] = document["divisors"][1:]
    recovered = write_doc(tmp_path, "recovered.json", document)
    proc = run_cli(["validate", "--input", recovered, "--format", "machine"])
    assert proc.returncode == 0
    assert machine_payload(proc)["passed"] is True
    assert json.loads(proc.stdout)["warnings"] == [warning]


# -- the machine-block writer and the argv reader against the stdlib ----------

json_text = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(["\x00", "\x1f", "\x7f", "\"", "\\", "\u2028",
                     "\ud800", "\udfff", "\U0001f600", "\u00e9"])),
    max_size=5)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
              st.integers(), st.integers(-2 ** 200, 2 ** 200), json_text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


def reference_block(command, digest, payload, warnings):
    report = {"schema": 1, "command": command, "digest": digest,
              "payload": payload, "warnings": sorted(warnings)}
    return json.dumps(report, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(json_text, json_values,
       st.dictionaries(json_text, json_values, max_size=4),
       st.lists(json_text, max_size=4))
@example("recover", "", {"a": [], "b": {}, "c": [[], {}, ()]}, [])
@example("compare", ["x", "y"], {"t": True, "o": 1, "f": False, "z": 0,
                                 "n": None, "big": 2 ** 64 + 1}, ["b", "a"])
def test_machine_block_is_the_bytes_of_json_dumps(command, digest, payload,
                                                  warnings):
    assert cli._machine_block(command, digest, payload, warnings) == \
        reference_block(command, digest, payload, warnings)


@pytest.mark.parametrize("bad", [0.5, float("nan"), Fraction(1, 2),
                                 {1: 0}, {None: 0}, {(1, 2): 0}, {1, 2},
                                 b"bytes"])
def test_machine_block_refuses_what_a_payload_never_holds(bad):
    with pytest.raises(TypeError, match="^internal: "):
        cli._machine_block("recover", "", {"a": [1, {"b": bad}]}, [])


argv_values = st.sampled_from(["a.json", "data/so3_x1.json", "recover",
                               "-", "", "-x", "--input", "x y"])
argv_formats = st.sampled_from(["pretty", "machine", "json", "-x", ""])
argv_options = st.one_of(
    st.tuples(st.just("--input"), argv_values),
    st.tuples(st.just("--format"), argv_formats),
    st.tuples(st.just("--verbose")),
    argv_values.map(lambda v: ("--input=" + v,)),
    argv_formats.map(lambda f: ("--format=" + f,)),
    st.tuples(st.sampled_from(["--inp", "--in", "--form", "--verb"]),
              argv_values),
    st.tuples(st.sampled_from(["--", "-h", "--help", "--bogus", "x", "-x",
                               "--verbose=1"])))


@st.composite
def argvs(draw):
    """An argv of options in any order, the command anywhere among them
    (or absent, or unknown), and sometimes the last token cut off."""
    options = draw(st.lists(argv_options, max_size=5))
    command = draw(st.sampled_from(
        ["recover", "classify", "compare", "validate", "polytope", "bogus",
         None]))
    if command is not None:
        options.insert(draw(st.integers(0, len(options))), (command,))
    argv = [token for option in options for token in option]
    if argv and draw(st.integers(0, 4)) == 0:
        argv.pop()
    return argv


def parse_outcome(parse, argv):
    """The namespace or the exit code, and what was written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(argvs())
@example(["recover", "--input", "a.json"])
@example(["bogus", "--input", "a.json"])
@example(["compare", "--format", "machine", "--input", "a", "--input", "b",
          "--verbose", "--format", "pretty"])
@example(["recover", "--input", ""])
@example(["recover", "--input", "-"])
@example(["recover", "--verbose"])
@example(["recover", "--input", "a", "--format"])
@example(["--format", "machine", "recover", "--input", "a"])
@example(["recover", "--input", "a", "--", "b"])
@example(["recover", "-h"])
def test_argv_reader_agrees_with_the_parser(argv):
    assert parse_outcome(cli._parse_argv, argv) == \
        parse_outcome(cli._parser().parse_args, argv)


def test_canonical_argv_skips_the_parser(monkeypatch):
    def refuse(argv=None):
        raise AssertionError(f"parser called on {argv}")
    monkeypatch.setattr(cli, "_parser", refuse)
    args = cli._parse_argv(["compare", "--input", "a", "--format", "machine",
                            "--verbose", "--input", "b"])
    assert vars(args) == {"command": "compare", "input": ["a", "b"],
                          "format": "machine", "verbose": True}


def test_pretty_output_ends_in_the_machine_block(tmp_path):
    # for each data document and contract command, and for validate on the
    # recovered document and its tampered copy: the pretty output is the
    # machine output after a "machine:" line; a parse error writes neither
    def output(name, path, fmt, flags=()):
        inputs = ["--input", str(path)] * (2 if name == "compare" else 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([name, *inputs, "--format", fmt, *flags])
        return code, out.getvalue()

    recovered = tmp_path / "recovered.json"
    tampered = tmp_path / "tampered.json"
    for path in sorted(DATA.glob("*.json")):
        runs = [(name, path, flags)
                for name, *flags in cli_contract.COMMANDS.values()]
        document = json.loads(output("recover", path, "machine")[1])[
            "payload"]["document"]
        recovered.write_text(json.dumps(document))
        document["divisors"][0]["phi"] = [
            str(-Fraction(x)) for x in document["divisors"][0]["phi"]]
        tampered.write_text(json.dumps(document))
        runs += [("validate", recovered, []), ("validate", tampered, [])]
        for name, doc, flags in runs:
            code, machine = output(name, doc, "machine", flags)
            pretty_code, pretty = output(name, doc, "pretty", flags)
            assert pretty_code == code, (name, doc)
            if code == 2:
                assert pretty == machine == "", (name, doc)
            else:
                assert machine and pretty.endswith("\nmachine:\n" + machine), \
                    (name, doc)


# -- the group case as a closed-form oracle ------------------------------------

def machine_run(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "machine"])
    return code, json.loads(out.getvalue())["payload"]


def diagram_flip(dynkin, n, i):
    """-w0 on simple root i, 1-indexed: n + 1 - i on A_n, the two spin
    nodes n - 1 and n swapped on D_n for n odd, 1 <-> 6 and 3 <-> 5 on
    E6, and the identity otherwise."""
    if dynkin == "A":
        return n + 1 - i
    if dynkin == "D" and n % 2 and i >= n - 1:
        return 2 * n - 1 - i
    if (dynkin, n) == ("E", 6):
        return {1: 6, 3: 5, 5: 3, 6: 1}.get(i, i)
    return i


def check_group_case(dynkin, n, directory):
    # G x G/diag G for G simple of rank n has n type-d divisors: divisor i
    # is moved by alpha_i and by alpha_{s(i)} of the second factor, simple
    # roots i and n + s(i) with s the diagram flip, and its functional is
    # the coroot alpha_i^vee, column i of the lattice basis, which is e_i;
    # the recovered document validates
    path = write_doc(directory, f"group_{dynkin}{n}.json",
                     group_case_document(dynkin, n))
    code, payload = machine_run(["recover", "--input", path])
    assert code == 0
    basis = payload["lattice_basis"]
    assert [[b[i] for b in basis] for i in range(n)] == \
        [[int(j == i) for j in range(n)] for i in range(n)]
    assert sorted((d["source"], d["dropped_simple_roots"], d["phi"])
                  for d in payload["divisors"]) == \
        [("type_d", [i, n + diagram_flip(dynkin, n, i)],
          [b[i - 1] for b in basis]) for i in range(1, n + 1)]
    path = write_doc(directory, f"group_{dynkin}{n}_recovered.json",
                     payload["document"])
    assert machine_run(["validate", "--input", path]) == \
        (0, {"exceptional_triple": None, "passed": True, "violations": []})


@pytest.mark.parametrize("n", [2, 3, 8])
def test_group_case_of_type_a_matches_its_closed_form(tmp_path, n):
    check_group_case("A", n, tmp_path)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 12))
def test_group_case_of_type_a_matches_its_closed_form_at_any_rank(n):
    with tempfile.TemporaryDirectory() as directory:
        check_group_case("A", n, Path(directory))


@pytest.mark.parametrize("dynkin, n", [
    ("B", 3), ("C", 2), ("C", 4), ("D", 4), ("G", 2), ("F", 4), ("E", 7),
    ("E", 8), ("B", 32), ("C", 32), ("D", 32),
    # with the flip; type A is the test above
    ("D", 5), ("D", 7), ("E", 6)])
def test_group_case_matches_its_closed_form_at_every_type(tmp_path, dynkin, n):
    check_group_case(dynkin, n, tmp_path)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sl_so_recovers_one_type_c_divisor_per_simple_root(tmp_path, n):
    # SL_{n+1}/SO_{n+1}: divisor i is half the coroot of alpha_i, which is
    # e_i on the basis 2 omega_j of the lattice, and is moved by alpha_i
    # alone; the recovered document validates
    path = write_doc(tmp_path, f"sl_so{n}.json", sl_so_document(n))
    code, payload = machine_run(["recover", "--input", path])
    assert code == 0
    assert sorted((d["source"], d["dropped_simple_roots"], d["phi"])
                  for d in payload["divisors"]) == \
        [("type_c", [i], [int(j == i) for j in range(1, n + 1)])
         for i in range(1, n + 1)]
    path = write_doc(tmp_path, f"sl_so{n}_recovered.json",
                     payload["document"])
    assert machine_run(["validate", "--input", path]) == \
        (0, {"exceptional_triple": None, "passed": True, "violations": []})


def test_sl2_so2_refuses_twice_its_simple_root(tmp_path, capsys):
    # at n = 1 the root 2 alpha = 4 omega is twice the basis vector 2 omega
    # of the lattice; the spherical root of SL2/SO2 is alpha, of type b
    # (data/so3_x1.json)
    path = write_doc(tmp_path, "sl_so1.json", sl_so_document(1))
    assert main(["recover", "--input", path]) == 1
    assert capsys.readouterr().err == ("error: invalid datum: spherical "
                                       "root is not primitive in the lattice\n")


@settings(max_examples=15, deadline=None)
@given(st.tuples(st.sampled_from("ABCD"), st.integers(2, 12))
       .filter(lambda case: case != ("D", 2)))
def test_group_case_of_a_classical_type_matches_its_closed_form(case):
    with tempfile.TemporaryDirectory() as directory:
        check_group_case(*case, Path(directory))
