"""The CLI contract on the documents in data/ and in the frozen benchmark
inputs (bench/inputs/, apart from the cliffs): the exit code and the
SHA-256 of stdout of every command in machine format, and of `validate`
on the document that `recover` writes and on a tampered copy of it, with
the first divisor's functional negated.

`tests/cli_contract.json` holds the table; `test_cli.py` compares it with
a fresh run.  After a deliberate change of the contract, rewrite it with

    PYTHONPATH=src python tests/cli_contract.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from sphervar.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "cli_contract.json"
COMMANDS = {
    "recover": ["recover"],
    "recover --verbose": ["recover", "--verbose"],
    "classify": ["classify"],
    "validate": ["validate"],
    "polytope": ["polytope"],
    "compare (self)": ["compare"],
}
DOCUMENTS = ["data", "bench/inputs/corpus-cli", "bench/inputs/flag-ladder",
             "bench/inputs/toric-ladder"]


def run(command: str, path) -> tuple[int, str]:
    """(exit code, stdout) of one command on one document."""
    name, *flags = COMMANDS[command]
    inputs = ["--input", str(path)] * (2 if name == "compare" else 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([name, *inputs, "--format", "machine", *flags])
    return code, out.getvalue()


def contract() -> dict[str, list]:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        recovered = Path(tmp) / "recovered.json"
        tampered = Path(tmp) / "tampered.json"
        paths = [path for folder in DOCUMENTS
                 for path in sorted((ROOT / folder).glob("*.json"))]
        for path in paths:
            runs = {command: run(command, path) for command in COMMANDS}
            code, out = runs["recover"]
            if code == 0:
                document = json.loads(out)["payload"]["document"]
                recovered.write_text(json.dumps(document))
                runs["validate (recovered)"] = run("validate", recovered)
                phi = document["divisors"][0]["phi"]
                document["divisors"][0]["phi"] = [str(-Fraction(x)) for x in phi]
                tampered.write_text(json.dumps(document))
                runs["validate (tampered)"] = run("validate", tampered)
            for command, (code, out) in runs.items():
                table[f"{path.relative_to(ROOT)} {command}"] = \
                    [code, hashlib.sha256(out.encode()).hexdigest()]
    return table


if __name__ == "__main__":
    TABLE.write_text(json.dumps(contract(), indent=1, sort_keys=True) + "\n")
