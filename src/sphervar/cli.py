"""File-driven front end.

Input documents are JSON (schema 1):

    {
      "schema": 1,
      "group": {"factors": [["A", 1]], "central_rank": 0},
      "weights": {"alpha": [2]},
      "monoid_generators": ["alpha"],
      "spherical_roots": ["alpha"],
      "divisors": [{"id": "D1", "phi": ["1"], "dropped_simple_roots": [1]}],
      "base_weight": [0],
      "orders": {"D1": 0}
    }

Vectors are in fundamental-weight coordinates per simple factor followed
by the central coordinates; entries of "weights", "monoid_generators" and
"spherical_roots" must be integers, and may be referenced by name.  The
"divisors", "base_weight" and "orders" blocks are optional and only used
by `validate` and `polytope`.  Divisor functionals are given by their
values on the canonical basis of the weight lattice (the Hermite basis of
the span of the monoid generators), as integers or fraction strings: an
optional sign, digits, and optionally `/` and digits.

Exit codes: 0 success, 1 invalid datum, 2 parse error, 141 standard
output closed by its reader (as in `sphervar recover ... | head -1`).
A malformed field (a vector or a list of them of the wrong shape, a rank
that is not an integer) is a parse error.

`main` may be called any number of times in one process.  A canonical
argv (the command, then only `--input V`, `--format F` and `--verbose`)
is read directly, into the namespace the argument parser would return;
the parser is built, afresh, only for every other argv, help and usage
errors included.
The root data of a group are built once per process too
(`build_root_data`), and what depends on a monoid alone (its cone, type-a
roots, root-type table) once per monoid.  Within one call, inputs with
equal bytes are parsed once into one shared document, so a self-compare
builds one monoid and one canonical form and runs one recovery; that
store does not outlive the call.  The machine block is written by
`_write_json`, in the bytes that `json.dumps` writes with `sort_keys=True`
and `indent=2`.  Its `digest` is the lowercase hex SHA-256 of the input
bytes, a list of one per input for `compare`, taken from the
interpreter's built-in module: `hashlib` would load OpenSSL for it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

# SHA-256 from the interpreter's built-in module, as `random` takes its
# sha512: `hashlib` would load OpenSSL, megabytes for one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .luna import BDivisorRecord, LatticeFunctional, LunaDatum, RootTypeTable
from .monoid import MonoidError, WeightMonoid
from .polyhedral import exact
from .recovery import (
    SKIPPED_FACES,
    RecoveryError,
    RecursionNode,
    moment_polytope,
    recover_divisors,
    validate_luna_datum,
)
from .rootsys import GroupSpec, ParabolicSet, RootData, RootDataError, build_root_data
from .spherical import (
    SphericalError,
    SphericalRootSet,
    classify_root_types,
    hidden_divisors,
    hidden_spherical_roots,
    make_spherical_roots,
    match_hidden_root_triple,
    validate_roots_in_lattice,
)

SCHEMA_VERSION = 1
# 128 + SIGPIPE: the status a shell reports for a process that a closed
# pipe stopped
EXIT_BROKEN_PIPE = 141


class ParseError(ValueError):
    pass


@dataclass
class InputDocument:
    rd: RootData
    monoid: WeightMonoid
    psi: SphericalRootSet
    divisor_block: list[dict] | None
    base_weight: tuple[int, ...] | None
    orders: dict | int | None
    digest: str


def _field(data, key, where):
    if key not in data:
        raise ParseError(f"missing field {key!r} in {where}")
    return data[key]


def _is_int(x) -> bool:
    """Whether a JSON value is an integer: not a float, nor a boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vector(value, dim, where):
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError(f"{where}: expected a vector of length {dim}")
    for x in value:
        if not _is_int(x):
            raise ParseError(f"{where}: non-integer coordinate {x!r}")
    return tuple(value)


def parse_input(text: str | bytes) -> InputDocument:
    """Parse and validate a schema-1 document."""
    if isinstance(text, str):
        text = text.encode()
    digest = sha256(text).hexdigest()

    def no_duplicates(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ParseError(f"duplicate key {k!r}")
            seen.add(k)
        return dict(pairs)

    try:
        data = json.loads(text.decode(), object_pairs_hook=no_duplicates)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    if not _is_int(data.get("schema")) or data["schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema {data.get('schema')!r}; expected 1")

    grp = _field(data, "group", "document")
    if not isinstance(grp, dict):
        raise ParseError("group must be an object")
    factors = _field(grp, "factors", "group")
    central = grp.get("central_rank", 0)
    if not isinstance(factors, list) or not all(
            isinstance(f, list) and len(f) == 2 for f in factors):
        raise ParseError("group.factors must be a list of [type, rank] pairs")
    ranks = {f"group.factors[{i}]": f[1] for i, f in enumerate(factors)}
    ranks["group.central_rank"] = central
    for where, rank in ranks.items():
        if not _is_int(rank):
            raise ParseError(f"{where}: rank {rank!r} is not an integer")
    try:
        spec = GroupSpec(tuple((str(t), r) for t, r in factors), central)
        rd = build_root_data(spec)
    except RootDataError as exc:
        raise ParseError(f"group: {exc}")
    dim = spec.dim

    weights = {}
    names = data.get("weights", {})
    if not isinstance(names, dict):
        raise ParseError("weights must be an object of named vectors")
    for name, vec in names.items():
        weights[name] = _int_vector(vec, dim, f"weights.{name}")

    def resolve(value, where):
        if isinstance(value, str):
            if value not in weights:
                raise ParseError(f"{where}: unknown weight name {value!r}")
            return weights[value]
        return _int_vector(value, dim, where)

    def vectors(key, value):
        if not isinstance(value, list):
            raise ParseError(f"{key} must be a list of vectors")
        return [resolve(v, f"{key}[{i}]") for i, v in enumerate(value)]

    gens = vectors("monoid_generators",
                   _field(data, "monoid_generators", "document"))
    roots = vectors("spherical_roots", data.get("spherical_roots", []))
    try:
        monoid = WeightMonoid(rd, tuple(rd.weight(g) for g in gens))
        psi = make_spherical_roots(rd, tuple(rd.weight(r) for r in roots))
    except (MonoidError, SphericalError) as exc:
        raise ParseError(str(exc))

    divisor_block = data.get("divisors")
    if divisor_block is not None:
        if not isinstance(divisor_block, list):
            raise ParseError("divisors must be a list")
        for i, entry in enumerate(divisor_block):
            if not isinstance(entry, dict):
                raise ParseError(f"divisors[{i}] must be an object")
            _field(entry, "phi", f"divisors[{i}]")

    base = data.get("base_weight")
    if base is not None:
        base = resolve(base, "base_weight")
    orders = data.get("orders")
    return InputDocument(rd, monoid, psi, divisor_block, base, orders, digest)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _frac(x) -> str | int:
    x = exact(x)
    return x if type(x) is int else str(x)


_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_frac(x, where) -> int | Fraction:
    """An integer or a fraction string of the form `_frac` writes, read
    exactly.  A JSON float is refused: it holds a binary approximation,
    not the value written.  So is every other string `Fraction` reads,
    such as "1e100000000", whose value takes unbounded time to build."""
    if not (_is_int(x) or isinstance(x, str) and _FRACTION.fullmatch(x)):
        raise ParseError(
            f"{where}: bad rational {x!r} (expected an integer or a fraction string)")
    try:
        return exact(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {x!r} ({exc})")


def _stabilizer_display(datum: LunaDatum, d: BDivisorRecord) -> str:
    active = datum.levi_roots
    sigma = d.stabilizer.roots & active
    if sigma == active:
        return "G"
    if not sigma:
        return "B"
    names = ",".join(datum.rd.root_name(i) for i in sorted(sigma))
    return f"P({names})"


def _divisor_payload(datum: LunaDatum) -> list[dict]:
    hidden = hidden_divisors(datum)
    rd = datum.rd
    out = []
    for d in datum.divisors:
        dropped = sorted(datum.levi_roots - d.stabilizer.roots)
        out.append({
            "id": d.divisor_id,
            "phi": [_frac(v) for v in d.phi.values],
            "dropped_simple_roots": [i + 1 for i in dropped],
            "stabilizer": _stabilizer_display(datum, d),
            "source": d.source,
            "source_roots": [rd.root_name(i) for i in d.source_roots],
            "hidden": d.divisor_id in hidden,
        })
    return out


def _root_types(rd: RootData, table: RootTypeTable) -> tuple[dict, list]:
    """The type of each simple root by name, and the d-partner pairs."""
    return ({rd.root_name(i): t for i, t in table.entries},
            [[rd.root_name(a), rd.root_name(b)] for a, b in table.partners])


def _exceptional_triple(doc: InputDocument) -> dict | None:
    triple = match_hidden_root_triple(doc.rd, doc.psi, doc.monoid.type_a_roots)
    return None if triple is None else \
        {"family": triple.family, "description": triple.description}


def _document_payload(doc: InputDocument, divisors: list[dict]) -> dict:
    """A self-contained document reproducing the datum, suitable for
    feeding back into `validate`: the group, the generators, the roots,
    and the id, phi and dropped roots of each divisor payload."""
    spec = doc.rd.spec
    return {
        "schema": SCHEMA_VERSION,
        "group": {"factors": [[t, r] for t, r in spec.factors],
                  "central_rank": spec.central_rank},
        "monoid_generators": [list(g.int_coords()) for g in doc.monoid.generators],
        "spherical_roots": [list(g.int_coords()) for g in doc.psi.roots],
        "divisors": [{key: d[key] for key in ("id", "phi", "dropped_simple_roots")}
                     for d in divisors],
    }


def _trace_payload(trace: list[RecursionNode]) -> list[dict]:
    return [{
        "subset": list(n.subset),
        "mu": [_frac(x) for x in n.mu],
        "levi_roots": [i + 1 for i in n.levi_roots],
        "case": n.case,
        "minted": [[_frac(x) for x in vals] for vals in n.minted],
    } for n in trace]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_recover(doc: InputDocument, verbose: bool = False) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    trace: list[RecursionNode] = [] if verbose else None
    datum = recover_divisors(doc.monoid, doc.psi,
                             trace=trace, warnings=warnings)
    divisors = _divisor_payload(datum)
    types, partners = _root_types(datum.rd, datum.type_table)
    payload = {
        "lattice_basis": [list(b) for b in datum.lattice.basis],
        "minimal_generators": [list(g.int_coords())
                               for g in doc.monoid.minimal_generators],
        "divisors": divisors,
        "root_types": {"types": types, "d_partners": partners},
        "hidden_spherical_roots": sorted(
            [_frac(x) for x in datum.psi.roots[i].coords]
            for i in hidden_spherical_roots(datum)),
        "document": _document_payload(doc, divisors),
    }
    if trace is not None:
        payload["trace"] = _trace_payload(trace)
        payload["trace_skipped"] = SKIPPED_FACES
    return payload, warnings


def cmd_classify(doc: InputDocument) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    validate_roots_in_lattice(doc.psi, doc.monoid.lattice)
    table = classify_root_types(doc.monoid, doc.psi)
    rd = doc.rd
    tags = doc.psi.forms
    types, partners = _root_types(rd, table)
    payload = {
        "root_types": types,
        "d_partners": partners,
        "type_a_roots": [rd.root_name(i) for i in sorted(doc.monoid.type_a_roots)],
        "forms": [{"root": [_frac(x) for x in g.coords],
                   "kind": t.kind,
                   "simple_roots": [rd.root_name(i) for i in t.roots],
                   "k": _frac(t.k) if t.k is not None else None}
                  for g, t in zip(doc.psi.roots, tags)],
        "exceptional_triple": _exceptional_triple(doc),
    }
    return payload, warnings


def cmd_compare(doc1: InputDocument, doc2: InputDocument) -> tuple[dict, list[str]]:
    if doc1.rd.spec != doc2.rd.spec:
        raise ParseError("compare: the two documents use different groups")
    warnings: list[str] = []
    monoid_equal = doc1.monoid.equals(doc2.monoid)
    psi_equal = doc1.psi.weight_set() == doc2.psi.weight_set()
    both = monoid_equal and psi_equal
    identical = None
    if both:
        try:
            d1 = recover_divisors(doc1.monoid, doc1.psi)
            d2 = d1 if doc2 is doc1 else recover_divisors(doc2.monoid, doc2.psi)
        except (RecoveryError, SphericalError) as exc:
            warnings.append(f"divisor recovery unavailable: {exc}")
        else:
            identical = [(x.phi.values, x.stabilizer.roots, x.source)
                         for x in d1.divisors] == \
                        [(x.phi.values, x.stabilizer.roots, x.source)
                         for x in d2.divisors]
    if both:
        interp = ("equal weight monoids and equal spherical root sets: the "
                  "divisor data coincide, and such data determine an affine "
                  "spherical variety up to equivariant isomorphism")
    elif monoid_equal:
        interp = ("equal weight monoids but different spherical root sets: "
                  "the varieties need not be isomorphic")
    else:
        interp = "different weight monoids"
    payload = {
        "monoid_equal": monoid_equal,
        "psi_equal": psi_equal,
        "xplus_equivalent": monoid_equal,
        "xpluspsi_equivalent": both,
        "recovered_data_identical": identical,
        "interpretation": interp,
    }
    return payload, warnings


def _datum_from_document(doc: InputDocument) -> LunaDatum:
    if doc.divisor_block is None:
        raise ParseError("validate needs a divisors block")
    monoid = doc.monoid
    X = monoid.lattice
    validate_roots_in_lattice(doc.psi, X)
    table = classify_root_types(monoid, doc.psi)
    active = monoid.active_roots
    records = []
    ids = set()
    for i, entry in enumerate(doc.divisor_block):
        vals = entry["phi"]
        if not isinstance(vals, list) or len(vals) != X.rank:
            raise ParseError(
                f"divisors[{i}].phi: expected {X.rank} values on the lattice basis")
        phi = LatticeFunctional(
            X, tuple(_parse_frac(v, f"divisors[{i}].phi") for v in vals))
        dropped = entry.get("dropped_simple_roots", [])
        if not isinstance(dropped, list):
            raise ParseError(f"divisors[{i}].dropped_simple_roots must be a list")
        for r in dropped:
            if not _is_int(r) or not 1 <= r <= doc.rd.n_simple:
                raise ParseError(f"divisors[{i}]: bad simple-root index {r!r}")
        sigma = ParabolicSet(active - frozenset(r - 1 for r in dropped))
        divisor_id = entry.get("id", f"D{i + 1}")
        if not isinstance(divisor_id, str):
            raise ParseError(f"divisors[{i}].id must be a string")
        if divisor_id in ids:
            raise ParseError(f"divisors[{i}]: duplicate divisor id {divisor_id!r}")
        ids.add(divisor_id)
        records.append(BDivisorRecord(divisor_id, phi, sigma, "external"))
    return LunaDatum(monoid, doc.psi, table, tuple(records))


def cmd_validate(doc: InputDocument) -> tuple[dict, list[str], bool]:
    datum = _datum_from_document(doc)
    report = validate_luna_datum(datum)
    payload = {
        "passed": report.passed,
        "violations": [{"code": c, "detail": d} for c, d in report.violations],
        "exceptional_triple": _exceptional_triple(doc),
    }
    return payload, list(report.warnings), report.passed


def cmd_polytope(doc: InputDocument) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    datum = recover_divisors(doc.monoid, doc.psi, warnings=warnings)
    base = doc.rd.weight(doc.base_weight if doc.base_weight is not None
                         else [0] * doc.rd.dim)
    if doc.orders is None:
        orders = {d.divisor_id: 0 for d in datum.divisors}
    elif _is_int(doc.orders):
        orders = {d.divisor_id: doc.orders for d in datum.divisors}
    elif isinstance(doc.orders, dict):
        orders = {}
        for d in datum.divisors:
            if d.divisor_id not in doc.orders:
                raise ParseError(f"orders: missing divisor {d.divisor_id}")
            v = doc.orders[d.divisor_id]
            if not _is_int(v):
                raise ParseError(f"orders[{d.divisor_id}]: expected an integer")
            orders[d.divisor_id] = v
        for k in doc.orders:
            if k not in orders:
                raise ParseError(f"orders: unknown divisor {k}")
    else:
        raise ParseError("orders must be an integer or an object")
    mp = moment_polytope(datum, base, orders)
    payload = {
        "base_weight": [_frac(x) for x in base.coords],
        "halfspaces": [{"phi": [_frac(v) for v in d.phi.values],
                        "min_value": -orders[d.divisor_id],
                        "divisor": d.divisor_id}
                       for d in datum.divisors],
        "vertices": [[_frac(x) for x in v] for v in mp.vertices_ambient()],
        "rays": [[_frac(x) for x in r] for r in mp.rays_ambient()],
        "bounded": mp.is_bounded(),
        "empty": mp.is_empty(),
    }
    return payload, warnings


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _write_json(value, pad: str, put) -> None:
    """Write `value` through `put` in the bytes that `json.dumps` writes
    with `sort_keys=True` and `indent=2`, `pad` being the line break and
    indentation of the line it starts on.  Only what a payload holds is
    written: dicts with str keys, lists, tuples, str, int, bool and None."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(pad + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"internal: key {key!r} in a machine block")
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(pad + "}")
    else:
        raise TypeError(
            f"internal: {type(value).__name__} in a machine block")


def _machine_block(command: str, digest, payload: dict, warnings: list[str]) -> str:
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "digest": digest,
        "payload": payload,
        "warnings": sorted(warnings),
    }
    parts: list[str] = []
    _write_json(report, "\n", parts.append)
    return "".join(parts)


def _pretty_recover(payload: dict) -> list[str]:
    lines = []
    lines.append("lattice basis: " + "; ".join(
        "(" + ", ".join(str(x) for x in b) + ")"
        for b in payload["lattice_basis"]))
    lines.append("root types: " + ", ".join(
        f"{k}:{v}" for k, v in sorted(payload["root_types"]["types"].items())))
    lines.append("divisors:")
    header = f"  {'id':<5} {'phi':<20} {'G_D':<16} {'source':<9} hidden"
    lines.append(header)
    for d in payload["divisors"]:
        phi = "(" + ", ".join(str(x) for x in d["phi"]) + ")"
        lines.append(f"  {d['id']:<5} {phi:<20} {d['stabilizer']:<16} "
                     f"{d['source']:<9} {'yes' if d['hidden'] else 'no'}")
    if payload["hidden_spherical_roots"]:
        lines.append("hidden spherical roots: " + "; ".join(
            "(" + ", ".join(str(x) for x in g) + ")"
            for g in payload["hidden_spherical_roots"]))
    for node in payload.get("trace", []):
        subset = ",".join(str(i) for i in node["subset"]) or "-"
        minted = "; ".join("(" + ", ".join(str(x) for x in v) + ")"
                           for v in node["minted"]) or "-"
        lines.append(f"node {{{subset}}}: case {node['case']}, "
                     f"minted {minted}")
    if "trace_skipped" in payload:
        lines.append(f"faces {payload['trace_skipped']}")
    return lines


def _pretty_generic(payload: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_pretty_generic(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(pad + "  - " + json.dumps(item, sort_keys=True))
        else:
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
    return lines


def _emit(command: str, digest, payload: dict, warnings: list[str],
          fmt: str) -> None:
    if fmt == "pretty":
        if command == "recover":
            for line in _pretty_recover(payload):
                print(line)
        else:
            for line in _pretty_generic(payload):
                print(line)
        for w in sorted(warnings):
            print(f"warning: {w}")
        print("machine:")
    print(_machine_block(command, digest, payload, warnings))


def main(argv=None) -> int:
    """Run one command; return its exit code.  When the reader of standard
    output goes away (`| head -1`), stop without a traceback and return
    `EXIT_BROKEN_PIPE`; the rest of the output goes to the null device, so
    that the flush at interpreter exit raises no second error (the SIGPIPE
    note of the Python `signal` documentation)."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


_COMMANDS = ("recover", "classify", "compare", "validate", "polytope")
_FORMATS = ("pretty", "machine")

def _parser() -> argparse.ArgumentParser:
    """The argument parser, built only for an argv that `_parse_argv`
    does not read itself, as building one loads `shutil`."""
    parser = argparse.ArgumentParser(
        prog="sphervar",
        description="Combinatorial invariants of affine spherical varieties")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", required=True, action="append",
                        help="input document path (give twice for compare)")
    parser.add_argument("--format", choices=_FORMATS, default="pretty")
    parser.add_argument("--verbose", action="store_true",
                        help="include the localization-node trace")
    return parser


def _parse_argv(argv) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, read directly when argv is canonical:
    a command, then only `--input V`, `--format pretty|machine` and
    `--verbose`, with no value starting with "-" and at least one input.
    Every other argv (help, usage errors, `--input=V`, abbreviations,
    options before the command, `--`) goes to the parser."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] in _COMMANDS:
        ns = argparse.Namespace(command=args[0], input=[],
                                format="pretty", verbose=False)
        i = 1
        while i < len(args):
            option = args[i]
            if option == "--verbose":
                ns.verbose = True
                i += 1
                continue
            if i + 1 == len(args):
                break
            value = args[i + 1]
            if option == "--input" and not value.startswith("-"):
                ns.input.append(value)
            elif option == "--format" and value in _FORMATS:
                ns.format = value
            else:
                break
            i += 2
        else:
            if ns.input:
                return ns
    return _parser().parse_args(argv)


def _run(argv) -> int:
    args = _parse_argv(argv)

    try:
        docs = []
        # inputs with equal bytes share one document, for this call only
        parsed: dict[bytes, InputDocument] = {}
        for path in args.input:
            try:
                with open(path, "rb") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc}")
            if text not in parsed:
                parsed[text] = parse_input(text)
            docs.append(parsed[text])
        expected = 2 if args.command == "compare" else 1
        if len(docs) != expected:
            raise ParseError(
                f"{args.command} takes {expected} input document(s), "
                f"got {len(docs)}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digest = docs[0].digest if len(docs) == 1 else [d.digest for d in docs]
    try:
        if args.command == "recover":
            payload, warnings = cmd_recover(docs[0], verbose=args.verbose)
            ok = True
        elif args.command == "classify":
            payload, warnings = cmd_classify(docs[0])
            ok = True
        elif args.command == "compare":
            payload, warnings = cmd_compare(docs[0], docs[1])
            ok = True
        elif args.command == "validate":
            payload, warnings, ok = cmd_validate(docs[0])
        else:
            payload, warnings = cmd_polytope(docs[0])
            ok = True
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecoveryError, SphericalError, MonoidError) as exc:
        # retain a machine-readable report alongside the nonzero exit; a
        # message that already names an invalid datum is not prefixed twice
        error = "invalid datum: " + str(exc).removeprefix("invalid datum: ")
        print(f"error: {error}", file=sys.stderr)
        print(_machine_block(args.command, digest, {"error": error}, []))
        return 1

    _emit(args.command, digest, payload, warnings, args.format)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
