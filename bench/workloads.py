"""The three workloads, their frozen inputs and their oracles.

Every oracle is computed apart from the program: hand-written counts,
the theory of G/U for full flags, and a facet enumeration of its own for
toric cones.  None compares against a stored copy of the program's
output.  sphervar is imported inside the constructors, so that a
set-up that re-imports the package builds on the fresh modules.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass
class Item:
    """One operation.  `run` is timed; `check` returns a complaint about
    its output, or None when the oracle accepts it."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# exact helpers for the oracles
# ---------------------------------------------------------------------------

def _solve(rows, target):
    """Rational c with sum_i c_i * rows[i] == target, or None."""
    n = len(rows)
    # augmented system: one equation per coordinate
    m = [[Fraction(r[j]) for r in rows] + [Fraction(target[j])]
         for j in range(len(target))]
    pivots = []
    row = 0
    for col in range(n):
        p = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col] / m[row][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    if any(r[n] != 0 for r in m[row:]):
        return None
    c = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        c[col] = m[i][n] / m[i][col]
    return c


def _det(mat) -> int:
    if not mat:
        return 1
    first = mat[0]
    return sum((-1) ** j * first[j] * _det([r[:j] + r[j + 1:] for r in mat[1:]])
               for j in range(len(first)) if first[j])


def _primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in v) if g else tuple(int(x) for x in v)


def _unimodular(basis, dim) -> bool:
    return len(basis) == dim and abs(_det([list(b) for b in basis])) == 1


def toric_facet_normals(points) -> list[tuple[int, ...]]:
    """Primitive inward facet normals of the cone over a lattice polytope
    of full dimension D, placed at height 1.

    Brute force over D-subsets of the points: the cofactor vector of the
    D lifted points is normal to the hyperplane through them and the
    origin; it is a facet normal when every point lies on one side.
    """
    lifted = [tuple(p) + (1,) for p in points]
    dim = len(lifted[0])
    found = set()
    for sub in itertools.combinations(lifted, dim - 1):
        normal = [(-1) ** c * _det([list(v[:c] + v[c + 1:]) for v in sub])
                  for c in range(dim)]
        if not any(normal):
            continue
        values = [sum(a * b for a, b in zip(normal, v)) for v in lifted]
        if all(x >= 0 for x in values):
            found.add(_primitive(normal))
        elif all(x <= 0 for x in values):
            found.add(_primitive([-x for x in normal]))
    return sorted(found)


# ---------------------------------------------------------------------------
# library ladders
# ---------------------------------------------------------------------------

def _ladder_items(directory: Path, oracle_for) -> list[Item]:
    """One item per document: a fresh WeightMonoid (the monoid caches its
    derived data on the instance) recovered against the parsed roots.  The
    oracle is built from the raw JSON document."""
    from sphervar import cli, monoid, recovery
    items = []
    for path in sorted(directory.glob("*.json")):
        text = path.read_bytes()
        doc = cli.parse_input(text)

        def run(rd=doc.rd, gens=doc.monoid.generators, psi=doc.psi):
            return recovery.recover_divisors(monoid.WeightMonoid(rd, gens), psi)
        items.append(Item(path.stem, run, oracle_for(json.loads(text))))
    return items


def _divisor_table(datum):
    """(functional values, dropped simple roots) of every divisor, sorted."""
    return sorted((tuple(d.phi.values),
                   tuple(sorted(datum.levi_roots - d.stabilizer.roots)))
                  for d in datum.divisors)


def flag_oracle(doc: dict):
    """G/U: divisor i pairs as the simple coroot i, that is, as the i-th
    coordinate, and is moved by the simple root i alone."""
    n = sum(rank for _, rank in doc["group"]["factors"])

    def check(datum):
        basis = datum.lattice.basis
        if not _unimodular(basis, n):
            return f"lattice basis {basis} is not a basis of the weight lattice"
        want = sorted((tuple(b[i] for b in basis), (i,)) for i in range(n))
        got = _divisor_table(datum)
        if got != want:
            return f"divisors {got}, expected {want}"
        return None
    return check


def toric_oracle(doc: dict):
    """The divisors are the facets of the cone: one per primitive inward
    facet normal, fixed by the whole torus."""
    gens = doc["monoid_generators"]
    normals = toric_facet_normals([g[:-1] for g in gens])
    dim = len(gens[0])

    def check(datum):
        basis = datum.lattice.basis
        if not _unimodular(basis, dim):
            return f"lattice basis {basis} is not a basis of Z^{dim}"
        want = sorted((_primitive([sum(a * b for a, b in zip(nv, bv))
                                   for bv in basis]), ())
                      for nv in normals)
        got = _divisor_table(datum)
        if got != want:
            return f"divisors {got}, expected {want}"
        return None
    return check


class Ladder:
    def __init__(self, directory: Path, oracle_for):
        self.items = _ladder_items(directory, oracle_for)

    def pass_items(self, rng) -> list[Item]:
        order = list(self.items)
        rng.shuffle(order)
        return order


# ---------------------------------------------------------------------------
# corpus through the CLI
# ---------------------------------------------------------------------------

# Divisor count, hidden-divisor count (None: not stated) and hidden
# spherical roots of every corpus entry, copied by hand from the
# expectations written into tests/corpus.py.  The data/ documents carry
# the same data as the corpus entry named after them.
CORPUS_EXPECTED = {
    "toric1": (1, None, []),
    "toric2": (2, None, []),
    "toric3": (3, None, []),
    "toric_slanted": (2, None, []),
    "so3_x0": (1, 1, []),
    "so3_x1": (2, 2, []),
    "sl2_mod_normalizer": (1, None, []),
    "sl2_plane": (1, None, []),
    "a1a1_pair_root": (1, None, []),
    "a1a1_product": (4, None, []),
    "a1a1_trivial_factor": (2, None, []),
    "sl2_torus_twisted": (2, None, []),
    "g2_hidden": (3, None, [[1, -1]]),
    "c2_hidden_k1": (3, None, [[0, 1]]),
    "c2_hidden_k2": (2, None, [[0, 1]]),
    "c3_hidden_k1": (3, None, [[0, 1, 0]]),
    "c2a1_hidden": (2, None, [[0, 1, 0]]),
    "b4_hidden": (2, None, [[1, 0, 0, 0]]),
    "c4_hidden_k1": (3, None, [[0, 1, 0, 0]]),
    "a2_cone": (2, None, [[1, 1]]),
    "a1_torus2_mixed": (3, None, []),
    "sl2_torus_case3": (3, 1, []),
    "a1a1_half_pair": (1, None, []),
}
DATA_AS_CORPUS = {"torus2": "toric2"}

# The classical pair: the quadric cone has one divisor with the full
# coroot, the smooth quadric two divisors sharing half of it.
SO3_PHIS = {"so3_x0": [[2]], "so3_x1": [[1], [1]]}


def call_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process with its output captured."""
    from sphervar import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Rejected(Exception):
    pass


def _expect(ok, complaint: str) -> None:
    if not ok:
        raise Rejected(complaint)


def _report(result, command: str, code: int) -> dict:
    got_code, text = result
    _expect(got_code == code, f"exit code {got_code}, expected {code}")
    report = json.loads(text)
    _expect(report["command"] == command, f"report of {report['command']!r}")
    return report["payload"]


def _guard(check):
    """Turn a rejection or a malformed report into a complaint."""
    def guarded(result):
        try:
            check(result)
        except (Rejected, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return guarded


def _fracs(v) -> list[Fraction]:
    return [Fraction(x) for x in v]


class CorpusCli:
    """Every frozen document through recover, validate (of the recovered
    document, and of a tampered copy), classify, polytope and compare
    with itself; plus the so3 pair through compare."""

    def __init__(self, directory: Path, work_dir: Path):
        from sphervar import cli
        self.work_dir = work_dir
        self.docs = []
        for path in sorted(directory.glob("*.json")):
            doc = cli.parse_input(path.read_bytes())
            base = path.stem.partition("_")[2]
            key = DATA_AS_CORPUS.get(base, base)
            if key not in CORPUS_EXPECTED:
                raise ValueError(f"no expectation for {path.name}")
            self.docs.append(self._items(path, key, doc.orders))
        pair = [str(directory / f"data_{x}.json")
                for x in ("so3_x0", "so3_x1")]
        self.pair = Item(
            "compare so3_x0 so3_x1",
            lambda: call_cli(["compare", "--format", "machine",
                              "--input", pair[0], "--input", pair[1]]),
            _guard(self._check_pair))

    def pass_items(self, rng) -> list[Item]:
        order = list(self.docs)
        rng.shuffle(order)
        items = [item for doc_items in order for item in doc_items]
        items.insert(rng.randrange(len(items) + 1), self.pair)
        return items

    def _items(self, path: Path, key: str, orders) -> list[Item]:
        src = str(path)
        recovered = self.work_dir / f"{path.stem}.json"
        tampered = self.work_dir / f"{path.stem}.tampered.json"
        state: dict = {}

        def cli_item(command, inputs, check):
            argv = [command, "--format", "machine"]
            for p in inputs:
                argv += ["--input", str(p)]
            name = " ".join([command] + [Path(p).stem for p in inputs])
            return Item(name, lambda: call_cli(argv), _guard(check))

        def check_recover(result):
            payload = _report(result, "recover", 0)
            n, hidden, roots = CORPUS_EXPECTED[key]
            divisors = payload["divisors"]
            _expect(len(divisors) == n, f"{len(divisors)} divisors, expected {n}")
            if hidden is not None:
                got = sum(1 for d in divisors if d["hidden"])
                _expect(got == hidden, f"{got} hidden divisors, expected {hidden}")
            got_roots = [_fracs(r) for r in payload["hidden_spherical_roots"]]
            _expect(got_roots == [_fracs(r) for r in roots],
                    f"hidden roots {got_roots}, expected {roots}")
            if key in SO3_PHIS:
                phis = sorted(_fracs(d["phi"]) for d in divisors)
                _expect(phis == SO3_PHIS[key], f"so3 functionals {phis}")
            first = state.setdefault("block", result[1])
            _expect(result[1] == first, "recover output differs from pass 1")
            state["payload"] = payload
            document = payload["document"]
            recovered.write_text(json.dumps(document))
            document["divisors"][0]["phi"] = [
                str(-Fraction(x)) for x in document["divisors"][0]["phi"]]
            tampered.write_text(json.dumps(document))

        def check_validate(result):
            payload = _report(result, "validate", 0)
            _expect(payload["passed"] and not payload["violations"],
                    f"recovered document rejected: {payload['violations']}")

        def check_tampered(result):
            payload = _report(result, "validate", 1)
            _expect(not payload["passed"] and payload["violations"],
                    "tampered document accepted")

        def check_classify(result):
            payload = _report(result, "classify", 0)
            types = state["payload"]["root_types"]
            _expect(payload["root_types"] == types["types"],
                    f"root types {payload['root_types']} vs {types['types']}")
            _expect(payload["d_partners"] == types["d_partners"],
                    "d-partners differ from recover")
            type_a = {r for r, t in payload["root_types"].items() if t == "a"}
            _expect(set(payload["type_a_roots"]) == type_a, "type-a set differs")

        def check_polytope(result):
            payload = _report(result, "polytope", 0)
            basis = state["payload"]["lattice_basis"]
            spaces = payload["halfspaces"]
            _expect([(h["divisor"], _fracs(h["phi"])) for h in spaces] ==
                    [(d["id"], _fracs(d["phi"]))
                     for d in state["payload"]["divisors"]],
                    "half-spaces are not the recovered divisors")
            for h in spaces:
                order = orders if isinstance(orders, int) else \
                    (orders or {}).get(h["divisor"], 0)
                _expect(Fraction(h["min_value"]) == -order,
                        "wrong vanishing order")
            base = _fracs(payload["base_weight"])
            _expect(payload["vertices"], "no vertex")
            for kind, vectors in (("vertex", payload["vertices"]),
                                  ("ray", payload["rays"])):
                for v in vectors:
                    w = _fracs(v)
                    if kind == "vertex":
                        w = [a - b for a, b in zip(w, base)]
                    c = _solve(basis, w)
                    _expect(c is not None, f"{kind} {v} outside the lattice span")
                    for h in spaces:
                        value = sum(a * b for a, b in zip(_fracs(h["phi"]), c))
                        least = Fraction(h["min_value"]) if kind == "vertex" else 0
                        _expect(value >= least,
                                f"{kind} {v} violates the half-space of "
                                f"{h['divisor']}")

        def check_compare(result):
            payload = _report(result, "compare", 0)
            for field in ("monoid_equal", "psi_equal", "xplus_equivalent",
                          "xpluspsi_equivalent", "recovered_data_identical"):
                _expect(payload[field] is True, f"self-compare: {field} not true")

        return [
            cli_item("recover", [src], check_recover),
            cli_item("validate", [recovered], check_validate),
            cli_item("validate", [tampered], check_tampered),
            cli_item("classify", [src], check_classify),
            cli_item("polytope", [src], check_polytope),
            cli_item("compare", [src, src], check_compare),
        ]

    @staticmethod
    def _check_pair(result):
        payload = _report(result, "compare", 0)
        _expect(payload["monoid_equal"] is True, "so3 monoids differ")
        _expect(payload["psi_equal"] is False, "so3 root sets equal")
        _expect(payload["xpluspsi_equivalent"] is False, "so3 pair equivalent")
        _expect(payload["recovered_data_identical"] is None,
                "so3 pair compared divisor data")


def smoke_check() -> None:
    """One `polytope` call through the CLI on the smooth quadric, so that a
    broken entry point stops the run before any timing."""
    path = INPUTS / "corpus-cli" / "data_so3_x1.json"
    code, _ = call_cli(["polytope", "--format", "machine", "--input", str(path)])
    if code != 0:
        raise RuntimeError(f"entry-point check exited {code}")


# name -> (constructor taking the work directory, seconds one pass took
# at the reference commit on a 2-core x86-64 machine with Python 3.11)
WORKLOADS = {
    "corpus-cli": (lambda work_dir: CorpusCli(INPUTS / "corpus-cli", work_dir),
                   2.8),
    "flag-ladder": (lambda _: Ladder(INPUTS / "flag-ladder", flag_oracle), 1.0),
    "toric-ladder": (lambda _: Ladder(INPUTS / "toric-ladder", toric_oracle),
                     2.3),
}
