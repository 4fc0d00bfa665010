"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each layer with timing
wrappers, at the attribute where the program's callers look them up: a
module global for `from .x import f` imports, a class attribute for
methods.  Nothing under src/ is edited.  Each wrapper records one span;
a span's self time is its duration minus the time of the spans it
encloses, and its inclusive time is counted once for nested calls of the
same name.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (span name, module, attribute path) for every wrapped entry point.
TARGETS = [
    ("cli.main", "sphervar.cli", "main"),
    ("cli.parse", "sphervar.cli", "parse_input"),
    ("rootsys.build_root_data", "sphervar.cli", "build_root_data"),
    ("recovery.recover", "sphervar.cli", "recover_divisors"),
    ("recovery.recover", "sphervar.recovery", "recover_divisors"),
    ("recovery.walk", "sphervar.recovery", "recover_prime"),
    ("recovery.validate", "sphervar.cli", "validate_luna_datum"),
    ("recovery.validate", "sphervar.recovery", "validate_luna_datum"),
    ("recovery.polytope", "sphervar.cli", "moment_polytope"),
    ("recovery.polytope", "sphervar.recovery", "MomentPolytope.vertices_ambient"),
    ("recovery.polytope", "sphervar.recovery", "MomentPolytope.rays_ambient"),
    ("recovery.polytope", "sphervar.recovery", "MomentPolytope.is_bounded"),
    ("recovery.polytope", "sphervar.recovery", "MomentPolytope.is_empty"),
    ("spherical.classify", "sphervar.cli", "classify_root_types"),
    ("spherical.classify", "sphervar.recovery", "classify_root_types"),
    ("monoid.saturation", "sphervar.monoid", "WeightMonoid.is_saturated"),
    ("monoid.localize", "sphervar.monoid", "WeightMonoid.localize"),
    ("monoid.invertible", "sphervar.monoid", "WeightMonoid._invertible_flags"),
    ("monoid.minimal_generators", "sphervar.monoid",
     "WeightMonoid.minimal_generators"),
    ("polyhedral.cone", "sphervar.polyhedral", "RationalCone.from_generators"),
    ("polyhedral.cone", "sphervar.polyhedral", "RationalCone.from_inequalities"),
    ("polyhedral.hilbert", "sphervar.monoid", "hilbert_basis_with_units"),
    ("polyhedral.hilbert", "sphervar.recovery", "hilbert_basis_with_units"),
    ("polyhedral.membership", "sphervar.monoid", "monoid_membership"),
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.walk_nodes = 0
        self.minting_nodes = 0
        self._open: Counter = Counter()
        self._stack: list[list[int]] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._open[name] += 1
            children = [0]
            self._stack.append(children)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._stack.pop()
                self._open[name] -= 1
                if not self._open[name]:
                    self.total_ns[name] += dt
                self.self_ns[name] += dt - children[0]
                if self._stack:
                    self._stack[-1][0] += dt
        return traced

    def _count_walk(self, fn):
        """Count the nodes of every recovery walk through its trace list."""
        @functools.wraps(fn)
        def counted(m, psi, trace=None, warnings=None):
            nodes = [] if trace is None else trace
            start = len(nodes)
            try:
                return fn(m, psi, nodes, warnings)
            finally:
                visited = nodes[start:]
                self.walk_nodes += len(visited)
                self.minting_nodes += sum(1 for n in visited if n.minted)
        return counted

    def install(self) -> None:
        """Wrap every target of the currently imported sphervar modules."""
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.span(name, raw.__func__))
            elif isinstance(raw, functools.cached_property):
                new = functools.cached_property(self.span(name, raw.func))
                new.__set_name__(owner, attr)
            elif name == "recovery.walk":
                new = self.span(name, self._count_walk(raw))
            else:
                new = self.span(name, raw)
            setattr(owner, attr, new)

    def ms(self, name: str, self_time: bool = False) -> float:
        ns = self.self_ns[name] if self_time else self.total_ns[name]
        return ns / 1e6

    def table(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_ms": self.ms(name),
                       "self_ms": self.ms(name, self_time=True)}
                for name in sorted(self.calls)}

    def metrics(self) -> dict:
        """The per-layer metrics, by the names BENCHMARK.json declares."""
        nodes = self.walk_nodes
        return {
            "cli.parse_ms": (self.ms("cli.parse"), "ms"),
            "cli.main_self_ms": (self.ms("cli.main", self_time=True), "ms"),
            "recovery.walk_self_ms": (
                self.ms("recovery.walk", self_time=True), "ms"),
            "recovery.walk_nodes": (nodes, "count"),
            "recovery.minting_node_ratio": (
                self.minting_nodes / nodes if nodes else 0.0, "ratio"),
            "recovery.validate_ms": (self.ms("recovery.validate"), "ms"),
            "recovery.polytope_ms": (self.ms("recovery.polytope"), "ms"),
            "monoid.saturation_ms": (self.ms("monoid.saturation"), "ms"),
            "polyhedral.cone_builds": (self.calls["polyhedral.cone"], "count"),
            "polyhedral.cone_ms": (self.ms("polyhedral.cone"), "ms"),
            "polyhedral.hilbert_calls": (
                self.calls["polyhedral.hilbert"], "count"),
            "polyhedral.hilbert_ms": (self.ms("polyhedral.hilbert"), "ms"),
            "polyhedral.membership_calls": (
                self.calls["polyhedral.membership"], "count"),
            "polyhedral.membership_ms": (
                self.ms("polyhedral.membership"), "ms"),
            "monoid.localize_calls": (self.calls["monoid.localize"], "count"),
            "monoid.invertible_ms": (self.ms("monoid.invertible"), "ms"),
            "monoid.minimal_generators_ms": (
                self.ms("monoid.minimal_generators"), "ms"),
            "spherical.classify_calls": (
                self.calls["spherical.classify"], "count"),
            "spherical.classify_ms": (self.ms("spherical.classify"), "ms"),
            "rootsys.build_root_data_ms": (
                self.ms("rootsys.build_root_data"), "ms"),
        }
