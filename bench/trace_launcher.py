"""Run the cherpoi CLI with spans recorded around each layer's public calls.

Usage: python3 trace_launcher.py OUT_PREFIX CLI_ARG...

The launcher imports cherpoi, replaces every traced function in each
``cherpoi.*`` namespace that bound it (modules import each other's names, so
patching the defining module alone would miss most calls), then runs
``cherpoi.verifier_cli.main`` on the remaining arguments. Spans stay in
memory and are written when the CLI returns:

- ``OUT_PREFIX.json``: trace id, span names, span count, counters and the
  names of targets this version of cherpoi no longer has;
- ``OUT_PREFIX.bin``: four arrays of ``count`` items each, in this order:
  name index (int32), parent span index (int32, -1 for a root span), start
  and end (float64 seconds of ``time.perf_counter``).

Nothing inside ``src/cherpoi`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

# (module, attribute path, span name). A dotted attribute is a method: the
# class attribute is replaced, together with every alias of the same function
# in that class (LaurentPoly.__rmul__ is __mul__).
TARGETS = (
    ("commutative_oracle", "ideal_power_dims", "commutative_oracle.ideal_power_dims"),
    ("commutative_oracle", "jbar_dims", "commutative_oracle.jbar_dims"),
    ("commutative_oracle", "parity_check", "commutative_oracle.parity_check"),
    ("commutative_oracle", "coinvariant_multiplicities", "commutative_oracle.coinvariant_multiplicities"),
    ("_linalg", "EchelonSpan.add", "_linalg.echelon_add"),
    ("_linalg", "bareiss_solve", "_linalg.bareiss_solve"),
    ("exact_poly", "LaurentPoly.__mul__", "exact_poly.mul"),
    ("exact_poly", "divexact", "exact_poly.divexact"),
    ("exact_poly", "rf_equal", "exact_poly.rf_equal"),
    ("exact_poly", "expand_window", "exact_poly.expand_window"),
    ("macdonald", "kostka_macdonald", "macdonald.kostka_macdonald"),
    ("macdonald", "macdonald_P", "macdonald.macdonald_P"),
    ("macdonald", "procesi_fiber", "macdonald.procesi_fiber"),
    ("_cache", "load", "_cache.load"),
    ("_cache", "store", "_cache.store"),
    ("hilbert_series", "bigraded_J", "hilbert_series.bigraded_J"),
    ("hilbert_series", "jbar_closed", "hilbert_series.jbar_closed"),
    ("hilbert_series", "jbar_via_specialization", "hilbert_series.jbar_via_specialization"),
    ("hilbert_series", "nbar_series", "hilbert_series.nbar_series"),
    ("hilbert_series", "mbar_series", "hilbert_series.mbar_series"),
    ("sn_rep", "fake_degree", "sn_rep.fake_degree"),
    ("sn_rep", "fake_degree_maj", "sn_rep.fake_degree_maj"),
    ("sn_rep", "character_table", "sn_rep.character_table"),
    ("partition_core", "enumerate_partitions", "partition_core.enumerate_partitions"),
    ("partition_core", "enumerate_syt", "partition_core.enumerate_syt"),
    ("graded_free", "polynomial_algebra", "graded_free.polynomial_algebra"),
    ("graded_free", "extract_homogeneous_basis", "graded_free.extract_homogeneous_basis"),
    ("verifier_cli", "run_suite", "verifier_cli.run_suite"),
    ("verifier_cli", "SuiteReport.to_json", "verifier_cli.to_json"),
)


class Tracer:
    """In-memory span store plus the counters recorded at span exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, fn, name: str, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def bump(self, key: str, by: int = 1):
        self.counters[key] = self.counters.get(key, 0) + by

    def high(self, key: str, value: int):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def write(self, prefix: str, trace_id: str):
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        header = {
            "trace_id": trace_id,
            "names": self.names,
            "count": len(self.name_ids),
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh, sort_keys=True)


def _observers(tracer: Tracer) -> dict:
    def mul(result):
        if result is not NotImplemented:
            tracer.high("exact_poly.mul.max_terms", len(result.terms))

    def echelon_add(result):
        if result:
            tracer.bump("_linalg.echelon_add.accepted")

    def cache_load(result):
        if result is not None:
            tracer.bump("_cache.load.hits")

    def macdonald_p(result):
        for coeff in result.coeffs.values():
            for factor in coeff.den:
                tracer.high("macdonald.macdonald_P.max_den_terms", len(factor.terms))

    return {
        "exact_poly.mul": mul,
        "_linalg.echelon_add": echelon_add,
        "_cache.load": cache_load,
        "macdonald.macdonald_P": macdonald_p,
    }


def install(tracer: Tracer) -> list:
    """Wrap every target in every cherpoi namespace; returns the live engines list.

    Targets absent from this version of cherpoi are listed in tracer.missing.
    """
    importlib.import_module("cherpoi.verifier_cli")
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("cherpoi.")]
    observers = _observers(tracer)
    for module_name, attr, span in TARGETS:
        try:
            module = importlib.import_module(f"cherpoi.{module_name}")
        except ImportError:
            tracer.missing.append(span)
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            tracer.missing.append(span)
            continue
        traced = tracer.wrap(original, span, observers.get(span))
        if owner_name:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, traced)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    engines: list = []
    oracle = sys.modules.get("cherpoi.commutative_oracle")
    engine_cls = getattr(oracle, "_Engine", None)
    if engine_cls is None:
        tracer.missing.append("commutative_oracle.engine_entries")
    else:
        init = engine_cls.__init__

        @functools.wraps(init)
        def registering_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(self)

        engine_cls.__init__ = registering_init
    return engines


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    engines = install(tracer)
    from cherpoi.verifier_cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        for engine in engines:
            tracer.high("commutative_oracle.engine_entries", getattr(engine, "_entries", 0))
        tracer.write(prefix, f"{os.getpid()}-{time.time_ns()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
