"""Traced run of one CLI command or one sweep, in a fresh interpreter.

    python3 perfbench/tracing.py SPANS.json cli ARGV...
    python3 perfbench/tracing.py SPANS.json sweep SAMPLE.json OUT.json

Before the job starts, every public function of the layers (field, poly,
protocol, formats, simnet, cli) is wrapped at the name its caller looks it
up by, for example `multishare.cli.deal` and `multishare.formats.
share_to_dict`. No file of the program changes. Each wrapper records a
span (name, start, end, parent) and counts in memory; the spans are
written to SPANS.json when the job ends.

Spans and counts carry names, times, sizes and counts only, never share
values or secret bytes.
"""

from __future__ import annotations

import builtins
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import jobs  # puts the program's src/ on sys.path

from multishare import cli, field, formats, protocol, simnet

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, leaf seconds]
        self.stack = []
        self.counts = Counter()
        self.wrappers = {}

    def wrap(self, name, fn, on_result=None):
        """One wrapper per wrapped function, however many names it is
        installed under."""
        if fn in self.wrappers:
            return self.wrappers[fn]
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        self.wrappers[fn] = traced
        self.wrappers[traced] = traced
        return traced

    def patch(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                       on_result))

    def leaf(self, seconds):
        """Time of an unspanned hot call, charged to the open span."""
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds


class CountingRng:
    """Stands in for the OS-entropy generator the CLI deals with. Draws
    pass straight through; only their number, width, time and whether the
    field's rejection sampling keeps them are counted."""

    def __init__(self, rng, tracer, modulus):
        self._rng = rng
        self._tracer = tracer
        self._modulus = modulus

    def getrandbits(self, bits):
        t0 = perf_counter()
        v = self._rng.getrandbits(bits)
        dt = perf_counter() - t0
        counts = self._tracer.counts
        counts["field.entropy_draws"] += 1
        counts["field.entropy_bits"] += bits
        counts["field.entropy_s"] += dt
        counts["field.entropy_accepted"] += v < self._modulus
        self._tracer.leaf(dt)
        return v

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def install(tracer, modulus):
    """Wrap every layer's public functions. A function keeps the wrapper
    (and counting hook) it got first under every later name, so the names
    with hooks come first."""
    t, c = tracer, tracer.counts

    def count(key, amount):
        c[key] += amount

    # protocol, as protocol itself and simnet look it up.
    def dealt(args, result):
        count("protocol.values_dealt",
              sum(len(s.values) for v in result.values() for s in v))

    def vectors(args, result):
        count("protocol.count_vectors",
              math.prod(n.node_count + 1 for n in args[0].networks))

    t.patch(simnet, "deal", "protocol.deal", dealt)
    t.patch(protocol, "compute_thresholds_exhaustive",
            "protocol.compute_thresholds_exhaustive", vectors)
    t.patch(protocol, "compute_thresholds_formula",
            "protocol.compute_thresholds_formula")
    t.patch(protocol, "access_oracle", "protocol.access_oracle")
    t.patch(protocol, "reconstruct", "protocol.reconstruct")
    t.patch(protocol.Topology, "__post_init__", "protocol.topology")
    for attr in ("encode_secret", "refresh", "apply_node_refresh",
                 "decode_secret"):
        t.patch(simnet, attr, "protocol." + attr)

    # field and poly, as protocol (and simnet's inline import) look them up.
    def elim(args, result):
        rows, v = args[0], args[1]
        count("field.elim_rows", len(rows))
        c["field.elim_max_cols"] = max(c["field.elim_max_cols"], len(v))

    t.patch(field, "express_over_rows", "field.express_over_rows", elim)
    t.patch(protocol, "express_over_rows", "field.express_over_rows")
    t.patch(protocol, "is_probable_prime", "field.is_probable_prime")
    t.patch(protocol, "lagrange_zero_weights", "poly.lagrange_zero_weights")
    t.patch(protocol, "birkhoff_matrix_row", "poly.birkhoff_matrix_row")

    # formats, as cli (module attribute) and simnet (imported names) look
    # them up.
    def encoded(args, result):
        count("formats.encoded_bytes", len(result))

    for owner in (formats, simnet):
        t.patch(owner, "canonical_json", "formats.canonical_json", encoded)
        t.patch(owner, "topology_from_dict", "formats.topology_from_dict")
        t.patch(owner, "topology_to_dict", "formats.topology_to_dict")
    for attr in ("share_to_dict", "share_from_dict", "manifest_dict"):
        t.patch(formats, attr, "formats." + attr)

    # simnet: the owner's and adversary's steps and the state file.
    def rows(args, result):
        c["simnet.rows_at_final_verdict"] = len(result)

    def saved(args, result):
        c["simnet.state_bytes"] = os.path.getsize(args[1])

    sim = simnet.Simulation
    t.patch(sim, "adversary_rows", "simnet.adversary_rows", rows)
    t.patch(sim, "save_state", "simnet.save_state", saved)
    for attr in ("owner_store", "owner_refresh", "owner_reconstruct",
                 "adversary_verdict"):
        t.patch(sim, attr, "simnet." + attr)

    # cli: the root span, the names the cmd_* functions look up, the
    # entropy source they deal with, and their file I/O (counted, and
    # timed as part of cli's self time).
    t.patch(cli, "main", "cli.main")
    for attr in ("encode_secret", "deal", "refresh", "apply_node_refresh",
                 "reconstruct", "decode_secret",
                 "compute_thresholds_formula",
                 "compute_thresholds_exhaustive"):
        t.patch(cli, attr, "protocol." + attr)
    t.patch(cli, "run_scenario", "simnet.run_scenario")
    t.patch(cli, "load_state", "simnet.load_state")
    real_crypto_rng = cli.crypto_rng
    cli.crypto_rng = lambda: CountingRng(real_crypto_rng(), t, modulus)

    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            count("cli.read_bytes", os.path.getsize(file))
        return real_open(file, mode, *args, **kwargs)

    class CountingPath(type(Path())):
        def read_bytes(self):
            data = super().read_bytes()
            count("cli.read_bytes", len(data))
            return data

        def read_text(self, *args, **kwargs):
            count("cli.read_bytes", self.stat().st_size)
            return super().read_text(*args, **kwargs)

        def write_bytes(self, data):
            count("cli.write_bytes", len(data))
            count("cli.files_written", 1)
            return super().write_bytes(data)

    cli.open = counting_open
    cli.Path = CountingPath


def main(argv):
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer, jobs.MODULUS)
    code = 0
    try:
        if mode == "cli":
            code = cli.main(rest)
        elif mode == "sweep":
            jobs.run_sweep(*rest)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        Path(spans_path).write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts}),
            encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
