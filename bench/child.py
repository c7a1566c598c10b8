"""One benchmark request, run in a fresh interpreter.

    python3 bench/child.py <result.json> <trace 0|1> <cli args...>

Times `import wirecoupling.cli` (set-up) and `cli.main(argv)` (the
request, from config load to the written file), then writes the exit
code, both times and the peak resident set to <result.json>.

With trace 1, wrappers are installed by module attribute name around the
public functions of the package before the request starts. Each call
becomes a span (name, parent span, start, end, error type) kept in
memory; the spans and the pair arguments seen by `mutual_impedance` are
written with the result, once, after the request. A target attribute
that does not exist is listed as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

# (module, attribute path, span name). The same span name on two
# attributes means one function imported into two modules.
TARGETS = (
    ("wirecoupling.cli", "load_scene_config", "config.load"),
    ("wirecoupling.cli", "resolve_sweep_scene", "config.resolve_sweep"),
    ("wirecoupling.config", "build_grid", "geometry.build_grid"),
    ("wirecoupling.geometry", "Scene.__post_init__", "geometry.scene_validate"),
    ("wirecoupling.cli", "assemble_impedances", "impedance.assemble"),
    ("wirecoupling.impedance", "mutual_impedance", "impedance.pair"),
    ("wirecoupling.impedance", "mutual_impedance_oracle", "impedance.oracle"),
    ("wirecoupling.impedance", "exp_integral_e1", "special.e1"),
    ("wirecoupling.impedance", "adaptive_quad", "special.quad"),
    ("wirecoupling.cli", "end_to_end", "channel.end_to_end"),
    ("wirecoupling.channel", "end_to_end", "channel.end_to_end"),
    ("wirecoupling.channel", "lu_factor", "channel.lu_factor"),
    ("wirecoupling.cli", "optimize_tuning", "channel.optimize"),
)
PAIR_SPAN = "impedance.pair"


class Tracer:
    """In-memory span recorder for one request."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []     # [name index, parent, start, end, error]
        self.pairs: list = []     # (args, kwargs) of each pair call
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, pairs = self.spans, self._stack, self.pairs
        record_pair = name == PAIR_SPAN
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if record_pair:
                pairs.append((args, kwargs))
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(fn, name))

    def pair_keys(self) -> list | None:
        """(rho, |dz|, h_p, h_q, same) of every recorded pair, or None
        when the pair arguments no longer carry wires."""
        keys = []
        for args, kwargs in self.pairs:
            bound = dict(zip(("source", "observer", "k", "same"), args))
            bound.update(kwargs)
            try:
                p, q = bound["source"], bound["observer"]
                same = bool(bound.get("same", False))
                dx = q.center[0] - p.center[0]
                dy = q.center[1] - p.center[1]
                rho = q.radius if same else (dx * dx + dy * dy) ** 0.5
                dz = 0.0 if same else abs(q.center[2] - p.center[2])
                keys.append((rho, dz, p.half_length, q.half_length, same))
            except (KeyError, AttributeError, IndexError, TypeError):
                return None
        return keys

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "pair_keys": self.pair_keys(), "missing": self.missing}


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    t0 = time.perf_counter()
    import wirecoupling.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t1 = time.perf_counter()
    code = cli.main(cli_args)
    latency_s = time.perf_counter() - t1

    result = {
        "code": code,
        "setup_s": setup_s,
        "latency_s": latency_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module_file": cli.__file__,
        "trace": tracer.dump() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
