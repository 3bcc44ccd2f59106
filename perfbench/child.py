"""Fresh-interpreter helpers of the benchmark; run.py starts one per call.

    python perfbench/child.py setup FAMILY:N [FAMILY:N ...]
        Import cartansuper and construct every listed model and its L'
        through the public constructors; print "family n dim_L dim_L'" per
        model.  run.py times this whole process as the workload's set-up.

    python perfbench/child.py trace OUT.json CLI-ARG [CLI-ARG ...]
        Run cartansuper.cli.main(CLI-ARGS) with the layer functions wrapped
        where their callers bind them.  Spans (name, parent, start, end) stay
        in memory; at exit their per-name totals, self times and the
        counters are written once to OUT.json, and the CLI's exit code is
        returned.

cartansuper is found through PYTHONPATH, which run.py points at the
checkout's src/.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

pc = time.perf_counter

# Span name -> layer its self time is charged to, where the name's prefix is
# not the layer.  w_bracket is families code, but nearly all of its time is
# the Grassmann products of exterior, whose only caller it is.
LAYER_OF = {"families.w_bracket": "exterior"}


class Tracer:
    """Spans kept as one flat array of (name id, parent, start, end).

    A span is addressed by its offset in the array; a parent of -1 is the
    root.  Self time is a span's duration minus the durations of its
    children, computed once in summary().
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.spans = array("d")
        self.stack: List[int] = [-1]
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.absent: List[str] = []
        # which add_probes call (certify stage) is running
        self.stage = 0
        self.in_certify = False

    def nid(self, name: str) -> int:
        got = self.name_id.get(name)
        if got is None:
            got = self.name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def wrap(self, fn: Callable, name, after=None) -> Callable:
        """A span around every call of fn.  `name` is a string, or a callable
        giving the name from the call's arguments; `after(args, result)`
        runs once the span is closed."""
        spans, stack = self.spans, self.stack

        if isinstance(name, str) and after is None:
            # the common case, kept lean: some wrapped functions run ~10^5
            # times per job
            nid = self.nid(name)

            def wrapper(*args, **kwargs):
                i = len(spans)
                spans.extend((nid, stack[-1], pc(), 0.0))
                stack.append(i)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[i + 3] = pc()
                    stack.pop()

        else:
            fixed = self.nid(name) if isinstance(name, str) else None
            no_after = after is None

            def wrapper(*args, **kwargs):
                nid = fixed if fixed is not None else self.nid(name(args))
                i = len(spans)
                spans.extend((nid, stack[-1], pc(), 0.0))
                stack.append(i)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[i + 3] = pc()
                    stack.pop()
                if no_after:
                    return result
                after(args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn: Callable, name: str, hook_name: str,
                       hook: Callable) -> Callable:
        """One span per generator call holding the time spent producing its
        items (they are consumed interleaved with the caller's work), plus
        one `hook_name` span holding the time spent in `hook(item)`."""
        spans, stack = self.spans, self.stack
        nid, hook_nid = self.nid(name), self.nid(hook_name)

        def wrapper(*args, **kwargs):
            parent, start = stack[-1], pc()
            busy = hook_busy = 0.0
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = pc()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += pc() - t0
                        return
                    t1 = pc()
                    hook(item)
                    t2 = pc()
                    busy += t1 - t0
                    hook_busy += t2 - t1
                    yield item
            finally:
                spans.extend((nid, parent, start, start + busy))
                spans.extend((hook_nid, parent, start, start + hook_busy))

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        flat = self.spans.tolist()
        names, parents = flat[0::4], flat[1::4]
        dur = [e - s for s, e in zip(flat[2::4], flat[3::4])]
        child = [0.0] * len(dur)
        for d, p in zip(dur, parents):
            if p >= 0:
                child[int(p) // 4] += d
        by_name: Dict[str, List[float]] = {}
        for nid, d, c in zip(names, dur, child):
            row = by_name.setdefault(self.names[int(nid)], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - c
        layer_self: Dict[str, float] = {}
        for name, (_, _, self_s) in by_name.items():
            layer = LAYER_OF.get(name, name.split(".", 1)[0])
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        return {
            "spans": len(dur),
            "by_name": by_name,
            "layer_self_s": layer_self,
            "counters": self.counters,
            "maxima": self.maxima,
            "absent": self.absent,
        }


def install(tr: Tracer) -> None:
    """Wrap every layer function that the benchmark's per-layer metrics name.

    A name that no longer exists is recorded in `tr.absent` and skipped, so
    that the metrics it feeds are reported absent instead of failing the run.
    """

    def patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = importlib.import_module(f"cartansuper.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, last, None)
        if fn is None:
            tr.absent.append(f"{module}.{attr}")
            return
        setattr(owner, last, make(fn))

    def span(module: str, attr: str, name, after=None) -> None:
        patch(module, attr, lambda fn: tr.wrap(fn, name, after))

    # families, as bound in cli and inside families
    span("cli", "build", "families.build")
    span("cli", "build_lprime", "families.build_lprime")
    span("cli", "attach_derived", "families.attach_derived")
    span("families", "attach_derived", "families.attach_derived")
    span("families", "w_bracket", "families.w_bracket")
    span("linalg", "SpanSolver.express", "linalg.span_express")

    # liesuper
    span("cli", "check_axioms", "liesuper.check_axioms",
         after=lambda a, r: tr.count("jacobi_triples", r.triples_checked))
    span("cli", "model_to_json", "liesuper.model_to_json",
         after=lambda a, r: tr.count("model_bytes", len(r)))
    span("cli", "model_from_json", "liesuper.model_from_json",
         after=lambda a, r: tr.count("model_bytes", len(a[0])))

    # derivations
    seen: set = set()

    def hash_row(item) -> None:
        shift, row = item
        tr.count("leibniz_rows_emitted")
        seen.add(hash((shift, frozenset(row.items()))))

    def space_after(args, result) -> None:
        tr.count("leibniz_rows_distinct", len(seen))
        seen.clear()

    span("cli", "derivation_report", "derivations.derivation_report")
    span("derivations", "derivation_space", "derivations.derivation_space",
         after=space_after)
    span("derivations", "ad_image", "derivations.ad_image")
    span("derivations", "transitivity_check", "derivations.transitivity_check")
    patch("derivations", "leibniz_rows", lambda fn: tr.wrap_generator(
        fn, "derivations.leibniz_rows", "trace.row_hashing", hash_row))
    span("derivations", "kernel_of_rows", "linalg.kernel_of_rows@derivations",
         after=lambda a, r: tr.peak("largest_block_cols", a[1]))

    # localcert
    def stage_name(args) -> str:
        if not tr.in_certify:
            return "localcert.add_probes"
        tr.stage += 1
        return f"localcert.stage{tr.stage}"

    def stage_after(args, result) -> None:
        if tr.in_certify and tr.stage == 1:
            tr.count("residual_after_stage1", args[0].residual_dim())

    def matches_after(args, ok) -> None:
        if ok and tr.in_certify:
            tr.peak("certified_stage", tr.stage)

    def rows_after(args, rows) -> None:
        if not rows:
            tr.count("constraint_rows_empty")

    def cut_wrap(fn: Callable) -> Callable:
        timed = tr.wrap(fn, "localcert.cut")

        def cut(engine, shift, functional):
            before = len(engine.space[shift])
            timed(engine, shift, functional)
            if len(engine.space[shift]) < before:
                tr.count("cuts_effective")

        return cut

    def certify_wrap(fn: Callable) -> Callable:
        timed = tr.wrap(fn, "localcert.certify")

        def certify(*args, **kwargs):
            tr.stage, tr.in_certify = 0, True
            try:
                cert = timed(*args, **kwargs)
            finally:
                tr.in_certify = False
            tr.count("probes_used", len(cert.probe_labels))
            return cert

        return certify

    patch("cli", "certify", certify_wrap)
    span("cli", "certify_2local", "localcert.certify_2local",
         after=lambda a, cert: tr.count("twolocal_pairs", cert.twolocal_pairs_checked))
    span("localcert", "ConstraintEngine.__init__", "localcert.engine_init")
    span("localcert", "ConstraintEngine.add_probes", stage_name, after=stage_after)
    span("localcert", "ConstraintEngine.constraint_rows", "localcert.constraint_rows",
         after=rows_after)
    patch("localcert", "ConstraintEngine._cut", cut_wrap)
    span("localcert", "ConstraintEngine.matches_ad", "localcert.matches_ad",
         after=matches_after)
    span("localcert", "kernel_of_rows", "linalg.kernel_of_rows@localcert")
    span("localcert", "rref", "linalg.rref@localcert")
    span("localcert", "solve", "linalg.solve@localcert")

    # last, so that the entry point calls the patched handlers
    span("cli", "main", "cli.main")


def trace_main(out_path: str, cli_args: List[str]) -> int:
    t0 = pc()
    import cartansuper.cli as cli

    import_s = pc() - t0
    tr = Tracer()
    install(tr)
    rc: Optional[int] = None
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors exit from inside main
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        summary = tr.summary()
        summary["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return rc


def setup_main(models: List[str]) -> int:
    from cartansuper import build, build_lprime

    for item in models:
        family, n = item.split(":")
        A = build(family, int(n))
        P = build_lprime(A)
        print(family, n, A.dim, P.dim_lprime)
    return 0


def main(argv: List[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup_main(argv[1:])
    if len(argv) >= 3 and argv[0] == "trace":
        return trace_main(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
