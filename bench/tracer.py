"""Per-layer tracing by wrapping blockpoly's functions at run time.

:meth:`Tracer.install` replaces each traced function with a wrapper in every
blockpoly module that binds it, ``from``-imports included (``pipeline`` binds
``qd_run`` and ``newton_horner``, ``horner`` binds ``eval_right``), and
:meth:`Tracer.uninstall` puts the originals back. Wrappers keep a span stack:
a span's self time is its duration less the time of the traced spans it
encloses. Times are held per operation until :meth:`Tracer.commit` scales
them by that operation's drift factor.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from blockpoly.errors import BlockPolyError, NoConvergence

MODULES = ("blockpoly", "blockpoly.cli", "blockpoly.decoupler", "blockpoly.horner",
           "blockpoly.io", "blockpoly.linalg", "blockpoly.pipeline",
           "blockpoly.polynomial", "blockpoly.qd", "blockpoly.transforms")

#: (defining module, function) -> span name; a span's name is its layer metric.
SPANS = {
    ("blockpoly.qd", "qd_run"): "qd",
    ("blockpoly.horner", "newton_horner"): "horner",
    ("blockpoly.horner", "horner_iterate"): "horner",
    ("blockpoly.horner", "two_stage"): "horner",
    ("blockpoly.horner", "frechet_matrix"): "horner.frechet",
    ("blockpoly.linalg", "solve"): "linalg.solve",
    ("blockpoly.linalg", "det"): "linalg.det",
    ("blockpoly.polynomial", "eval_right"): "polynomial.eval",
    ("blockpoly.polynomial", "eval_left"): "polynomial.eval",
    ("blockpoly.polynomial", "synthetic_div_right"): "polynomial.div",
    ("blockpoly.polynomial", "synthetic_div_left"): "polynomial.div",
    ("blockpoly.polynomial", "reconstruct"): "polynomial.reconstruct",
    ("blockpoly.transforms", "deflate_right"): "transforms.deflate",
    ("blockpoly.transforms", "chain_to_right_solvents"): "transforms.solvents",
    ("blockpoly.transforms", "chain_to_left_solvents"): "transforms.solvents",
    ("blockpoly.pipeline", "full_factorize"): "pipeline",
    ("blockpoly.pipeline", "full_solvent_sets"): "pipeline",
    ("blockpoly.pipeline", "factorize_nonmonic"): "pipeline",
    ("blockpoly.pipeline", "verify"): "pipeline.verify",
    ("blockpoly.decoupler", "design_decoupling"): "decoupler",
    ("blockpoly.io", "load_polynomial"): "io.load",
    ("blockpoly.io", "load_mfd"): "io.load",
}

#: Every per-layer metric with its unit, in report order.
METRICS = {
    "qd.calls": "count", "qd.sweeps": "count", "qd.s": "s",
    "horner.calls": "count", "horner.steps": "count", "horner.s": "s",
    "horner.frechet.calls": "count", "horner.frechet.s": "s", "horner.frechet.mb": "MB",
    "linalg.solve.calls": "count", "linalg.solve.s": "s", "linalg.solve.gflop": "GFLOP",
    "linalg.solve.n_max": "count", "linalg.det.calls": "count", "linalg.det.s": "s",
    "polynomial.eval.calls": "count", "polynomial.eval.s": "s",
    "polynomial.div.calls": "count", "polynomial.div.s": "s",
    "polynomial.reconstruct.s": "s",
    "transforms.deflate.s": "s", "transforms.solvents.calls": "count",
    "transforms.solvents.s": "s",
    "pipeline.s": "s", "pipeline.verify.s": "s", "pipeline.retries": "count",
    "pipeline.qd_unconverged": "count",
    "decoupler.calls": "count", "decoupler.s": "s",
    "io.load.s": "s",
}


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.pending = defaultdict(float)
        self.stack = []
        self.n_max = 0
        self.refine_failed = False
        self.originals = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for (home, fname), span in SPANS.items():
            original = getattr(importlib.import_module(home), fname)
            wrapper = self._wrap(span, original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self.originals.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self.originals):
            setattr(mod, fname, original)
        self.originals = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span, fn):
        def wrapper(*args, **kwargs):
            self._before(span, args)
            frame = [0.0, span]
            self.stack.append(frame)
            t0 = time.perf_counter()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BlockPolyError as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.pending[span + ".s"] += dt - frame[0]
                self.totals[span + ".calls"] += 1
                self._after(span, args, out, exc)
        wrapper.__wrapped__ = fn
        return wrapper

    def _in_pipeline(self) -> bool:
        return any(span == "pipeline" for _, span in self.stack)

    def _before(self, span, args):
        if span == "horner" and self._in_pipeline():
            if self.refine_failed:
                self.totals["pipeline.retries"] += 1
        elif span == "linalg.solve":
            n = len(args[0])
            rhs = args[1].shape[1] if getattr(args[1], "ndim", 1) == 2 else 1
            self.totals["linalg.solve.gflop"] += (2 / 3 * n ** 3 + 2 * n * n * rhs) / 1e9
            self.n_max = max(self.n_max, n)
        elif span == "horner.frechet":
            self.totals["horner.frechet.mb"] += 8 * args[0].m ** 4 / 1e6
        elif span == "transforms.deflate":
            self.refine_failed = False

    def _after(self, span, args, out, exc):
        if span == "qd":
            trace = getattr(exc, "trace", None) if out is None else out[1]
            if trace is not None:
                self.totals["qd.sweeps"] += len(trace.sweeps)
            if isinstance(exc, NoConvergence) and self._in_pipeline():
                self.totals["pipeline.qd_unconverged"] += 1
        elif span == "horner":
            trace = getattr(exc, "trace", None) if out is None else out[1]
            if trace is not None:
                self.totals["horner.steps"] += len(trace.iterates) - 1
            if self._in_pipeline():
                self.refine_failed = exc is not None

    def commit(self, factor: float):
        """Add the pending span times of one operation, scaled by ``factor``."""
        for key, value in self.pending.items():
            self.totals[key] += value * factor
        self.pending.clear()
        self.refine_failed = False

    def metrics(self, passes: int, io_load_s: float) -> dict:
        """Every per-layer metric, per pass (``io.load.s`` per set-up)."""
        out = {}
        for name, unit in METRICS.items():
            value = self.totals.get(name, 0.0) / passes
            out[name] = {"value": value, "unit": unit}
        out["linalg.solve.n_max"]["value"] = self.n_max
        out["io.load.s"]["value"] = io_load_s
        return out
