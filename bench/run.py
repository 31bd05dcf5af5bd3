"""blockpoly benchmark: one workload per process, every time drift-corrected.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

A run checks its checks, sets up the workload several times, runs one warm-up
pass, then runs whole passes over the workload's fixed list of operations
until ``--seconds`` have gone by. After each operation it times a reference
kernel of its own and reports the operation's time as
``raw * KERNEL_NOMINAL_S[n] / kernel``, so a host that slows down or speeds up
moves both alike. Every output is checked by ``checks.py``. With ``--trace 1``
the run traces ``TRACE_PASSES`` passes layer by layer, then runs untraced for
half of ``--seconds``, and prints the per-layer metrics instead of the
end-to-end ones. The last line of standard output is the JSON result; the
per-operation times go to ``bench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

try:
    import blockpoly
except ImportError as exc:
    sys.exit(f"bench: cannot import blockpoly from {SRC}: {exc}")
if not os.path.abspath(blockpoly.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: blockpoly was imported from {blockpoly.__file__}, not {SRC}")

import numpy as np
from blockpoly.errors import BlockPolyError

import checks
import workloads
from tracer import Tracer

#: Reference kernels by matrix order: the nominal duration of one kernel (the
#: median of its timings on the reference host, see README) and the number of
#: LU factorizations it runs. Corrected times are in units of these durations.
KERNEL_NOMINAL_S = {24: 0.70e-3, 64: 1.13e-3, 256: 17.0e-3}
KERNEL_LOOPS = {24: 2, 64: 1, 256: 1}

#: Kernel timings per measurement; their median is the kernel's time.
KERNEL_REPS = 3

#: Set-ups per run, after one discarded warm-up; ``setup_s`` is their median.
SETUP_REPS = 15

#: Traced passes in a ``--trace 1`` run. A fixed number, run straight after
#: the warm-up, so that two traced runs with one seed count the same work.
TRACE_PASSES = 8

_KERNEL_MATRICES = {
    n: np.random.default_rng(n).standard_normal((n, n)) + n / 4 * np.eye(n)
    for n in KERNEL_NOMINAL_S
}

# Times, in a fresh interpreter that has already imported NumPy, the import of
# blockpoly and the building of the workload's inputs.
_SETUP_CHILD = (
    "import sys, time; import numpy;"
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/bench'];"
    "t0 = time.perf_counter(); import workloads;"
    "workloads.build(sys.argv[2], sys.argv[1], int(sys.argv[3]));"
    "print(time.perf_counter() - t0)"
)


def _kernel_once(n: int) -> float:
    a = _KERNEL_MATRICES[n]
    t0 = time.perf_counter()
    for _ in range(KERNEL_LOOPS[n]):
        lu = a.copy()
        for k in range(n):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if p != k:
                lu[[k, p]] = lu[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return time.perf_counter() - t0


def reference_kernel(n: int) -> float:
    """Seconds for a Python-loop LU with NumPy rank-1 updates of an n x n
    matrix, the shape of blockpoly's own dense kernel: the median of
    ``KERNEL_REPS`` timings, so one interrupted timing does not skew the
    operation it corrects."""
    return statistics.median(_kernel_once(n) for _ in range(KERNEL_REPS))


def drift_factor(n: int = 24) -> float:
    """Multiplier from a raw time just measured to kernel-nominal time."""
    return KERNEL_NOMINAL_S[n] / reference_kernel(n)


# -- self-test of the checks ----------------------------------------------------


def _latent_vectors(coeffs, lams, side):
    """Null vectors of A(λ) (right) or of A(λ)ᵀ (left), one per λ, as columns."""
    vecs = []
    for lam in lams:
        a = checks.eval_at(coeffs, lam).real
        _, _, vt = np.linalg.svd(a if side == "right" else a.T)
        vecs.append(vt[-1])
    return np.array(vecs).T


def self_test():
    """The checks accept exact data and reject a perturbed factor and solvent."""
    factors, coeffs = workloads.generated_chain(4, 2, 0)
    roots = checks.latent_roots(coeffs)
    perturbed = [factors[0] * (1 + 1e-6)] + factors[1:]
    chain_ok = checks.passed(checks.check_chain(coeffs, factors, roots, factors))
    chain_bad = checks.passed(checks.check_chain(coeffs, perturbed, roots, factors))

    # Complete solvent sets built from latent vectors: R_0 carries the spectrum
    # of the left factor, L_1 that of the right one; the outer factors are
    # themselves a right (Q_1) and a left (Q_2) solvent.
    q1, q2 = factors
    e1, e2 = np.linalg.eigvals(q1).real, np.linalg.eigvals(q2).real
    v = _latent_vectors(coeffs, e2, "right")
    w = _latent_vectors(coeffs, e1, "left").T
    right = [v @ np.diag(e2) @ np.linalg.inv(v), q1]
    left = [q2, np.linalg.solve(w, np.diag(e1) @ w)]
    sets_ok = checks.passed(checks.check_solvent_sets(coeffs, right, left, roots))
    bad_right = [right[0] + 1e-4 * np.linalg.norm(right[0]) * np.eye(4)] + right[1:]
    sets_bad = checks.passed(checks.check_solvent_sets(coeffs, bad_right, left, roots))
    if not (chain_ok and sets_ok) or chain_bad or sets_bad:
        sys.exit(f"bench: self-test failed (exact chain {chain_ok}, exact sets {sets_ok}, "
                 f"perturbed chain {chain_bad}, perturbed sets {sets_bad})")


# -- set-up and passes ---------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list:
    """Corrected seconds of cold set-ups: importing blockpoly and building the
    workload's inputs, fixtures loaded through ``blockpoly.io``, each in a
    fresh interpreter."""
    raw, corrected = [], []
    for _ in range(SETUP_REPS + 1):
        child = subprocess.run([sys.executable, "-c", _SETUP_CHILD, ROOT, workload, str(seed)],
                               check=True, timeout=120, capture_output=True, text=True)
        raw.append(float(child.stdout))
        corrected.append(raw[-1] * drift_factor())
    print(f"setup: raw {' '.join(f'{t:.4f}' for t in raw[1:])} s, "
          f"corrected {' '.join(f'{t:.4f}' for t in corrected[1:])} s")
    return corrected[1:]


class Run:
    """Per-operation records of one run."""

    def __init__(self):
        self.raw = []
        self.kernel = []
        self.corrected = []
        self.pass_s = []
        self.names = []
        self.kinds = []
        self.passed = 0
        self.failed = 0
        self.worst_error = 0.0
        self.outcomes = {}
        self.failures = {}

    def op(self, op, tracer=None):
        if op.renew is not None:
            op.renew()
        t0 = time.perf_counter()
        try:
            out, exc = op.call(), None
        except BlockPolyError as e:
            out, exc = None, e
        raw = time.perf_counter() - t0
        kernel = reference_kernel(op.kernel_n)
        factor = KERNEL_NOMINAL_S[op.kernel_n] / kernel
        if tracer is not None:
            tracer.commit(factor)
        errors = [] if exc is not None else op.check(out)
        ok = exc is None and checks.passed(errors)
        self.raw.append(raw)
        self.kernel.append(kernel)
        self.corrected.append(raw * factor)
        self.kinds.append(op.kind)
        self.names.append(op.name)
        if errors:
            self.worst_error = max(self.worst_error, max(e for _, e, _ in errors))
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            missed = [f"{label} {err:.2e} > {tol:.0e}" for label, err, tol in errors if err > tol]
            self.failures[op.name] = f"{type(exc).__name__}: {exc}" if exc else "; ".join(missed)
        self.outcomes.setdefault(op.name, set()).add(ok)

    def passes(self, ops, rng, seconds, tracer=None, at_least=1) -> int:
        """Whole passes, at least ``at_least`` of them, until ``seconds`` have
        gone by; returns their number."""
        end = time.perf_counter() + seconds
        done = 0
        while done < at_least or time.perf_counter() < end:
            start = len(self.corrected)
            for i in rng.permutation(len(ops)):
                self.op(ops[i], tracer)
            self.pass_s.append(sum(self.corrected[start:]))
            done += 1
        return done

    def record(self) -> dict:
        return {"name": self.names, "raw_s": self.raw, "kernel_s": self.kernel,
                "corrected_s": self.corrected, "failures": self.failures}

    @property
    def consistent(self) -> bool:
        """Each operation had the same outcome in every pass."""
        return all(len(v) == 1 for v in self.outcomes.values())


def op_medians(run: Run) -> list:
    """Each operation's median corrected time over the run's passes."""
    times = {}
    for name, t in zip(run.names, run.corrected):
        times.setdefault(name, []).append(t)
    return [statistics.median(v) for v in times.values()]


def end_to_end(run: Run, setup: list) -> dict:
    p50, p90 = np.percentile(op_medians(run), [50, 90]) * 1e3
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": run.passed / len(run.pass_s) / statistics.median(run.pass_s),
                      "unit": "1/s"},
        "op_ms_p50": {"value": float(p50), "unit": "ms"},
        "op_ms_p90": {"value": float(p90), "unit": "ms"},
        "accuracy_digits_min": {"value": -math.log10(max(run.worst_error, 1e-17)),
                                "unit": "digits"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def report(run: Run, passes: int, label: str):
    """Per-kind raw and corrected medians, for reading beside the JSON."""
    print(f"{label}: {passes} passes, {len(run.raw)} operations, "
          f"median corrected pass {statistics.median(run.pass_s):.3f} s")
    for kind in sorted(set(run.kinds)):
        idx = [i for i, k in enumerate(run.kinds) if k == kind]
        raw = statistics.median(run.raw[i] for i in idx) * 1e3
        cor = statistics.median(run.corrected[i] for i in idx) * 1e3
        kernel = statistics.median(run.kernel[i] for i in idx) * 1e3
        print(f"  {kind:28s} n={len(idx):5d} raw {raw:9.3f} ms  corrected {cor:9.3f} ms"
              f"  kernel {kernel:6.3f} ms")
    for name, why in sorted(run.failures.items()):
        print(f"  failed: {name}: {why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    self_test()
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install()
        ops, rng = workloads.build(args.workload, ROOT, args.seed)
        setup_tracer.uninstall()
        io_load_s = setup_tracer.pending["io.load.s"] * drift_factor()
    else:
        setup = measure_setup(args.workload, args.seed)
        ops, rng = workloads.build(args.workload, ROOT, args.seed)

    Run().passes(ops, rng, 0)   # warm-up pass
    run = Run()
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_run = Run()
        traced_run.passes(ops, rng, 0, tracer, at_least=TRACE_PASSES)
        tracer.uninstall()
        report(traced_run, TRACE_PASSES, "traced")
        passes = run.passes(ops, rng, args.seconds / 2)
        report(run, passes, "untraced")
        overhead = statistics.median(traced_run.pass_s) / statistics.median(run.pass_s) - 1
        print(f"tracing overhead: {100 * overhead:+.1f}% of corrected pass time")
        metrics = tracer.metrics(TRACE_PASSES, io_load_s)
        metrics["trace.overhead"] = {"value": 100 * overhead, "unit": "%"}
        attempted = len(run.raw) + len(traced_run.raw)
        failed = run.failed + traced_run.failed
        correct = run.consistent and traced_run.consistent
        detail = {"traced": traced_run.record(), "untraced": run.record()}
    else:
        passes = run.passes(ops, rng, args.seconds)
        report(run, passes, "measured")
        metrics = end_to_end(run, setup)
        attempted, failed, correct = len(run.raw), run.failed, run.consistent
        detail = {"setup_s": setup, "measured": run.record()}

    out_dir = os.path.join(BENCH, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **detail}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
