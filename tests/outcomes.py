"""What ``full_factorize`` returns on the shared test inputs, as one table.

From the repository root, ``python tests/outcomes.py`` runs ``full_factorize``
with the refiner that ``--method`` names (``horner``, ``newton-horner``, the
default, or ``two-stage``) on the paper's four fixtures, the 36
``grid`` chains of the benchmark (``random_chain(m, l,
default_rng(1000 m + 10 l + s))``, m in {4, 8, 16}, l in {2, 3, 4}, s in
0..3), ``HARD_CASES`` with the 3,000 corpus draws, and the 27 ``wide``
chains of the same generator at m in {32, 48, 64}, l in {2, 3, 4}, s in
0..2.  For each group it
prints the chains, the failures by stage and cause, the reconstruction error
of the chains (max, median and the counts above 1e-8 and 1e-10), and the
outcomes of ``pipeline.solvent_sets`` on the chains of degree l >= 2, by
cause.

``python tests/outcomes.py --hashes FILE`` also writes one line per input:
its name and a hash of the factor bytes and ``repr(report)`` (the report
holds the solvent residuals where ``solvent_sets`` succeeded), or of the
error.  ``python tests/outcomes.py --compare A B`` reads two such files,
prints each input whose hash differs between them (or that only one of them
lists) with its two hashes, and exits 1 if there is any, else 0; it runs no
factorization.
Standard library and NumPy only; not collected by pytest.
"""

import argparse
import collections
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from blockpoly.errors import BlockPolyError, PipelineStageError
from blockpoly.io import load_polynomial
from blockpoly.pipeline import REFINE_METHODS, PipelineConfig, full_factorize, solvent_sets
from blockpoly.polynomial import reconstruct

from inputs import HARD_CASES, corpus, fixture_path, random_chain


def chains(orders, seeds) -> dict:
    """``random_chain(m, l, default_rng(1000 m + 10 l + s))`` for m in
    ``orders``, l in {2, 3, 4} and s in ``range(seeds)``, reconstructed."""
    return {f"m{m}/l{l}/s{s}": reconstruct(random_chain(
        m, l, np.random.default_rng(1000 * m + 10 * l + s)))
        for m in orders for l in (2, 3, 4) for s in range(seeds)}


def groups() -> dict:
    """Group name -> {input name: polynomial}."""
    return {
        "fixtures": {f"example{i}": load_polynomial(fixture_path(f"example{i}.json"))
                     for i in range(1, 5)},
        "grid": chains((4, 8, 16), 4),
        "corpus + HARD_CASES": HARD_CASES | corpus(3000),
        "wide": chains((32, 48, 64), 3),
    }


def outcome(p, cfg):
    """``(reconstruction error or None, failure cause or None, solvent-set
    cause or None, text to hash)`` of one input under ``cfg``."""
    try:
        chain, report, _ = full_factorize(p, cfg)
    except BlockPolyError as exc:
        why = (f"{exc.stage}/{type(exc.cause).__name__}"
               if isinstance(exc, PipelineStageError) else type(exc).__name__)
        return None, why, None, f"{type(exc).__name__}: {exc}"
    solvents = None
    if p.l >= 2:
        try:
            solvent_sets(p, chain, report)
            solvents = "ok"
        except BlockPolyError as exc:
            solvents = type(exc.cause).__name__
    text = np.ascontiguousarray(chain.factors).tobytes().hex() + repr(report) + str(solvents)
    return report.reconstruction_error, None, solvents, text


def compare(a, b) -> int:
    """Print the inputs whose hashes differ between the ``--hashes`` files
    ``a`` and ``b``, an input that only one of them lists included; 1 if
    there is any, else 0."""
    tables = []
    for path in (a, b):
        with open(path, encoding="utf-8") as fh:
            tables.append(dict(line.rstrip("\n").rsplit(" ", 1) for line in fh))
    names = dict.fromkeys([*tables[0], *tables[1]])
    differ = [name for name in names if tables[0].get(name) != tables[1].get(name)]
    for name in differ:
        print(f"{name} {tables[0].get(name, '-')} {tables[1].get(name, '-')}")
    print(f"{len(differ)} of {len(names)} inputs differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hashes", metavar="FILE",
                        help="write one line per input: its name and a hash of its output")
    parser.add_argument("--method", choices=REFINE_METHODS, default="newton-horner",
                        help="the refiner of full_factorize")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the inputs whose hashes differ between two --hashes "
                             "files and exit 1 if there is any; runs no factorization")
    args = parser.parse_args(argv)
    if args.compare:
        sys.exit(compare(*args.compare))
    cfg = PipelineConfig(refine_method=args.method)
    rows, failures, solvents, lines = [], {}, {}, []
    for group, inputs in groups().items():
        errors, failed, sets = [], collections.Counter(), collections.Counter()
        for name, p in inputs.items():
            error, failure, solvent, text = outcome(p, cfg)
            lines.append(f"{name} {hashlib.sha256(text.encode()).hexdigest()[:16]}\n")
            if failure:
                failed[failure] += 1
            else:
                errors.append(error)
            if solvent:
                sets[solvent] += 1
        errors = np.array(errors)
        rows.append((group, len(inputs), len(errors), sum(failed.values()), errors.max(),
                     np.median(errors), (errors > 1e-8).sum(), (errors > 1e-10).sum()))
        failures[group], solvents[group] = failed, sets
    print(f"{'group':<21}{'inputs':>7}{'chains':>8}{'failed':>8}"
          f"{'recon max':>11}{'median':>10}{'>1e-8':>7}{'>1e-10':>7}")
    for group, n, chains, failed, top, median, above8, above10 in rows:
        print(f"{group:<21}{n:>7,}{chains:>8,}{failed:>8,}"
              f"{top:>11.2e}{median:>10.2e}{above8:>7}{above10:>7}")
    for title, counts in (("failures by stage/cause", failures),
                          ("solvent sets on chains with l >= 2, by cause", solvents)):
        print(f"\n{title}:")
        for group, counter in counts.items():
            text = ", ".join(f"{key} {n:,}" for key, n in counter.most_common())
            print(f"  {group:<21}{text or '-'}")
    if args.hashes:
        with open(args.hashes, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


if __name__ == "__main__":
    main()
