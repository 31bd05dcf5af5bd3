"""Lines of ``src/blockpoly`` split into code, docstring, comment and blank.

From the repository root, ``python tests/line_count.py`` prints one row per
module and a total; ``python tests/line_count.py pipeline.full_factorize``
adds a row for each function so named.  A line is a docstring line when it
lies within the docstring of a module, class or function (blank lines inside
one included), a comment line when it holds only a comment, blank when it
holds nothing, and code otherwise.  So a cut in code is told apart from text
that moved or shrank.  Standard library only.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "blockpoly")
KINDS = ("code", "docstring", "comment", "blank")


def split(source: str, lines=None) -> dict:
    """The count of each of ``KINDS`` among the lines of ``source``, or among
    those whose numbers are in ``lines``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if lines is not None and number not in lines:
            continue
        if number in docstrings:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def function_lines(source: str, name: str) -> set:
    """The line numbers of the function ``name`` in ``source``, from its
    ``def`` line to its last line."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return set(range(node.lineno, node.end_lineno + 1))
    raise SystemExit(f"no function {name!r}")


def row(label: str, counts: dict):
    print(f"{label:<28}" + "".join(f"{counts[k]:>11,}" for k in KINDS)
          + f"{sum(counts.values()):>8,}")


def main(functions):
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    print(f"{'module':<28}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'lines':>8}")
    total = dict.fromkeys(KINDS, 0)
    for name, source in sources.items():
        counts = split(source)
        for kind in KINDS:
            total[kind] += counts[kind]
        row(name, counts)
    row("total", total)
    for qualified in functions:
        module, _, function = qualified.rpartition(".")
        if module + ".py" not in sources:
            raise SystemExit(f"no module {module!r}")
        source = sources[module + ".py"]
        row(qualified, split(source, function_lines(source, function)))


if __name__ == "__main__":
    main(sys.argv[1:])
