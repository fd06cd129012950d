"""Code lines of each module of a package: lines that hold code, not prose.

Usage, from anywhere:

    python3 scripts/code_size.py [DIRECTORY [CHANGED]]

For each `*.py` file of DIRECTORY (by default `src/vps` of this checkout),
in name order, it prints the file's code lines and then their total.
Given a second directory CHANGED, say the same package in another
checkout, it prints for each module of either directory its lines in
DIRECTORY (the parent), in CHANGED and the difference, and the totals; a
module missing from one side counts 0 lines there.  A
code line is a line that holds a token of the program other than a
comment or a docstring: blank lines, comment lines and the lines of
module, class and function docstrings do not count, and a line that holds
code and a trailing comment counts once.  A multi-line string that is not
a docstring counts every line it spans.  The tokens come from `tokenize`,
and the docstrings from `ast`, as the first statement of a module, class
or function body when that statement is a string constant.  So a change
that only trims prose leaves the count as it was.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "vps")

# tokens that are not code on their own
PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree) -> set:
    """(line, column) of the start of every docstring of a module's tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in PROSE or (token.type == tokenize.STRING and token.start in skip):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def sizes(directory) -> dict:
    """File name -> code lines, for every `*.py` file of the directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name] = code_lines(fh.read())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=PACKAGE)
    parser.add_argument("changed", nargs="?")
    args = parser.parse_args(argv)
    counts = sizes(args.directory)
    if args.changed is None:
        width = max(map(len, counts), default=5)
        for name, count in counts.items():
            print(f"{name:<{width}}  {count:>6,}")
        print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
        return 0
    changed = sizes(args.changed)
    names = sorted(counts.keys() | changed.keys())
    width = max(map(len, names), default=5)
    print(f"{'':<{width}}  {'parent':>6}  {'change':>6}  {'diff':>6}")
    for name in names + ["total"]:
        a, b = ((sum(c.values()) if name == "total" else c.get(name, 0))
                for c in (counts, changed))
        print(f"{name:<{width}}  {a:>6,}  {b:>6,}  {b - a:>+6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
