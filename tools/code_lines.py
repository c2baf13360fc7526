"""Count the code lines of a Python package, per module and in total.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function).
Blank lines, comment lines and docstring lines are left out. Standard
library only:

    python3 tools/code_lines.py [DIR]    (DIR defaults to src/periodjet)
"""

import ast
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFAULT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src", "periodjet")


def docstring_spans(tree):
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path):
    """The number of code lines in one source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    spans = docstring_spans(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in NOT_CODE or (
                    tok.type == tokenize.STRING
                    and any(a <= tok.start < b for a, b in spans)):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = argv[1] if len(argv) > 1 else DEFAULT_DIR
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(root, name))
            total += n
            print("%6d  %s" % (n, name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
