"""Count the code lines of each ``src/fringeproc`` module and the CLI's options.

    python tests/code_lines.py

A code line holds at least one token that is not a comment, and is not part
of a docstring; blank lines do not count. The option count is every argparse
action of each command's subparser except its ``-h``; the top-level
``--version`` and ``-h`` are not counted. The public count is every
function and class in ``fringeproc.__all__``; its modules are not counted.
It prints one ``lines  module`` row per module, a ``total`` row, an
``options`` row and a ``public`` row.
The package comes from the ``src`` directory beside this file's directory,
so two checkouts' counts compare directly. The script is not a pytest
module; ``test_cli.py`` runs it once as a smoke test.
"""

import argparse
import ast
import inspect
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def option_count() -> int:
    from fringeproc.cli import build_parser

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return sum(not isinstance(action, argparse._HelpAction)
               for parser in commands.choices.values() for action in parser._actions)


def public_count() -> int:
    import fringeproc

    return sum(not inspect.ismodule(getattr(fringeproc, name)) for name in fringeproc.__all__)


def main() -> int:
    total = 0
    for path in sorted((SRC / "fringeproc").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{option_count():6d}  options")
    print(f"{public_count():6d}  public")
    return 0


if __name__ == "__main__":
    sys.exit(main())
