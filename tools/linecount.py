"""Line counts of a Python package, module by module and in total.

    python tools/linecount.py [DIR]

DIR defaults to src/bicext.  For each .py file of DIR, in name order, and
for all of them together, prints two counts:

  - lines: physical lines, as `wc -l` counts them (newline characters);
  - code: lines that hold a token other than a comment, a blank line or a
    docstring, found with the stdlib tokenize module.  A docstring is any
    statement that is a string literal alone.  A line inside a token that
    spans lines, such as a multi-line string, counts too.

Standard library only.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(text: str) -> int:
    """The number of lines of source text holding code: no blank line,
    comment or docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and (before is None or before.type in _STATEMENT_START)
                and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(directory: Path) -> list[tuple[str, int, int]]:
    """(file name, lines, code lines) for each .py file of directory, in
    name order."""
    rows = []
    for path in sorted(directory.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, text.count("\n"), code_lines(text)))
    return rows


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/bicext")
    rows = counts(directory)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
