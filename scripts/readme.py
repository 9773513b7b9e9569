"""Write the README's generated blocks from the code that owns their facts.

Usage:
  python3 scripts/readme.py            rewrite the blocks in README.md
  python3 scripts/readme.py --check    compare them, one line per stale block

Each block sits between `<!-- begin NAME ... -->` and `<!-- end NAME -->`:
  - keys: one row per core.FIELDS entry ({c} stands for u and v): its
    default or "required", the kinds that read it and its own requirements;
  - refusals: each core.RELATIONS text with the keys it reads, each
    core.DATA_NEEDS text, and per analysis.OUTPUT_RULES output its verdict
    rows and the texts of its needs and its samples;
  - builtins: the name, description, envelope kind and outputs of each
    builtin scenario.

Every cell comes from a code attribute, so the script holds no text about
any one key, output or builtin; the prose around the blocks is written by
hand. --check exits 1 when a block differs from what the code renders.
"""

import argparse
import dataclasses
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rda import analysis, core, scenarios  # noqa: E402

README = ROOT / "README.md"


def _code(value) -> str:
    """value as a code span; a tuple as its items', comma-separated."""
    if isinstance(value, tuple):
        return ", ".join(map(_code, value))
    return f"`{value}`"


def _table(head: list[str], rows: list[list[str]]) -> list[str]:
    """A Markdown table; a | in a cell is escaped, as a table needs."""
    return ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |"
            for row in (head, ["---"] * len(head), *rows)]


def keys() -> list[str]:
    rows = []
    for entry in core.FIELDS:
        # A shared entry's default is u's, which equals v's.
        field = entry.at("u")
        if field.required:
            default = "required"
        elif field.default is dataclasses.MISSING:  # a key of an optional section
            default = f"no {field.path[0]}"
        else:
            default = "empty" if field.default in ("", ()) else _code(field.default)
        reads = "every scenario" if entry.reads is None else _code(entry.reads)
        needs = "; ".join(_code(text) for _, text in entry.needs) or "none"
        rows.append([_code(entry.key), default, reads, needs])
    return _table(["key", "default", "read by", "requirements"], rows)


def refusals() -> list[str]:
    lines = ["- `core.RELATIONS`, between keys:"]
    lines += [f"  - {_code(text)}: reads {_code(reads)}"
              for reads, _, text in core.RELATIONS]
    lines.append("- `core.DATA_NEEDS`, on each initial datum on the grid:")
    lines += [f"  - {_code(text)}" for _, text in core.DATA_NEEDS]
    lines.append("- `analysis.OUTPUT_RULES`, per output:")
    for name, rule in analysis.OUTPUT_RULES.items():
        line = f"  - {_code(name)}: " + (f"rows {_code(rule.rows)}" if rule.rows
                                          else "no verdict row")
        for what, needs in (("needs", rule.needs), ("its sample times need", rule.samples)):
            if needs:
                line += f"; {what} " + " and ".join(_code(text) for _, text in needs)
        lines.append(line)
    return lines


def builtins() -> list[str]:
    rows = []
    for name in scenarios.BUILTIN_SCENARIOS:
        scenario = scenarios.get_scenario(name)
        envelope = scenario.envelope
        rows.append([_code(name), scenario.description,
                     "none" if envelope is None else _code(envelope.kind),
                     _code(scenario.outputs)])
    return _table(["name", "description", "envelope", "outputs"], rows)


BLOCKS = {"keys": keys, "refusals": refusals, "builtins": builtins}
_BLOCK = re.compile(rf"(<!-- begin ({'|'.join(BLOCKS)})\b[^>]*-->\n)(.*?)(<!-- end \2 -->)",
                    re.S)


def render(text: str) -> tuple[str, list[str]]:
    """text with each block rendered from the code, and one line for each
    block that differed from it or is missing."""
    found, stale = set(), []

    def fill(match):
        begin, name, body, end = match.groups()
        found.add(name)
        rendered = "\n".join(BLOCKS[name]()) + "\n"
        if body != rendered:
            stale.append(f"README.md: block {name!r} differs from the code;"
                         " regenerate with python3 scripts/readme.py")
        return begin + rendered + end

    text = _BLOCK.sub(fill, text)
    stale += [f"README.md: no block {name!r}" for name in BLOCKS if name not in found]
    return text, stale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the blocks with the code; write nothing")
    args = parser.parse_args(argv)
    text = README.read_text(encoding="utf-8")
    rendered, stale = render(text)
    # A block without its markers has nowhere to be written.
    missing = [line for line in stale if "differs" not in line]
    for line in stale if args.check else missing:
        print(line)
    if args.check or missing:
        return 1 if stale else 0
    README.write_text(rendered, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
