"""Flat key-value scenario configs: parsing and serialization.

Format: one `key = value` pair per line, dotted section names, `#`
comments, UTF-8, LF. Polynomial term lists use entries of the form
"coeff u^a v^b" with an optional trailing "ddx" marking a flux (derivative)
term, separated by commas. Every key, its field and its converter come
from core.FIELDS. Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

from dataclasses import MISSING
from pathlib import Path

from .core import KEYS, NAME, PolyTerm, Scenario, scenario_from

__all__ = ["ConfigError", "parse_scenario", "parse_scenario_text", "serialize_scenario"]


class ConfigError(ValueError):
    """Malformed or invalid scenario config."""


def _parse_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = (value, line_no)
    return pairs


def _reject_unread(pairs) -> None:
    """Raise on a key that the kind of its section does not read; an
    unknown kind is left to validation, which names it."""
    for key, (_, line_no) in pairs.items():
        if KEYS[key].reads is None:
            continue
        kind_key = key.rpartition(".")[0] + ".kind"
        kind = pairs[kind_key][0] if kind_key in pairs else KEYS[kind_key].default
        if kind is MISSING:
            raise ConfigError(f"line {line_no}: {key!r} is not read without {kind_key}")
        if kind not in KEYS[key].reads and KEYS[kind_key].unmet(kind) is None:
            raise ConfigError(f"line {line_no}: {key!r} is not read by {kind_key} {kind!r}")


def parse_scenario_text(text: str, name_hint: str = "scenario") -> Scenario:
    """Parse config text into the Scenario it describes, unvalidated.

    ConfigError reports format errors only: syntax, unknown, duplicate,
    unread or missing keys, and bad values."""
    pairs = _parse_pairs(text)
    pairs.setdefault(NAME.key, (name_hint, 0))
    _reject_unread(pairs)
    values = {}
    for key, entry in KEYS.items():
        if key in pairs:
            value, line_no = pairs[key]
            try:
                values[entry.path] = entry.convert(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}") from None
        elif entry.required:
            raise ConfigError(f"missing required key {key!r}")
    return scenario_from(values)


def parse_scenario(path) -> Scenario:
    """Parse a scenario config file."""
    p = Path(path)
    return parse_scenario_text(p.read_text(encoding="utf-8"), name_hint=p.stem)


def _format(value, convert) -> str:
    """value as text that convert reads back."""
    if isinstance(value, tuple):  # a term list or the output names
        return ", ".join(_format(item, str) for item in value)
    if isinstance(value, PolyTerm):
        return (f"{float(value.coeff)!r} u^{value.alpha} v^{value.beta}"
                + (" ddx" if value.gamma else ""))
    return repr(float(value)) if convert is float else str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Config text that parses back to an equal Scenario: a line for each key
    the scenario reads whose value is not its field's default, if it has one."""
    lines = []
    for key, entry in KEYS.items():
        owner = entry.owner(scenario)
        if owner is not None and (value := getattr(owner, entry.path[-1])) != entry.default:
            lines.append(f"{key} = {_format(value, entry.convert)}")
    return "\n".join(lines) + "\n"
