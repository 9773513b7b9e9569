"""Flat key-value scenario configs: parsing and serialization.

Format: one `key = value` pair per line, dotted section names, `#`
comments, UTF-8, LF. Polynomial term lists use entries of the form
"coeff u^a v^b" with an optional trailing "ddx" marking a flux (derivative)
term, separated by commas. Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

from .core import (
    DEFAULT_BLOW_UP_THRESHOLD,
    ENVELOPE_READS,
    INITIAL_READS,
    SLOTS,
    EnvelopeSpec,
    Grid,
    InitialData,
    PolyTerm,
    Scenario,
    SystemSpec,
)

__all__ = ["ConfigError", "parse_scenario", "parse_scenario_text", "serialize_scenario"]


class ConfigError(ValueError):
    """Malformed or invalid scenario config."""


# Optional keys by dataclass field; an absent key takes the field's default.
_SCENARIO_FIELDS = {
    "name": str, "description": str, "blow_up_threshold": float,
    "outputs": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
}
_ENVELOPE_FIELDS = {"kind": str, "M": float, "r": float}
_INITIAL_FIELDS = {"kind": str, "amplitude": float, "width": float,
                   "power": float, "center": float, "expression": str}

_KNOWN_KEYS = {
    "system.d1", "system.d2", "system.c1", "system.c2",
    *(f"system.{slot}" for slot in SLOTS),
    "grid.L", "grid.n",
    "time.dt", "time.t_end", "time.sample_dt",
    *_SCENARIO_FIELDS,
    *(f"envelope.{f}" for f in _ENVELOPE_FIELDS),
    *(f"initial.{comp}.{f}" for comp in ("u", "v") for f in _INITIAL_FIELDS),
}

_TERM_RE = re.compile(
    r"^\s*([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)\s+u\^(\d+)\s+v\^(\d+)(\s+ddx)?\s*$")


def _terms_for(pairs, key: str) -> tuple[PolyTerm, ...]:
    value, line_no = pairs.get(key, ("", 0))
    if not value.strip():
        return ()
    terms = []
    for entry in value.split(","):
        m = _TERM_RE.match(entry)
        if m is None:
            raise ConfigError(
                f"line {line_no}: bad term {entry.strip()!r} in {key} "
                "(expected \"coeff u^a v^b [ddx]\")")
        terms.append(PolyTerm(
            coeff=float(m.group(1)), alpha=int(m.group(2)),
            beta=int(m.group(3)), gamma=1 if m.group(4) else 0))
    return tuple(terms)


def _parse_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = (value, line_no)
    return pairs


def _get(pairs, key, convert):
    if key not in pairs:
        raise ConfigError(f"missing required key {key!r}")
    value, line_no = pairs[key]
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}") from None


def _present(pairs, prefix: str, fields: dict) -> dict:
    """Converted values of the fields whose keys the config sets, so the
    dataclass defaults in core apply to the others."""
    return {name: _get(pairs, prefix + name, convert)
            for name, convert in fields.items() if prefix + name in pairs}


def _reject_unread(pairs, prefix: str, reads: dict, default_kind) -> None:
    """Raise on a key under prefix that the kind it sets does not read.

    An unknown kind is left to validation, which names it.
    """
    kind = pairs[prefix + "kind"][0] if prefix + "kind" in pairs else default_kind
    if kind not in reads:
        return
    for key, (_, line_no) in pairs.items():
        if key.startswith(prefix) and key[len(prefix):] not in ("kind", *reads[kind]):
            owner = f"by {prefix}kind {kind!r}" if kind else f"without {prefix}kind"
            raise ConfigError(f"line {line_no}: {key!r} is not read {owner}")


def parse_scenario_text(text: str, name_hint: str = "scenario") -> Scenario:
    """Parse config text into the Scenario it describes, unvalidated.

    ConfigError reports format errors only: syntax, unknown, duplicate,
    unread or missing keys, and bad numbers."""
    pairs = _parse_pairs(text)
    # None stands for an absent envelope.kind, which reads no field.
    _reject_unread(pairs, "envelope.", {None: (), **ENVELOPE_READS}, None)
    for comp in ("u", "v"):
        _reject_unread(pairs, f"initial.{comp}.", INITIAL_READS, InitialData.kind)
    system = SystemSpec(
        d1=_get(pairs, "system.d1", float),
        d2=_get(pairs, "system.d2", float),
        c1=_get(pairs, "system.c1", float),
        c2=_get(pairs, "system.c2", float),
        **{slot: _terms_for(pairs, f"system.{slot}") for slot in SLOTS},
    )
    envelope = None
    if "envelope.kind" in pairs:
        envelope = EnvelopeSpec(**_present(pairs, "envelope.", _ENVELOPE_FIELDS))
    top = _present(pairs, "", _SCENARIO_FIELDS)
    return Scenario(
        name=top.pop("name", name_hint),
        system=system,
        grid=Grid(
            half_width=_get(pairs, "grid.L", float),
            n=_get(pairs, "grid.n", int),
        ),
        initial_u=InitialData(**_present(pairs, "initial.u.", _INITIAL_FIELDS)),
        initial_v=InitialData(**_present(pairs, "initial.v.", _INITIAL_FIELDS)),
        t_end=_get(pairs, "time.t_end", float),
        dt=_get(pairs, "time.dt", float),
        sample_dt=_get(pairs, "time.sample_dt", float),
        envelope=envelope,
        **top,
    )


def parse_scenario(path) -> Scenario:
    """Parse a scenario config file."""
    p = Path(path)
    return parse_scenario_text(p.read_text(encoding="utf-8"), name_hint=p.stem)


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_terms(terms) -> str:
    parts = []
    for t in terms:
        entry = f"{_fmt(t.coeff)} u^{t.alpha} v^{t.beta}"
        if t.gamma:
            entry += " ddx"
        parts.append(entry)
    return ", ".join(parts)


def _read_lines(prefix: str, spec, reads: dict) -> list[str]:
    """The `key = value` lines of the fields spec's kind reads; a zero
    center is the default and is left out."""
    lines = []
    for name in reads.get(spec.kind, ()):
        value = getattr(spec, name)
        if name == "center" and value == 0.0:
            continue
        lines.append(f"{prefix}{name} = "
                     f"{value if isinstance(value, str) else _fmt(value)}")
    return lines


def serialize_scenario(scenario: Scenario) -> str:
    """Config text that parses back to an identical Scenario."""
    lines = [f"name = {scenario.name}"]
    if scenario.description:
        lines.append(f"description = {scenario.description}")
    s = scenario.system
    lines += [
        f"system.d1 = {_fmt(s.d1)}",
        f"system.d2 = {_fmt(s.d2)}",
        f"system.c1 = {_fmt(s.c1)}",
        f"system.c2 = {_fmt(s.c2)}",
    ]
    for slot in SLOTS:
        if terms := getattr(s, slot):
            lines.append(f"system.{slot} = {_fmt_terms(terms)}")
    lines += [
        f"grid.L = {_fmt(scenario.grid.half_width)}",
        f"grid.n = {scenario.grid.n}",
        f"time.dt = {_fmt(scenario.dt)}",
        f"time.t_end = {_fmt(scenario.t_end)}",
        f"time.sample_dt = {_fmt(scenario.sample_dt)}",
    ]
    for comp, init in (("u", scenario.initial_u), ("v", scenario.initial_v)):
        lines.append(f"initial.{comp}.kind = {init.kind}")
        lines += _read_lines(f"initial.{comp}.", init, INITIAL_READS)
    if scenario.envelope is not None:
        lines.append(f"envelope.kind = {scenario.envelope.kind}")
        lines += _read_lines("envelope.", scenario.envelope, ENVELOPE_READS)
    lines.append("outputs = " + ", ".join(scenario.outputs))
    if scenario.blow_up_threshold != DEFAULT_BLOW_UP_THRESHOLD:
        lines.append(f"blow_up_threshold = {_fmt(scenario.blow_up_threshold)}")
    return "\n".join(lines) + "\n"
