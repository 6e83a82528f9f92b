"""Verification report records and rendering."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["CheckResult", "residual_entry", "summarize", "render_text",
           "report_json_dict", "canonical_json"]


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: name, parameters, residual rendering, outcome.

    ``made_at`` is the clock reading when the entry was made. It only feeds
    the report's timings, which are excluded from the determinism contract;
    everything else must be byte-stable for a fixed configuration.
    """

    name: str
    passed: bool
    residual: str = "0"
    params: dict = field(default_factory=dict)
    made_at: float = field(default_factory=time.perf_counter, compare=False, repr=False)


def residual_entry(name, residual, params):
    """The entry for an identity that holds exactly when its residual is zero."""
    return CheckResult(name, residual.is_zero(), str(residual), params)


def summarize(entries):
    total = len(entries)
    passed = sum(1 for e in entries if e.passed)
    return {"total": total, "passed": passed, "failed": total - passed}


def render_text(entries):
    lines = []
    group = None
    for e in sorted(entries, key=lambda e: e.name):
        head = e.name.split("/", 1)[0]
        if head != group:
            group = head
            lines.append(f"-- {group} --")
        status = "PASS" if e.passed else "FAIL"
        line = f"{status}  {e.name}"
        if e.params:
            args = ", ".join(f"{k}={v}" for k, v in sorted(e.params.items()))
            line += f"  [{args}]"
        if not e.passed:
            line += f"  residual: {e.residual}"
        lines.append(line)
    s = summarize(entries)
    lines.append(f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed")
    return "\n".join(lines)


def _entry_seconds(entries, start):
    """Charge each entry the time since the entry made before it, the first
    one the time since ``start``, so every piece of work, shared setup
    included, lands on the first entry made after it."""
    seconds = {}
    last = start
    for e in sorted(entries, key=lambda e: e.made_at):
        seconds[e.name] = e.made_at - last
        last = e.made_at
    return seconds


def report_json_dict(config, entries, start):
    """Stable report layout; timings live in their own key so golden
    comparisons can drop them wholesale. ``start`` is the clock reading
    taken just before the first check ran."""
    ordered = sorted(entries, key=lambda e: e.name)
    return {
        "config": dict(config),
        "entries": [
            {"name": e.name, "params": dict(e.params),
             "residual": e.residual, "pass": e.passed}
            for e in ordered
        ],
        "summary": summarize(ordered),
        "timings": _entry_seconds(ordered, start),
    }


def canonical_json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
