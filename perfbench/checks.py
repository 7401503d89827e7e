"""Comparing one operation's outcome with its expectation.

An outcome is ``{"code", "stdout", "stderr"}`` for a CLI call,
``{"value"}`` (the result reduced by :func:`canonical`) for a library call,
or ``{"error"}`` when the call raised.
"""

from __future__ import annotations

import hashlib
import json


def canonical(fn: str, result) -> list:
    """The fields of a library result that the benchmark checks, as JSON data."""
    if fn == "oracle.bfs_distance":
        r = result
        return [r.pegs, r.discs, r.distance, r.geodesic_count, r.states_explored, r.dp_cost, r.agrees]
    if fn == "oracle.graph_metrics":
        return [result.pegs, result.discs, result.vertices, result.edges, result.diameter]
    if fn == "recurrences.plateau_scan":
        return [[run.start, run.stop, run.shuttle] for run in result]
    if fn == "recurrences.sensitivity_profile":
        deltas = [[d.discs, d.split, d.delta] for d in result.deltas]
        return [result.discs, deltas, result.sign_changes]
    if fn == "recurrences.ratio_rho":
        return [result.numerator, result.denominator, result.rendered]
    raise ValueError(f"no canonical form for {fn}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(op: dict, outcome: dict) -> str:
    """Fingerprint of what a user sees: stdout for a CLI call, the checked
    fields for a library call."""
    if "error" in outcome:
        return _sha256("error: " + outcome["error"])
    if op["kind"] == "cli":
        return _sha256(outcome["stdout"])
    return _sha256(json.dumps(outcome["value"]))


def check(op: dict, expect: dict, outcome: dict, golden: str | None = None) -> str | None:
    """Why the outcome is wrong, or None when it is right."""
    if "error" in outcome:
        return f"raised {outcome['error']}"
    if op["kind"] == "cli":
        if outcome["code"] != expect["code"]:
            return f"exit code {outcome['code']}, expected {expect['code']}"
        if _sha256(outcome["stdout"]) != expect["stdout_sha256"]:
            return "stdout differs from the reference"
        if outcome["stderr"] != expect["stderr"]:
            return f"stderr {outcome['stderr'][:200]!r}, expected {expect['stderr']!r}"
    elif json.dumps(outcome["value"]) != json.dumps(expect["value"]):
        return f"value {json.dumps(outcome['value'])[:200]} differs from the reference"
    if golden is not None and digest(op, outcome) != golden:
        return "output differs from the digest recorded for the default seed"
    return None
