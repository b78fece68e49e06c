"""Machine-readable run reports: one JSON document per run.

Every field is always present, null when a stage did not run. Wall-clock
data lives in ``timestamps`` and the attack's ``elapsed_ms``; everything
else is deterministic for a fixed (input, config, seed), which
``strip_volatile`` relies on when comparing two runs.
"""

from __future__ import annotations

import copy
import datetime
import importlib.resources
import json

SCHEMA_VERSION = "1"
TOOL_NAME = "benchlock"


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def new_report(config: dict | None = None) -> dict:
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "circuit": None,
        "config": config,
        "stats_before": None,
        "stats_after": None,
        "structural": None,
        "functional": None,
        "attack": None,
        "corruption": None,
        "llm_run": None,
        "timestamps": {"started": _now(), "finished": None},
    }


def finish_report(report: dict) -> dict:
    report["timestamps"]["finished"] = _now()
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def strip_volatile(report: dict) -> dict:
    """Copy of the report with timestamps and wall times removed, leaving
    only fields that must reproduce bit-exactly for identical runs."""
    out = copy.deepcopy(report)
    out.pop("timestamps", None)
    if out.get("attack"):
        out["attack"].pop("elapsed_ms", None)
    return out


def load_report_schema() -> dict:
    ref = importlib.resources.files(__package__) / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))
