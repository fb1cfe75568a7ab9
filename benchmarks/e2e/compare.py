"""``python -m benchmarks.e2e compare BASE.jsonl CHANGE.jsonl``.

Both files hold run records written by ``run --out`` (one JSON object per
line).  Untraced runs are grouped by their inputs: workload, scale, seed
and workload parameters.  Within a group, the i-th run of one file is
paired with the i-th run of the other.  A group found on one side only is
reported as missing, and a run that failed a correctness check or a case
is reported and left out of every pair; either makes the comparison fail.
Every (end-to-end metric, group) pair is then classified with the
metric's bound from ``BENCHMARK.json`` (choosing-metrics guide, sections
6 and 8):

* **improved** — over at least ten pairs, the change wins nine tenths
  of them (ties count for neither) and its median differs from the
  base's by more than the base's own quartile spread, in the better
  direction;
* **regressed** — the change's median is worse than the base's by more
  than the bound;
* **unresolved** — not regressed, but the run-to-run quartile spread of
  either side is wider than the bound, and not every run of the change
  reads better than every run of the base;
* **unchanged** — otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.harness import digest, quartile_spread

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"

#: A gain needs at least this many pairs (fewer can read as a gain by chance).
MIN_PAIRS = 10

#: (workload, scale, seed, digest of the workload parameters)
RunKey = Tuple[str, str, int, str]


def load_runs(path: str) -> Tuple[Dict[RunKey, List[Dict[str, float]]], List[str]]:
    """The untraced runs in ``path`` that passed every check, grouped by
    their inputs, and one line for every run that did not."""
    runs: Dict[RunKey, List[Dict[str, float]]] = defaultdict(list)
    rejected: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record["traced"]:
                continue
            key = (record["workload"], record["scale"], record["seed"], digest(record["params"]))
            if not record["correct"] or record["failed"]:
                rejected.append(
                    "%s: %s run not counted (correct=%s, failed=%d)"
                    % (path, _label(key), record["correct"], record["failed"])
                )
                continue
            runs[key].append({name: entry["value"] for name, entry in record["metrics"].items()})
    return runs, rejected


def _label(key: RunKey) -> str:
    workload, scale, seed, params = key
    return "%s [seed %d, %s, params %s]" % (workload, seed, scale, params[:8])


def classify(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(status, relative change)``; a positive change is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    scale = abs(base_median) or 1.0
    base_spread = quartile_spread(base)
    worse_by = sign * (change_median - base_median) / scale
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    pairs = min(len(base), len(change))
    if (
        pairs >= MIN_PAIRS
        and wins >= 0.9 * pairs
        and worse_by < 0
        and abs(change_median - base_median) > base_spread * scale
    ):
        return IMPROVED, worse_by
    if worse_by > bound:
        return REGRESSED, worse_by
    widest = max(base_spread, quartile_spread(change))
    every_run_better = all(sign * (c - b) < 0 for b in base for c in change)
    if widest > bound and not every_run_better:
        return UNRESOLVED, worse_by
    return UNCHANGED, worse_by


def compare_files(base_path: str, change_path: str, spec: Dict) -> Tuple[List[str], bool]:
    """Render the comparison; the flag is True when every run passed its
    checks, both sides ran the same inputs, and nothing regressed or
    stayed unresolved."""
    base, base_rejected = load_runs(base_path)
    change, change_rejected = load_runs(change_path)
    metrics = spec["end_to_end"]
    lines = [
        "%-18s %s" % ("workload", " ".join("%-22s" % m["name"] for m in metrics))
    ]
    clean = not base_rejected and not change_rejected
    for key in sorted(set(base) | set(change)):
        workload = key[0]
        if not base.get(key) or not change.get(key):
            lines.append("%-18s missing runs on one side: %s" % (workload, _label(key)))
            clean = False
            continue
        cells = []
        for metric in metrics:
            name = metric["name"]
            before = [run[name] for run in base[key] if name in run]
            after = [run[name] for run in change[key] if name in run]
            if not before or not after:
                cells.append("%-22s" % "missing")
                clean = False
                continue
            status, worse_by = classify(before, after, metric["better"], metric["bound"])
            clean = clean and status not in (REGRESSED, UNRESOLVED)
            cells.append("%-22s" % ("%s(%+.1f%%)" % (status, 100.0 * worse_by)))
        lines.append(
            "%-18s %s  %s, %d vs %d runs"
            % (workload, " ".join(cells), _label(key), len(base[key]), len(change[key]))
        )
    lines.append("(+x% = change worse than base by x% of the base median)")
    lines.extend(base_rejected + change_rejected)
    return lines, clean
