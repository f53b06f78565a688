#!/usr/bin/env python
"""Bench-regression gate: fail CI when a smoke run regresses a baseline.

Turns the ``BENCH_*.json`` trajectory from a log into a gate: CI runs
each benchmark in smoke mode (writing ``/tmp/bench_*_ci.json``) and this
script compares the smoke entry against the committed baseline entry,
**failing the job** (exit code 1) when any recorded timing regressed by
more than the threshold::

    python tools/check_bench.py BENCH_substrate.json /tmp/bench_ci.json \
        --current-label ci

What counts as a recorded timing
--------------------------------
Both entries are walked recursively and compared on the **intersection**
of their paths — a key absent from the baseline (a metric this PR
introduced) is skipped silently, and a gated key absent from the
current run (a smoke that only exercises a subset, e.g.
``bench_explainers --only`` or ``bench_serve --executor process``) is
skipped with a **stderr warning**, so lost bench coverage shows up in
the job log instead of passing silently.  Pass ``--strict-missing`` to
promote that warning to a failure — the right setting for smokes that
run the full benchmark, where a missing gated key means coverage was
actually lost, not subset.  Of the shared numeric leaves
only two shapes gate, chosen because they are per-unit rates that stay
comparable when the smoke run shrinks the workload:

* ``seconds`` / ``*ms_per_image`` / ``*ms_per_map`` / ``*_p95_ms`` /
  ``*_p99_ms`` — timings, **lower is better**: fail when
  ``current > threshold * baseline``.  The tail-percentile suffixes
  gate the SLO harness (``bench_slo``): per-class p95/p99 latencies are
  per-request values that stay comparable when the smoke trace shrinks,
  so a scheduling regression that fattens the interactive tail fails CI
  even when mean throughput looks fine.  Medians (``*_p50_ms``) record
  but do not gate — at smoke scale they sit within loop jitter.
* ``*_rps`` — throughput, **higher is better**: fail when
  ``current < baseline / threshold``.  This suffix rule picks up new
  rate metrics with no changes here — e.g. ``bench_serve``'s nested
  ``transport`` section contributes ``transport.shm_rps`` (the
  process pool's shared-memory transport at batch 16) automatically.

Workload-scale-dependent values (counts, totals like
``blocked_ms_total``, ratios like ``*_speedup``) never gate, and
neither do ``offered_rps`` (reject-policy submission speed — it
measures exception overhead, not serving capacity; ``served_rps``
gates in its place) nor ``tier1_warm_rps`` (microsecond-scale memory
hits — loop jitter, not store behaviour; the cold and tier-2 rates
gate in its place).

The threshold knob
------------------
``--threshold`` (default **2.5**) is deliberately loose: the committed
baselines were recorded on a developer box and CI runners differ in
clock speed, BLAS build, and core count, so the gate catches
order-of-magnitude regressions (an accidentally quadratic path, a
dropped fast path, a serialization stall) rather than machine noise.
Tighten it once baselines are recorded on CI hardware; loosen it per
invocation if a runner class proves noisier.

Exit codes: 0 all gated metrics within threshold (or nothing to
compare), 1 at least one regression, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple

#: Leaf-key shapes that gate, and their direction.
def _classify(key: str) -> str:
    """'time' (lower better), 'rate' (higher better), or '' (ignored)."""
    if key == "seconds" or key.endswith("ms_per_image") \
            or key.endswith("ms_per_map"):
        return "time"
    if key.endswith("_p95_ms") or key.endswith("_p99_ms"):
        # Tail latencies from the SLO harness: per-request values, so
        # they gate across workload scales just like per-unit timings.
        # p50 deliberately ungated (jitter-bound at smoke scale).
        return "time"
    if key == "offered_rps":
        # Producer-side submission speed under policy="reject": most
        # submits raise immediately, so the number measures exception
        # overhead and loop noise, not serving capacity.  served_rps
        # gates instead.
        return ""
    if key == "tier1_warm_rps":
        # In-memory cache hits dispatch in microseconds, so at smoke
        # scale this rate is dominated by interpreter loop jitter (it
        # swings 2-3x between back-to-back runs on one machine).  The
        # store paths gate instead: cold_rps (compute + write-behind)
        # and tier2_warm_rps (mmap read).
        return ""
    if key.endswith("_rps"):
        return "rate"
    return ""


def _numeric_leaves(node, path=()) -> Iterator[Tuple[Tuple[str, ...],
                                                     float]]:
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (str(key),))
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield path, float(node)


def compare(baseline: Dict, current: Dict,
            threshold: float) -> Tuple[list, list, list]:
    """Returns ``(regressions, checked, missing)`` comparing two label
    entries; ``missing`` lists gated baseline keys the current run did
    not record (lost bench coverage — warned, never failed, since smoke
    runs legitimately exercise subsets)."""
    base_leaves = dict(_numeric_leaves(baseline))
    cur_leaves = dict(_numeric_leaves(current))
    missing = [".".join(path) for path in base_leaves
               if _classify(path[-1]) and path not in cur_leaves]
    regressions, checked = [], []
    for path, cur in cur_leaves.items():
        kind = _classify(path[-1])
        if not kind or path not in base_leaves:
            continue                      # skip keys absent from baseline
        base = base_leaves[path]
        dotted = ".".join(path)
        if base <= 0 or cur <= 0:
            continue                      # degenerate timings can't gate
        if kind == "time":
            ratio = cur / base
            ok = ratio <= threshold
            direction = "slower"
        else:
            ratio = base / cur
            ok = ratio <= threshold
            direction = "lower throughput"
        checked.append((dotted, base, cur, ratio, ok))
        if not ok:
            regressions.append(
                f"  {dotted}: {cur:g} vs baseline {base:g} "
                f"({ratio:.2f}x {direction}, threshold {threshold}x)")
    return regressions, checked, missing


def self_check() -> int:
    """Unit-test the gating rules in-process (``--self-check``).

    CI runs this before using the gate, so a rule edit that silently
    stops gating (or starts gating a scale-dependent key) fails the job
    at the tool itself rather than masking a perf regression later."""
    cases = [
        # (key, expected class)
        ("seconds", "time"),
        ("warm_ms_per_image", "time"),
        ("gradcam_ms_per_map", "time"),
        ("interactive_p95_ms", "time"),
        ("bulk_p99_ms", "time"),
        ("interactive_p50_ms", ""),       # medians never gate
        ("p95_ms_total", ""),             # suffix, not substring
        ("served_rps", "rate"),
        ("offered_rps", ""),
        ("tier1_warm_rps", ""),
        ("deadline_miss_rate", ""),
        ("n_requests", ""),
    ]
    failures = [f"  _classify({key!r}) = {_classify(key)!r}, "
                f"expected {want!r}"
                for key, want in cases if _classify(key) != want]
    base = {"slo": {"interactive_p95_ms": 10.0, "served_rps": 100.0,
                    "n_requests": 500}}
    # 3x slower tail fails at 2.5x; missing rate key reports missing.
    regs, checked, missing = compare(
        base, {"slo": {"interactive_p95_ms": 30.0}}, 2.5)
    if len(regs) != 1 or len(checked) != 1:
        failures.append(f"  3x p95 regression not caught: {regs!r}")
    if missing != ["slo.served_rps"]:
        failures.append(f"  missing-key detection wrong: {missing!r}")
    # Within threshold passes; count keys never compare.
    regs, checked, _ = compare(
        base, {"slo": {"interactive_p95_ms": 19.0, "served_rps": 80.0,
                       "n_requests": 7}}, 2.5)
    if regs or len(checked) != 2:
        failures.append(f"  in-threshold run misjudged: regressions="
                        f"{regs!r} checked={len(checked)}")
    if failures:
        print("check_bench --self-check: FAILED", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"check_bench --self-check: OK "
          f"({len(cases)} classifier cases, 3 compare scenarios)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a bench smoke regresses its baseline "
                    "(see module docstring for what gates and why).")
    parser.add_argument("baseline", nargs="?",
                        help="committed BENCH_*.json")
    parser.add_argument("current", nargs="?",
                        help="freshly-written smoke JSON")
    parser.add_argument("--self-check", action="store_true",
                        help="run the built-in unit checks of the "
                        "gating rules and exit (no input files)")
    parser.add_argument("--baseline-label", default="current",
                        help="entry in the baseline file (default: "
                        "'current', the latest committed run)")
    parser.add_argument("--current-label", default="ci",
                        help="entry in the current file (default: 'ci')")
    parser.add_argument("--threshold", type=float, default=2.5,
                        help="regression factor that fails the job "
                        "(default 2.5; see docstring before tightening)")
    parser.add_argument("--strict-missing", action="store_true",
                        help="fail (exit 1) when a gated baseline metric "
                        "is absent from the current run, instead of "
                        "warning.  Use for smokes that run the full "
                        "benchmark; leave off for deliberate subsets "
                        "(--only, --executor)")
    args = parser.parse_args()

    if args.self_check:
        return self_check()
    if not args.baseline or not args.current:
        parser.error("baseline and current are required "
                     "(unless --self-check)")

    try:
        with open(args.baseline) as fh:
            baseline_doc = json.load(fh)
        with open(args.current) as fh:
            current_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    if args.baseline_label not in baseline_doc:
        print(f"check_bench: baseline {args.baseline} has no "
              f"{args.baseline_label!r} entry — nothing to gate")
        return 0
    if args.current_label not in current_doc:
        print(f"check_bench: current {args.current} has no "
              f"{args.current_label!r} entry", file=sys.stderr)
        return 2

    regressions, checked, missing = compare(
        baseline_doc[args.baseline_label],
        current_doc[args.current_label], args.threshold)
    print(f"check_bench: {args.current} [{args.current_label}] vs "
          f"{args.baseline} [{args.baseline_label}] — "
          f"{len(checked)} gated metrics, threshold {args.threshold}x")
    for dotted, base, cur, ratio, ok in checked:
        flag = "   " if ok else "FAIL"
        print(f"  {flag} {dotted}: {cur:g} vs {base:g} ({ratio:.2f}x)")
    if missing:
        # A gated baseline metric the current run never recorded: under
        # --strict-missing that is lost bench coverage and fails the
        # job; without it (smokes that deliberately cover a subset via
        # --only/--executor) it stays a loud warning.
        severity = "ERROR" if args.strict_missing else "WARNING"
        print(f"check_bench: {severity} — {len(missing)} gated baseline "
              "metric(s) absent from the current run "
              + ("(failed: --strict-missing):" if args.strict_missing
                 else "(not failed; verify the smoke still covers what "
                      "it should):"),
              file=sys.stderr)
        for dotted in missing:
            print(f"  missing {dotted}", file=sys.stderr)
    if regressions:
        print(f"check_bench: {len(regressions)} regression(s):",
              file=sys.stderr)
        print("\n".join(regressions), file=sys.stderr)
        return 1
    if missing and args.strict_missing:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
