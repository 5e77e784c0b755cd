"""Benchmark records and core-size ratio statistics.

Ratios are reported as other-method / baseline, computed only over
instances where both methods produced a verified core.  Quartiles use the
Hazen rule (h = n*p + 1/2, linear interpolation between order statistics),
which is the documented convention for every table this tool prints.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional


@dataclass
class BenchRecord:
    instance: str
    clauses: int
    method: str
    core_size: Optional[int]  # None when the method failed on the instance
    time_ms: float
    # "ok", or "error:<exception class>" when parsing, extraction or
    # verification raised (a core that fails verification raises ExtractionError)
    verified: str

    def __post_init__(self):
        if self.time_ms < 0:
            raise ValueError("negative wall time")
        if self.core_size is not None and self.core_size > self.clauses:
            raise ValueError("core size exceeds input clause count")


@dataclass
class RatioStats:
    q1: Fraction
    median: Fraction
    mean: Fraction
    q3: Fraction
    count: int

    def __post_init__(self):
        if not (self.q1 <= self.median <= self.q3):
            raise ValueError("quartiles out of order")


def quantile(values: list[Fraction], p: Fraction) -> Fraction:
    """Hazen quantile: position n*p + 1/2 (1-based), clamped, with linear
    interpolation between order statistics."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("empty sample")
    h = Fraction(n) * p + Fraction(1, 2)
    if h <= 1:
        return data[0]
    if h >= n:
        return data[-1]
    lo = int(h)  # floor; h >= 1 here
    frac = h - lo
    return data[lo - 1] + (data[lo] - data[lo - 1]) * frac


def ratio_stats(ratios: Iterable[Fraction]) -> RatioStats:
    vals = [Fraction(r) for r in ratios]
    if not vals:
        raise ValueError("no ratios to summarize")
    return RatioStats(
        q1=quantile(vals, Fraction(1, 4)),
        median=quantile(vals, Fraction(1, 2)),
        mean=sum(vals) / len(vals),
        q3=quantile(vals, Fraction(3, 4)),
        count=len(vals),
    )


def stats_for_pair(records: list[BenchRecord], method: str,
                   baseline: str) -> Optional[RatioStats]:
    """Ratio statistics method/baseline over instances where both produced a
    verified core; None when no instance qualifies."""
    by_instance: dict[str, dict[str, BenchRecord]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.method] = r
    ratios = []
    for inst in sorted(by_instance):
        row = by_instance[inst]
        a, b = row.get(method), row.get(baseline)
        if a is None or b is None:
            continue
        if a.verified != "ok" or b.verified != "ok":
            continue
        if a.core_size is None or b.core_size is None or b.core_size == 0:
            continue
        ratios.append(Fraction(a.core_size, b.core_size))
    if not ratios:
        return None
    return ratio_stats(ratios)


def format_table(stats: dict[str, Optional[RatioStats]], baseline: str) -> str:
    """Fixed-shape ratio table: one row per method pair against the baseline."""
    header = f"{'core size ratio':<40} {'1st quartile':>12} {'median':>8} " \
             f"{'mean':>8} {'3rd quartile':>12} {'n':>5}"
    lines = [header]
    for method in sorted(stats):
        st = stats[method]
        label = f"{method}/{baseline}"
        if st is None:
            lines.append(f"{label:<40} {'-':>12} {'-':>8} {'-':>8} {'-':>12} {0:>5}")
        else:
            lines.append(
                f"{label:<40} {float(st.q1):>12.2f} {float(st.median):>8.2f} "
                f"{float(st.mean):>8.2f} {float(st.q3):>12.2f} {st.count:>5}")
    return "\n".join(lines)


CSV_COLUMNS = ["instance", "clauses", "method", "core_size", "time_ms", "verified"]


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow({
            "instance": r.instance,
            "clauses": r.clauses,
            "method": r.method,
            "core_size": "" if r.core_size is None else r.core_size,
            "time_ms": repr(r.time_ms),
            "verified": r.verified,
        })
    return buf.getvalue()


def run_bench(paths: list[Path], methods: list[str], budget: Optional[int] = None,
              extractor_cmd: Optional[str] = None) -> list[BenchRecord]:
    """Run every method on every instance; per-instance failures are recorded
    and never abort the run.  Records come back in instance order."""
    from .cnf import cnf_convert
    from .cores import METHODS, extract_core
    from .parser import parse_file

    records = []
    for path in paths:
        name = str(path)
        try:
            formula = cnf_convert(parse_file(name))
            nclauses = len(formula.clauses)
        except Exception as exc:
            for method in methods:
                records.append(BenchRecord(name, 0, method, None, 0.0,
                                           f"error:{type(exc).__name__}"))
            continue
        for method in methods:
            start = time.perf_counter()
            try:
                external = METHODS[method][1] == "external"
                report = extract_core(formula, method, verify=True, budget=budget,
                                      extractor_cmd=extractor_cmd if external else None)
                elapsed = (time.perf_counter() - start) * 1000.0
                if report.verdict == "sat":
                    records.append(BenchRecord(name, nclauses, method, None,
                                               elapsed, "ok"))
                else:
                    records.append(BenchRecord(name, nclauses, method,
                                               len(report.core), elapsed, "ok"))
            except Exception as exc:
                elapsed = (time.perf_counter() - start) * 1000.0
                records.append(BenchRecord(name, nclauses, method, None, elapsed,
                                           f"error:{type(exc).__name__}"))
    return records
