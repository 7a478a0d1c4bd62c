"""Rank-correlation analysis between complexity measures and generalization
gaps: Kendall's tau over ordered pairs, the granulated per-axis coefficient
Psi, and assembly of the final report table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, NumericError

__all__ = [
    "HyperPoint",
    "ZooRecord",
    "AXES",
    "REPORT_AXES",
    "kendall_tau",
    "granulated_psi",
    "correlation_report",
    "CorrelationReport",
]

# Grid axes a zoo varies; `width` is handled as a report filter, not a column.
AXES = ("batch_size", "lr_init", "width", "dropout", "model_variant")
REPORT_AXES = ("batch_size", "lr_init", "dropout", "model_variant")
_COLUMN_OF = {
    "batch_size": "batch_size",
    "lr_init": "learning_rate",
    "dropout": "dropout",
    "model_variant": "model_type",
}


@dataclass(frozen=True)
class HyperPoint:
    batch_size: int
    lr_init: float
    width: int
    dropout: float
    model_variant: str


@dataclass
class ZooRecord:
    theta: HyperPoint
    measures: object  # MeasureVector or a mapping: anything whose get(name) gives a real
    gap: float
    converged: bool = True


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def kendall_tau(samples) -> float:
    """Rank correlation over ordered pairs: (1/(n(n-1))) * sum of
    sign(mu_i - mu_j) * sign(g_i - g_j); ties contribute zero.  A sample
    with a NaN or inf has no rank: NumericError names the first."""
    pts = [(float(m), float(g)) for m, g in samples]
    n = len(pts)
    if n < 2:
        raise ConfigError("kendall tau needs at least 2 samples")
    bad = next((i for i, (m, g) in enumerate(pts) if not (math.isfinite(m) and math.isfinite(g))), None)
    if bad is not None:
        raise NumericError(f"kendall tau sample {bad} is not finite: {pts[bad]}")
    total = 0
    for mi, gi in pts:
        for mj, gj in pts:  # the i == j term is zero
            total += _sign(mi - mj) * _sign(gi - gj)
    return total / (n * (n - 1))


def _measure_of(rec: ZooRecord, name: str) -> float:
    return float(rec.measures.get(name))


def _usable(rec: ZooRecord, name: str) -> bool:
    if not rec.converged:
        return False
    return math.isfinite(_measure_of(rec, name)) and math.isfinite(rec.gap)


def granulated_psi(records, measure_name: str):
    """Per-axis mean Kendall tau over slices that vary only that axis, for
    each of the ``REPORT_AXES``, plus their average.

    Returns (per_axis, psi) where per_axis maps axis name -> mean tau or
    None when the axis has no slice with >= 2 usable points (such axes are
    excluded from psi).  Records that did not converge, or whose measure or
    gap is not finite, are left out.
    """
    recs = [r for r in records if _usable(r, measure_name)]
    per_axis: dict[str, float | None] = {}
    for axis in REPORT_AXES:
        slices: dict[tuple, list] = {}
        for r in recs:
            key = tuple(getattr(r.theta, a) for a in AXES if a != axis)
            slices.setdefault(key, []).append((_measure_of(r, measure_name), r.gap))
        taus = [kendall_tau(pts) for pts in slices.values() if len(pts) >= 2]
        per_axis[axis] = sum(taus) / len(taus) if taus else None
    present = [v for v in per_axis.values() if v is not None]
    psi = sum(present) / len(present) if present else float("nan")
    return per_axis, psi


@dataclass
class CorrelationReport:
    rows: list[dict] = field(default_factory=list)  # one per measure
    n_converged: int = 0
    n_excluded: int = 0
    width_filter: int | None = None

    COLUMNS = ("measure", "batch_size", "learning_rate", "dropout", "model_type", "overall_tau", "psi")

    def _cell(self, row: dict, col: str) -> str:
        v = row[col]
        if v is None:
            return ""
        return v if isinstance(v, str) else repr(float(v))

    def to_csv_text(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(self._cell(row, c) for c in self.COLUMNS))
        wf = "" if self.width_filter is None else str(self.width_filter)
        lines.append(f"# converged={self.n_converged} excluded={self.n_excluded} width_filter={wf}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        widths = {c: len(c) for c in self.COLUMNS}
        formatted = []
        for row in self.rows:
            cells = {}
            for c in self.COLUMNS:
                v = row[c]
                cells[c] = "-" if v is None else v if isinstance(v, str) else f"{v:+.3f}"
                widths[c] = max(widths[c], len(cells[c]))
            formatted.append(cells)
        header = "  ".join(c.ljust(widths[c]) for c in self.COLUMNS)
        sep = "  ".join("-" * widths[c] for c in self.COLUMNS)
        body = [
            "  ".join(cells[c].ljust(widths[c]) for c in self.COLUMNS) for cells in formatted
        ]
        foot = f"({self.n_converged} converged runs; {self.n_excluded} excluded)"
        return "\n".join([header, sep, *body, foot]) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())


def correlation_report(records, measure_names, width_filter: int | None = None) -> CorrelationReport:
    """Table of per-axis granulated taus, the overall tau, and psi for each
    measure, over the converged records (optionally restricted to one width)."""
    pool = list(records)
    widths = sorted({r.theta.width for r in pool})
    if width_filter is not None:
        pool = [r for r in pool if r.theta.width == width_filter]
    if not any(r.converged for r in pool):
        where = "" if width_filter is None else f" at width filter {width_filter}; the zoo holds widths {widths}"
        raise ConfigError(f"no converged records to correlate{where}")
    report = CorrelationReport(width_filter=width_filter)
    report.n_converged = sum(1 for r in pool if r.converged)
    report.n_excluded = len(pool) - report.n_converged
    for name in measure_names:
        usable = [r for r in pool if _usable(r, name)]
        per_axis, psi = granulated_psi(pool, name)
        row: dict = {"measure": name}
        for axis in REPORT_AXES:
            row[_COLUMN_OF[axis]] = per_axis[axis]
        pts = [(_measure_of(r, name), r.gap) for r in usable]
        row["overall_tau"] = kendall_tau(pts) if len(pts) >= 2 else None
        row["psi"] = None if math.isnan(psi) else psi
        report.rows.append(row)
    return report
