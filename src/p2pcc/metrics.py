"""Per-period metrics log and its CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MetricsLog:
    """Time series sampled once per control period.

    Columns are fixed at construction: the common counters plus one dRTT
    column per receiver and one throughput column per flow.
    """

    columns: list[str]
    rows: list[tuple[float, ...]] = field(default_factory=list)

    def append(self, row: list[float]) -> None:
        """Add one sample: its values as floats, in column order.  The log
        keeps them as a tuple, which takes less memory than the list."""
        if len(row) != len(self.columns):
            raise ValueError(f"row of {len(row)} values for {len(self.columns)} columns")
        self.rows.append(tuple(row))

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def select(self, name: str, t_lo: float, t_hi: float) -> list[float]:
        """Values of a column for samples with t_lo < time <= t_hi."""
        t_idx = self.columns.index("time")
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows if t_lo < row[t_idx] <= t_hi]


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".6g")


def emit_csv(log: MetricsLog, path: str) -> None:
    """Write the log as UTF-8 CSV, LF line endings, 6 significant digits, each
    value as ``_fmt`` writes it.

    A row is formatted with one ``%.6g`` template, which writes what ``_fmt``
    does except where it writes an exponent (integral values of 1e6 and
    more, and tiny or huge ones), ``nan``, ``inf`` or ``-0``; a line holding
    an ``e``, an ``n`` or a ``-0`` field is formatted again value by value.
    Each row is written as it is formatted."""
    template = ",".join(["%.6g"] * len(log.columns)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(log.columns) + "\n")
            for row in log.rows:
                line = template % tuple(row)
                if "e" in line or "n" in line or "-0," in line or "-0\n" in line:
                    line = ",".join(_fmt(v) for v in row) + "\n"
                fh.write(line)
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV to {path!r}: {exc}") from exc
