"""Replay metrics container with JSON and RFC-4180 CSV serialization."""

from __future__ import annotations

import csv
import json
import platform
from dataclasses import asdict, dataclass, field, fields

import numpy as np


def environment_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RequestRow:
    """One served request; its fields, in order, are the JSON row keys and
    the CSV columns."""

    index: int
    strategy_executed: str
    slice: int
    batch: int
    wall_time_s: float
    rows_read: int


@dataclass
class MetricsReport:
    """Per-request rows plus the summary of one replay run."""

    strategy: str
    num_slices: int
    phi: float
    t: int
    r: int
    rows: list[RequestRow] = field(default_factory=list)
    pre_accuracy: float | None = None
    final_accuracy: float | None = None
    partial: bool = False
    error: str | None = None
    config_hash: str | None = None
    notes: str = ""
    environment: dict = field(default_factory=environment_fingerprint)

    @property
    def avg_unlearn_time_s(self) -> float:
        if not self.rows:
            return 0.0
        return float(sum(r.wall_time_s for r in self.rows) / len(self.rows))

    def to_dict(self) -> dict:
        return {
            "summary": {
                "strategy": self.strategy,
                "request_count": len(self.rows),
                "avg_unlearn_time_s": self.avg_unlearn_time_s,
                "pre_accuracy": self.pre_accuracy,
                "final_accuracy": self.final_accuracy,
                "S": self.num_slices,
                "phi": self.phi,
                "t": self.t,
                "r": self.r,
                "partial": self.partial,
                "error": self.error,
            },
            "rows": [asdict(r) for r in self.rows],
            "config_hash": self.config_hash,
            "notes": self.notes,
            "environment": self.environment,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            columns = [f.name for f in fields(RequestRow)]
            writer.writerow(columns)
            for r in self.rows:
                cells = asdict(r).values()
                writer.writerow(f"{v:.6f}" if isinstance(v, float) else v for v in cells)
            padding = [""] * (len(columns) - 2)
            writer.writerow(["average_time_s", f"{self.avg_unlearn_time_s:.6f}", *padding])
            final = "" if self.final_accuracy is None else f"{self.final_accuracy:.6f}"
            writer.writerow(["final_accuracy", final, *padding])
