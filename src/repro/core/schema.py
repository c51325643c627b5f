"""The DB2RDF relational schema (paper §2.1, Figure 1).

Four relations:

* **DPH** (Direct Primary Hash): one row per subject (plus spill rows);
  ``entry`` holds the subject, ``pred_i``/``val_i`` pairs hold its
  predicates and objects in dynamically assigned columns.
* **DS** (Direct Secondary Hash): multi-valued objects, keyed by lid.
* **RPH** / **RS**: the same structure reversed — one row per *object*,
  storing incoming predicates and their subjects.

Only the ``entry`` columns of DPH/RPH and the ``l_id`` columns of DS/RS are
indexed, matching the paper's evaluation setup ("no indexes on the pred_i
and val_i columns").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends.base import Backend
from ..relational.types import ColumnType

# Reserved prefixes marking secondary-hash keys. Data values are rejected by
# the loader if they collide (they never do for URI/N3-literal keys).
DIRECT_LID_PREFIX = "@lid:d:"
REVERSE_LID_PREFIX = "@lid:r:"

ENTRY = "entry"
SPILL = "spill"
LID = "l_id"
ELM = "elm"


def pred_col(i: int) -> str:
    return f"pred{i}"


def val_col(i: int) -> str:
    return f"val{i}"


@dataclass
class DB2RDFSchema:
    """Table names and widths for one store instance."""

    direct_columns: int
    reverse_columns: int
    prefix: str = ""

    dph: str = field(init=False)
    ds: str = field(init=False)
    rph: str = field(init=False)
    rs: str = field(init=False)

    def __post_init__(self) -> None:
        if self.direct_columns <= 0 or self.reverse_columns <= 0:
            raise ValueError("column counts must be positive")
        self.dph = self.prefix + "DPH"
        self.ds = self.prefix + "DS"
        self.rph = self.prefix + "RPH"
        self.rs = self.prefix + "RS"

    def primary_columns(self, width: int) -> list[tuple[str, ColumnType]]:
        columns: list[tuple[str, ColumnType]] = [
            (ENTRY, ColumnType.TEXT),
            (SPILL, ColumnType.INTEGER),
        ]
        for i in range(width):
            columns.append((pred_col(i), ColumnType.TEXT))
            columns.append((val_col(i), ColumnType.TEXT))
        return columns

    def secondary_columns(self) -> list[tuple[str, ColumnType]]:
        return [(LID, ColumnType.TEXT), (ELM, ColumnType.TEXT)]

    def create_all(self, backend: Backend) -> None:
        backend.create_table(self.dph, self.primary_columns(self.direct_columns))
        backend.create_table(self.ds, self.secondary_columns())
        backend.create_table(self.rph, self.primary_columns(self.reverse_columns))
        backend.create_table(self.rs, self.secondary_columns())
        backend.create_index(f"{self.dph}_entry", self.dph, [ENTRY])
        backend.create_index(f"{self.rph}_entry", self.rph, [ENTRY])
        backend.create_index(f"{self.ds}_lid", self.ds, [LID])
        backend.create_index(f"{self.rs}_lid", self.rs, [LID])
