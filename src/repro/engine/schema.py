"""Table schemas and column types for the engine.

Types are deliberately few: the paper converts DECIMAL to integers for both
plaintext and encrypted runs (§8.1), and ciphertexts appear as ``bytes``
(DET), ``int`` (OPE / FFX / row ids), or ``tagset`` (SEARCH).  A ``list``
column exists only on the trusted client: it holds one decrypted ``grp()``
list per server group, and the engine's aggregation folds it element by
element.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.common.errors import CatalogError

VALID_TYPES = frozenset(
    {"int", "float", "text", "date", "bool", "bytes", "tagset", "list", "any"}
)

_PYTHON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "text": (str,),
    "date": (datetime.date,),
    "bool": (bool,),
    "bytes": (bytes,),
    "tagset": (frozenset,),
    "list": (list,),
}


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in VALID_TYPES:
            raise CatalogError(f"unknown column type {self.type!r}")

    def accepts(self, value: object) -> bool:
        if value is None or self.type == "any":
            return True
        if self.type == "bool":
            return isinstance(value, bool)
        if self.type == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, _PYTHON_TYPES[self.type])


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    _index: dict = field(default_factory=dict, compare=False, repr=False)
    #: Positions of the ``list`` columns, in schema order.
    list_positions: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if col.name in seen:
                raise CatalogError(f"duplicate column {col.name!r} in {self.name!r}")
            seen[col.name] = i
        for key in self.primary_key:
            if key not in seen:
                raise CatalogError(f"primary key column {key!r} not in {self.name!r}")
        self._index.update(seen)
        lists = tuple(i for i, col in enumerate(self.columns) if col.type == "list")
        object.__setattr__(self, "list_positions", lists)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"no column {name!r} in table {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


def schema(name: str, *cols: tuple[str, str], primary_key: tuple[str, ...] = ()) -> TableSchema:
    """Shorthand: ``schema("t", ("a", "int"), ("b", "text"))``."""
    return TableSchema(
        name=name,
        columns=tuple(ColumnDef(n, t) for n, t in cols),
        primary_key=primary_key,
    )
