"""Seeded inputs of the end-to-end benchmark: databases and query texts.

The TPC-H and ACMDL databases come from ``generate_scaled`` (the
generator behind ``repro gen``) with its default seeds, and the
unnormalized variants from ``denormalize_*``: they are the benchmark's
fixed data set, so run-to-run spread reflects the program rather than
the draw of the data.  ``--seed`` decides the order of the work: the
order of each closed-loop pass and the fresh-serve query stream, drawn
from templates over the databases' real attribute values.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datasets import denormalize_acmdl, denormalize_tpch, generate_scaled
from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES
from repro.relational.database import Database


@dataclass
class DatasetSpec:
    """One database as the engine sees it: rows plus the §4.1 metadata
    (declared FDs and name hints) an unnormalized database needs."""

    name: str
    database: Database
    queries: Tuple[str, ...]
    fds: Optional[Mapping[str, Sequence[str]]] = None
    name_hints: Optional[Mapping[frozenset, str]] = None

    def engine_kwargs(self) -> Dict[str, Any]:
        if self.fds is None:
            return {}
        return {"fds": self.fds, "name_hints": self.name_hints}


def clone_database(source: Database) -> Database:
    """A fresh :class:`Database` holding the same rows, with none of the
    lazily built indexes — so each set-up repetition pays them again."""
    copy = Database(source.schema)
    for table in source.tables():
        copy.load(table.schema.name, table.rows)
    return copy


def clone_specs(specs: Sequence[DatasetSpec]) -> List[DatasetSpec]:
    return [
        DatasetSpec(s.name, clone_database(s.database), s.queries, s.fds, s.name_hints)
        for s in specs
    ]


def paper_databases(sf: float) -> List[DatasetSpec]:
    """TPC-H and ACMDL at scale factor *sf*, normalized and §4.1
    unnormalized, each paired with the paper's evaluation queries
    (T1-T8 or A1-A8)."""
    tpch = generate_scaled("tpch", sf)
    acmdl = generate_scaled("acmdl", sf)
    tpch_u = denormalize_tpch(tpch)
    acmdl_u = denormalize_acmdl(acmdl)
    t_texts = tuple(spec.text for spec in TPCH_QUERIES)
    a_texts = tuple(spec.text for spec in ACMDL_QUERIES)
    return [
        DatasetSpec("tpch", tpch, t_texts),
        DatasetSpec("acmdl", acmdl, a_texts),
        DatasetSpec(
            "tpch-unnorm", tpch_u.database, t_texts, tpch_u.fds, tpch_u.name_hints
        ),
        DatasetSpec(
            "acmdl-unnorm", acmdl_u.database, a_texts, acmdl_u.fds, acmdl_u.name_hints
        ),
    ]


def serve_databases(sf: float) -> List[DatasetSpec]:
    """The normalized TPC-H and ACMDL databases the fresh stream targets."""
    return [
        DatasetSpec("tpch", generate_scaled("tpch", sf), ()),
        DatasetSpec("acmdl", generate_scaled("acmdl", sf), ()),
    ]


def _values(database: Database, table: str, column: str) -> List[Any]:
    tab = database.table(table)
    position = tab.schema.column_index(column)
    return sorted({row[position] for row in tab.rows if row[position] is not None})


_NUMERIC_AGGREGATES = ("MAX", "MIN", "AVG", "SUM")


def fresh_texts(specs: Sequence[DatasetSpec], seed: int) -> List[Tuple[str, str]]:
    """Distinct ``(dataset, query)`` pairs in seeded random order.

    Templates follow the paper's T3-T5 and A2-A5 shapes, with every
    aggregate over a numeric attribute (or COUNT) and every phrase a whole
    attribute value, so each text matches and has an answer.  No two
    texts share their best SQL, so a stream drawn in order reuses nothing
    (a nation name added to a phrase would: it matches the relation name
    and leaves the SQL unchanged).
    """
    by_name = {spec.name: spec.database for spec in specs}
    tpch, acmdl = by_name["tpch"], by_name["acmdl"]
    texts: List[Tuple[str, str]] = []
    for part in _values(tpch, "Part", "pname"):
        phrase = f'"{part}"'
        texts.append(("tpch", f"COUNT order {phrase}"))  # T3
        texts.append(("tpch", f"COUNT supplier {phrase}"))  # T5
        texts.append(("tpch", f"COUNT customer {phrase}"))
        for agg in _NUMERIC_AGGREGATES:
            texts.append(("tpch", f"supplier {agg} acctbal {phrase}"))  # T4
            texts.append(("tpch", f"order {agg} amount {phrase}"))
            texts.append(("tpch", f"{agg} quantity {phrase}"))
    for title in _values(acmdl, "Paper", "ptitle"):
        phrase = f'"{title}"'
        texts.append(("acmdl", f"COUNT author {phrase}"))  # A5
        texts.append(("acmdl", f"COUNT editor {phrase}"))
        texts.append(("acmdl", f"COUNT publisher {phrase}"))
        for agg in _NUMERIC_AGGREGATES:
            texts.append(("acmdl", f"proceeding {agg} pages {phrase}"))
    for acronym in _values(acmdl, "Proceeding", "acronym"):
        texts.append(("acmdl", f'COUNT paper GROUPBY proceeding "{acronym}"'))  # A2
        texts.append(("acmdl", f'COUNT editor "{acronym}"'))
    for lname in _values(acmdl, "Editor", "lname"):
        texts.append(("acmdl", f"COUNT proceeding editor {lname}"))  # A3
        for agg in _NUMERIC_AGGREGATES:
            texts.append(("acmdl", f"proceeding {agg} pages {lname}"))  # A4 shape
    random.Random(seed).shuffle(texts)
    return texts
