"""Compiled plans must agree with SQLite on every evaluation query, for
both engines, normalized and unnormalized, under both optimizer modes.

This is the acceptance gate for the physical-plan layer: same SQL, same
database, the in-memory engine (``optimizer="cost"`` and ``"off"``) against
an independent RDBMS, compared as canonical row multisets by
:func:`repro.backends.differential.diff_statement`.
"""

from repro.backends import MemoryBackend, SqliteBackend
from repro.backends.differential import diff_statement
from repro.engine import KeywordSearchEngine
from repro.errors import ReproError, UnsupportedQueryError
from repro.experiments import ACMDL_QUERIES, TPCH_QUERIES, pick_interpretation
from repro.sql.parser import parse
from repro.sql.render import render


def _assert_equivalent(database, selects):
    sqlite = SqliteBackend()
    sqlite.load(database)
    try:
        for mode in ("cost", "off"):
            memory = MemoryBackend(optimizer=mode)
            memory.load(database)
            for qid, select in selects:
                detail = diff_statement(memory, sqlite, select)
                assert detail is None, f"{qid} [{mode}]: {detail}\n{render(select)}"
    finally:
        sqlite.close()


def _assert_semantic_equivalent(engine, specs):
    selects = []
    for spec in specs:
        try:
            interpretations = engine.compile(spec.text)
        except ReproError:
            continue
        selects.append((spec.qid, pick_interpretation(interpretations, spec).select))
    assert selects
    _assert_equivalent(engine.database, selects)


def _assert_sqak_equivalent(sqak, specs):
    selects = []
    for spec in specs:
        try:
            statement = sqak.compile(spec.text)
        except (UnsupportedQueryError, ReproError):
            continue
        selects.append((spec.qid, statement.select))
    assert selects
    _assert_equivalent(sqak.database, selects)


class TestSemanticEngineEquivalence:
    def test_tpch(self, tpch_engine):
        _assert_semantic_equivalent(tpch_engine, TPCH_QUERIES)

    def test_acmdl(self, acmdl_engine):
        _assert_semantic_equivalent(acmdl_engine, ACMDL_QUERIES)

    def test_tpch_unnormalized(self, tpch_unnorm_engine):
        _assert_semantic_equivalent(tpch_unnorm_engine, TPCH_QUERIES)

    def test_acmdl_unnormalized(self, acmdl_unnorm_engine):
        _assert_semantic_equivalent(acmdl_unnorm_engine, ACMDL_QUERIES)


class TestSqakEquivalence:
    def test_tpch(self, tpch_sqak):
        _assert_sqak_equivalent(tpch_sqak, TPCH_QUERIES)

    def test_acmdl(self, acmdl_sqak):
        _assert_sqak_equivalent(acmdl_sqak, ACMDL_QUERIES)

    def test_tpch_unnormalized(self, tpch_unnorm_sqak):
        _assert_sqak_equivalent(tpch_unnorm_sqak, TPCH_QUERIES)

    def test_acmdl_unnormalized(self, acmdl_unnorm_sqak):
        _assert_sqak_equivalent(acmdl_unnorm_sqak, ACMDL_QUERIES)


def test_university_three_way_group_by_join(university_db):
    sql = (
        "SELECT S.Sname, SUM(C.Credit) FROM Student S, Enrol E, Course C "
        "WHERE S.Sid = E.Sid AND E.Code = C.Code GROUP BY S.Sname"
    )
    _assert_equivalent(university_db, [("university-join", parse(sql))])


class TestEngineKnob:
    def test_clear_cache_drops_plans(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine.execute("Green SUM Credit")
        assert engine.executor.plan_cache_len > 0
        engine.clear_cache()
        assert engine.executor.plan_cache_len == 0
