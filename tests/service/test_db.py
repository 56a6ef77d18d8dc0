"""Control-plane database tests: schema v2, tenants, sites, jobs."""

import sqlite3
import time

import pytest

from repro.observability.history import _SCHEMA, RunHistory, SCHEMA_VERSION
from repro.service import JobState, ServiceDB


@pytest.fixture
def db(tmp_path):
    return ServiceDB(str(tmp_path / "runs.db"))


class TestSchema:
    def test_fresh_database_is_current_version(self, db):
        assert db.schema_version() == SCHEMA_VERSION == 2

    def test_v1_database_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "old.db")
        # Hand-build a PR-6 era (v1) database with one recorded run.
        conn = sqlite3.connect(path)
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT INTO runs (run_id, kind, status, started_at) "
            "VALUES ('abc123', 'run', 'ok', ?)",
            (time.time(),),
        )
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()

        db = ServiceDB(path)
        assert db.schema_version() == 2
        # The old run survived the migration...
        assert db.get("abc123").kind == "run"
        # ...and the control-plane tables exist and work.
        db.add_tenant("t")
        job = db.submit_job("t", "wf")
        assert db.get_job(job.job_id).state is JobState.SUBMITTED

    def test_plain_history_opens_service_database(self, db, tmp_path):
        db.add_tenant("t")
        history = RunHistory(db.path)
        assert history.schema_version() == 2
        assert len(history) == 0

    def test_newer_schema_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version=99")
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            ServiceDB(path)


class TestTenants:
    def test_add_get_list(self, db):
        db.add_tenant("alice", share=2.0, max_running=3, max_cores=8)
        db.add_tenant("bob")
        alice = db.get_tenant("alice")
        assert (alice.share, alice.max_running, alice.max_cores) == (2.0, 3, 8)
        assert [t.name for t in db.list_tenants()] == ["alice", "bob"]
        assert alice.to_json()["share"] == 2.0

    def test_duplicate_rejected(self, db):
        db.add_tenant("alice")
        with pytest.raises(ValueError, match="already exists"):
            db.add_tenant("alice")

    def test_validation(self, db):
        with pytest.raises(ValueError):
            db.add_tenant("")
        with pytest.raises(ValueError):
            db.add_tenant("x", share=0)
        with pytest.raises(ValueError):
            db.add_tenant("x", max_running=-1)

    def test_unknown_tenant(self, db):
        with pytest.raises(KeyError):
            db.get_tenant("ghost")


class TestSites:
    def test_register_is_upsert(self, db):
        db.register_site("zeus", cluster="zeus-sim", total_cores=8)
        first = db.get_site("zeus")
        db.register_site("zeus", cluster="zeus-sim", total_cores=16)
        second = db.get_site("zeus")
        assert second.total_cores == 16
        assert second.created_at == first.created_at
        assert second.last_seen_at >= first.last_seen_at
        assert [s.name for s in db.list_sites()] == ["zeus"]

    def test_unknown_site(self, db):
        with pytest.raises(KeyError):
            db.get_site("ghost")


class TestJobs:
    def test_submit_and_lifecycle(self, db):
        db.add_tenant("alice")
        job = db.submit_job("alice", "wf", params={"n": 3}, cores=2,
                            memory_gb=1.5)
        assert job.state is JobState.SUBMITTED
        assert job.params == {"n": 3}
        assert job.turnaround_s is None
        assert not job.state.terminal

        launched = db.update_job(job.job_id, state=JobState.LAUNCHED,
                                 site="zeus")
        assert launched.state is JobState.LAUNCHED
        done = db.update_job(
            job.job_id, state=JobState.COMPLETED,
            started_at=job.submitted_at + 1,
            finished_at=job.submitted_at + 3, backfilled=True,
        )
        assert done.state.terminal
        assert done.turnaround_s == pytest.approx(3.0)
        assert done.backfilled
        assert done.to_json()["state"] == "COMPLETED"

    def test_submit_requires_known_tenant(self, db):
        with pytest.raises(KeyError):
            db.submit_job("ghost", "wf")

    def test_submit_validation(self, db):
        db.add_tenant("alice")
        with pytest.raises(ValueError):
            db.submit_job("alice", "wf", cores=0)
        with pytest.raises(ValueError):
            db.submit_job("alice", "wf", memory_gb=-1)

    def test_filters_and_order(self, db):
        db.add_tenant("alice")
        db.add_tenant("bob")
        a1 = db.submit_job("alice", "wf-a")
        b1 = db.submit_job("bob", "wf-b")
        a2 = db.submit_job("alice", "wf-a")
        db.update_job(b1.job_id, state=JobState.COMPLETED,
                      finished_at=time.time())

        assert [j.job_id for j in db.jobs()] == [
            a1.job_id, b1.job_id, a2.job_id
        ]
        assert [j.job_id for j in db.jobs(tenant="alice")] == [
            a1.job_id, a2.job_id
        ]
        assert [j.job_id for j in db.jobs(state=JobState.COMPLETED)] == [
            b1.job_id
        ]
        assert db.job_counts() == {"SUBMITTED": 2, "COMPLETED": 1}
        assert db.job_counts(tenant="bob") == {"COMPLETED": 1}

    def test_unknown_job(self, db):
        with pytest.raises(KeyError):
            db.get_job("ghost")
        with pytest.raises(KeyError):
            db.update_job("ghost", state=JobState.FAILED)
