"""CLI tests for ``repro service ...`` and ``repro submit``."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "runs.db")


def _setup_tenants(db_path):
    assert main(["service", "add-tenant", "alice", "--share", "2",
                 "--db", db_path]) == 0
    assert main(["service", "add-tenant", "bob", "--max-running", "2",
                 "--db", db_path]) == 0


class TestServiceAdmin:
    def test_init_creates_database(self, db_path, capsys):
        assert main(["service", "init", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "schema v2" in out

    def test_no_db_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DB", raising=False)
        assert main(["service", "tenants"]) == 2
        assert "no service database" in capsys.readouterr().err

    def test_add_tenant_and_list(self, db_path, capsys):
        _setup_tenants(db_path)
        capsys.readouterr()
        assert main(["service", "tenants", "--db", db_path,
                     "--format", "json"]) == 0
        tenants = json.loads(capsys.readouterr().out)
        assert [t["name"] for t in tenants] == ["alice", "bob"]
        assert tenants[0]["share"] == 2.0
        assert tenants[1]["max_running"] == 2

    def test_duplicate_tenant_fails(self, db_path, capsys):
        _setup_tenants(db_path)
        assert main(["service", "add-tenant", "alice", "--db", db_path]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_tenants_table_format(self, db_path, capsys):
        _setup_tenants(db_path)
        capsys.readouterr()
        assert main(["service", "tenants", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "TENANT" in out and "alice" in out and "bob" in out


class TestSubmit:
    def test_submit_enqueues(self, db_path, capsys):
        _setup_tenants(db_path)
        capsys.readouterr()
        assert main([
            "submit", "alice", "heatwave-analytics", "--cores", "2",
            "--param", "n_days=8", "--param", "note=hi", "--db", db_path,
        ]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["tenant"] == "alice"
        assert job["state"] == "SUBMITTED"
        assert job["cores"] == 2
        # JSON-ish values parse, plain strings pass through.
        assert job["params"] == {"n_days": 8, "note": "hi"}

    def test_submit_unknown_tenant_fails(self, db_path, capsys):
        assert main(["service", "init", "--db", db_path]) == 0
        assert main(["submit", "ghost", "wf", "--db", db_path]) == 2
        assert "unknown tenant" in capsys.readouterr().err

    def test_bad_param_fails(self, db_path, capsys):
        _setup_tenants(db_path)
        with pytest.raises(SystemExit):
            main(["submit", "alice", "wf", "--param", "nokey",
                  "--db", db_path])

    def test_jobs_listing(self, db_path, capsys):
        _setup_tenants(db_path)
        main(["submit", "alice", "wf-a", "--db", db_path])
        main(["submit", "bob", "wf-b", "--db", db_path])
        capsys.readouterr()
        assert main(["service", "jobs", "--db", db_path,
                     "--tenant", "bob", "--format", "json"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert len(jobs) == 1 and jobs[0]["workflow"] == "wf-b"
        assert main(["service", "jobs", "--db", db_path,
                     "--state", "SUBMITTED"]) == 0
        out = capsys.readouterr().out
        assert "wf-a" in out and "wf-b" in out


class TestServiceRun:
    def test_run_drains_queued_jobs(self, db_path, tmp_path, capsys):
        _setup_tenants(db_path)
        # Two small analytics jobs: quick, and they pack side by side.
        for tenant in ("alice", "bob"):
            assert main([
                "submit", tenant, "heatwave-analytics",
                "--param", "n_days=8", "--db", db_path,
            ]) == 0
        capsys.readouterr()
        assert main([
            "service", "run", "--db", db_path, "--timeout", "120",
            "--site", "test-site", "--scratch", str(tmp_path / "scratch"),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["site"] == "test-site"
        for tenant in ("alice", "bob"):
            assert report["tenants"][tenant]["by_state"] == {"COMPLETED": 1}

        # The jobs listing now shows the terminal states.
        assert main(["service", "jobs", "--db", db_path,
                     "--state", "COMPLETED", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2
