"""C11: four equal-share tenants on one 8-core cluster, nobody starved.

The whole submission is queued before the launcher starts, so its
first fair-share pass is one deterministic sort; fairness is then read
from the order of the ``service_jobs`` rows' start stamps.
"""

from repro.cluster import laptop_like
from repro.service import (
    ANALYTICS_WORKFLOW,
    ESM_WORKFLOW,
    JobState,
    ServiceDB,
    WorkflowService,
    build_demo_services,
)

TENANTS = ("atmos", "ocean", "land", "ice")
JOBS_PER_TENANT = 3     # one 2-core ESM member + two 1-core analytics jobs


def test_c11_every_tenant_completes_and_none_waits_behind_a_third_job(tmp_path):
    db = ServiceDB(str(tmp_path / "runs.db"))
    for tenant in TENANTS:
        db.add_tenant(tenant)
    # Round-robin, ESM wave first: 4 x 2 cores fill the cluster exactly.
    for seed, tenant in enumerate(TENANTS):
        db.submit_job(tenant, ESM_WORKFLOW, cores=2,
                      params={"n_days": 6, "seed": seed})
    for wave in range(JOBS_PER_TENANT - 1):
        for seed, tenant in enumerate(TENANTS):
            db.submit_job(tenant, ANALYTICS_WORKFLOW,
                          params={"n_days": 12, "seed": 100 * wave + seed})

    with laptop_like(scratch_root=str(tmp_path / "scratch")) as cluster:
        assert cluster.scheduler.free_cores() == 8
        _a4c, api = build_demo_services(cluster)
        with WorkflowService(db, api, cluster) as service:
            service.drain(timeout=120)
            report = service.report()

    rows = db.jobs()
    assert [r.state for r in rows] == [JobState.COMPLETED] * 12
    starts = {tenant: sorted(r.started_at for r in rows if r.tenant == tenant)
              for tenant in TENANTS}
    for tenant in TENANTS:
        assert report["tenants"][tenant]["by_state"] == {"COMPLETED": JOBS_PER_TENANT}
        assert report["tenants"][tenant]["usage_core_s"] > 0
    # Every tenant has started its first job before any tenant starts
    # its third: the single LSF dispatcher starts jobs in launch order,
    # and a third job is launched only after a first-wave job finished.
    assert max(s[0] for s in starts.values()) < min(s[2] for s in starts.values())
