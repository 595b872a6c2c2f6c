"""Shared solo manifests: deep-copy oracle and aliasing guard.

The plan cache stores one solo manifest per fingerprint and every
served query's manifest is a merged view of it plus the query's own
``serving`` section.  These tests pin that view to the deep-copy path
it replaced (a private ``copy.deepcopy`` of the solo manifest with the
serving section stamped in) and check that nothing a caller or a serve
pass does reaches the cached manifest.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from repro.bench.serving_latency import MIX
from repro.faults.recovery import RetryPolicy
from repro.faults.scenarios import serving_chaos_plan
from repro.serve import QueryService, ServicePolicy, TenantQuota
from repro.serve.cache import workload_fingerprint

#: overload bounds plus a one-attempt retry budget, so the chaos seed's
#: first-attempt faults fail queries terminally: with a one-slot tenant
#: the load reaches every terminal bucket.
POLICY = ServicePolicy(
    max_active=4,
    queue_depth=6,
    stretch_limit=3.0,
    default_deadline=2.0,
    retry=RetryPolicy(max_attempts=1),
)
REQUESTS = 100
MEAN_GAP = 0.1


def _service():
    return QueryService(
        policy=POLICY, quotas={"small": TenantQuota(max_in_flight=1)}
    )


def _submit(service, seed=7):
    rng = np.random.default_rng(seed)
    arrival = 0.0
    for i in range(REQUESTS):
        arrival += float(rng.exponential(MEAN_GAP))
        tenant = "small" if i % 5 == 0 else "big"
        service.submit(tenant, MIX[int(rng.integers(0, len(MIX)))], arrival)


def _serve_chaos(service):
    _submit(service)
    with serving_chaos_plan(404).install():
        return service.serve()


def _terminated(report):
    return report.served + report.deadline_exceeded + report.failed


def _digest(manifest):
    text = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entry(service, workload):
    return service.cache.get(workload_fingerprint(workload, "ibm-ac922"))


def _entry_digests(service):
    return {name: _digest(_entry(service, name).manifest) for name in MIX}


@pytest.fixture(scope="module")
def reference_digests():
    """Solo manifests priced by a service that serves nothing else."""
    service = QueryService()
    for name in MIX:
        service.submit("ref", name, 0.0)
    service.serve()
    return _entry_digests(service)


class TestDeepCopyOracle:
    def test_load_reaches_every_outcome(self):
        report = _serve_chaos(_service())
        assert all(report.outcome_counts().values()), report.outcome_counts()

    def test_merged_view_matches_deep_copy(self):
        service = _service()
        report = _serve_chaos(service)
        for query in _terminated(report):
            entry = _entry(service, query.request.workload)
            assert query.priced is entry
            oracle = {
                **copy.deepcopy(entry.manifest),
                "serving": query.serving_record().section(),
            }
            assert json.dumps(query.manifest) == json.dumps(oracle)


class TestAliasingGuard:
    def test_cache_entries_survive_serving_and_readers(self, reference_digests):
        service = _service()
        first = _serve_chaos(service)
        second = _serve_chaos(service)
        assert _entry_digests(service) == reference_digests

        for query in _terminated(first) + _terminated(second):
            json.dumps(query.manifest)
        assert _entry_digests(service) == reference_digests

        for query in _terminated(first) + _terminated(second):
            manifest = query.manifest
            manifest["serving"] = None
            manifest["results"] = {"overwritten": True}
            manifest["kind"] = "overwritten"
        assert _entry_digests(service) == reference_digests

    def test_manifest_is_a_fresh_read_only_view(self):
        report = _serve_chaos(_service())
        query = report.served[0]
        view = query.manifest
        view["serving"] = None
        assert query.manifest["serving"] == query.serving_record().section()
        assert query.manifest is not query.manifest
        with pytest.raises(AttributeError):
            query.manifest = {}
