"""Golden wire-protocol pins: the serialized contract must not drift.

``serve_request.json`` / ``serve_response.json`` pin one full ``/evaluate``
round trip byte-for-byte at the JSON level.  The pinned case is chosen so
every float comes from correctly-rounded IEEE-754 operations (square roots
and divisions of small dyadic inputs), making exact equality portable
across platforms.  A diff here means the wire contract changed — bump
``PROTOCOL_VERSION`` and regenerate deliberately, never accidentally.

The ``/metrics`` golden asserts the ``repro_serve_*`` families render as
valid Prometheus text exposition format (0.0.4): HELP/TYPE preambles and
``name{labels} value`` sample lines only.
"""

import json
import re
from pathlib import Path

import pytest

from repro.serve import ServeConfig, ServerThread

pytestmark = pytest.mark.serve

GOLDEN = Path(__file__).parent / "golden"

# one sample line of the text exposition format:  name{labels} value
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" [0-9eE+.\-]+(\.[0-9]+)?$"
)


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


class TestGoldenRoundTrip:
    def test_pinned_request_yields_pinned_response(self):
        request = load("serve_request.json")
        expected = load("serve_response.json")
        with ServerThread(ServeConfig(port=0)) as h:
            client = h.client()
            reply = client.post_json("/evaluate", request)
            client.close()
        assert reply.status == 200
        assert reply.json == expected

    def test_request_schema_fields(self):
        request = load("serve_request.json")
        assert set(request) == {"id", "problem"}
        problem = request["problem"]
        assert problem["kind"] == "allocation"
        assert set(problem) == {"kind", "mapping", "etc", "tau"}

    def test_response_schema_fields(self):
        response = load("serve_response.json")
        assert set(response) == {"id", "protocol", "ok", "result", "failures", "error"}
        assert response["protocol"] == 1
        assert response["id"] == "golden-1"
        assert response["ok"] is True
        result = response["result"]
        assert result["type"] == "AllocationRobustness"
        assert result["version"] == 1
        assert set(result) == {
            "type",
            "version",
            "value",
            "radii",
            "critical_machine",
            "makespan",
            "tau",
        }

    def test_pinned_floats_are_exact_ieee_values(self):
        # the paper's Eq. 6 distance for this ETC: (tau*M - F_j) / sqrt(n_j)
        import math

        result = load("serve_response.json")["result"]
        makespan = 6.0  # machine 0: 4 + 2
        assert result["makespan"] == makespan
        assert result["radii"][0] == (1.3 * makespan - 6.0) / math.sqrt(2.0)
        assert result["radii"][1] == (1.3 * makespan - 3.0) / math.sqrt(1.0)
        assert result["value"] == min(result["radii"])


class TestMetricsScrape:
    @pytest.fixture(scope="class")
    def scrape(self) -> str:
        from repro import obs

        obs.reset_metrics()  # the registry is process-global
        with ServerThread(ServeConfig(port=0)) as h:
            client = h.client()
            request = load("serve_request.json")
            assert client.post_json("/evaluate", request).status == 200
            text = client.metrics()
            client.close()
        return text

    def test_serve_families_present_with_types(self, scrape):
        assert '# TYPE repro_serve_requests_total counter' in scrape
        assert '# TYPE repro_serve_queue_depth gauge' in scrape
        assert '# TYPE repro_serve_request_seconds histogram' in scrape
        assert '# TYPE repro_serve_batches_total counter' in scrape
        assert '# TYPE repro_serve_queue_wait_seconds histogram' in scrape

    def test_request_counter_carries_route_and_code_labels(self, scrape):
        assert 'repro_serve_requests_total{code="200",route="/evaluate"} 1.0' in scrape

    def test_histogram_renders_buckets_sum_count(self, scrape):
        assert 'repro_serve_request_seconds_bucket{route="/evaluate",le="+Inf"} 1' in scrape
        assert 'repro_serve_request_seconds_count{route="/evaluate"} 1' in scrape
        assert re.search(
            r'repro_serve_request_seconds_sum\{route="/evaluate"\} [0-9.e\-]+', scrape
        )

    def test_queue_wait_histogram_counts_each_dispatched_request(self, scrape):
        assert 'repro_serve_queue_wait_seconds_bucket{le="+Inf"} 1' in scrape
        assert 'repro_serve_queue_wait_seconds_count 1' in scrape

    def test_queue_depth_gauge_reads_zero_after_drain(self, scrape):
        assert "repro_serve_queue_depth 0.0" in scrape

    def test_whole_scrape_is_valid_prometheus_text(self, scrape):
        for line in scrape.splitlines():
            if not line or line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_RE.match(line), f"malformed exposition line: {line!r}"
