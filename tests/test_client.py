"""Model client: mock verdicts, live wire protocol, retries, memoization."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from kgreason.client import (
    VERDICT_KNOWN,
    VERDICT_UNDECIDED,
    VERDICT_UNKNOWN,
    ClientConfig,
    ModelClient,
    mock_client,
)
from kgreason.errors import ClientError, UsageError

from conftest import SOURCE_ROOT, run_cli


class FakeResponse:
    def __init__(self, status_code=200, content="YES"):
        self.status_code = status_code
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class FakeTransport:
    """Records requests and replays a scripted list of responses."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, headers=None, data=None, timeout=None):
        import json as jsonlib

        self.calls.append(
            {"url": url, "json": jsonlib.loads(data), "headers": headers}
        )
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def live_client(script, **overrides):
    config = ClientConfig(
        mode="live",
        endpoint="https://example.test/v1/chat",
        model="m1",
        max_retries=overrides.pop("max_retries", 1),
        retry_backoff=0.0,
        **overrides,
    )
    transport = FakeTransport(script)
    return ModelClient(config, transport=transport), transport


class TestMock:
    def test_table_hit_is_known(self):
        client = mock_client({"A is a citizen of B."})
        assert client.probe_fact("A is a citizen of B.") == VERDICT_KNOWN

    def test_closed_world_miss_is_unknown(self):
        client = mock_client({"A is a citizen of B."})
        assert client.probe_fact("C is a citizen of D.") == VERDICT_UNKNOWN

    def test_sentence_iterable_becomes_known_table(self):
        client = mock_client(["fact one.", "fact two."])
        assert client.probe_fact("fact two.") == VERDICT_KNOWN

    def test_polish_is_identity(self):
        client = mock_client()
        assert client.polish("rewrite nicely", "same text") == "same text"

    def test_empty_probe_rejected(self):
        with pytest.raises(UsageError):
            mock_client().probe_fact("")

    def test_empty_polish_rejected(self):
        with pytest.raises(UsageError):
            mock_client().polish("i", "  ")


class TestLiveProtocol:
    def test_yes_maps_to_known(self):
        client, transport = live_client([FakeResponse(content="YES")])
        assert client.probe_fact("f.") == VERDICT_KNOWN
        body = transport.calls[0]["json"]
        assert body["model"] == "m1"
        assert body["messages"][0]["role"] == "user"
        assert "f." in body["messages"][0]["content"]

    def test_no_maps_to_unknown(self):
        client, _ = live_client([FakeResponse(content="No, never heard of it")])
        assert client.probe_fact("f.") == VERDICT_UNKNOWN

    def test_waffle_maps_to_undecided(self):
        client, _ = live_client([FakeResponse(content="Perhaps")])
        assert client.probe_fact("f.") == VERDICT_UNDECIDED

    def test_token_sent_as_bearer(self, monkeypatch):
        monkeypatch.setenv("KGREASON_API_TOKEN", "sekret")
        client, transport = live_client([FakeResponse()])
        client.probe_fact("f.")
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_retry_then_success(self):
        client, transport = live_client(
            [FakeResponse(status_code=500), FakeResponse(content="YES")]
        )
        assert client.probe_fact("f.") == VERDICT_KNOWN
        assert len(transport.calls) == 2

    def test_exhausted_retries_become_undecided(self):
        client, transport = live_client(
            [FakeResponse(status_code=500)] * 3, max_retries=2
        )
        with pytest.raises(ClientError, match="after 3 attempts"):
            client.probe_fact("f.")
        assert len(transport.calls) == 3  # initial try + two retries

    def test_transport_exception_absorbed(self):
        client, _ = live_client([ConnectionError("boom"), FakeResponse()])
        assert client.probe_fact("f.") == VERDICT_KNOWN

    def test_polish_failure_returns_original(self):
        client, _ = live_client([FakeResponse(status_code=503)], max_retries=0)
        with pytest.raises(ClientError, match="503"):
            client.polish("rewrite", "keep me")

    def test_empty_polish_reply_returns_original(self):
        client, _ = live_client([FakeResponse(content="  ")], max_retries=0)
        assert client.polish("rewrite", "keep me") == "keep me"

    def test_live_requires_endpoint(self):
        with pytest.raises(UsageError):
            ClientConfig(mode="live", endpoint="")

    @pytest.mark.parametrize(
        "setting",
        [{"max_retries": -1}, {"timeout": 0.0}, {"timeout": -1.0}],
        ids=["negative-retries", "zero-timeout", "negative-timeout"],
    )
    def test_live_rejects_bad_retries_and_timeout(self, setting):
        with pytest.raises(UsageError):
            ClientConfig(mode="live", endpoint="https://example.test/v1", **setting)

    def test_bad_live_setting_is_a_usage_error(self, pipeline_dir, tmp_path):
        proc = run_cli(
            tmp_path, "select",
            "--store", str(pipeline_dir / "store.json"),
            "--library", str(pipeline_dir / "library.tsv"),
            "--pool", "pool.tsv", "--setting", "regular",
            "--client", "live", "--endpoint", "http://localhost:9",
            "--max-retries", "-1",
            check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "kgreason: usage error: max retries must be >= 0, got -1\n"
        )
        assert not (tmp_path / "pool.tsv").exists()


class TestMemoization:
    def test_one_verdict_per_fact_per_run(self):
        client, transport = live_client(
            [FakeResponse(content="YES"), FakeResponse(content="NO")]
        )
        assert client.probe_fact("f.") == VERDICT_KNOWN
        assert client.probe_fact("f.") == VERDICT_KNOWN
        assert len(transport.calls) == 1

    def test_cache_safe_under_threads(self):
        client = mock_client({"a."})
        results = []

        def work():
            for _ in range(200):
                results.append(client.probe_fact("a."))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(results) == {VERDICT_KNOWN}


class TestLazyRequestsImport:
    """Stage processes never need requests; only a live client does."""

    def modules_after(self, code):
        probe = "import sys\nprint('requests' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\n{probe}"],
            env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.strip()

    def test_cli_import_leaves_requests_out(self):
        code = (
            "import kgreason.cli\n"
            "from kgreason.client import mock_client\n"
            "mock_client()"
        )
        assert self.modules_after(code) == "False"

    def test_live_client_without_transport_imports_requests(self):
        code = (
            "from kgreason.client import ClientConfig, ModelClient\n"
            "ModelClient(ClientConfig(mode='live', endpoint='http://localhost:9'))"
        )
        assert self.modules_after(code) == "True"
