"""Client for an external chat-completion style model endpoint.

Two capabilities are exposed: probing whether a model already knows a fact,
and polishing generated text.  A call is retried a bounded number of times;
when every attempt fails (transport error or a status other than 200) it
raises ClientError, so a dead endpoint fails the stage instead of turning
every probe ``undecided``.  A reply that arrives but reads as neither YES
nor NO is an ``undecided`` probe, and an empty polish reply returns the
input text unchanged with a warning.

In mock mode no network is touched.  The model's knowledge is a supplied
set of sentences: a probe reads ``known`` when its sentence is in the set
and ``unknown`` otherwise (closed world), and polish is the identity, which
makes every downstream stage byte-for-byte deterministic.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import ClientError, UsageError

logger = logging.getLogger(__name__)

VERDICT_KNOWN = "known"
VERDICT_UNKNOWN = "unknown"
VERDICT_UNDECIDED = "undecided"

MODE_LIVE = "live"
MODE_MOCK = "mock"

PROBE_INSTRUCTION = (
    "You will be shown a single statement. Reply with exactly one word: "
    "YES if you know the statement to be true, NO otherwise."
)


class _ClientSettings(NamedTuple):
    mode: str = MODE_MOCK
    endpoint: str = ""
    model: str = ""
    token_env: str = "KGREASON_API_TOKEN"
    timeout: float = 30.0
    max_retries: int = 2
    retry_backoff: float = 0.5


class ClientConfig(_ClientSettings):
    """Client settings, checked when they are made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if config.mode not in (MODE_LIVE, MODE_MOCK):
            raise UsageError(f"unknown client mode: {config.mode!r}")
        if config.mode == MODE_LIVE and not config.endpoint:
            raise UsageError("live mode requires an endpoint")
        if config.max_retries < 0:
            raise UsageError(f"max retries must be >= 0, got {config.max_retries}")
        if not config.timeout > 0:
            raise UsageError(f"timeout must be > 0 seconds, got {config.timeout}")
        return config


class ModelClient:
    """Probe and polish operations against a model endpoint or a mock model.

    ``known`` is the mock model's knowledge: the sentences it knows.
    ``transport`` may be injected for testing; it must behave like
    ``requests.post`` and return an object with ``status_code`` and
    ``json()``.  Probe results are memoized per client instance.  Only a
    live client without one imports ``requests``, which would otherwise
    cost every stage process about 0.1 s of start-up.
    """

    def __init__(
        self,
        config: Optional[ClientConfig] = None,
        known: Iterable[str] = (),
        transport: Optional[Callable] = None,
    ):
        self.config = config or ClientConfig()
        self._known = frozenset(known)
        if transport is None and self.config.mode == MODE_LIVE:
            import requests

            transport = requests.post
        self._transport = transport
        self._cache: dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def probe_fact(self, sentence: str) -> str:
        """Ternary knowledge probe for one rendered fact sentence."""
        if not sentence or not sentence.strip():
            raise UsageError("cannot probe an empty sentence")
        with self._lock:
            if sentence in self._cache:
                return self._cache[sentence]
        if self.config.mode == MODE_MOCK:
            verdict = VERDICT_KNOWN if sentence in self._known else VERDICT_UNKNOWN
        else:
            verdict = self._probe_live(sentence)
        with self._lock:
            self._cache[sentence] = verdict
        return verdict

    def polish(self, instruction: str, text: str) -> str:
        """Rewrite ``text`` per ``instruction``; identity on mock or failure."""
        if not text or not text.strip():
            raise UsageError("cannot polish empty text")
        if self.config.mode == MODE_MOCK:
            return text
        reply = self._complete(f"{instruction}\n\n{text}")
        if not reply.strip():
            logger.warning("empty polish reply, returning text unchanged")
            return text
        return reply

    # ------------------------------------------------------------------

    def _probe_live(self, sentence: str) -> str:
        reply = self._complete(f"{PROBE_INSTRUCTION}\n\n{sentence}")
        word = reply.strip().split()[0].upper() if reply.strip() else ""
        if word.startswith("YES"):
            return VERDICT_KNOWN
        if word.startswith("NO"):
            return VERDICT_UNKNOWN
        return VERDICT_UNDECIDED

    def _complete(self, prompt: str) -> str:
        """One chat completion, with bounded retries.  Raises ClientError
        when every attempt fails."""
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        attempts = self.config.max_retries + 1
        failure: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt and self.config.retry_backoff > 0:
                time.sleep(self.config.retry_backoff * 2 ** (attempt - 1))
            try:
                response = self._transport(
                    self.config.endpoint,
                    headers=headers,
                    data=json.dumps(payload),
                    timeout=self.config.timeout,
                )
                if response.status_code != 200:
                    raise ClientError(f"endpoint returned {response.status_code}")
                body = response.json()
                content = body["choices"][0]["message"]["content"]
                return str(content)
            except Exception as exc:  # noqa: BLE001 - any failure is retryable
                logger.warning(
                    "model call failed (attempt %d/%d): %s", attempt + 1, attempts, exc
                )
                failure = exc
        raise ClientError(f"model call failed after {attempts} attempts: {failure}")


def mock_client(known: Iterable[str] = ()) -> ModelClient:
    """The deterministic offline client, knowing the ``known`` sentences."""
    return ModelClient(ClientConfig(mode=MODE_MOCK), known)
