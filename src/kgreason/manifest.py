"""Run manifest: config hash, seeds, and artifact digests per stage.

The manifest is a single JSON file updated in place by each pipeline
stage.  Entries hold the stage seed, the effective configuration, and
sha256 digests plus record counts for every input and output file, which
is enough to audit what produced what.  Nothing time-dependent is stored,
so reruns with identical inputs write identical manifests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Optional

from .artifacts import read_json, write_lines
from .errors import DataError

TOOL_VERSION = "0.1.0"
MANIFEST_VERSION = 1


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return f"sha256:{h.hexdigest()}"


def config_hash(config: Mapping[str, str]) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class RunManifest:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        if self.path.exists():
            self.data = read_json(self.path, "manifest")
            if not isinstance(self.data.get("stages"), dict):
                raise DataError(f"{path}: a manifest is an object with a 'stages' object")
        else:
            self.data = {
                "manifest_version": MANIFEST_VERSION,
                "tool_version": TOOL_VERSION,
                "stages": {},
            }

    def record_stage(
        self,
        stage: str,
        seed: Optional[int],
        config: Mapping[str, str],
        inputs: Mapping[str, str],
        outputs: Mapping[str, str],
        counts: Mapping[str, int],
    ) -> None:
        self.data["stages"][stage] = {
            "seed": seed,
            "config_hash": config_hash(config),
            "config": {k: str(v) for k, v in sorted(config.items())},
            "inputs": {
                label: {"path": str(p), "digest": file_digest(p)}
                for label, p in sorted(inputs.items())
            },
            "outputs": {
                label: {"path": str(p), "digest": file_digest(p)}
                for label, p in sorted(outputs.items())
            },
            "counts": {k: int(v) for k, v in sorted(counts.items())},
        }

    def save(self) -> None:
        write_lines(
            self.path,
            [json.dumps(self.data, indent=2, sort_keys=True, ensure_ascii=False)],
        )
