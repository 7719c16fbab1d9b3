"""Run manifests, seed derivation, and atomic artifact writes.

Every stage writes a manifest naming the config hash, the seeds, the
files it read, and a SHA-256 per output file (paths relative to the
workdir), so reruns can be compared byte-for-byte and stale artifacts
found by lineage.  Wall-clock durations and the stage's peak memory go
to a separate timing sidecar; keeping them out of the manifest is what
makes manifests reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import SchemaMismatch

MANIFEST_FORMAT = "run-manifest-v1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(config_dict: Mapping) -> str:
    return hashlib.sha256(canonical_json(config_dict).encode("utf-8")).hexdigest()


def stage_seed(root_seed: int, stage: str) -> int:
    """Per-stage seed derived from the root seed; stable across runs."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def atomic_path(final: str | Path) -> Iterator[Path]:
    """Yield a temp path; rename over the final name only on success."""
    final = Path(final)
    tmp = final.with_name(final.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_stage_manifest(
    workdir: str | Path,
    stage: str,
    config_digest: str,
    root_seed: int,
    inputs: Mapping[str, str | Path],
    outputs: Sequence[str | Path],
) -> Path:
    workdir = Path(workdir)
    manifest = {
        "format": MANIFEST_FORMAT,
        "stage": stage,
        "config_hash": config_digest,
        "root_seed": root_seed,
        "stage_seed": stage_seed(root_seed, stage),
        "inputs": {role: os.path.relpath(path, workdir) for role, path in inputs.items()},
        "outputs": {
            os.path.relpath(path, workdir): file_sha256(path) for path in sorted(map(str, outputs))
        },
    }
    path = workdir / f"{stage}.manifest.json"
    with atomic_path(path) as tmp:
        tmp.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return path


def peak_rss_mb() -> float | None:
    """This process's peak resident set in MB (2^20 bytes): `VmHWM` of
    /proc/self/status, which `exec` resets, so a process spawned from a
    large parent does not read the parent's peak; None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def write_timing(workdir: str | Path, stage: str, seconds: float) -> Path:
    """The stage's wall time and own peak memory, beside its manifest."""
    path = Path(workdir) / f"{stage}.timing.json"
    timing = {"stage": stage, "seconds": seconds, "peak_rss_mb": peak_rss_mb()}
    with atomic_path(path) as tmp:
        tmp.write_text(canonical_json(timing) + "\n", encoding="utf-8")
    return path


def remove_stale(workdir: str | Path, stage: str) -> None:
    """Remove what the previous run of `stage` left, and all built from it.

    The outputs that `{stage}.manifest.json` lists go, with the stage's
    timing sidecar and that manifest; then, transitively, those of every
    stage whose manifest names one of these outputs as an input.  A file
    outside the workdir is left in place.  The manifests go last, so a
    run killed midway leaves manifests that the next run acts on again.
    """
    workdir = Path(workdir)
    if not (workdir / f"{stage}.manifest.json").exists():
        return
    lineage = {}  # stage -> (inputs, outputs)
    for path in workdir.glob("*.manifest.json"):
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            lineage[path.name.removesuffix(".manifest.json")] = (
                set(manifest["inputs"].values()), list(manifest["outputs"].keys()))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SchemaMismatch(f"{path} is not a stage manifest: {exc!r}") from None
    stale = [stage]
    for name in stale:  # the list grows as it is walked
        written = lineage[name][1]
        stale += [other for other, (read, _) in lineage.items()
                  if other not in stale and not read.isdisjoint(written)]
    root = workdir.resolve()
    for name in stale:
        for output in lineage[name][1]:
            path = workdir / output
            if path.resolve().is_relative_to(root):
                path.unlink(missing_ok=True)
        (workdir / f"{name}.timing.json").unlink(missing_ok=True)
    for name in stale:
        (workdir / f"{name}.manifest.json").unlink()
