"""Content-addressed run store: checkpoint/resume for experiment grids.

Every :class:`~repro.experiments.plan.PlanCell` hashes to a stable
digest over its *inputs* — the canonically-serialised
:class:`~repro.experiments.config.ExperimentConfig` (nested frozen
dataclasses included, its attack among them) and a code-version salt.
The executor consults the store before running a cell and persists each
finished :class:`~repro.metrics.collector.RunResult` immediately, so:

* a killed 500-run sweep resumes where it died — the next invocation
  re-runs only the missing cells;
* editing one λ point or one protocol knob re-executes only the changed
  cells (their digests change; everything else hits);
* figures regenerate straight from the store without re-simulating.

Layout on disk (everything plain JSON — portable, diffable, greppable)::

    <root>/
      index.json          # format tag + salt + entry count (metadata)
      shards/<xx>.jsonl   # xx = first digest byte; one record per line

Records are append-only; re-running a cell with ``force`` appends a
fresh record and the *last* line per digest wins on load.  A process
killed mid-append leaves at most one truncated trailing line, which the
loader skips — the shard files, not the index, are the source of truth.

Digest invalidation: bump :data:`CODE_VERSION` when a change alters what
a run *means* (kernel semantics, RNG streams, metric definitions).  Old
records stay on disk but can never satisfy a new-salt lookup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..metrics.collector import RunResult

__all__ = [
    "RunStore",
    "config_digest",
    "canonical_config_dict",
    "canonical_rate",
    "result_to_dict",
    "result_from_dict",
    "result_to_canonical_json",
    "STORE_FORMAT",
    "CODE_VERSION",
    "default_salt",
]

STORE_FORMAT = "repro-runstore/1"

#: bump on any change that alters run semantics for identical configs
#: 2: ProtocolConfig gained a shared-round flag (digest shape changed)
#: 3: ExperimentConfig gained obs; RunResult gained series + cohort extras
#: 4: ranking seam (ProtocolConfig.ranking_policy), fleet/churn axes on
#:    ExperimentConfig, ranking/churn/fleet extras on RunResult
#: 5: the attack is ExperimentConfig.attack (no separate spec in the
#:    digest); a "tree" overlay has exactly num_nodes nodes
#: 6: evacuations settle through the placement chain; a task is admitted once
#: 7: completions are retired by their queue, not run as events (the
#:    cohort extras and response_time_mean's last bits move)
#: 8: RunResult.extra loses cohort_batched_share
#: 9: the cohort extras count posted cohorts only
#: 10: RunResult.extra loses the cohort extras
#: 11: a HELP a member does not pledge to ends a lapsed membership
#:     instead of renewing it (cells past ``membership_ttl`` move)
CODE_VERSION = "11"


def default_salt() -> str:
    return f"{STORE_FORMAT}:code={CODE_VERSION}"


def canonical_rate(value: float) -> float:
    """The one canonical form of a float grid key (arrival/loss rates).

    Sweep grids index results by float keys, and the same mathematical
    point can arrive as ``3.0`` from a literal or ``3.0000000000000004``
    from accumulated arithmetic.  Every layer that keys on a rate — the
    plan builders, the drivers' result lookups, the run-store digests — routes
    the key through here, so a lookup can never miss its own result.
    Rounding to 12 decimal places erases accumulated binary noise (~4 ulp
    at magnitude 1e3) while preserving every humanly distinguishable grid
    point; ``repr`` of the result is stable under further round-trips
    because Python floats print shortest-repr.
    """
    return round(float(value), 12)


# RunResult codec ------------------------------------------------------------
#
# A stored result is plain, key-sorted JSON — no pickle, so shards are
# portable, diffable and safe to load; a reloaded ``messages_by_kind``
# holds equal values in sorted key order.

#: RunResult fields serialised verbatim (order defines the JSON layout)
_FIELDS = (
    "params",
    "horizon",
    "generated",
    "admitted_local",
    "admitted_migrated",
    "rejected",
    "completed",
    "lost",
    "evacuations",
    "evacuation_failures",
    "messages_total",
    "messages_by_kind",
    "response_time_mean",
    "help_interval_mean",
    "extra",
    "series",
)

#: fields absent from records written before they existed — loaded with a
#: default instead of raising, so old stores keep reading
_OPTIONAL_FIELDS: Dict[str, object] = {"series": None}


def result_to_dict(result: RunResult) -> Dict[str, object]:
    """A JSON-ready mapping of one run."""
    return {name: getattr(result, name) for name in _FIELDS}


def result_from_dict(data: Dict[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    missing = [
        name for name in _FIELDS if name not in data and name not in _OPTIONAL_FIELDS
    ]
    if missing:
        raise ValueError(f"result record missing fields: {missing}")
    kwargs = {
        name: data.get(name, _OPTIONAL_FIELDS.get(name)) for name in _FIELDS
    }
    return RunResult(**kwargs)  # type: ignore[arg-type]


def result_to_canonical_json(result: RunResult) -> str:
    """One deterministic JSON line per run.

    Key-sorted, separator-minimal — byte-identical for equal results, so
    store shards diff cleanly and the resume smoke can compare runs by
    string equality.
    """
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))


def canonical_config_dict(obj: object) -> object:
    """Recursively reduce dataclasses/containers to canonical JSON values.

    Dataclass instances carry their type name (so an ``ExperimentConfig``
    and a hypothetical other config with equal fields cannot collide);
    mapping keys are stringified and sorted; tuples become lists.  Floats
    pass through — ``json.dumps`` emits shortest-repr, which is stable.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, object] = {
            f.name: canonical_config_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        out["__type__"] = type(obj).__name__
        return out
    if isinstance(obj, dict):
        return {
            str(k): canonical_config_dict(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_config_dict(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for digesting")


def config_digest(config: object, *, salt: Optional[str] = None) -> str:
    """SHA-256 of the salt and the canonical config."""
    text = json.dumps(canonical_config_dict(config), sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256()
    h.update((salt if salt is not None else default_salt()).encode("utf-8"))
    h.update(b"\x00")
    h.update(text.encode("utf-8"))
    return h.hexdigest()


class RunStore:
    """Digest-keyed persistence of run results, JSONL shards + index.

    Opening a store loads every shard into memory (results are a few KB
    each; a full paper grid is well under a MB).  ``get``/``put`` then
    cost a dict lookup / one appended line.  ``hits``/``misses``/
    ``writes`` counters feed the sweep telemetry rollups.
    """

    def __init__(self, root: Union[str, Path], *, salt: Optional[str] = None) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else default_salt()
        self.shard_dir = self.root / "shards"
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_lines = 0
        self._records: Dict[str, Dict[str, object]] = {}
        self._results: Dict[str, RunResult] = {}
        self._check_format()
        self._load()

    # Loading --------------------------------------------------------------

    def _check_format(self) -> None:
        """Validate the advisory index — and *only* validate.

        The index is a convenience snapshot; the shards are the source
        of truth.  A process killed mid-flush can leave it truncated,
        half-written, or stale (wrong entry count, missing shards), and
        none of that may block a reopen: every corrupt shape falls
        through to the shard loader silently.  The one hard error is a
        well-formed index claiming a *different* store format — that is
        not corruption, it is the wrong directory.
        """
        index = self.root / "index.json"
        try:
            raw = index.read_text()
        except OSError:
            return  # absent or unreadable; shards are the source of truth
        try:
            meta = json.loads(raw)
        except json.JSONDecodeError:
            return  # killed mid-flush
        if not isinstance(meta, dict):
            return  # valid JSON, wrong shape — still just corruption
        tag = meta.get("format")
        if tag is not None and tag != STORE_FORMAT:
            raise ValueError(f"{self.root} is not a {STORE_FORMAT} store: {tag!r}")

    def _load(self) -> None:
        for shard in sorted(self.shard_dir.glob("*.jsonl")):
            with shard.open() as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        digest = record["digest"]
                        record["result"]  # presence check
                    except (json.JSONDecodeError, KeyError, TypeError):
                        # a kill mid-append truncates at most the last
                        # line of one shard; everything before it is intact
                        self.corrupt_lines += 1
                        continue
                    self._records[str(digest)] = record
                    self._results.pop(str(digest), None)

    # Mapping --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def digest(self, config: object) -> str:
        """The digest this store would file ``config`` under."""
        return config_digest(config, salt=self.salt)

    def get(self, digest: str) -> Optional[RunResult]:
        """The stored result, or ``None`` (counted as hit/miss)."""
        record = self._records.get(digest)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        result = self._results.get(digest)
        if result is None:
            result = result_from_dict(dict(record["result"]))  # type: ignore[arg-type]
            self._results[digest] = result
        return result

    def digests(self) -> List[str]:
        """Every stored digest, sorted (stable iteration for inspectors)."""
        return sorted(self._records)

    def records(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """``(digest, raw record)`` pairs in digest order — the read-only
        walk the inspector CLI renders reports from, zero simulation."""
        for digest in sorted(self._records):
            yield digest, self._records[digest]

    def put(self, digest: str, config: object, result: RunResult) -> None:
        """Persist one finished cell (append-only; last record wins)."""
        record: Dict[str, object] = {
            "digest": digest,
            "config": canonical_config_dict(config),
            "result": result_to_dict(result),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        shard = self.shard_dir / f"{digest[:2]}.jsonl"
        with shard.open("a") as fh:
            fh.write(line + "\n")
        self._records[digest] = record
        self._results[digest] = result
        self.writes += 1

    def flush(self) -> None:
        """Write the metadata index (informational; shards are canonical).

        Written atomically (tmp + rename) so a kill during flush leaves
        either the previous index or the new one, never a torn file —
        though the loader tolerates torn files anyway.
        """
        meta = {
            "format": STORE_FORMAT,
            "salt": self.salt,
            "entries": len(self._records),
            "shards": sorted(p.name for p in self.shard_dir.glob("*.jsonl")),
        }
        tmp = self.root / "index.json.tmp"
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.root / "index.json")

    def stats(self) -> Dict[str, int]:
        """Session counters for telemetry/CLI reporting."""
        return {
            "entries": len(self._records),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_lines": self.corrupt_lines,
        }
