"""Pipeline configuration — the reference's config surface, typed.

The reference loads a flat ``KEY=value`` conf file (grep + source,
/root/reference/pmocr.sh:685-715) gated by a revision check
(``CONFIG_FILE_REVISION=1``, default.conf:6), then lets CLI flags
override config (pmocr.sh:2344-2407,2462-2494).  Here: a dataclass, a
``KEY=value`` loader with the same revision gate and yes/no boolean
coercion (pmocr.sh:1705-1715), and ``apply_overrides`` for CLI
precedence.
"""

from __future__ import annotations

import dataclasses
import os

CONFIG_REVISION = 1

_BOOL_MAP = {"yes": True, "no": False, "true": True, "false": False,
             "1": True, "0": False}

_SIZE_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40,
                "p": 1 << 50, "e": 1 << 60}


def coerce_bool(value: str) -> bool:
    """yes/no → bool (legacy coercion, pmocr.sh:1705-1715)."""
    try:
        return _BOOL_MAP[value.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


def parse_size(value: str) -> int:
    """'64K'/'2M'/'1G' → bytes (HumanToNumeric, pmocr.sh:1305-1332)."""
    v = value.strip().lower().rstrip("b")
    if v and v[-1] in _SIZE_SUFFIX:
        return int(float(v[:-1]) * _SIZE_SUFFIX[v[-1]])
    return int(v)


@dataclasses.dataclass
class PipelineConfig:
    """All knobs of the extraction pipeline (reference default.conf)."""

    # routing / engines (OCR_ENGINE + FILES_TO_PROCESS analogues)
    check_existing_text: bool = True     # CHECK_PDF (default.conf:146)
    max_payload_bytes: int | None = None  # per-row guard (ExecTasks-timeout
                                          # analogue; accepts 64K/2M/1G)
    retry_failed: bool = False           # re-drive quarantined urls
    preprocessors: str = ""              # comma-separated registry names
                                         # (OCR_PREPROCESSOR_*, default.conf:92-99)
    # execution (NUMBER_OF_PROCESSES default.conf:16-17: Ray sizes the
    # worker pool from the cluster's CPUs)
    num_blocks: int | None = None        # read blocks, >= 1; None ->
                                         # from cluster CPUs and input
                                         # bytes (run_extraction)
    # service mode (INOTIFY_POLLER_INTERVAL default.conf:33)
    poll_interval_s: float = 30.0
    # sinks
    out_dir: str = "/tmp/pmocr_ray_out"
    manifest_dir: str | None = None      # None -> <out_dir>/_manifest
    done_manifest: str | None = None
    # derived formats, e.g. csv = the csv hack (pmocr.sh:2013-2043), by
    # multi-target fan-out (per-target dispatch loop, pmocr.sh:2546-2593)
    targets: str = ""                    # e.g. "text,csv,jsonl"; empty = single sink
    # multi-directory service (MONITOR_DIR_1..5 + per-dir format lists,
    # pmocr.sh:2519-2537 / default.conf:116-126): comma-separated
    # "DIR[:tgt1+tgt2]" entries; `--service auto` reads them from here
    service_dirs: str = ""
    # alerting (reference: SendAlert on every failed dispatch,
    # pmocr.sh:428-480): when set, each service round / batch run that
    # quarantines rows appends a JSON alert record to
    # <alert_spool>/alerts.jsonl AND drops a per-alert spool file
    # (runlog.file_transport maildir discipline)
    alert_spool: str = ""

    def resolved_manifest_dir(self) -> str:
        return self.manifest_dir or os.path.join(self.out_dir, "_manifest")

    def target_list(self) -> list[str]:
        return [t.strip() for t in self.targets.split(",") if t.strip()]

    def service_dir_list(self) -> list[str]:
        return [d.strip() for d in self.service_dirs.split(",") if d.strip()]

    def preprocessor_list(self) -> list[str]:
        return [p.strip() for p in self.preprocessors.split(",") if p.strip()]


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def load_config(path: str) -> PipelineConfig:
    """Parse a flat KEY=value file (``#`` comments, blank lines ok).

    Keys are lower-cased field names; ``config_revision`` is checked
    against :data:`CONFIG_REVISION` exactly as the reference refuses
    configs of the wrong revision (pmocr.sh:697-707).
    """
    values: dict[str, object] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=value")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip().strip('"').strip("'")
            if key == "config_revision":
                if int(val) != CONFIG_REVISION:
                    raise ValueError(
                        f"{path}: config revision {val} != supported {CONFIG_REVISION}"
                    )
                continue
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_field(key, val)
    return PipelineConfig(**values)


def _parse_field(key: str, val: str):
    t = _FIELDS[key].type
    if val.lower() in ("none", ""):
        # only an ``X | None`` field holds None; an empty str is ""
        if t.endswith("| None"):
            return None
        if t == "str" and not val:
            return ""
        raise ValueError(f"{key} needs a value, got {val!r}")
    if key == "max_payload_bytes":
        n = parse_size(val)
        if n < 0:
            raise ValueError(f"max_payload_bytes must not be negative, got {val!r}")
        return n
    if key == "num_blocks":
        n = int(val)
        if n < 1:
            raise ValueError(f"num_blocks must be at least 1, got {n}")
        return n
    if t in ("bool",):
        return coerce_bool(val)
    if t in ("int", "int | None"):
        return int(val)
    if t in ("float",):
        return float(val)
    return val


def apply_overrides(cfg: PipelineConfig, **overrides) -> PipelineConfig:
    """CLI-over-config precedence (reference re-parses CLI after config
    load for exactly this, pmocr.sh:2423)."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(cfg, **clean)
