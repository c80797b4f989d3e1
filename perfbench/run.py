"""Repository benchmark: raw-log preparation, wide-window mining, serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``prepare_anl``  ``repro run`` on raw, duplicated ANL-profile logs.
``learn_sdsc``   ``repro run`` on clean SDSC logs with a one-hour window.
``serve_sdsc``   ``repro serve --shards 2`` driven open-loop over TCP.

The program is driven only through ``perfbench/launch.py``, which calls
``repro.cli.main``.  Inputs come from ``repro generate`` with the given
seed and are cached under ``perfbench/.cache``; spans and layer tables
go to ``perfbench/.out``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import LoadResult, drive
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
OUT = BENCH / ".out"
LAUNCH = BENCH / "launch.py"
WEEK = 7 * 24 * 3600.0

SUMMARY = re.compile(
    r"^(dynamic|static) run over weeks (\d+)-(\d+): precision=([\d.]+) "
    r"recall=([\d.]+) \((\d+) warnings, (\d+) retrainings\)$",
    re.M,
)
BANNER = re.compile(rb"serving on ([\d.]+):(\d+) ")

#: Batch: set-up-only spawns per run, on top of one per repetition.
SETUP_SPAWNS = 5
#: Served open-loop rate, events/s (about a quarter of saturation here).
SERVE_RATE = 400.0
#: A served run is invalid when the generator's p99 send lag exceeds this.
MAX_SEND_LAG_P99_MS = 50.0
#: Hard ceiling on one spawned process, seconds.
PROCESS_TIMEOUT = 150.0


@dataclass(frozen=True)
class BatchWorkload:
    system: str
    scale: float
    weeks: int
    clean: bool
    run_args: tuple[str, ...]
    traces: int


@dataclass(frozen=True)
class ServeWorkload:
    system: str
    scale: float
    weeks: int
    model_args: tuple[str, ...]
    initial_weeks: int
    retrain_weeks: int
    traces: int


SDSC_MODEL = ("--window", "3600", "--initial-weeks", "26", "--retrain-weeks", "4")

# Each run measures ``traces`` independent traces generated from the seed:
# the cost of mining depends on the failure templates a trace draws, so one
# trace per run would make a run's figures depend mostly on the seed.
WORKLOADS: dict[str, BatchWorkload | ServeWorkload] = {
    "prepare_anl": BatchWorkload(
        "ANL", 0.0625, 34, False, ("--initial-weeks", "8", "--retrain-weeks", "4"), 6
    ),
    "learn_sdsc": BatchWorkload("SDSC", 1.0, 34, True, SDSC_MODEL, 10),
    "serve_sdsc": ServeWorkload("SDSC", 1.0, 78, SDSC_MODEL, 26, 4, 3),
}


def trace_seed(seed: int, k: int) -> int:
    """Generator seed of the ``k``-th trace of a run with ``seed``."""
    return seed * 16 + k


# -- helpers ---------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SERVICE_BACKEND", None)
    return env


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, object]:
    """Wait for ``proc`` and return (exit code, its own rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"process {proc.args!r} timed out")
        time.sleep(0.005)


def _marks(stderr: str) -> dict[str, list[str]]:
    marks = {}
    for line in stderr.splitlines():
        if line.startswith("perfbench-"):
            label, *fields = line.split()
            marks[label[len("perfbench-"):]] = fields
    return marks


# -- inputs ----------------------------------------------------------------


def generated_log(system: str, scale: float, weeks: int, seed: int, clean: bool) -> Path:
    """``repro generate`` output, cached by (system, scale, weeks, seed)."""
    kind = "clean" if clean else "raw"
    path = CACHE / f"{system}-scale{scale}-weeks{weeks}-seed{seed}-{kind}.log"
    if path.exists():
        return path
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    cmd = [
        sys.executable, "-m", "repro", "generate", "--system", system,
        "--scale", str(scale), "--weeks", str(weeks), "--seed", str(seed),
        "--output", str(tmp),
    ]
    if clean:
        cmd.append("--clean")
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROCESS_TIMEOUT)
    os.replace(tmp, path)
    # Write the new trace back now, not while a timed run is reading it.
    os.sync()
    return path


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


# -- batch workloads -------------------------------------------------------


@dataclass
class CliRun:
    setup_s: float
    wall_s: float = 0.0
    rss_mb: float = 0.0
    code: int = 0
    stdout: str = ""


def spawn_cli(args: list[str], tag: str, trace: Path | None = None,
              setup_only: bool = False) -> CliRun:
    """Run ``repro.cli.main(args)`` in a fresh process through the launcher."""
    OUT.mkdir(parents=True, exist_ok=True)
    options = ["--setup-only"] if setup_only else []
    if trace is not None:
        options += ["--trace", str(trace)]
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), *options, "--", *args],
            stdout=out, stderr=err, env=_env(), cwd=ROOT,
        )
        code, usage = _reap(proc, PROCESS_TIMEOUT)
    stderr = err_path.read_text(errors="replace")
    marks = _marks(stderr)
    if "ready" not in marks:
        raise RuntimeError(f"launcher never became ready: {stderr[-2000:]}")
    run = CliRun(
        setup_s=float(marks["ready"][0]) - spawned,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=code,
        stdout=out_path.read_text(errors="replace"),
    )
    if not setup_only:
        if "done" not in marks:
            raise RuntimeError(f"repro exited without finishing (code {code}): "
                               f"{stderr[-2000:]}")
        run.wall_s = float(marks["done"][0]) - float(marks["ready"][0])
    return run


def run_batch(name: str, wl: BatchWorkload, seed: int, seconds: float,
              trace: bool) -> dict:
    logs = [generated_log(wl.system, wl.scale, wl.weeks, trace_seed(seed, k), wl.clean)
            for k in range(wl.traces)]
    records = [_count_lines(log) for log in logs]
    tag = f"{name}-seed{seed}"
    plain: list[list[CliRun]] = [[] for _ in logs]
    summaries: list[set[str]] = [set() for _ in logs]
    traced_spans: list[dict] = []
    traced_walls: list[float] = []
    setups: list[float] = []
    failed = attempted = 0

    def one(k: int, span_file: Path | None = None) -> CliRun:
        nonlocal failed, attempted
        attempted += 1
        kind = "traced" if span_file else "plain"
        run = spawn_cli(["run", str(logs[k]), *wl.run_args],
                        f"{tag}-{kind}{attempted}", trace=span_file)
        match = SUMMARY.search(run.stdout)
        if run.code != 0 or match is None:
            failed += 1
            print(f"{name}: repro run on {logs[k].name} failed (exit {run.code})",
                  file=sys.stderr)
        else:
            summaries[k].add(match.group(0))
        return run

    if trace:
        # One untraced and one traced run per trace; their difference is
        # the tracing overhead.
        for k in range(len(logs)):
            plain[k].append(one(k))
            span_file = OUT / f"{tag}-{k}.spans.json"
            traced_walls.append(one(k, span_file).wall_s)
            for span in json.loads(span_file.read_text()):
                span["id"] = f"{k}/{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"{k}/{span['parent']}"
                traced_spans.append(span)
    else:
        for i in range(SETUP_SPAWNS):
            setups.append(spawn_cli([], f"{tag}-setup{i}", setup_only=True).setup_s)
        started, rep = time.monotonic(), 0
        while rep < len(logs) or time.monotonic() - started < seconds:
            plain[rep % len(logs)].append(one(rep % len(logs)))
            rep += 1

    # Every repetition of one input must print the same summary.
    correct = failed == 0 and all(len(found) == 1 for found in summaries)
    for log, found in zip(logs, summaries):
        if len(found) > 1:
            print(f"{name}: summaries differ between runs of {log.name}: {sorted(found)}",
                  file=sys.stderr)
    accuracy = [SUMMARY.search(next(iter(found))) for found in summaries if found]
    precision = _median([float(m.group(4)) for m in accuracy])
    recall = _median([float(m.group(5)) for m in accuracy])
    walls = [_median([r.wall_s for r in runs]) for runs in plain]
    info = {"records": records, "runs": [len(runs) for runs in plain],
            "summaries": [sorted(found) for found in summaries],
            "precision": precision, "recall": recall}
    if not trace:
        setups += [r.setup_s for runs in plain for r in runs]
        metrics = {
            "records_per_s": sum(records) / sum(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r.rss_mb for runs in plain for r in runs]),
        }
    else:
        wall = sum(traced_walls)
        metrics, table = layer_metrics(traced_spans, wall)
        metrics["trace.overhead_s"] = wall - sum(walls)
        metrics["evaluation.precision"] = precision
        metrics["evaluation.recall"] = recall
        for metric in SERVED_ONLY:
            metrics[metric] = 0.0
        write_table(tag, table, wall, f"cli.main wall over {len(logs)} traced runs")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


# -- per-layer metrics -----------------------------------------------------

LAYERS = (
    "raslog.parse", "preprocess.categorize", "preprocess.filter",
    "learners.association", "learners.statistical", "learners.distribution",
    "core.reviser", "core.predict", "evaluation.match", "net.decode", "net.encode",
    "service.ingest_batch", "resilience.journal",
)
# Per-layer metrics measured by the load generator; 0 on batch workloads.
SERVED_ONLY = ("load.send_lag_p99_ms", "net.ack_p50_ms", "net.ack_p99_ms",
               "net.warn_p50_ms", "core.retrain_stall_ms")
SHARES = ("raslog.parse", "preprocess.categorize", "preprocess.filter",
          "learners.association", "core.predict")


def layer_metrics(spans: list[dict], wall: float):
    """Per-layer self times, shares of ``wall`` and counts from ``spans``."""
    table, counts = summarize(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = table.get(layer, {}).get("self_s", 0.0)
    for layer in SHARES:
        metrics[f"{layer}.share"] = metrics[f"{layer}.s"] / wall if wall > 0 else 0.0

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    calls = counts.get("service.ingest_batch.calls", 0.0)
    metrics.update({
        "raslog.parse.records": counts.get("raslog.parse.records", 0.0),
        "preprocess.filter.kept_ratio": ratio("preprocess.filter.out", "preprocess.filter.in"),
        "learners.candidates": counts.get("learners.candidates", 0.0),
        "core.retrains": counts.get("core.retrains", 0.0),
        "core.reviser.kept_ratio": ratio("core.reviser.kept", "core.reviser.scored"),
        "core.warnings": counts.get("core.warnings", 0.0),
        "net.frames_in": counts.get("net.frames_in", 0.0),
        "service.ingest_batch.calls": calls,
        "service.batch_events": ratio("service.ingest_batch.events", "service.ingest_batch.calls"),
        "resilience.journal.appends": counts.get("resilience.journal.appends", 0.0),
    })
    attributed = sum(row["self_s"] for name, row in table.items() if name != "cli.main")
    metrics["trace.unattributed_share"] = 1.0 - attributed / wall if wall > 0 else 0.0
    return metrics, table


def write_table(tag: str, table: dict, wall: float, wall_label: str) -> None:
    """Write and print the self-time and share table of one traced run."""
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':24s} {'calls':>8s} {'self_s':>9s} {'share':>7s}"]
    attributed = 0.0
    for name, row in rows:
        if name != "cli.main":
            attributed += row["self_s"]
        lines.append(f"{name:24s} {int(row['calls']):8d} {row['self_s']:9.3f} "
                     f"{row['self_s'] / wall:7.1%}")
    gap = wall - attributed
    lines.append(f"{wall_label}: {wall:.3f} s; layer self times cover "
                 f"{attributed:.3f} s ({attributed / wall:.1%}); "
                 f"{gap:.3f} s ({gap / wall:.1%}) is outside every wrapped layer")
    text = "\n".join(lines)
    (OUT / f"{tag}.layers.txt").write_text(text + "\n")
    print(text)


# -- served workload -------------------------------------------------------


@dataclass
class ServedInputs:
    origin: float
    backlog: list[dict]
    timed: list[dict]
    reference: list[str] = field(default_factory=list)


def served_inputs(wl: ServeWorkload, seed: int, n_timed: int) -> ServedInputs:
    """Preprocessed events split at the initial-training boundary, plus the
    in-process reference warnings (cached per seed and event count)."""
    log_path = generated_log(wl.system, wl.scale, wl.weeks, seed, True)
    path = CACHE / f"served-{log_path.stem}-{n_timed}.json"
    if path.exists():
        data = json.loads(path.read_text())
        return ServedInputs(data["origin"], data["backlog"], data["timed"], data["reference"])

    from repro.preprocess.pipeline import PreprocessingPipeline
    from repro.raslog.parser import load_log

    raw = load_log(str(log_path))
    events = PreprocessingPipeline().run(raw).clean
    boundary = raw.origin + wl.initial_weeks * WEEK
    backlog = [e.as_dict() for e in events if e.timestamp < boundary]
    timed = [e.as_dict() for e in events if e.timestamp >= boundary][:n_timed]
    inputs = ServedInputs(raw.origin, backlog, timed)
    inputs.reference = reference_warnings(wl, inputs)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"origin": inputs.origin, "backlog": backlog, "timed": timed,
                               "reference": inputs.reference}))
    os.replace(tmp, path)
    return inputs


def _serve_args(wl: ServeWorkload, origin: float, fleet_dir: Path) -> list[str]:
    return ["serve", "--port", "0", "--shards", "2", "--backend", "inproc",
            "--fleet-dir", str(fleet_dir), "--origin", repr(origin), *wl.model_args]


def reference_warnings(wl: ServeWorkload, inputs: ServedInputs) -> list[str]:
    """Warnings of an in-process 2-shard service fed the same operations."""
    from repro.cli import _framework_config, build_parser
    from repro.core.serialization import warning_to_dict
    from repro.raslog.events import RASEvent
    from repro.service import PredictionService

    # The same FrameworkConfig ``repro serve`` builds from these arguments.
    args = build_parser().parse_args(_serve_args(wl, inputs.origin, OUT / "unused"))
    config = _framework_config(args)
    warnings = []
    with PredictionService(config, shard_by="location", shards=2,
                           origin=inputs.origin) as service:
        for event in inputs.backlog:
            warnings += service.ingest(RASEvent.from_dict(event))
        warnings += service.advance(inputs.origin + wl.initial_weeks * WEEK)
        for event in inputs.timed:
            warnings += service.ingest(RASEvent.from_dict(event))
        warnings += service.flush()
    return sorted(json.dumps(warning_to_dict(w), sort_keys=True) for w in warnings)


def _frame(kind: str, seq: int, **body) -> bytes:
    return json.dumps({"type": kind, "seq": seq, **body}, separators=(",", ":")).encode() + b"\n"


@dataclass
class ServedRun:
    setup_s: float
    load: LoadResult
    rss_mb: float
    cpu_s: float


def _start_server(args: list[str], tag: str, trace: Path | None):
    OUT.mkdir(parents=True, exist_ok=True)
    options = ["--trace", str(trace)] if trace is not None else []
    with open(OUT / f"{tag}.stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *options, "--", *args],
                                stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT)
    buf = b""
    deadline = spawned + 60.0
    while (match := BANNER.search(buf)) is None:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
        if time.monotonic() > deadline or proc.poll() is not None:
            break
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server never printed its banner: {buf[-500:]!r}")
    return proc, spawned, match.group(1).decode(), int(match.group(2))


def _stop_server(proc: subprocess.Popen) -> object:
    """SIGTERM (the server drains and exits 0); return its rusage."""
    proc.send_signal(signal.SIGTERM)
    code, usage = _reap(proc, PROCESS_TIMEOUT)
    proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"server exited {code} after SIGTERM")
    return usage


def serve_once(wl: ServeWorkload, inputs: ServedInputs, tag: str,
               trace: Path | None) -> ServedRun:
    """Set up one server (backlog + initial training), then run the timed phase."""
    backlog = [_frame("ingest", seq, event=event)
               for seq, event in enumerate(inputs.backlog, start=1)]
    advance = _frame("advance", len(backlog) + 1,
                     now=inputs.origin + wl.initial_weeks * WEEK)
    timed = [_frame("ingest", len(backlog) + 2 + i, event=event)
             for i, event in enumerate(inputs.timed)]
    flush = _frame("flush", len(backlog) + len(timed) + 2)
    fleet_dir = OUT / f"{tag}.fleet"
    shutil.rmtree(fleet_dir, ignore_errors=True)
    proc, spawned, host, port = _start_server(
        _serve_args(wl, inputs.origin, fleet_dir), tag, trace)
    try:
        load = asyncio.run(drive(host, port, backlog, advance, timed, SERVE_RATE, flush,
                                 expected_warnings=len(inputs.reference)))
    finally:
        usage = _stop_server(proc)
        shutil.rmtree(fleet_dir, ignore_errors=True)
    return ServedRun(load.setup_done - spawned, load, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime)


@dataclass
class SessionStats:
    """Raw samples of one timed served session, pooled across sessions."""

    ack_ms: list[float]
    warn_ms: list[float]
    worst_ms: list[float]
    lag_ms: list[float]
    acked: int
    failed: int
    span_s: float
    same_warnings: bool
    n_warnings: int
    true_positives: int
    covered: int
    n_fatal: int


def session_stats(wl: ServeWorkload, inputs: ServedInputs, run: ServedRun) -> SessionStats:
    from repro.core.serialization import warning_from_dict
    from repro.evaluation.matching import match_warnings
    from repro.raslog.catalog import default_catalog

    load = run.load
    first_seq = len(inputs.backlog) + 2
    times = [e["timestamp"] for e in inputs.timed]
    acks = {i: load.acked[first_seq + i] - load.due[i]
            for i in range(len(load.due)) if first_seq + i in load.acked}

    # Worst ack in each retrain boundary's week.
    worst = []
    last_week = int((times[-1] - inputs.origin) // WEEK)
    for week in range(wl.initial_weeks + wl.retrain_weeks, last_week + 1, wl.retrain_weeks):
        lo, hi = inputs.origin + week * WEEK, inputs.origin + (week + 1) * WEEK
        in_week = [acks[i] for i, t in enumerate(times) if lo <= t < hi and i in acks]
        if in_week:
            worst.append(max(in_week) * 1000.0)

    # A warning is due when the event that completed its rule was due:
    # the last timed event at the warning's time, else the first after it.
    # Warnings raised during set-up have no due time and are not timed.
    warn_ms = []
    for received, w in load.warnings:
        i = bisect.bisect_right(times, w["time"]) - 1
        if i < 0 or times[i] != w["time"]:
            i += 1
        if times[0] <= w["time"] and i < len(load.due):
            warn_ms.append((received - load.due[i]) * 1000.0)

    got = sorted(json.dumps(w, sort_keys=True) for _, w in load.warnings)
    catalog = default_catalog()
    fatal = [(e["timestamp"], e["entry_data"]) for e in inputs.timed
             if e["entry_data"] in catalog and catalog.is_fatal_code(e["entry_data"])]
    matched = match_warnings([warning_from_dict(w) for _, w in load.warnings],
                             [t for t, _ in fatal], [c for _, c in fatal])
    return SessionStats(
        ack_ms=[v * 1000.0 for v in acks.values()],
        warn_ms=warn_ms,
        worst_ms=worst,
        lag_ms=[(s - d) * 1000.0 for s, d in zip(load.sent, load.due)],
        acked=len(acks),
        failed=len(inputs.timed) - len(acks),
        span_s=max(load.acked.values()) - load.due[0] if acks else 0.0,
        same_warnings=got == inputs.reference,
        n_warnings=len(got),
        true_positives=matched.true_positives,
        covered=matched.covered_failures,
        n_fatal=matched.n_fatal,
    )


def run_serve(name: str, wl: ServeWorkload, seed: int, seconds: float, trace: bool) -> dict:
    n_timed = max(1, int(seconds * SERVE_RATE / wl.traces))
    inputs = [served_inputs(wl, trace_seed(seed, k), n_timed) for k in range(wl.traces)]
    tag = f"{name}-seed{seed}"
    runs = [serve_once(wl, inp, f"{tag}-{k}", None) for k, inp in enumerate(inputs)]
    stats = [session_stats(wl, inp, run) for inp, run in zip(inputs, runs)]
    traced_runs, traced_stats = [], []
    if trace:
        for k, inp in enumerate(inputs):
            traced_runs.append(serve_once(wl, inp, f"{tag}-traced{k}",
                                          OUT / f"{tag}-{k}.spans.json"))
            traced_stats.append(session_stats(wl, inp, traced_runs[-1]))

    every = stats + traced_stats
    attempted = sum(len(inp.timed) for inp in inputs) * (2 if trace else 1)
    failed = sum(st.failed for st in every)
    lag_ms = [v for st in stats for v in st.lag_ms]
    ack_ms = [v for st in stats for v in st.ack_ms]
    correct = failed == 0 and all(st.same_warnings for st in every)
    for st in every:
        if not st.same_warnings:
            print(f"{name}: served warnings ({st.n_warnings}) differ from the "
                  f"in-process reference", file=sys.stderr)
    if _quantile(lag_ms, 0.99) > MAX_SEND_LAG_P99_MS:
        correct = False
        print(f"{name}: invalid run, generator p99 send lag "
              f"{_quantile(lag_ms, 0.99):.1f} ms > {MAX_SEND_LAG_P99_MS} ms", file=sys.stderr)
    n_warnings = sum(st.n_warnings for st in stats)
    n_fatal = sum(st.n_fatal for st in stats)
    precision = sum(st.true_positives for st in stats) / n_warnings if n_warnings else 0.0
    recall = sum(st.covered for st in stats) / n_fatal if n_fatal else 0.0
    info = {"events": [len(inp.timed) for inp in inputs],
            "boundaries": [len(st.worst_ms) for st in stats],
            "warnings": [st.n_warnings for st in stats],
            "precision": precision, "recall": recall,
            "ack_p50_ms": _median(ack_ms),
            "ack_p99_ms": _quantile(ack_ms, 0.99),
            "warn_p50_ms": _median([v for st in stats for v in st.warn_ms]),
            "retrain_stall_ms": _median([v for st in stats for v in st.worst_ms]),
            "send_lag_p99_ms": _quantile(lag_ms, 0.99)}
    if not trace:
        metrics = {
            "records_per_s": sum(st.acked for st in stats) / sum(st.span_s for st in stats),
            "setup_s": _median([run.setup_s for run in runs]),
            "peak_rss_mb": _median([run.rss_mb for run in runs]),
        }
    else:
        spans, wall = [], 0.0
        for k, run in enumerate(traced_runs):
            window = (run.load.due[0], max(run.load.acked.values()))
            wall += window[1] - window[0]
            for span in json.loads((OUT / f"{tag}-{k}.spans.json").read_text()):
                if window[0] <= span["start"] <= window[1]:
                    span["id"] = f"{k}/{span['id']}"
                    if span["parent"] is not None:
                        span["parent"] = f"{k}/{span['parent']}"
                    spans.append(span)
        metrics, table = layer_metrics(spans, wall)
        metrics["trace.overhead_s"] = (sum(r.cpu_s for r in traced_runs)
                                       - sum(r.cpu_s for r in runs))
        metrics["evaluation.precision"] = precision
        metrics["evaluation.recall"] = recall
        # Latencies come from the untraced servers.
        metrics["load.send_lag_p99_ms"] = info["send_lag_p99_ms"]
        metrics["net.ack_p50_ms"] = info["ack_p50_ms"]
        metrics["net.ack_p99_ms"] = info["ack_p99_ms"]
        metrics["net.warn_p50_ms"] = info["warn_p50_ms"]
        metrics["core.retrain_stall_ms"] = info["retrain_stall_ms"]
        write_table(tag, table, wall, f"timed phases (first due to last ack) of "
                                      f"{len(traced_runs)} traced servers")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


# -- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    runner = run_serve if isinstance(wl, ServeWorkload) else run_batch
    result = runner(args.workload, wl, args.seed, args.seconds, bool(args.trace))

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for key, value in result["info"].items():
        print(f"{args.workload}: {key} = {value}")
    for key in sorted(metrics):
        print(f"{args.workload}: {key} = {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
