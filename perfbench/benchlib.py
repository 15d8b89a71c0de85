"""Shared pieces of the repro-stg benchmark: statistics, timing, inputs,
correctness accounting, provenance and the result line.

Everything here is benchmark-side.  The program under test is imported
from ``<checkout>/src`` and touched only through its public calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every workload sets up this many times per timed run; ``setup_s`` is the
#: median, so one slow start (page cache, a neighbour's burst) does not
#: move it.
SETUPS = 3

#: A seed kept out of the benchmark's own tuning: a claimed gain must also
#: hold on it (recorded in every report).
VALIDATION_SEED = 7919


def kill_later(pid: int, seconds: float) -> threading.Timer:
    """SIGKILL ``pid`` after ``seconds`` unless cancelled.

    ``os.kill`` rather than ``Popen.kill``: the latter polls, which could
    reap the child before the caller's ``wait4`` collects its rusage.
    """

    def kill() -> None:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(seconds, kill)
    timer.start()
    return timer


def require_program() -> None:
    """Put ``<root>/src`` on the path, or stop with an error (no result)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources under {SRC}; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile of one population.

    A tail percentile is only reported when at least ten samples lie beyond
    it; callers pass one population (never fresh and cached requests mixed,
    whose medians differ by an order of magnitude).
    """
    if not 0.5 < q < 1.0:
        raise ValueError("tail percentiles lie strictly between 0.5 and 1")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))  # 1-based nearest rank
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need at least 10"
        )
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- layer timing ---------------------------------------------------------------


class Layers:
    """Busy milliseconds and counts per layer, timed from benchmark code."""

    def __init__(self) -> None:
        self.ms: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    @contextlib.contextmanager
    def timed(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - started) * 1e3
            self.ms[name] = self.ms.get(name, 0.0) + elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


# -- inputs ---------------------------------------------------------------------

_EDGE = re.compile(r"^(?P<signal>[^\s<>,{}=/+~-]+)(?P<rest>[+~-](?:/\d+)?)$")


def rename_signals(text: str, prefix: str) -> str:
    """The same ``.g`` STG with every declared signal renamed ``prefix+name``.

    Renaming keeps the verdict of every property and, because node names
    are part of the content hash, gives the copy a hash of its own.  Place
    names are kept; implicit places ``<a+,b->`` follow their transitions.
    """
    signals = set()
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head in (".inputs", ".outputs", ".internal"):
            signals.update(rest.split())

    def edge(token: str) -> str:
        match = _EDGE.match(token)
        if match and match.group("signal") in signals:
            return prefix + token
        return token

    def node(token: str) -> str:
        token, eq, count = token.partition("=")
        if token.startswith("<") and token.endswith(">"):
            token = "<" + ",".join(edge(t) for t in token[1:-1].split(",")) + ">"
        elif token in signals:  # a .initial assignment
            token = prefix + token
        else:
            token = edge(token)
        return token + eq + count

    out = []
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head in (".inputs", ".outputs", ".internal"):
            line = head + " " + " ".join(prefix + s for s in rest.split())
        elif head in (".model", ".dummy", ".graph", ".end", "#") or not line:
            pass
        else:
            line = " ".join(
                tok if tok in ("{", "}", ".marking", ".initial") else node(tok)
                for tok in line.split()
            )
        out.append(line)
    return "\n".join(out) + "\n"


# -- correctness ----------------------------------------------------------------


class Tally:
    """Checks attempted, verdicts equal to the known answer, failures.

    A failure (error, timeout, refused request, failed job) also counts as
    a wrong verdict.  ``notes`` keeps the first few mismatches for stderr.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.correct = 0
        self.failed = 0
        self.notes: List[str] = []

    def verdict(self, what: str, expected: bool, got: Optional[bool]) -> None:
        self.attempted += 1
        if got is None:
            self.failed += 1
            self._note(f"{what}: no verdict")
        elif got == expected:
            self.correct += 1
        else:
            self._note(f"{what}: expected {expected}, got {got}")

    def failure(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"{what}: failed")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    @property
    def ratio(self) -> float:
        return self.correct / self.attempted if self.attempted else 0.0

    @property
    def ok(self) -> bool:
        return self.attempted > 0 and self.correct == self.attempted


# -- environment ----------------------------------------------------------------


@contextlib.contextmanager
def workdir(label: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards.

    ``TMPDIR`` points into it as well, so neither the benchmark nor the
    processes it starts write outside the checkout.
    """
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=base))
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other run is using it


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: sources from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def provenance(seed: int, **extra: object) -> Dict[str, object]:
    """What a reader needs to tell which code ran where."""
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "validation_seed": VALIDATION_SEED,
        **extra,
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=10,
        check=True,
    ).stdout.strip()


# -- the result line ------------------------------------------------------------

#: The end-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "verdict_ms_geomean": "ms",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(**values: float) -> Dict[str, Dict[str, object]]:
    if set(values) != set(END_TO_END):
        raise KeyError(f"end-to-end metrics differ: {sorted(set(values) ^ set(END_TO_END))}")
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def emit(
    tally: Tally, metrics: Dict[str, Dict[str, object]], report: Dict[str, object]
) -> int:
    """Print the human report, the detail record, then the result line.

    Returns the exit code: 0 only when every verdict matched its known
    answer and nothing failed.
    """
    for name, entry in metrics.items():
        print(f"{name:26s} {entry['value']:.6g} {entry['unit']}")
    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    correct = tally.ok
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
