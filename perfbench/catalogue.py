"""The benchmark's inputs and their known answers.

Known answers never come from the IP engine under test: Table 1 uses the
verdicts ``tests/conftest.py`` pins (``TABLE1_VERDICTS``), and every other
STG is decided during set-up by the explicit state graph
(:mod:`repro.stg.stategraph`, :mod:`repro.stg.normalcy`).  Renamed copies
inherit the verdict of the STG they were renamed from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Table 1 usc/csc verdicts, as pinned by ``tests/conftest.TABLE1_VERDICTS``
#: (``test_table1_answers_match_the_pinned_ones`` keeps the two in step).
TABLE1_VERDICTS: Dict[str, Dict[str, bool]] = {
    "LAZYRING": dict(usc=False, csc=False),
    "RING": dict(usc=False, csc=True),
    "DUP-4PH-A": dict(usc=False, csc=False),
    "DUP-4PH-B": dict(usc=False, csc=False),
    "DUP-4PH-MTR-A": dict(usc=False, csc=False),
    "DUP-4PH-MTR-B": dict(usc=False, csc=False),
    "DUP-MOD-A": dict(usc=False, csc=False),
    "DUP-MOD-B": dict(usc=False, csc=False),
    "DUP-MOD-C": dict(usc=False, csc=False),
    "CF-SYM-A-CSC": dict(usc=True, csc=True),
    "CF-SYM-B-CSC": dict(usc=True, csc=True),
    "CF-SYM-C-CSC": dict(usc=True, csc=True),
    "CF-SYM-D-CSC": dict(usc=True, csc=True),
    "CF-ASYM-A-CSC": dict(usc=True, csc=True),
    "CF-ASYM-B-CSC": dict(usc=True, csc=True),
}


def table1_stgs() -> Dict[str, object]:
    """Table 1 name -> STG, in the paper's row order."""
    from repro.models import TABLE1_BENCHMARKS

    return {name: ctor() for name, ctor in TABLE1_BENCHMARKS.items()}


@dataclass(frozen=True)
class CheckRow:
    """One row of check-scalable: what ``repro-stg check`` runs on one file."""

    family: str
    size: int
    prop: str  # usc, csc or normalcy
    refine: bool = False

    @property
    def row_id(self) -> str:
        return f"{self.family}/n={self.size}/{self.prop}" + ("/r=1" if self.refine else "")

    def build(self):
        from repro.models import TABLE1_BENCHMARKS
        from repro.models.ring import lazy_ring, token_ring
        from repro.models.scalable import muller_pipeline, parallel_forks

        if self.family == "CF-ASYM-A-CSC":
            return TABLE1_BENCHMARKS[self.family]()
        ctor = {
            "muller-pipeline": muller_pipeline,
            "parallel-forks": parallel_forks,
            "token-ring": token_ring,
            "vme-chain": lazy_ring,
        }[self.family]
        return ctor(self.size)


#: muller n=12 is the row refinement wins big on; the small rows catch any
#: fixed cost added to every check; the last row is the paper's Section 6
#: normalcy search.
CHECK_ROWS: List[CheckRow] = [
    CheckRow("muller-pipeline", 8, "csc"),
    CheckRow("muller-pipeline", 12, "csc"),
    CheckRow("parallel-forks", 3, "csc"),
    CheckRow("token-ring", 6, "usc"),
    CheckRow("vme-chain", 3, "csc"),
    CheckRow("muller-pipeline", 12, "csc", refine=True),
    CheckRow("token-ring", 6, "usc", refine=True),
    CheckRow("vme-chain", 3, "csc", refine=True),
    CheckRow("CF-ASYM-A-CSC", 0, "normalcy"),
]


def serve_bases() -> List[Tuple[str, object]]:
    """The 31 small STGs serve-mixed renames into fresh requests.

    Table 1 without its three slowest rows (they stay in batch-table1) plus
    small scalable and classic models; ``toggles-*`` are decided by lint.
    """
    from repro.models import CLASSIC_MODELS, vme_bus, vme_bus_csc_resolved
    from repro.models.ring import token_ring
    from repro.models.scalable import muller_pipeline, parallel_forks, toggle_bank

    heavy = {"CF-SYM-C-CSC", "CF-SYM-D-CSC", "CF-ASYM-B-CSC"}
    bases = [(n, s) for n, s in table1_stgs().items() if n not in heavy]
    ctors: List[Tuple[str, Callable[[], object]]] = (
        [(f"muller-{n}", lambda n=n: muller_pipeline(n)) for n in (2, 3, 4, 5)]
        + [(f"forks-{n}", lambda n=n: parallel_forks(n)) for n in (2, 3)]
        + [(f"token-ring-{n}", lambda n=n: token_ring(n)) for n in (4, 5, 6)]
        + [(f"toggles-{n}", lambda n=n: toggle_bank(n)) for n in (2, 3, 4, 5)]
        + [(f"classic-{name}", ctor) for name, ctor in CLASSIC_MODELS.items()]
        + [("vme", vme_bus), ("vme-resolved", vme_bus_csc_resolved)]
    )
    bases += [(name, ctor()) for name, ctor in ctors]
    return bases


def row_answers(rows: List[CheckRow]) -> Dict[Tuple[str, int], Dict[str, bool]]:
    """State-graph answers per (family, size), computed in a child process.

    The explicit state graph of muller n=12 is larger than anything the
    checks hold, so building it here would set the benchmark process's
    peak RSS; a child process keeps it out of ``peak_rss_mb``.
    """
    import benchlib

    needed: Dict[Tuple[str, int], List[str]] = {}
    for row in rows:
        needed.setdefault((row.family, row.size), []).append(row.prop)
    env = benchlib.child_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", "import catalogue; catalogue.answers_main()"],
        input=json.dumps([[f, n, props] for (f, n), props in needed.items()]),
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return dict(zip(needed, json.loads(done.stdout)))


def answers_main() -> None:
    """Child side of :func:`row_answers`: JSON specs on stdin, answers out."""
    specs = json.load(sys.stdin)
    answers = [
        state_graph_answers(CheckRow(family, size, props[0]).build(), props)
        for family, size, props in specs
    ]
    print(json.dumps(answers))


def state_graph_answers(stg, props) -> Dict[str, bool]:
    """usc/csc/normalcy of ``stg`` from its explicit state graph."""
    from repro.stg.normalcy import check_normalcy_state_graph
    from repro.stg.stategraph import build_state_graph

    answers: Dict[str, bool] = {}
    coding = [p for p in props if p in ("usc", "csc")]
    if coding:
        graph = build_state_graph(stg)
        for prop in coding:
            answers[prop] = graph.has_usc() if prop == "usc" else graph.has_csc()
    if "normalcy" in props:
        answers["normalcy"] = check_normalcy_state_graph(stg).normal
    return answers
