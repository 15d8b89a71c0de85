"""Fixtures shared by the refinement tests."""

import pytest


@pytest.fixture(scope="class")
def sweep_backend(request):
    """Run a test class on the sweep backend its ``backend`` attribute names.

    ``make_sweep_solver`` picks the HiGHS bindings wherever scipy ships
    them, so without this the ``linprog`` backend would never run here.
    Classes that name no backend get the default pick.
    """
    backend = getattr(request.cls, "backend", "default")
    if backend == "default":
        yield backend
        return
    assert backend == "linprog", backend
    linprog = pytest.importorskip("scipy.optimize").linprog
    from repro.refine import LinprogSweepSolver

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "repro.refine.cegar.make_sweep_solver",
            lambda relaxation, incremental=True: LinprogSweepSolver(
                linprog, relaxation
            ),
        )
        yield backend
