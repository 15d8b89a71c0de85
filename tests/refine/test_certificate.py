"""Certificate replay under tampering: every forgery must be rejected.

The refinement sweep is only allowed to refute when
:func:`repro.refine.verify_certificate` replays its certificate with exact
arithmetic, so these tests pin both directions: a genuine refutation of a
Table-1 conflict-free instance replays cleanly, and every class of
tampering — forged or deleted dual multipliers, wrong signs, wrong
dimensions — breaks the replay.
"""

import copy
from fractions import Fraction

import pytest

from repro.core.context import SolverContext
from repro.models import TABLE1_BENCHMARKS
from repro.refine import (
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    refine_prescreen,
    verify_certificate,
)
from repro.unfolding import unfold


@pytest.fixture(scope="class")
def refutation(sweep_backend):
    """A real refutation: context + verified certificate for CF-SYM-A-CSC."""
    pytest.importorskip("scipy")
    context = SolverContext(unfold(TABLE1_BENCHMARKS["CF-SYM-A-CSC"]()))
    outcome = refine_prescreen(context)
    assert outcome.refuted, outcome.reason
    return context, outcome.certificate


class TestGenuineCertificate:
    def test_replays(self, refutation):
        context, certificate = refutation
        assert verify_certificate(context, certificate)

    def test_covers_every_direction_of_every_flowing_place(self, refutation):
        _, certificate = refutation
        pairs = {(b.place, b.sign) for b in certificate.bounds}
        assert all(sign in (1, -1) for _, sign in pairs)
        assert len(pairs) == len(certificate.bounds)  # no duplicates

    def test_survives_serialisation(self, refutation):
        context, certificate = refutation
        rebuilt = RefinementCertificate.from_dict(certificate.to_dict())
        assert verify_certificate(context, rebuilt)

    def test_unknown_version_rejected(self, refutation):
        _, certificate = refutation
        payload = certificate.to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="unsupported certificate"):
            RefinementCertificate.from_dict(payload)


def _copy(certificate: RefinementCertificate) -> RefinementCertificate:
    return RefinementCertificate.from_dict(
        copy.deepcopy(certificate.to_dict())
    )


class TestTampering:
    def test_deleted_bound_breaks_coverage(self, refutation):
        context, certificate = refutation
        forged = _copy(certificate)
        forged.bounds.pop()
        assert not verify_certificate(context, forged)

    def test_forged_empty_multipliers_rejected(self, refutation):
        context, certificate = refutation
        forged = _copy(certificate)
        victim = forged.bounds[0]
        forged.bounds[0] = DualBound(
            place=victim.place, sign=victim.sign, y_eq={}, y_ub={}
        )
        assert not verify_certificate(context, forged)

    def test_negative_multiplier_rejected(self, refutation):
        context, certificate = refutation
        forged = _copy(certificate)
        victim = forged.bounds[0]
        y_ub = dict(victim.y_ub)
        y_ub[0] = Fraction(-1)
        forged.bounds[0] = DualBound(
            place=victim.place, sign=victim.sign, y_eq=victim.y_eq, y_ub=y_ub
        )
        assert not verify_certificate(context, forged)

    def test_wrong_dimensions_rejected(self, refutation):
        context, certificate = refutation
        forged = _copy(certificate)
        forged.num_vars += 1
        assert not verify_certificate(context, forged)

    def test_wrong_sign_rejected(self, refutation):
        context, certificate = refutation
        forged = _copy(certificate)
        victim = forged.bounds[0]
        forged.bounds[0] = DualBound(
            place=victim.place, sign=2, y_eq=victim.y_eq, y_ub=victim.y_ub
        )
        assert not verify_certificate(context, forged)


class TestGenuineCertificateOnLinprog(TestGenuineCertificate):
    backend = "linprog"


class TestTamperingOnLinprog(TestTampering):
    backend = "linprog"


class TestCheckDualBound:
    # maximise x0 subject to x0 + x1 == 1/2, x >= 0
    EQ = [([(0, 1), (1, 1)], Fraction(1, 2))]

    def test_valid_witness_returns_bound(self):
        bound = check_dual_bound([1, 0], self.EQ, [], {0: Fraction(1)}, {})
        assert bound == Fraction(1, 2)

    def test_dominated_coordinate_fails(self):
        assert check_dual_bound([1, 0], self.EQ, [], {}, {}) is None

    def test_negative_inequality_multiplier_fails(self):
        ub = [([(0, 1)], 1)]
        assert (
            check_dual_bound([1, 0], [], ub, {}, {0: Fraction(-1)}) is None
        )

    def test_out_of_range_rows_fail(self):
        assert check_dual_bound([1], self.EQ, [], {5: Fraction(1)}, {}) is None
        assert check_dual_bound([1], [], [], {}, {0: Fraction(1)}) is None
