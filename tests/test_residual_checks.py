"""Every toleranced invariant fails with its residual, NaN included.

Each site that compares a residual with its tolerance raises one
exception class with one message, "WHAT: residual R exceeds T". The
cases below pin the class, the full text and the carried residual of a
finite failure at every such site; the NaN cases pin that a residual
which compares false with everything is a failure, not a pass.
"""

import math

import numpy as np
import pytest

from qprob import (
    ClassicalModel,
    Eventuality,
    HilbertSpace,
    JointProbabilityMatrix,
    ObserverModel,
    Observable,
    Op,
    ProbabilityOperator,
    Scheme,
    StructureError,
    Vec,
    branch_decompose,
    conjoin,
    heisenberg_transport,
    joint_matrix,
    net_table,
    spectral_observable,
)

S2 = HilbertSpace(2, "spin")
NAN = float("nan")
HALF = ProbabilityOperator.diagonal(S2, [0.5, 0.5])


def _basis(*labels):
    return Observable(S2, tuple(Eventuality.from_basis_states(S2, [k]) for k in range(2)), labels)


def _hadamard():
    s = 2 ** -0.5
    return Observable(S2, (Eventuality(S2, [[s], [s]]), Eventuality(S2, [[s], [-s]])), ("plus", "minus"))


def _observers():
    return [ObserverModel("left", branch_channels=2), ObserverModel("right", branch_channels=2)]


# (site, call, exception class, full message, residual)
FINITE = [
    ("hermitian", lambda: ProbabilityOperator.from_entries(S2, [[0.5, 0.5], [0, 0.5]]), StructureError,
     "probability operator must be hermitian: residual 5.000e-01 exceeds 1e-10", 0.5),
    ("unit-trace", lambda: ProbabilityOperator.from_entries(S2, np.diag([0.7, 0.4])), StructureError,
     "probability operator must have unit trace: residual 1.000e-01 exceeds 1e-10", 0.1),
    ("psd", lambda: ProbabilityOperator.from_entries(S2, np.diag([1.2, -0.2])), StructureError,
     "probability operator must be positive semidefinite: residual 2.000e-01 exceeds 1e-10", 0.2),
    ("transport", lambda: heisenberg_transport(_basis(), Op(S2, np.diag([1.0, 2.0]))), StructureError,
     "transport needs a unitary: residual 3.000e+00 exceeds 1e-10", 3.0),
    ("joint-total", lambda: JointProbabilityMatrix(_basis(), _basis(), [[0.5, 0.0], [0.0, 0.25]]), ValueError,
     "joint matrix must total 1: residual 2.500e-01 exceeds 1e-10", 0.25),
    ("joint-negative", lambda: JointProbabilityMatrix(_basis(), _basis(), [[1.25, 0.0], [0.0, -0.25]]), ValueError,
     "joint matrix has a negative entry: residual 2.500e-01 exceeds 1e-10", 0.25),
    ("projector", lambda: Eventuality.from_projector(Op(S2, np.diag([0.5, 0.0]))), StructureError,
     "not a projector: residual 2.500e-01 exceeds 1e-10", 0.25),
    ("measure-total", lambda: ClassicalModel(("heads", "tails"), (0.5, 0.25)), ValueError,
     "measure must total 1: residual 2.500e-01 exceeds 1e-12", 0.25),
    ("spectral", lambda: spectral_observable(Op(S2, [[0, 1], [0, 0]])), StructureError,
     "spectral decomposition needs a hermitian operator: residual 1.000e+00 exceeds 1e-08", 1.0),
    ("commuting", lambda: conjoin(_basis("up", "down"), _hadamard()), StructureError,
     "channels 'up' and 'plus' do not commute: residual 5.000e-01 exceeds 1e-10", 0.5),
    ("unit-norm", lambda: Vec(S2, [1, 1]).require_unit(), StructureError,
     "state vector must have unit squared norm: residual 1.000e+00 exceeds 1e-10", 1.0),
    ("gross-total", lambda: net_table(Scheme("weak"), _observers(), [[0.5, 0.5], [0.5, 0.25]]), ValueError,
     "gross probabilities for 'right' must total 1: residual 2.500e-01 exceeds 1e-10", 0.25),
    ("channel-total", lambda: branch_decompose(HALF, Observable(S2, (Eventuality.from_basis_states(S2, [0]),))),
     ValueError,
     "channel probabilities must total 1 (is the observable complete?): residual 5.000e-01 exceeds 1e-10", 0.5),
]

# (site, call, exception class, full message) with a NaN residual
NON_FINITE = [
    ("hermitian", lambda: ProbabilityOperator.from_entries(S2, [[NAN, 0], [0, 0.5]]), StructureError,
     "probability operator must be hermitian: residual nan exceeds 1e-10"),
    ("transport", lambda: heisenberg_transport(_basis(), Op(S2, [[NAN, 0], [0, 1]])), StructureError,
     "transport needs a unitary: residual nan exceeds 1e-10"),
    ("joint-total", lambda: JointProbabilityMatrix(_basis(), _basis(), [[NAN, 0.0], [0.0, 0.5]]), ValueError,
     "joint matrix must total 1: residual nan exceeds 1e-10"),
    ("projector", lambda: Eventuality.from_projector(Op(S2, [[NAN, 0], [0, 0]])), StructureError,
     "not a projector: residual nan exceeds 1e-10"),
    ("spectral", lambda: spectral_observable(Op(S2, [[NAN, 0], [0, 0]])), StructureError,
     "spectral decomposition needs a hermitian operator: residual nan exceeds 1e-08"),
    ("commuting", lambda: joint_matrix(HALF, Observable(S2, (Eventuality(S2, [[NAN], [0]]),), ("blur",)), _basis()),
     StructureError, "channels 'blur' and 'e1' do not commute: residual nan exceeds 1e-10"),
    ("unit-norm", lambda: Vec(S2, [NAN, 0]).require_unit(), StructureError,
     "state vector must have unit squared norm: residual nan exceeds 1e-10"),
    ("gross-total", lambda: net_table(Scheme("weak"), _observers(), [[NAN, 0.5], [0.5, 0.5]]), ValueError,
     "gross probabilities for 'left' must total 1: residual nan exceeds 1e-10"),
    ("channel-total", lambda: branch_decompose(HALF, Observable(S2, (Eventuality(S2, [[NAN], [0]]),))), ValueError,
     "channel probabilities must total 1 (is the observable complete?): residual nan exceeds 1e-10"),
]


@pytest.mark.parametrize("site, call, error, message, residual", FINITE, ids=[c[0] for c in FINITE])
def test_failing_residual_message_is_pinned(site, call, error, message, residual):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
    if error is StructureError:
        assert raised.value.residual == pytest.approx(residual)


@pytest.mark.parametrize(
    "site, call, residual", [(c[0], c[1], c[4]) for c in FINITE if c[2] is ValueError],
    ids=[c[0] for c in FINITE if c[2] is ValueError],
)
def test_sum_rule_value_errors_carry_the_residual(site, call, residual):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.value.residual == pytest.approx(residual)


@pytest.mark.parametrize("site, call, error, message", NON_FINITE, ids=[c[0] for c in NON_FINITE])
def test_nan_residual_fails(site, call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert math.isnan(raised.value.residual)
