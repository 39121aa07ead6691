import numpy as np
import pytest

from expclt import deterministic, diagonal_uniform, finite_support, two_point

# A dense non-commuting 3x3 pair, operator norms 0.85, frozen so Monte Carlo
# rate measurements stay reproducible.
A0_DENSE = np.array([
    [-0.095881, -0.043235, -0.171317],
    [-0.089278, -0.410540, -0.253853],
    [0.155755, 0.471150, -0.031446],
])
A1_DENSE = np.array([
    [0.349104, -0.127187, -0.440524],
    [0.118179, -0.445090, -0.289962],
    [-0.453559, 0.125994, 0.171310],
])

# Strictly lower-triangular pair (nilpotent of index 3, norms 0.9); the
# projected statistic for x = e1, y in span{e2, e3} is exactly linear in the
# draws, so its finite-n law is as close to the normal limit as it gets.
A0_NILP = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [0.0, 0.8, 0.0]])
A1_NILP = np.array([[0.0, 0.0, 0.0], [-0.9, 0.0, 0.0], [0.0, 0.8, 0.0]])


@pytest.fixture(scope="session")
def scalar01():
    """d=1 two-point on {0, 1}, p = 1/2: sigma^2 = e/4 in closed form."""
    return two_point(np.array([[0.0]]), np.array([[1.0]]), 0.5)


@pytest.fixture(scope="session")
def scalar02():
    """d=1 two-point on {0, 2}, p = 1/2 (the mean-exponential rate family)."""
    return two_point(np.array([[0.0]]), np.array([[2.0]]), 0.5)


@pytest.fixture(scope="session")
def dense3():
    return two_point(A0_DENSE, A1_DENSE, 0.5)


@pytest.fixture(scope="session")
def nilp3():
    return two_point(A0_NILP, A1_NILP, 0.5)


@pytest.fixture(scope="session")
def diag3():
    return diagonal_uniform(3, -0.5, 1.0)


@pytest.fixture(scope="session")
def point2():
    return deterministic(np.array([[0.3, 0.1], [0.0, -0.2]]))


@pytest.fixture(scope="session")
def wide300():
    """300 dense 3x3 matrices of norm 0.8 with unequal weights: a support past
    the cut-point count of ``support_indices`` and wider than any block row."""
    rng = np.random.default_rng(7)
    mats = [m * (0.8 / np.linalg.norm(m, 2)) for m in rng.standard_normal((300, 3, 3))]
    weights = rng.uniform(0.5, 1.5, 300)
    return finite_support(mats, weights / weights.sum())


@pytest.fixture(params=["dense3", "scalar01", "diag3", "wide300", "point2"])
def moment_law(request):
    """The laws the batched moments are checked on: dense, d = 1, diagonal, a
    support past the cut-point count, and a point mass."""
    return request.getfixturevalue(request.param)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and
    returns the list that each call appends its arguments to."""
    def wrap(owner, name):
        calls, inner = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return wrap
