"""Oracles for the scalar flow kernel.

The RK4 loop below is the per-stage numpy integration over the public
array API (`flow_rhs`, `recover_p`); `flow.integrate` runs the same scheme
on a flat list of floats and must reproduce it at every recorded sample.
The 3x3 helpers and `compute_abr` are checked against numpy's determinant,
the adjugate from 2x2 minors and the explicit matrix formulas."""

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.mat3 import adjugate, det3
from nhflat.structure import (
    compute_abr,
    random_rotation,
    sample_random_structure,
)

REL_TOL = 1e-13


def numpy_rk4_states(initial, t0, t1, h, record_every):
    """(t, a, b, Q1, Q2, P) at every recorded step of a numpy RK4 loop."""
    lam = initial.lam
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    n_steps = int(round(abs(t1 - t0) / abs(h)))
    a, b = initial.a, initial.b
    Q1, Q2 = initial.Q1.copy(), initial.Q2.copy()
    det_p = initial.det_p

    def rhs(a_, b_, Q1_, Q2_):
        return flow.flow_rhs(lam, a_, b_, Q1_, Q2_, det_p)

    def record(t):
        P, _ = flow.recover_p(lam, Q1, Q2, det_p)
        return t, a, b, Q1.copy(), Q2.copy(), P

    states = [record(t0)]
    for k in range(n_steps):
        k1 = rhs(a, b, Q1, Q2)
        k2 = rhs(*(x + 0.5 * h * dx for x, dx in zip((a, b, Q1, Q2), k1)))
        k3 = rhs(*(x + 0.5 * h * dx for x, dx in zip((a, b, Q1, Q2), k2)))
        k4 = rhs(*(x + h * dx for x, dx in zip((a, b, Q1, Q2), k3)))
        a, b, Q1, Q2 = (
            x + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
            for x, d1, d2, d3, d4 in zip((a, b, Q1, Q2), k1, k2, k3, k4)
        )
        _, det_p = flow.recover_p(lam, Q1, Q2, det_p)
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            states.append(record(t0 + (k + 1) * h))
    return states


def assert_matches_oracle(initial, t0, t1, h, record_every):
    traj = flow.integrate(initial, t0, t1, h=h, record_every=record_every)
    states = numpy_rk4_states(initial, t0, t1, h, record_every)
    assert len(traj.samples) == len(states)
    for sample, (t, a, b, Q1, Q2, P) in zip(traj.samples, states):
        s = sample.structure
        assert sample.t == t
        want = np.concatenate([[a, b], Q1.ravel(), Q2.ravel(), P.ravel()])
        got = np.concatenate([[s.a, s.b], s.Q1.ravel(), s.Q2.ravel(), s.P.ravel()])
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("sign_p", [1, -1])
@pytest.mark.parametrize("t_end", [0.05, -0.05])
def test_integrate_matches_numpy_rk4_rotated_nk(sign_p, t_end):
    rng = np.random.default_rng(11 + sign_p)
    s = families.nearly_kahler(4.0, sign_p).rotated(
        random_rotation(rng), random_rotation(rng)
    )
    assert_matches_oracle(s, 0.0, t_end, 1e-3, 10)


def test_integrate_matches_numpy_rk4_root_solve():
    s = sample_random_structure(3, method="root-solve")
    assert_matches_oracle(s, 0.0, 0.004, 5e-4, 2)


def random_matrices(seed, n=200):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, 3)) * rng.uniform(0.1, 10.0, size=(n, 1, 1))


def test_det3_matches_numpy_det():
    for m in random_matrices(20):
        scale = np.max(np.abs(m)) ** 3
        assert abs(det3(m) - np.linalg.det(m)) <= 1e-13 * scale


def minor_adjugate(m):
    """Adj(M)[j, i] = (-1)^(i+j) det of M without row i and column j."""
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(sub)
    return adj


def test_adjugate_matches_minors():
    for m in random_matrices(21):
        scale = np.max(np.abs(m)) ** 2
        assert np.max(np.abs(adjugate(m) - minor_adjugate(m))) <= 1e-13 * scale


def test_compute_abr_matches_numpy_formulas():
    rng = np.random.default_rng(22)
    for Q1, Q2 in zip(random_matrices(23), random_matrices(24)):
        a, b = rng.standard_normal(2)
        tr12 = np.trace(Q1.T @ Q2)
        want = (
            a * tr12 - 2.0 * np.linalg.det(Q1) - a * a * b,
            -(b * tr12 - 2.0 * np.linalg.det(Q2) - a * b * b),
            -((a * b + tr12) * Q1 - 2.0 * a * minor_adjugate(Q2.T)
              - 2.0 * Q1 @ Q2.T @ Q1),
            (a * b + tr12) * Q2 - 2.0 * b * minor_adjugate(Q1.T)
            - 2.0 * Q2 @ Q1.T @ Q2,
        )
        A, B, R1, R2, R = compute_abr(a, b, Q1, Q2)
        size = max(abs(a), abs(b), np.max(np.abs(Q1)), np.max(np.abs(Q2))) ** 3
        for got, ref in zip((A, B, R1, R2), want):
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-13 * size
        assert np.array_equal(R, R1 + R2)

