"""The flow lifts a structure to a nearly parallel G2-structure, whose
metric is Einstein: an oracle for the flow that does not reuse its
equations.

With g = `NhfStructure.metric()` along a flow, the 7-metric
4 dt^2 + 2 g(t), whose arclength is tau = 2t, is Einstein with
Ric = (3/8) lambda^2 (the convention d phi = lambda phi; Friedrich, Kath,
Moroianu and Semmelmann, J. Geom. Phys. 23 (1997)).  For a metric
d tau^2 + h(tau), with W = h^-1 h' / 2 the shape operator of the slices
(' is d/dtau),

    Ric(d_tau, d_tau) = -tr W' - tr W^2

(Bär, Gauduchon and Moroianu, Math. Z. 249 (2005), on generalized
cylinders).  Neither the identity nor W appears in the flow's code.  Here
h(tau) = 2 g(t) is read off the samples that `integrate` recorded at
every step, h' and then (tr W)' are central differences of the samples,
and each difference errs by O(dtau^2), dtau = 2 h, h the flow's step.

The flows, each with its own step h, are the nearly Kahler structure at
lambda = 4 (300 steps) and the rotate-family samples of seeds 0 and 2
(80 steps), at h = 1e-3, whose worst relative residual was 3.2e-6 when
they were added; and the root-solve samples of seeds 0, 2 and 3 (150
steps), at h = 2e-4, whose worst residuals were 6.5e-8, 1.7e-7 and
5.9e-8.  The tolerance is 2e-5 for all six.  The identity is read at
every sample with two recorded on either side.  The module takes about
0.3 s.

Root-solve seed 1 is left out: at h = 2e-4 its worst residual is
1.5e-2, and it falls as h^2 (4.1e-3 at h = 1e-4, 1.0e-3 at 5e-5), so it
is the differences' discretization error, not a defect of the flow.

On a copy of the package, `flow.stage` returning 1.01 y' (e = -2.02
lambda / det P, and the P terms of Q1' and Q2' weighted by 1.01;
`rk4_step` regenerated) kept every sample's `validate` passing, since
it only reparametrizes the flow, and failed each case of this module
with residuals of 2.0e-2, the root-solve flows included."""

import numpy as np
import pytest

from nhflat import families, flow
from nhflat.structure import sample_random_structure

RTOL = 2e-5

#: name: (the initial structure, the step h, the number of steps)
FLOWS = {
    "nearly-kahler": (lambda: families.nearly_kahler(4.0), 1e-3, 300),
    "rotate-0": (lambda: sample_random_structure(0), 1e-3, 80),
    "rotate-2": (lambda: sample_random_structure(2), 1e-3, 80),
    "root-solve-0": (lambda: sample_random_structure(0, method="root-solve"), 2e-4, 150),
    "root-solve-2": (lambda: sample_random_structure(2, method="root-solve"), 2e-4, 150),
    "root-solve-3": (lambda: sample_random_structure(3, method="root-solve"), 2e-4, 150),
}


def ricci_residuals(traj, step):
    """Ric(d_tau, d_tau) / ((3/8) lambda^2) - 1 at every sample k with
    samples k - 2 ... k + 2 recorded, by central differences in tau = 2t
    of h = 2 g; the samples are `step` apart in t."""
    dtau = 2.0 * step
    h = [2.0 * sample.structure.metric() for sample in traj.samples]

    def shape(k):
        return np.linalg.solve(h[k], (h[k + 1] - h[k - 1]) / (2.0 * dtau)) / 2.0

    want = 3.0 * traj.lam**2 / 8.0
    residuals = []
    for k in range(2, len(h) - 2):
        w = shape(k)
        tr_dw = (np.trace(shape(k + 1)) - np.trace(shape(k - 1))) / (2.0 * dtau)
        residuals.append((-tr_dw - np.trace(w @ w)) / want - 1.0)
    return residuals


@pytest.mark.parametrize("name", FLOWS)
def test_lifted_metric_is_einstein(name):
    make, step, steps = FLOWS[name]
    traj = flow.integrate(make(), 0.0, steps * step, h=step, record_every=1)
    assert traj.terminated == "completed" and len(traj.samples) == steps + 1
    assert all(sample.passed for sample in traj.samples)
    residuals = ricci_residuals(traj, step)
    assert len(residuals) == steps - 3
    assert max(map(abs, residuals)) <= RTOL, max(map(abs, residuals))
