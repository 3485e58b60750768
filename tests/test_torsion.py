"""Torsion extraction, scalar curvature, classification, half-flat rotation."""

import json
import os
import sys

import numpy as np
import pytest

from nhflat import exterior, families, torsion
from nhflat.exterior import d, form_inner, wedge
from nhflat.structure import (
    DEFAULT_TOL,
    NhfStructure,
    invariant_three_form,
    sample_random_structure,
)
from nhflat.torsion import (
    classify,
    extract_torsion,
    rotate_to_half_flat,
    scalar_curvature,
    w2_minus_form,
    w3_form,
)
from oracles import pullback, scalar_curvature_of_metric
from test_cli_golden import GOLDEN

SQRT3 = np.sqrt(3.0)


class TestDecomposition:
    def test_reconstruction_residuals(self):
        # the checks pass on the rotate-family samples, and every torsion
        # form that vanishes on the sample's family has a residual of at
        # most 1e-12, far below DEFAULT_TOL: the headroom on which deciding
        # the class at the one tolerance rests.  The family is the
        # sampler's first draw: nk, w1, w1w3, zero-scalar, sine-cone.
        label = ("W1-", "W1", "W1-+W3", "W1+W3", "W1")
        vanishing = (
            ("w1plus_zero", "w3_zero", "w2minus_zero"),
            ("w3_zero", "w2minus_zero"),
            ("w1plus_zero", "w2minus_zero"),
            ("w2minus_zero",),
            ("w3_zero", "w2minus_zero"),
        )
        for seed in range(100):
            s = sample_random_structure(seed)
            data = extract_torsion(s)
            assert data.residuals["domega"] < 1e-9
            assert data.residuals["djgamma"] < 1e-9
            family = np.random.default_rng(seed).integers(0, 5)
            assert data.class_label == label[family], seed
            for name in vanishing[family]:
                assert data.report.predicate_residuals[name] <= 1e-12, (seed, name)

    def test_record_holds_the_coefficients_of_the_forms(self):
        # to_record reads the coordinate lists; the forms agree to the bit
        samples = [sample_random_structure(seed) for seed in range(3)]
        samples += [sample_random_structure(seed, method="root-solve") for seed in range(2)]
        for s in samples:
            data = extract_torsion(s)
            record = data.to_record()
            assert record["w2minus"] == data.w2minus.coeffs.tolist()
            assert record["w3"] == data.w3.coeffs.tolist()

    def test_w3_module_membership(self):
        for seed in range(5):
            s = sample_random_structure(seed)
            w3 = w3_form(s)
            assert wedge(w3, s.omega).max_abs() < 1e-9
            assert wedge(w3, s.gamma).max_abs() < 1e-9
            assert wedge(w3, s.Jgamma).max_abs() < 1e-9

    def test_w2_module_membership(self):
        # rotate-family samples all have w2- = 0; the root-solve samples
        # exercise the solve with a genuinely nonzero w2-
        samples = [sample_random_structure(seed) for seed in range(3)]
        samples += [
            sample_random_structure(seed, method="root-solve") for seed in range(3)
        ]
        for s in samples:
            w2 = w2_minus_form(s)
            om2 = wedge(s.omega, s.omega)
            scale = max(1.0, w2.max_abs())
            assert wedge(w2, s.gamma).max_abs() < 1e-8 * scale
            assert wedge(w2, om2).max_abs() < 1e-8 * scale

    def test_w2_is_j_invariant(self):
        # primitive (1,1) forms pull back to themselves under J
        for seed in range(5):
            s = sample_random_structure(seed)
            w2 = w2_minus_form(s)
            if w2.max_abs() < 1e-12:
                continue
            assert (pullback(s.J, w2) - w2).max_abs() < 1e-8

    def test_w1_minus_forced(self):
        s = sample_random_structure(0)
        data = extract_torsion(s)
        assert data.w1minus == pytest.approx(0.75 * s.lam)


class TestFamilies:
    def test_nearly_kahler(self):
        s = families.nearly_kahler(4.0)
        data = extract_torsion(s)
        assert data.w1plus == pytest.approx(0.0, abs=1e-12)
        assert data.w2minus.max_abs() < 1e-12
        assert data.w3.max_abs() < 1e-12
        assert data.s == pytest.approx(30.0, abs=1e-8)
        assert data.class_label == "W1-"
        # d omega = (3 lambda / 4) J gamma
        assert (d(s.omega) - 3.0 * s.Jgamma).max_abs() < 1e-10

    def test_w1_family_closed_forms(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lam = rng.uniform(0.5, 3.0)
            pmax = 4.0 * SQRT3 / (9.0 * lam * lam)
            p = rng.uniform(0.2, 0.9) * pmax * rng.choice([-1.0, 1.0])
            s = families.w1_family(lam, p)
            q = s.Q[0, 0]
            data = extract_torsion(s)
            # w1+ = sqrt(3) q / p^2 on the p > 0 branch; the mirror branch
            # p < 0 carries the sign through p |p|
            assert data.w1plus == pytest.approx(SQRT3 * q / (p * abs(p)), abs=1e-9)
            assert data.w2minus.max_abs() < 1e-9
            assert data.w3.max_abs() < 1e-9
            expected_s = 10.0 * SQRT3 / (3.0 * abs(p)) - 45.0 * lam * lam / 8.0
            assert data.s == pytest.approx(expected_s, abs=1e-7)
            assert data.class_label == "W1"

    def test_w1w3_family(self):
        for a in (0.005, 0.01, 0.05):
            s = families.w1w3_family(a)
            data = extract_torsion(s)
            assert abs(data.w1plus) < 1e-9
            assert data.w2minus.max_abs() < 1e-9
            assert data.w3.max_abs() > 1e-6
            assert d(s.Jgamma).max_abs() < 1e-9
            assert data.class_label == "W1-+W3"

    def test_zero_scalar_structures(self):
        for branch in ("plus", "minus"):
            for s in families.zero_scalar_family(branch):
                data = extract_torsion(s)
                assert abs(data.s) < 1e-6
                assert data.class_label == "W1+W3"

    def test_scalar_curvature_equivariance(self):
        rng = np.random.default_rng(5)
        from nhflat.structure import random_rotation

        s = families.w1_family(1.0, 0.4)
        s_ref = scalar_curvature(s)
        for _ in range(5):
            t = s.rotated(random_rotation(rng), random_rotation(rng))
            assert scalar_curvature(t) == pytest.approx(s_ref, abs=1e-8)


class TestClassify:
    def test_small_detp_not_misclassified(self):
        # regression: tiny det P must not mask a large w1+
        s = families.w1_family(4.0, 0.03)
        assert abs(s.w1plus) > 1.0
        assert classify(s).label == "W1"

    def test_rotated_w1w3_keeps_label(self):
        # regression: R = R1 + R2 cancels to roundoff on w1w3 members, and
        # the w2- = 0 residual must not be normalized by that cancelled size
        from nhflat.structure import random_rotation

        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = 1.0 / 256.0 + rng.uniform(0.002, 0.05)
            s = families.w1w3_family(a, sign_p=int(rng.choice([-1, 1])))
            rotated = s.rotated(random_rotation(rng), random_rotation(rng))
            assert classify(rotated).label == "W1-+W3"

    def test_generic_sample_full_class(self):
        s = families.zero_scalar_structure(0.4, 1)
        report = classify(s)
        assert report.label in ("W1+W3", "W1+W2-+W3")
        data = extract_torsion(s)
        assert data.class_label == report.label


class TestRotation:
    def test_w1_family_rotates_closed(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            lam = rng.uniform(0.5, 2.0)
            pmax = 4.0 * SQRT3 / (9.0 * lam * lam)
            s = families.w1_family(lam, rng.uniform(0.2, 0.9) * pmax)
            theta, y, residual = rotate_to_half_flat(s)
            w1p = s.w1plus
            assert theta == pytest.approx(np.arctan(3.0 * lam / (4.0 * w1p)))
            assert residual < 1e-9
            # gamma_theta is a 20-list; d of its form is the oracle
            assert d(invariant_three_form(y[0], y[1], y[2:11], y[11:20])).max_abs() < 1e-9

    def test_w1pluszero_gives_pi_over_two(self):
        s = families.w1w3_family(0.01)
        theta, gamma_theta, residual = rotate_to_half_flat(s)
        assert theta == pytest.approx(np.pi / 2.0)
        assert residual < 1e-9

    def test_coordinates_match_the_form_oracle(self):
        # gamma_theta's coefficients and the residual are those of
        # cos(theta) gamma + sin(theta) J gamma as forms, with d of the
        # exterior algebra, to the bit
        from nhflat.structure import random_rotation, three_form_coeffs

        rng = np.random.default_rng(11)
        for k in range(20):
            lam = rng.uniform(0.5, 2.5)
            pmax = 4.0 * SQRT3 / (9.0 * lam * lam)
            base = (families.w1_family(lam, rng.uniform(0.1, 0.95) * pmax) if k % 2
                    else families.w1w3_family(1.0 / 256.0 + rng.uniform(1e-3, 0.2)))
            s = base.rotated(random_rotation(rng), random_rotation(rng))
            theta, y, residual = rotate_to_half_flat(s)
            cos_gamma = np.cos(theta) * s.gamma
            sin_jgamma = np.sin(theta) * s.Jgamma
            form = cos_gamma + sin_jgamma
            assert three_form_coeffs(y) == form.coeffs.tolist()
            assert residual == exterior.relative(d(form), cos_gamma, sin_jgamma)

    def test_nonzero_w2_rejected(self):
        from nhflat.structure import InvalidStructureError

        # all closed-form families have w2- = 0, so a generic off-family
        # structure from the root-solve sampler is needed here
        s = sample_random_structure(0, method="root-solve")
        assert w2_minus_form(s).max_abs() > 1e-6
        with pytest.raises(InvalidStructureError):
            rotate_to_half_flat(s)


class TestScalarCurvature:
    def test_norm_convention_overdetermined(self):
        # the norm convention is calibrated once; it must reproduce both
        # independent closed forms (W1 family and the zero-scalar roots)
        s = families.w1_family(1.5, 0.3)
        expected = 10.0 * SQRT3 / (3.0 * 0.3) - 45.0 * 1.5**2 / 8.0
        assert scalar_curvature(s) == pytest.approx(expected, abs=1e-7)
        for branch in ("plus", "minus"):
            for z in families.zero_scalar_family(branch):
                assert abs(scalar_curvature(z)) < 1e-6

    def test_zero_scalar_w3_norm_constant(self):
        # |w3|^2 = 96 along the whole zero-scalar parameter curve; this is
        # the constant behind zero_scalar_s
        for p in (0.2, 0.35, -0.3):
            inner = 1 if 36 * p * p + 3 * SQRT3 * p >= 0 else -1
            s = families.zero_scalar_structure(p, inner)
            w3 = w3_form(s)
            n3 = form_inner(s.metric(), w3, w3)
            assert n3 == pytest.approx(96.0, abs=1e-8)

    def test_metric_oracle_on_two_round_spheres(self):
        assert scalar_curvature_of_metric(np.eye(6)) == pytest.approx(3.0, rel=1e-15)

    def test_metric_oracle_scales_inversely(self):
        for seed in range(3):
            g = sample_random_structure(seed).metric()
            for c in (0.25, 3.0):
                want = scalar_curvature_of_metric(g) / c
                assert scalar_curvature_of_metric(c * g) == pytest.approx(want, rel=1e-12)

    def test_nearly_kahler_s_is_that_of_twice_the_metric(self):
        # s at NK is the scalar curvature of 2 g, the slice metric of the
        # lifted Einstein metric (tests/test_einstein.py); off NK the two
        # differ while s weighs the torsion by today's coefficients
        with open(os.path.join(GOLDEN, "nk.json")) as fh:
            s = NhfStructure.from_record(json.load(fh))
        want = scalar_curvature_of_metric(2.0 * s.metric())
        assert scalar_curvature(s) == pytest.approx(want, rel=1e-9)


class TestDerivedOnce:
    def test_residuals_are_the_checks_made(self):
        for seed in range(5):
            s = sample_random_structure(seed)
            data = extract_torsion(s)
            result = torsion._torsion_pass(s)
            domega = torsion._checked(result[1], "w3 membership", DEFAULT_TOL)
            djgamma = torsion._checked(result[5], "w2- primitivity", DEFAULT_TOL)
            assert data.residuals == {"domega": domega, "djgamma": djgamma}

    def test_metric_checked_and_inverted_once(self, monkeypatch):
        calls = {"is_spd": 0, "inv": 0}
        is_spd, inv = exterior.is_spd, np.linalg.inv

        def counted_is_spd(g):
            calls["is_spd"] += 1
            return is_spd(g)

        def counted_inv(a):
            calls["inv"] += 1
            return inv(a)

        # every module that bound is_spd by name
        for name, module in list(sys.modules.items()):
            if name.startswith("nhflat") and getattr(module, "is_spd", None) is is_spd:
                monkeypatch.setattr(module, "is_spd", counted_is_spd)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        for seed in range(5):
            record = sample_random_structure(seed).to_record()
            for run in ("extract", "validate and extract"):
                s = NhfStructure.from_record(record)
                calls.update(is_spd=0, inv=0)
                if run != "extract":
                    assert s.validate().passed
                extract_torsion(s)
                # the block verdict `metric_spd` needs neither g nor g^-1
                assert calls == {"is_spd": 0, "inv": 0}, (run, calls)
