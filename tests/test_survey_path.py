"""Oracles for the survey path: from_record, validate, extract_torsion.

The routes the library replaced are kept here as references: the
nine-residual validity verdict, the numpy normalization bracket, the
22 x 15 least-squares and the 15 x 15 square w2- solves, the numpy
assembly of the J blocks, the eigenvalue test of positive definiteness,
the torsion norms by contraction with g^-1, and the membership checks by
`wedge` and `d`.  The samples are the benchmark's survey records (seed
7), the scale-covariance samples of test_scaling.py, the acceptance
samples and root-solve samples."""

import functools
import importlib.util
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from nhflat import exterior, families, flow, structure, torsion
from nhflat.exterior import (
    COFRAME_DIFFERENTIAL,
    Form,
    d,
    inner,
    inverse_metric,
    is_spd,
    relative,
    wedge,
    wedge_tensor,
)
from nhflat.mat3 import adjugate, det3, flat9
from nhflat.structure import (
    InvalidStructureError,
    NhfStructure,
    Sizes,
    _interleave,
    _j_blocks9,
    build_omega,
    invariant_three_form,
    random_rotation,
    sample_random_structure,
)
from nhflat.torsion import (
    classify,
    extract_torsion,
    scalar_curvature,
    w2_minus_form,
    w3_form,
)
from oracles import (
    ROOT,
    de_de_form,
    gen,
    induced_metric,
    matrix_class,
    omega_coords,
    three_form_coords,
    torsion_args,
)

SCALES = np.geomspace(1e-3, 1e3, 13)


def scaled(s, c):
    return NhfStructure(c * s.lam, s.a / c**3, s.b / c**3, s.P / c**2, s.Q / c**3)


@functools.cache
def survey_workloads():
    """``perfbench/workloads.py`` as a module."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("survey_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


@functools.cache
def survey_records(seed=7):
    """The 60 records of the benchmark's survey workload at a seed."""
    records = survey_workloads().make_records(np.random.default_rng(seed), 60)
    return tuple(r.record for r in records)


def survey_samples(seed=7):
    return [NhfStructure.from_record(rec) for rec in survey_records(seed)]


@functools.cache
def root_solve_samples():
    return tuple(sample_random_structure(seed, method="root-solve") for seed in range(5))


def scaling_samples():
    bases = [sample_random_structure(seed) for seed in range(20)]
    bases += [families.nearly_kahler(4.0), root_solve_samples()[0]]
    return [scaled(s, c) for s in bases for c in SCALES]


def acceptance_samples():
    samples = [sample_random_structure(seed) for seed in range(100)]
    rng = np.random.default_rng(10)
    bases = [
        families.nearly_kahler(2.0),
        families.w1_family(1.0, 0.5),
        families.w1w3_family(0.01),
        families.zero_scalar_structure(0.35, 1),
    ]
    samples += [
        bases[k % len(bases)].rotated(random_rotation(rng), random_rotation(rng))
        for k in range(200)
    ]
    samples += [families.w1w3_family(a) for a in (0.005, 0.012, 0.08)]
    # invalid: the published Berger data has J^2 = +c id
    samples += [families.berger_trajectory(t) for t in (0.1, 0.3, 0.6)]
    return samples


# -- validate ---------------------------------------------------------------

DEFINING = ("qtp_symmetry", "normalization", "jgamma_wedge_omega")


def implied_residuals(s):
    """The five residuals `validate` no longer computes, as it computed
    them: three are implied by the defining conditions, two (d gamma and
    d delta, delta = -Adj(P^T) on both mixed slots) are identities of the
    parameterization."""
    z, om, gam, jg = s.sizes, s.omega, s.gamma, s.Jgamma
    om2 = wedge(om, om)
    om3 = wedge(om2, om)
    adj_pt = np.reshape(s.m9.adj_pt, (3, 3))
    delta = invariant_three_form(0.0, 0.0, -adj_pt, -adj_pt)
    g = induced_metric(s)
    return {
        "gamma_wedge_omega": relative(wedge(gam, om), z.gam * z.p),
        "gamma_wedge_jgamma": relative(
            wedge(gam, jg) - (2.0 / 3.0) * om3, z.gam * z.jg, z.p * z.p * z.p
        ),
        "dgamma": relative(d(gam) - 0.5 * s.lam * om2, z.gam, s.lam * z.p * z.p),
        "ddelta": relative(d(delta) - om2, delta, z.p * z.p),
        "metric_symmetry": relative(g - g.T, z.p * np.max(np.abs(s.J))),
    }


def nine_residual_verdict(s, tol):
    report = s.validate(tol)
    return report.passed and all(v <= tol for v in implied_residuals(s).values())


def test_validate_computes_the_defining_conditions():
    report = families.nearly_kahler(4.0).validate()
    assert set(report.residuals) == set(DEFINING) | {"j_squared"}


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples],
    ids=["survey", "scaling", "acceptance"],
)
def test_validate_reads_the_defining_residuals(samples):
    # validate's three defining residuals are the block maxima of the one
    # constraint map, to the bit
    for s in samples():
        r, report = s.defining_residuals(), s.validate()
        blocks = {
            "qtp_symmetry": r[:3],
            "normalization": r[3:4],
            "jgamma_wedge_omega": r[4:],
        }
        for name, block in blocks.items():
            assert report.residuals[name] == float(np.max(np.abs(block))), name


def test_construction_builds_no_delta():
    assert not hasattr(families.nearly_kahler(4.0), "delta")


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples],
    ids=["survey", "scaling", "acceptance"],
)
def test_verdict_equals_nine_residual_verdict(samples):
    structures = samples()
    flips = [s for s in structures if s.validate().passed != nine_residual_verdict(s, 1e-9)]
    assert not flips
    # the set holds valid and, through the Berger data, invalid structures
    assert any(s.validate().passed for s in structures)


def test_implied_residuals_follow_the_defining_ones():
    # Near the valid set each implied residual is at most a few times the
    # largest defining one, so the verdict can change only where a
    # defining residual is within that factor of the tolerance.  Measured
    # at most 3.8 over these perturbations (relative size 1e-12 to 1e-4);
    # 9 of them flip, at sizes 1e-10 to 1e-8, all through gamma ^ J gamma.
    rng = np.random.default_rng(11)
    bases = [sample_random_structure(seed) for seed in range(20)]
    bases.append(families.nearly_kahler(4.0))
    worst = 0.0
    for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4):
        for b in bases:
            for _ in range(3):
                def f(x):
                    return x * (1.0 + eps * rng.standard_normal(np.shape(x)))

                s = NhfStructure(b.lam, f(b.a), f(b.b), f(b.P), f(b.Q))
                report = s.validate()
                defining = max(report.residuals[k] for k in DEFINING)
                implied = implied_residuals(s)
                # d gamma and d delta are identities: roundoff at any eps
                assert implied["dgamma"] <= 1e-14 and implied["ddelta"] <= 1e-14
                worst = max(worst, max(implied.values()) / max(defining, 1e-15))
    assert worst <= 10.0


def array_bracket(a, b, Q1, Q2):
    """The normalization bracket rounded through numpy's 3x3 products."""
    Q1, Q2 = np.asarray(Q1, dtype=float), np.asarray(Q2, dtype=float)
    tr12 = float(np.trace(Q1.T @ Q2))
    return (
        -((a * b - tr12) ** 2)
        - 4.0 * (a * det3(Q2) + b * det3(Q1))
        + 4.0 * float(np.trace(adjugate(Q1.T @ Q2)))
    )


def test_validate_bracket_matches_array_bracket():
    # validate's 9-list normalization bracket against the numpy one,
    # relative to the bracket's terms
    rng = np.random.default_rng(15)
    for _ in range(200):
        a, b = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        Q1, Q2 = (rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3) for _ in range(2))
        n1, n2 = np.max(np.abs(Q1)), np.max(np.abs(Q2))
        n_ab = abs(a * b) + n1 * n2
        terms = (n_ab * n_ab, abs(a) * n2**3, abs(b) * n1**3, (n1 * n2) ** 2)
        got = gen.composed_bracket(a, b, flat9(Q1), flat9(Q2))
        assert relative(got - array_bracket(a, b, Q1, Q2), *terms) <= 1e-14


def test_t_slice_pieces_are_identities():
    # d gamma - (lambda/2) omega^2 and d(omega^2), the t-slice pieces of
    # d phi - lambda psi and d psi that `flow.g2_residual` does not
    # compute, vanish at random, invalid parameters of any scale
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        c = 10.0 ** rng.uniform(-3, 3)
        P = rng.standard_normal((3, 3)) * c
        if abs(np.linalg.det(P)) < 1e-3 * c**3:
            continue
        Q = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3)
        a, b = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        s = NhfStructure(rng.uniform(0.1, 10.0) * rng.choice([-1, 1]), a, b, P, Q)
        z = s.sizes
        domega2 = relative(d(wedge(s.omega, s.omega)), z.p * z.p)
        worst = max(worst, implied_residuals(s)["dgamma"], domega2)
    assert worst <= 1e-14


# -- w2- ----------------------------------------------------------------------


def _wedge_operator(fixed, k):
    """Matrix of beta |-> beta ^ fixed on degree-k forms, rows indexed by
    the (k + deg fixed)-monomials."""
    return wedge_tensor(k, fixed.degree) @ fixed.coeffs


def lstsq_w2_minus(s):
    """The former route: beta ^ omega = target, beta ^ gamma = 0 and
    beta ^ omega^2 = 0 stacked into 22 equations, each block divided by the
    size of its operator, solved by least squares.  Returns beta and the
    size of the target over |omega|."""
    z, w1p = s.sizes, s.w1plus
    om2 = wedge(s.omega, s.omega)
    target = d(s.Jgamma) + (2.0 / 3.0) * w1p * om2
    A = np.vstack(
        [
            _wedge_operator(s.omega, 2) / z.p,
            _wedge_operator(s.gamma, 2) / z.gam,
            _wedge_operator(om2, 2) / (z.p * z.p),
        ]
    )
    rhs = np.concatenate([target.coeffs / z.p, np.zeros(7)])
    beta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return beta, max(z.jg, (2.0 / 3.0) * abs(w1p) * z.p * z.p) / z.p


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, root_solve_samples],
    ids=["survey", "scaling", "root-solve"],
)
def test_square_solve_matches_lstsq(samples):
    for s in samples():
        beta, size = lstsq_w2_minus(s)
        got = w2_minus_form(s).coeffs
        assert relative(got - beta, beta, size) <= 1e-12


def test_root_solve_samples_have_nonzero_w2_minus():
    # they are what tests the solve against lstsq with w2- != 0
    for s in root_solve_samples():
        beta, size = lstsq_w2_minus(s)
        assert np.max(np.abs(beta)) > 1e-3 * size


def test_extract_torsion_solves_once_without_lstsq(monkeypatch):
    # w2- is in closed form: no solve and no lstsq
    calls = {"lstsq": 0, "solve": 0}
    lstsq, solve = np.linalg.lstsq, np.linalg.solve

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    structures = survey_samples() + list(root_solve_samples())
    for s in structures:
        extract_torsion(s)
    assert calls == {"lstsq": 0, "solve": 0}


def square_solve_w2_minus(s):
    """The former route: beta ^ omega = target solved as one 15 x 15 system,
    the operator divided by the size of omega."""
    z = s.sizes
    target = d(s.Jgamma) + (2.0 / 3.0) * s.w1plus * wedge(s.omega, s.omega)
    return np.linalg.solve(_wedge_operator(s.omega, 2) / z.p, target.coeffs / z.p)


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, root_solve_samples],
    ids=["survey", "scaling", "root-solve"],
)
def test_closed_form_matches_square_solve(samples):
    for s in samples():
        beta, size = square_solve_w2_minus(s), lstsq_w2_minus(s)[1]
        got = w2_minus_form(s).coeffs
        assert relative(got - beta, beta, size) <= 1e-12


def random_invalid_structures(seed, n=200):
    """Structures of random (lambda, a, b, P, Q) over 12 orders of
    magnitude, valid or not."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        c = 10.0 ** rng.uniform(-3, 3)
        P = rng.standard_normal((3, 3)) * c
        if abs(np.linalg.det(P)) < 1e-3 * c**3:
            continue
        Q = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3)
        a, b = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        lam = rng.uniform(0.1, 10.0) * rng.choice([-1, 1])
        out.append(NhfStructure(lam, a, b, P, Q))
    return out


def bend_jgamma(s, c):
    """Put J gamma + c gamma in place of the J gamma of s: the form and the
    coordinates `jgamma_coords` that the checks read alike."""
    s.Jgamma = s.Jgamma + c * s.gamma
    s.jgamma_coords = three_form_coords(s.Jgamma)


def test_closed_form_inverts_wedge_with_omega():
    # w1+ removes the omega^2 part of the target for any parameters, so the
    # trace term of the closed form is exercised by bending J gamma as in
    # test_non_primitive_w2_minus_raises; tol = inf returns beta unchecked
    rng = np.random.default_rng(18)
    for s in random_invalid_structures(16):
        bend_jgamma(s, rng.uniform(-1.0, 1.0))
        beta = square_solve_w2_minus(s)
        got = w2_minus_form(s, tol=np.inf)
        size = max(np.max(np.abs(beta)), lstsq_w2_minus(s)[1])
        assert relative(got.coeffs - beta, size) <= 1e-12


def test_validate_residuals_match_array_formulas():
    # the residuals of validate against the numpy 3x3 formulas and the
    # J gamma ^ omega form
    for s in random_invalid_structures(17):
        z, report = s.sizes, s.validate()
        qtp = relative(s.Q.T @ s.P - s.P.T @ s.Q, z.q * z.p)
        assert report.residuals["qtp_symmetry"] == pytest.approx(qtp, rel=1e-12, abs=1e-15)
        n_ab = abs(s.a * s.b) + z.q1 * z.q2
        norm = relative(
            s.det_p * s.det_p - array_bracket(s.a, s.b, s.Q1, s.Q2),
            s.det_p**2, n_ab**2, abs(s.a) * z.q2**3, abs(s.b) * z.q1**3, (z.q1 * z.q2) ** 2,
        )
        assert report.residuals["normalization"] == pytest.approx(norm, rel=1e-12, abs=1e-15)
        jg_om = relative(wedge(s.Jgamma, s.omega), z.jg * z.p)
        assert report.residuals["jgamma_wedge_omega"] == pytest.approx(jg_om, rel=1e-12, abs=1e-15)


def test_targets_lie_in_the_de_de_span():
    # the closed form reads d(J gamma) and omega^2 on the 9 de ^ de slots
    # only; the other 6 coordinates of both are exactly 0, valid or not
    _DE_DE_BASIS = np.column_stack([de_de_form(e).coeffs for e in np.eye(9)])
    off_span = np.ones(15, dtype=bool)
    off_span[np.flatnonzero(_DE_DE_BASIS.any(axis=1))] = False
    assert off_span.sum() == 6
    for s in random_invalid_structures(14):
        for form in (d(s.Jgamma), wedge(s.omega, s.omega)):
            assert not form.coeffs[off_span].any()
            # each basis form is one monomial with sign +-1
            coords = _DE_DE_BASIS.T @ form.coeffs
            assert np.array_equal(de_de_form(coords).coeffs, form.coeffs)


def test_survey_record_call_counts(monkeypatch):
    # one survey record: no solve, eigenvalue solve or inverse, and no
    # wedge, d or metric contraction; every check and norm is computed on
    # the coordinates of the forms
    linalg = ("solve", "lstsq", "eigvalsh", "inv")
    forms = {"wedge": wedge, "d": d, "inner": inner}
    calls = dict.fromkeys(linalg + tuple(forms), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in linalg:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for name, fn in forms.items():
        wrapped = counted(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("nhflat") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
        assert getattr(exterior, name) is wrapped
    for rec in survey_records():
        calls.update(dict.fromkeys(calls, 0))
        s = NhfStructure.from_record(rec)
        s.validate()
        extract_torsion(s)
        assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("c", [1e-6, 1e-3])
def test_non_primitive_w2_minus_raises(c):
    # With J gamma + c gamma in place of J gamma, d(J gamma) gains
    # (c lambda / 2) omega^2, so beta gains (c lambda / 2) omega, which has
    # beta ^ omega^2 != 0.  The square solve alone would accept it.
    for s in (families.nearly_kahler(4.0), root_solve_samples()[1]):
        w2_minus_form(s)
        bent = NhfStructure(s.lam, s.a, s.b, s.P, s.Q)
        bend_jgamma(bent, c)
        with pytest.raises(InvalidStructureError, match="primitivity"):
            w2_minus_form(bent)


# -- J ------------------------------------------------------------------------


def numpy_j_blocks(a, b, Q1, Q2):
    """The former numpy assembly of (det P) J^T from 3x3 arrays."""
    tr12 = float(np.trace(Q1.T @ Q2))
    C = np.empty((6, 6))
    C[0::2, 0::2] = (a * b - tr12) * np.eye(3) + 2.0 * Q2 @ Q1.T
    C[0::2, 1::2] = -2.0 * (a * Q2 - adjugate(Q1.T))
    C[1::2, 0::2] = 2.0 * (b * Q1.T - adjugate(Q2))
    C[1::2, 1::2] = -(a * b - tr12) * np.eye(3) - 2.0 * Q1.T @ Q2
    return C


def test_j_blocks_match_numpy_assembly():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        Q1, Q2 = (rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3) for _ in range(2))
        n1, n2 = np.max(np.abs(Q1)), np.max(np.abs(Q2))
        # sizes of the products the entries are sums of
        terms = (a * b, n1 * n2, a * n2, b * n1, n1 * n1, n2 * n2)
        want = numpy_j_blocks(a, b, Q1, Q2)
        got = _interleave(_j_blocks9(a, b, flat9(Q1), flat9(Q2)))
        assert relative(got - want, *terms) <= 1e-15


def numpy_sizes(s):
    """The former `NhfStructure.sizes`: one np.maximum.reduceat over the
    coefficients of omega, gamma and J gamma and the 3x3 data; the size of
    omega and the `Sizes` of the rest."""
    m = s.m9
    factors = np.concatenate(
        [s.omega.coeffs, s.gamma.coeffs, s.Jgamma.coeffs]
        + [np.array(x) for x in (m.q1, m.q2, m.p, m.q)]
    )
    offsets = [0, 15, 35, 55, 64, 73, 82]
    om, gam, jg, q1, q2, p, q = np.maximum.reduceat(
        np.abs(factors), offsets
    ).tolist()
    return om, Sizes(gam, jg, p, q, q1, q2)


ALL_SAMPLES = pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples, root_solve_samples],
    ids=["survey", "scaling", "acceptance", "root-solve"],
)


@ALL_SAMPLES
def test_sizes_match_numpy_reduceat(samples):
    for s in samples():
        om, sizes = numpy_sizes(s)
        assert s.sizes == sizes
        assert om == sizes.p  # omega is sized by P


@ALL_SAMPLES
def test_j_squared_residual_matches_numpy_product(samples):
    # the one entry (J^2)_11 + 1 against the largest of the 6x6 product
    # J @ J + id, relative to the size of the terms, |J|^2 and 1
    for s in samples():
        want = float(np.max(np.abs(s.J @ s.J + np.eye(6))))
        assert relative(s.j_squared_residual - want, np.max(np.abs(s.J)) ** 2, 1.0) <= 1e-15


def test_j_blocks_square_to_minus_the_bracket():
    # Hitchin's identity: L^2 = -bracket id for L = (det P) J^T and every
    # state (a, b, Q1, Q2), valid or not, which is why one entry of J^2 + id
    # is its largest
    states = survey_samples() + random_invalid_structures(24)
    for s in states:
        m = s.m9
        L = _interleave(_j_blocks9(s.a, s.b, m.q1, m.q2))
        want = -gen.composed_bracket(s.a, s.b, m.q1, m.q2) * np.eye(6)
        assert relative(L @ L - want, np.max(np.abs(L)) ** 2, 1.0) <= 1e-14


def test_one_kernel_call_per_structure(monkeypatch):
    # construction runs the kernel once, for the data and the residuals,
    # j_squared and the SPD blocks; the defining residuals, validate and
    # extract_torsion run it no more
    calls = []
    construct = structure.construct

    def counted(*args):
        calls.append(args)
        return construct(*args)

    records = survey_records()  # made before the count: making them validates
    monkeypatch.setattr(structure, "construct", counted)
    for rec in records:
        s = NhfStructure.from_record(rec)
        assert len(calls) == 1
        s.defining_residuals()
        s.validate()
        extract_torsion(s)
        assert len(calls) == 1
        calls.clear()


def golden_records():
    """The five golden CLI records, one rotated member of each family."""
    records = []
    for family in ("nk", "w1", "w1w3", "zero-scalar", "sine-cone"):
        with open(os.path.join(ROOT, "tests", "data", "cli_golden", f"{family}.json")) as fh:
            records.append(json.load(fh))
    return records


def test_record_is_checked_in_few_python_calls():
    # from_record and validate call the generated kernel once and little
    # else: 69 Python-level calls per record before it was generated, 29
    # with a second kernel for the verdicts, 26 with one, 27 with the check
    # that the record holds numbers only, and 23 now on Python 3.11, where
    # one walk reads and checks the record (24 where det P < 0, whose SPD
    # blocks metric_spd negates).
    # Comprehensions are calls before Python 3.12, and each resumption of a
    # generator is one; the builtins are not
    for rec in golden_records():
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            NhfStructure.from_record(rec).validate()
        finally:
            sys.setprofile(None)
        assert calls.count("construct") == 1
        assert len(calls) <= 30, calls


def test_torsion_is_extracted_in_few_python_calls():
    # extract_torsion on a validated record calls the generated kernel
    # torsion_pass once: 89 Python-level calls per golden record before
    # any of it was generated, 44 with the w3 half generated, and 14 now
    # on Python 3.10 and 3.11 (83 -> 41 -> 13 on 3.12 and 3.13, where
    # comprehensions are not calls)
    for rec in golden_records():
        s = NhfStructure.from_record(rec)
        assert s.validate().passed
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            extract_torsion(s)
        finally:
            sys.setprofile(None)
        assert calls.count("torsion_pass") == 1
        assert len(calls) <= 15, calls


def test_basis_tables_match_wedge_products():
    # the signed-permutation tables against the former basis matrices,
    # whose columns are wedge products of coframe monomials
    def e(i):
        return Form.monomial((i,))

    def de(i):
        return Form.monomial(*COFRAME_DIFFERENTIAL[i])

    pairs = [(i, j) for i in (1, 3, 5) for j in (2, 4, 6)]
    omega = np.column_stack([wedge(e(i), e(j)).coeffs for i, j in pairs])
    de_de = np.column_stack([wedge(de(i), de(j)).coeffs for i, j in pairs])
    three = np.column_stack(
        [Form.monomial((1, 3, 5)).coeffs, Form.monomial((2, 4, 6)).coeffs]
        + [wedge(de(i), e(j)).coeffs for i, j in pairs]
        + [wedge(e(i), de(j)).coeffs for i, j in pairs]
    )
    units9, units20 = np.eye(9), np.eye(20)
    assert np.array_equal(np.column_stack([build_omega(u).coeffs for u in units9]), omega)
    assert np.array_equal(np.column_stack([de_de_form(u).coeffs for u in units9]), de_de)
    got = np.column_stack(
        [invariant_three_form(u[0], u[1], u[2:11], u[11:]).coeffs for u in units20]
    )
    assert np.array_equal(got, three)
    # each a signed permutation or selection: the coordinates read back
    for u in units9:
        assert omega_coords(build_omega(u)) == u.tolist()
    for u in units20:
        assert three_form_coords(invariant_three_form(u[0], u[1], u[2:11], u[11:])) == u.tolist()


# -- positive definiteness ----------------------------------------------------


def eigvalsh_spd(g):
    """The former SPD verdict: the smallest eigenvalue of the symmetric
    part of g is > 0; False where the eigenvalues cannot be computed."""
    try:
        return bool(np.linalg.eigvalsh(0.5 * (g + g.T)).min() > 0)
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("c", SCALES)
def test_block_spd_matches_eigvalsh(c):
    # the block verdict of the structure and `exterior.is_spd` on the 6x6
    # g both equal the eigenvalue verdict, at every scale of the data
    verdicts = []
    for base in random_invalid_structures(19):
        s = scaled(base, c)
        g = induced_metric(s)
        want = eigvalsh_spd(g)
        assert s.metric_spd is want and is_spd(g) is want
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def test_is_spd_rejects_non_finite_entries():
    g = families.nearly_kahler(4.0).metric()
    assert is_spd(g)
    for value in (np.nan, np.inf, -np.inf):
        for k in (0, 7, 35):
            bad = g.copy()
            bad.flat[k] = value
            assert not is_spd(bad) and not eigvalsh_spd(bad)


# -- torsion norms ------------------------------------------------------------


def inner_norms(s, data):
    """The former route: |w2-|^2 and |w3|^2 by contraction with g^-1."""
    ginv = inverse_metric(induced_metric(s))
    return inner(ginv, data.w2minus, data.w2minus), inner(ginv, data.w3, data.w3)


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples, root_solve_samples],
    ids=["survey", "scaling", "acceptance", "root-solve"],
)
def test_norms_match_inner_oracle(samples):
    # both norms and s against the contraction with g^-1, relative to the
    # terms of s (s vanishes on the zero scalar curvature family, and a
    # norm of a form that vanishes is roundoff)
    checked = 0
    for s in samples():
        if not s.validate().passed:
            continue  # the Berger data
        data = extract_torsion(s)
        n2, n3 = inner_norms(s, data)
        w1p = data.w1plus
        terms = ((10.0 / 3.0) * w1p * w1p, 15.0 * s.lam**2 / 8.0, 0.5 * n2, 0.5 * n3)
        want = terms[0] + terms[1] - terms[2] - terms[3]
        assert relative(data.s - want, *terms) <= 1e-12
        result = gen.composed_torsion_pass(*torsion_args(s))
        assert relative(result[6] - n2, *terms) <= 1e-12
        assert relative(result[2] - n3, *terms) <= 1e-12
        checked += 1
    assert checked


def abr_derivative(x, y):
    """D F[y] at x, F = (A, B, R1, R2) of `flow.abr`, for 20-lists x and
    y.  F is cubic, so F(x + y) - F(x - y) = 2 D F[y] + 2 F(y); evaluated
    on Fractions, where `flow.abr`, which keeps its integer constants, is
    exact (the kernels write their constants as floats)."""

    def f(z):
        return flow.abr(z[0], z[1], z[2:11], z[11:])

    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    plus = f([u + v for u, v in zip(x, y)])
    minus = f([u - v for u, v in zip(x, y)])
    return [float((p - m) / 2 - q) for p, m, q in zip(plus, minus, f(y))]


def test_bracket_hessian_is_the_dual_map_derivative():
    # D^2 lambda[y, y] = 2 vol(y ^ D F[y]) at random points and directions
    # of any scale, relative to the size of the terms |x|^2 |y|^2
    rng = np.random.default_rng(20)
    for _ in range(100):
        x = rng.standard_normal(20) * 10.0 ** rng.uniform(-3, 3)
        y = rng.standard_normal(20) * 10.0 ** rng.uniform(-3, 3)
        got = gen.composed_bracket_hessian(
            x[0], x[1], x[2:11].tolist(), x[11:].tolist(), y.tolist()
        )
        want = 2.0 * gen.three_form_volume(y.tolist(), abr_derivative(x.tolist(), y.tolist()))
        size = np.max(np.abs(x)) ** 2 * np.max(np.abs(y)) ** 2
        assert relative(got - want, size) <= 1e-12


def w3_norm_by_dual_map(s, w3):
    """|w3|^2 = -vol(y ^ D F[y]) / (det P)^2."""
    y = three_form_coords(w3)
    m = s.m9
    return -gen.three_form_volume(y, abr_derivative([s.a, s.b] + m.q1 + m.q2, y)) / s.det_p**2


def test_w3_norm_by_dual_map():
    for s in survey_samples()[:20] + list(root_solve_samples()):
        data = extract_torsion(s)
        n3 = gen.composed_torsion_pass(*torsion_args(s))[2]
        terms = (data.w1plus**2, s.lam**2, n3)
        assert relative(w3_norm_by_dual_map(s, data.w3) - n3, *terms) <= 1e-12


# -- the checks on coordinates ------------------------------------------------


def test_coordinate_identities():
    # the identities the checks rest on, on random data of any scale, each
    # relative to the product of its factors' sizes
    def n(x):
        return float(np.max(np.abs(x)))

    rng = np.random.default_rng(21)
    for _ in range(100):
        c135, c246 = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2)
        M1, M2, X, M = (
            rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3) for _ in range(4)
        )
        gam = invariant_three_form(c135, c246, M1, M2)
        y = [c135, c246] + flat9(M1) + flat9(M2)
        # coordinates are exact
        assert three_form_coords(gam) == y
        assert omega_coords(build_omega(X)) == flat9(X)
        # d(c, d, M1, M2) = de_de_form(M1 + M2), to the bit
        assert np.array_equal(d(gam).coeffs, de_de_form(M1 + M2).coeffs)
        # 3-form ^ 2-form
        want = wedge(gam, build_omega(X)).coeffs
        got = np.array(gen.three_form_wedge_omega(flat9(M1), flat9(M2), flat9(X)))
        assert relative(got - want, n(X) * max(n(M1), n(M2))) <= 1e-14
        # 3-form ^ 3-form
        z = rng.standard_normal(20) * 10.0 ** rng.uniform(-3, 3)
        vol = wedge(gam, invariant_three_form(z[0], z[1], z[2:11], z[11:])).coeffs[0]
        assert relative(gen.three_form_volume(y, z.tolist()) - vol, n(y) * n(z)) <= 1e-14
        # 2-form ^ 4-form
        vol = wedge(build_omega(X), de_de_form(M)).coeffs[0]
        assert relative(-np.sum(X * M) - vol, n(X) * n(M)) <= 1e-14


def test_coordinate_checks_match_wedge_forms():
    # every residual computed on coordinates against its wedge and d form.
    # validate's residuals are those of the J gamma the structure was built
    # with; the torsion checks read J gamma from s.jgamma_coords, so they
    # are compared with J gamma bent as in test_non_primitive_w2_minus_raises;
    # tol = inf returns the residuals
    rng = np.random.default_rng(22)
    for s in random_invalid_structures(23):
        z, w1p = s.sizes, s.w1plus
        jg_om = relative(wedge(s.Jgamma, s.omega), z.jg * z.p)
        bend_jgamma(s, rng.uniform(-1.0, 1.0))
        got = s.validate().residuals["jgamma_wedge_omega"]
        assert got == pytest.approx(jg_om, rel=1e-12, abs=1e-15)

        w3 = w3_form(s, tol=np.inf)
        got = torsion._torsion_pass(s)[1]
        size = max(z.p, abs(w1p) * z.gam, 0.75 * abs(s.lam) * z.jg)
        want = max(
            relative(wedge(w3, s.omega), size * z.p),
            relative(wedge(w3, s.gamma), size * z.gam),
            relative(wedge(w3, s.Jgamma), size * z.jg),
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

        beta = w2_minus_form(s, tol=np.inf)
        got = torsion._torsion_pass(s)[5]
        size = max(beta.max_abs(), max(z.jg, (2.0 / 3.0) * abs(w1p) * z.p * z.p) / z.p)
        want = max(
            relative(wedge(beta, s.gamma), size * z.gam),
            relative(wedge(beta, wedge(s.omega, s.omega)), size * z.p * z.p),
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- scalar curvature -----------------------------------------------------------


def test_scalar_curvature_raises_on_indefinite_metric():
    # the forms are computed unchecked (tol = inf), so the raise is the
    # one of the metric
    structures = [s for s in random_invalid_structures(24) if not s.metric_spd]
    assert structures
    for s in structures[:20]:
        with pytest.raises(InvalidStructureError, match="positive definite"):
            scalar_curvature(s, tol=np.inf)


# -- the torsion class ----------------------------------------------------------


def rotated_w1w3_samples():
    """The rotated w1w3 members of test_torsion's
    TestClassify.test_rotated_w1w3_keeps_label, where R = R1 + R2 cancels
    to roundoff."""
    samples = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = 1.0 / 256.0 + rng.uniform(0.002, 0.05)
        s = families.w1w3_family(a, sign_p=int(rng.choice([-1, 1])))
        samples.append(s.rotated(random_rotation(rng), random_rotation(rng)))
    return samples


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, rotated_w1w3_samples],
    ids=["survey", "scaling", "rotated-w1w3"],
)
def test_classify_matches_matrix_predicates(samples):
    # the class read off the coordinates of w3 and w2- against the
    # conditions on A, B, R1 and R2 that those coordinates restate
    for s in samples():
        report = classify(s)
        assert (report.label, report.nearly_kahler) == matrix_class(s)
        assert report.nearly_kahler == (report.label == "W1-")
        assert extract_torsion(s).class_label == report.label


def test_extract_torsion_builds_each_form_once(monkeypatch):
    # the label is read off the y and X that the checks and s used: one
    # call of the kernel torsion_pass computes both
    calls = {"torsion_pass": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(torsion, name, counted(name, getattr(torsion, name)))
    for s in survey_samples():
        calls.update(dict.fromkeys(calls, 0))
        extract_torsion(s)
        assert calls == {"torsion_pass": 1}
