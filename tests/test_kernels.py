"""The generated kernels `construct` (``nhflat._kernels``) and
`torsion_pass` (``nhflat._torsion_kernels``) against their composed
forms.

``tools/gen_kernels.py`` traces each composed form and writes the kernel;
here the kernels are run beside the composed forms, on the survey records,
the scale-covariance samples of test_scaling.py, the acceptance samples,
the checked-in samples of ``tests/data/cli_golden``, random float
states, states near valid structures, states whose products overflow to
inf and NaN, and the complex states of a complex step, and must agree
with them to the bit, or raise the same error.  The flow's `rk4_step`
(``nhflat._flow_kernels``) is checked in test_flow_oracle.py.  The
generated files must be what the generator writes today, and what one
run of it writes must be current."""

import functools
import inspect
import math
import os

import numpy as np
import pytest

from nhflat import (
    _flow_kernels,
    _kernels,
    _torsion_kernels,
    families,
    flow,
    structure,
    tolerance,
    torsion,
)
from nhflat.errors import InvalidStructureError, StructureError
from nhflat.mat3 import cofactor9, is_spd9
from nhflat.structure import NhfStructure, random_rotation, sample_random_structure
from oracles import ROOT, gen, torsion_args
from test_cli_golden import samples as golden_entries
from test_survey_path import acceptance_samples, scaling_samples, survey_samples

REGENERATE = "python tools/gen_kernels.py"


def bits(value):
    """The floats of a number or nested sequence, as their reprs, so that
    -0.0, inf and NaN compare too."""
    if isinstance(value, (tuple, list)):
        return [r for v in value for r in bits(v)]
    return [repr(value)]


def outcome(fn, *args):
    """What fn(*args) gives as `bits`, or the class and message of what it
    raises."""
    try:
        return bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def check_kernel(kernel, form, args):
    """Assert that the kernel equals its composed form on args, or raises
    the same error with the same message; the composed result, or None
    where it raises."""
    try:
        want = form(*args)
    except Exception as exc:
        assert outcome(kernel, *args) == (type(exc), str(exc))
        return None
    assert outcome(kernel, *args) == bits(want)
    return want


def check_kernels(lam, a, b, p, q):
    """`check_kernel` of `construct` at (lambda, a, b, P, Q), verdicts
    included."""
    return check_kernel(_kernels.construct, gen.composed_construct, (lam, a, b, p, q))


def check_torsion_pass(args):
    """`check_kernel` of the torsion kernel `torsion_pass` on args."""
    return check_kernel(_torsion_kernels.torsion_pass, gen.composed_torsion_pass, args)


def state_torsion_args(state):
    """The arguments of `torsion_pass` for the state (lambda, a, b, P, Q):
    those of the structure built from the real parts of lambda, a and b
    and from P and Q (complex ones included, as the complex step builds
    them), with lambda, a and b as given; None where that structure is
    rejected or its w1+ raises ((det P)^2 is 0)."""
    lam, a, b, p, q = state
    try:
        s = NhfStructure(lam.real, a.real, b.real, p, q, _flat=True)
        return (lam, a, b) + torsion_args(s)[3:]
    except (StructureError, ZeroDivisionError):
        return None


def spd_blocks(want):
    """The blocks of |det P| (g + g^T) that `is_spd9` decides on, from a
    composed construction: its blocks of (det P)(g + g^T), negated where
    det P < 0, as `NhfStructure.metric_spd` takes them."""
    sign = 1.0 if want[0].real > 0 else -1.0
    return [[sign * x for x in block] for block in want[-1]]


@pytest.mark.parametrize("module", gen.MODULES, ids=lambda m: os.path.basename(m.path))
def test_kernels_file_is_current(module):
    with open(os.path.join(ROOT, module.path)) as fh:
        current = fh.read()
    assert current == gen.generate(module), f"{module.path} is not current; run: {REGENERATE}"


def test_check_flags_a_stale_file(tmp_path, monkeypatch, capsys):
    # each file stale in turn, then all three: --check names each stale
    # file and writes nothing, and the script makes all current
    monkeypatch.setattr(gen, "ROOT", str(tmp_path))
    paths = [tmp_path / m.path for m in gen.MODULES]
    paths[0].parent.mkdir(parents=True)
    n = len(gen.MODULES)
    assert n == 3
    for stale in [[k] for k in range(n)] + [list(range(n))]:
        for k, (module, path) in enumerate(zip(gen.MODULES, paths)):
            source = gen.generate(module)
            path.write_text(source.replace("t1 ", "t_1 ", 1) if k in stale else source)
        assert gen.main(["--check"]) == 1
        err = capsys.readouterr().err
        assert all((gen.MODULES[k].path in err) is (k in stale) for k in range(n))
        assert REGENERATE in err
        assert "t_1 " in paths[stale[0]].read_text()
        assert gen.main([]) == 0
        assert [p.read_text() for p in paths] == [gen.generate(m) for m in gen.MODULES]
        assert gen.main(["--check"]) == 0


def test_one_run_is_a_fixpoint(tmp_path, monkeypatch):
    # an edit of the hand-written `flow.abr` reaches both files in one
    # run: `construct` calls it, and `rk4_step` is traced through
    # `flow.stage`, which calls it too; the trace rebinds nothing of `flow`
    source = inspect.getsource(flow.abr)
    assert source.count("s = a * b + tr12") == 1
    namespace = dict(vars(flow))
    exec(source.replace("s = a * b + tr12", "s = b * a + tr12"), namespace)
    monkeypatch.setattr(flow, "abr", namespace["abr"])
    monkeypatch.setattr(gen, "ROOT", str(tmp_path))
    paths = [tmp_path / m.path for m in gen.MODULES]
    paths[0].parent.mkdir(parents=True)
    assert gen.main([]) == 0
    written = [p.read_text() for p in paths]
    # a and b are t0 and t1 in a pass of rk4_step; neither file has the
    # product in this order today
    assert "b * a + " in written[0] and "t1 * t0 + " in written[1]
    assert gen.main(["--check"]) == 0


def test_trace_rejects_a_branch():
    # a branch that does not raise, also on a traced max of either rule, a
    # guard's branch that computes, a function the trace has no node for,
    # and constants with no float
    def guarded(a):
        return (a if a > 0 else -a,)

    def on_max(a, b):
        return (a if max(a, b) > 1.0 else b,)

    def on_max_abs(a, b):
        return (a if tolerance.max_abs([a, b]) > 1.0 else b,)

    def on_term_size(a, b):
        return (a if tolerance.term_size(a, b) > 1.0 else b,)

    def computing(a):
        if a < 0:
            raise ValueError(f"{-a:.3e}")
        return (a,)

    def exponential(a):
        return (math.exp(a),)

    def inexact(a):
        return (a * (2**53 + 1), a * 10**400)

    for form in (guarded, computing, exponential, inexact):
        with pytest.raises(TypeError):
            gen.emit(gen.Kernel("k", form, ("a",)))
    for form in (on_max, on_max_abs, on_term_size):
        with pytest.raises(gen.TraceError):
            gen.emit(gen.Kernel("k", form, ("a", "b")))


def test_guard_keeps_its_place_and_message():
    def form(a, b):
        c = a * b
        if abs(c) >= 2:
            raise ValueError(f"|a b| = {c:.2e} is {{large}}")
        return (c * c + math.sqrt(b),)

    source, imports = gen.emit(gen.Kernel("k", form, ("a", "b")))
    assert imports == {"math": {"sqrt"}}
    namespace = {"sqrt": math.sqrt}
    exec(source, namespace)
    kernel = namespace["k"]
    assert kernel(0.5, 3.0) == form(0.5, 3.0)
    with pytest.raises(ValueError) as raised:
        kernel(1.0, 3.0)
    assert str(raised.value) == "|a b| = 3.00e+00 is {large}"
    assert "2.0" in source and "t0 = a * b" in source
    assert '"""' not in source  # the form has no docstring, so the kernel has none


def test_docstring_does_not_depend_on_its_indent(monkeypatch):
    # Python 3.13 strips a docstring's indent as it compiles it
    kernel = gen.MODULES[0].kernels[0]
    want = gen.emit(kernel)
    monkeypatch.setattr(kernel.form, "__doc__", inspect.cleandoc(kernel.form.__doc__))
    assert gen.emit(kernel) == want


def size_form(x, y, z):
    """The largest moduli as the package takes them, by both rules."""
    return (
        tolerance.max_abs([x, y, z]),
        tolerance.max_abs([x, y]),
        tolerance.term_size(x, y, z),
        tolerance.term_size([x, y], z),
        tolerance.term_size(x),
    )


def max_form(x, y, z):
    """`size_form` and the builtin max of the values."""
    return (*size_form(x, y, z), max(x, y, z), max([y, x]))


def emitted(form):
    """The kernel emitted from form(x, y, z)."""
    source, imports = gen.emit(gen.Kernel("k", form, ("x", "y", "z")))
    assert imports == {}
    assert "tolerance" not in source and "min(" in source and "1e-300)" in source
    namespace = {}
    exec(source, namespace)
    return namespace["k"]


NAN, INF = float("nan"), float("inf")
#: NaN first, NaN later, NaN last, inf, -inf and -0.0 in each place
MAX_STATES = [
    (NAN, 1.0, 2.0), (1.0, NAN, 2.0), (1.0, 2.0, NAN), (NAN, NAN, 1.0),
    (INF, 1.0, NAN), (1.0, INF, -2.0), (-INF, -1.0, -2.0), (INF, -INF, 1.0),
    (-0.0, 0.0, -1.0), (0.0, -0.0, -1.0), (-1.0, -0.0, 0.0), (-0.0, -0.0, -0.0),
    (-3.0, 2.0, 1.0), (1e-310, -1e-320, 0.0), (0.0, 0.0, 0.0),
]


def test_max_nodes_follow_their_rules():
    # the kernel equals tolerance.max_abs, term_size and the builtin max,
    # each by its own rule, on NaN, inf and signed zeros; it computes them
    # in place, through its "max" and "max_abs" nodes
    kernel = emitted(max_form)
    for state in MAX_STATES:
        assert bits(kernel(*state)) == bits(max_form(*state)), state
    got = kernel(1.0, NAN, 2.0)
    # NaN for max_abs, which a sum of the moduli finds; the builtin max
    # passes over a NaN that is not first
    assert math.isnan(got[0]) and math.isnan(got[1]) and got[5] == 2.0
    # the moduli of complex entries: abs(inf + nan j) is inf, not NaN
    kernel = emitted(size_form)
    for state in [(complex(INF, NAN), 1.0, 2.0), (complex(NAN, 1.0), 3.0, 1j), (3j, -4.0, 0j)]:
        assert bits(kernel(*state)) == bits(size_form(*state)), state


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples],
    ids=["survey", "scaling", "acceptance"],
)
def test_structure_kernels_equal_composed_forms_on_samples(samples):
    for s in samples():
        m = s.m9
        want = check_kernels(s.lam, s.a, s.b, m.p, m.q)
        det_p, _, q1, q2, _, _, _, r, (qtp, norm, jgw), j_sq, blocks = want
        assert s.defining_residuals() == r
        report = s.validate()
        assert bits(list(report.residuals.values())) == bits([qtp, norm, j_sq, jgw])
        assert repr(s.j_squared_residual) == repr(j_sq)
        assert s.metric_spd is report.metric_spd is is_spd9(*spd_blocks(want))
        if det_p < 0:
            # negated, the blocks of P are those of -P, but for the sign of a zero
            minus_p = gen.composed_j_verdicts(s.a, s.b, q1, q2, [-x for x in m.p], det_p)
            assert spd_blocks(want) == list(minus_p[1:])


def random_kernel_states(seed, n):
    """n argument lists (lambda, a, b, P, Q) of 21 floats whose sizes span
    1e-5 ... 1e5, with about one entry in ten of a, b, P and Q an exact
    zero (lambda never is)."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(n, 21)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, 21))
    values[:, 1:][rng.random((n, 20)) < 0.1] = 0.0
    return [(v[0], v[1], v[2], v[3:12], v[12:21]) for v in values.tolist()]


def near_valid_states(seed, n):
    """n argument lists (lambda, a, b, P, Q) of rotated closed-form family
    members (`sample_random_structure`), each entry of a, b, P and Q moved
    by a relative 1e-12 ... 1e-1: most have a positive definite metric."""
    rng = np.random.default_rng(seed)
    bases = [sample_random_structure(k) for k in range(20)]
    states = []
    for k in range(n):
        s = bases[k % len(bases)]
        x = np.array([s.a, s.b] + s.m9.p + s.m9.q)
        x *= 1.0 + 10.0 ** rng.uniform(-12.0, -1.0) * rng.standard_normal(20)
        v = x.tolist()
        states.append((s.lam, v[0], v[1], v[2:11], v[11:20]))
    return states


def test_kernels_equal_composed_forms_on_random_states():
    # Random states almost never have a positive definite metric (7 of
    # these 3000; 272 are singular), so 1000 states near valid structures
    # cover the blocks that `is_spd9` passes (996)
    spd = []
    for lam, a, b, p, q in random_kernel_states(40, 3000):
        want = check_kernels(lam, a, b, p, q)
        spd += [] if want is None else [is_spd9(*spd_blocks(want))]
    spd += [is_spd9(*spd_blocks(check_kernels(*v))) for v in near_valid_states(44, 1000)]
    assert sum(spd) >= 500 and spd.count(False) >= 500


def overflowing_states(seed, n):
    """n argument lists (lambda, a, b, P, Q) whose entries span 1e-300 ...
    1e300, so that their products overflow to inf and underflow to 0, and
    inf - inf and 0 * inf make NaN; about one entry in five of a, b, P and
    Q is inf, -inf or NaN."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(n, 21)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, 21))
    special = rng.choice([INF, -INF, NAN], size=(n, 20))
    mask = rng.random((n, 20)) < 0.2
    values[:, 1:][mask] = special[mask]
    return [(v[0], v[1], v[2], v[3:12], v[12:21]) for v in values.tolist()]


def test_kernels_equal_composed_forms_where_values_overflow():
    # the "max" and "max_abs" nodes meet inf and NaN here, and the guard
    # NaN and inf quotients
    states = overflowing_states(45, 2000)
    results = [check_kernels(*state) for state in states]
    sizes = [x for r in results if r is not None for x in r[6]]
    assert any(map(math.isnan, sizes)) and math.inf in sizes
    residuals = [x for r in results if r is not None for x in r[7]]
    assert any(map(math.isnan, residuals)) and not all(map(math.isnan, residuals))
    assert any(r is None for r in results)


def random_complex_states(seed, n):
    """n argument lists (lambda, a, b, P, Q) of 21 complex numbers, as a
    complex step makes them: the real parts' sizes span 1e-3 ... 1e3, and
    the imaginary parts' sizes span 1e-120 ... 1 on about 30% of the
    entries and are exact zeros on the rest."""
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], size=(n, 21)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 21))
    im = rng.choice([-1.0, 1.0], size=(n, 21)) * 10.0 ** rng.uniform(-120.0, 0.0, (n, 21))
    im[rng.random((n, 21)) >= 0.3] = 0.0
    states = [list(map(complex, x, y)) for x, y in zip(re.tolist(), im.tolist())]
    return [(v[0], v[1], v[2], v[3:12], v[12:21]) for v in states]


def test_kernels_equal_composed_forms_on_complex_states():
    # the root-solve sampler's complex-step Jacobian builds structures and
    # their defining residuals from complex P: there a float constant
    # multiplies as the composed form's integer constant does, to the bit,
    # and the guard and the max nodes compare moduli
    for lam, a, b, p, q in random_complex_states(43, 3000):
        check_kernels(lam, a, b, p, q)


def golden_samples():
    """The 70 checked-in samples of ``tests/data/cli_golden``."""
    return [NhfStructure.from_record(entry["record"]) for entry in golden_entries()]


@pytest.mark.parametrize(
    "samples",
    [survey_samples, functools.partial(survey_samples, 901), golden_samples, acceptance_samples],
    ids=["survey-7", "survey-901", "golden", "acceptance"],
)
def test_torsion_kernel_equals_composed_form_on_samples(samples):
    # and the torsion pass reports what the kernel computed: y and X, the
    # membership residuals and the four residuals of the class
    for s in samples():
        want = check_torsion_pass(torsion_args(s))
        y, membership, _, zero, x, primitivity, _, w2m_zero, w1p_zero, nk = want
        try:
            data = torsion.extract_torsion(s, math.inf)
        except InvalidStructureError:
            assert not s.metric_spd or math.isnan(membership)
            continue
        assert bits(data.w3_coords) == bits(y)
        assert bits(data.w2minus_coords) == bits(x)
        assert bits(list(data.residuals.values())) == bits([membership, primitivity])
        got = data.report.predicate_residuals
        assert bits([got[k] for k in ("w3_zero", "w2minus_zero", "w1plus_zero", "nearly_kahler")]) \
            == bits([zero, w2m_zero, w1p_zero, nk])


def test_torsion_kernel_equals_composed_form_on_random_states():
    # the random float states (seed 40) and the states near valid
    # structures of the kernel tests above
    states = random_kernel_states(40, 3000) + near_valid_states(44, 1000)
    results = [check_torsion_pass(a) for a in map(state_torsion_args, states) if a is not None]
    assert len(results) >= 3000 and all(r is not None for r in results)


def overflowing_torsion_args(seed, n):
    """n argument lists of `torsion_pass`, not those of a structure: 72
    signed entries and six moduli (the sizes), each of size 10^-e ... 10^e
    with e drawn from 0 ... 300 for each list, so that products overflow
    to inf and underflow to 0 and inf - inf and 0 * inf make NaN, or
    (det P)^2 is 0; about one entry in a hundred is inf, -inf or NaN.
    Adj(P^T) is that of the list's P, whose products overflow too."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(n):
        e = rng.uniform(0.0, 300.0)
        v = rng.choice([-1.0, 1.0], size=78) * 10.0 ** rng.uniform(-e, e, 78)
        mask = rng.random(78) < 0.01
        v[mask] = rng.choice([INF, -INF, NAN], size=78)[mask]
        v = v.tolist()
        lists.append((
            *v[0:5], v[5:14], v[14:23], v[23:32], v[32:41], v[41:50], v[50], v[51],
            v[52:72], [abs(x) for x in v[72:78]], list(cofactor9(v[5:14])),
        ))
    return lists


def test_torsion_kernel_equals_composed_form_where_values_overflow():
    # inf and NaN reach the "max" and "max_abs" nodes of the sizes and
    # residuals; each output is finite, inf and NaN on some lists (but the
    # residual of w2- = 0, at most 1, since X's size is at least max|X|),
    # and both raise ZeroDivisionError where (det P)^2 is 0
    results = [check_torsion_pass(args) for args in overflowing_torsion_args(45, 2000)]
    assert any(r is None for r in results)
    for k in (1, 2, 3, 5, 6, 7, 8, 9):
        values = [abs(r[k]) for r in results if r is not None]
        assert any(map(math.isnan, values)) and (math.inf in values) is (k != 7)
        assert any(map(math.isfinite, values))


def test_torsion_kernel_equals_composed_form_on_complex_states():
    # no guard, and its largest values read moduli: the kernel takes
    # complex numbers in any input, lambda, a and b included
    args = [a for a in map(state_torsion_args, random_complex_states(43, 3000)) if a is not None]
    assert len(args) >= 2000
    for a in args:
        check_torsion_pass(a)
    assert any(isinstance(x, complex) and x.imag for a in args for x in a[:3])


def test_torsion_reads_the_generated_kernel():
    # one kernel computes the torsion pass, w3 and w2- both
    assert torsion.torsion_pass is _torsion_kernels.torsion_pass
    functions = [name for name, v in vars(_torsion_kernels).items() if inspect.isfunction(v)]
    assert functions == ["torsion_pass"]


def test_structure_reads_the_generated_kernels():
    # one kernel builds and checks a structure, and one takes an RK4 step:
    # F is the hand-written `flow.abr`, which no kernel file defines
    assert structure.construct is _kernels.construct
    assert flow.rk4_step is _flow_kernels.rk4_step
    for module, names in ((_kernels, ["construct"]), (_flow_kernels, ["rk4_step"])):
        functions = [name for name, v in vars(module).items() if inspect.isfunction(v)]
        assert functions == names
    assert flow.abr.__module__ == "nhflat.flow"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("sign_p", [1, -1])
def test_non_finite_entry_is_not_spd(value, sign_p):
    rng = np.random.default_rng(41)
    base = families.nearly_kahler(4.0, sign_p).rotated(random_rotation(rng), random_rotation(rng))
    assert base.metric_spd
    fields = [("a", None), ("b", None)] + [(m, k) for m in ("P", "Q") for k in range(9)]
    for name, k in fields:
        x = {"a": base.a, "b": base.b, "P": base.P.copy(), "Q": base.Q.copy()}
        if k is None:
            x[name] = value
        else:
            x[name].flat[k] = value
        s = NhfStructure(base.lam, x["a"], x["b"], x["P"], x["Q"])
        assert s.metric_spd is False, (name, k)
        assert not s.validate().passed


def test_nan_entry_is_not_spd():
    # a NaN in any of the 27 entries, the lower triangles of A and C
    # (which the factorization does not read) included
    eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    assert is_spd9([1.0, 0.0, 0.0, float("nan"), 1.0, 0.0, 0.0, 0.0, 1.0], [0.0] * 9, eye) is False
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        g = m @ m.T + 6.0 * np.eye(6)
        blocks = (g[:3, :3], g[:3, 3:], g[3:, 3:])
        entries = [x for block in blocks for x in block.ravel().tolist()]
        assert is_spd9(entries[0:9], entries[9:18], entries[18:27]) is True
        for k in range(27):
            x = entries.copy()
            x[k] = float("nan")
            assert is_spd9(x[0:9], x[9:18], x[18:27]) is False, k
