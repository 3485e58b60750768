"""The generated kernels of ``nhflat._kernels`` against their composed forms.

``tools/gen_kernels.py`` traces each composed form and writes the kernel;
here the kernels are run beside the composed forms, on the survey records,
the scale-covariance samples of test_scaling.py, the acceptance samples,
random float states and the complex states of a complex step, and must
agree with them to the bit.  The flow's kernel
(``nhflat._flow_kernels``) is checked in test_flow_oracle.py.  Both
generated files must be what the generator writes today, and what one
run of it writes must be current."""

import inspect
import math
import os

import numpy as np
import pytest

from nhflat import _kernels, families, structure
from nhflat.mat3 import is_spd9
from nhflat.structure import NhfStructure, random_rotation
from oracles import ROOT, gen
from test_survey_path import acceptance_samples, scaling_samples, survey_samples

REGENERATE = "python tools/gen_kernels.py"


def bits(value):
    """The floats of a number or nested sequence, as their reprs, so that
    -0.0, inf and NaN compare too."""
    if isinstance(value, (tuple, list)):
        return [r for v in value for r in bits(v)]
    return [repr(value)]


def j_args(s):
    """The arguments of `j_verdicts` for the structure s, as
    `NhfStructure._j_verdicts` passes them."""
    m = s.m9
    p = m.p if s.det_p > 0 else [-x for x in m.p]
    return s.a, s.b, m.q1, m.q2, p, s.det_p


@pytest.mark.parametrize("module", gen.MODULES, ids=lambda m: os.path.basename(m.path))
def test_kernels_file_is_current(module):
    with open(os.path.join(ROOT, module.path)) as fh:
        current = fh.read()
    assert current == gen.generate(module), f"{module.path} is not current; run: {REGENERATE}"


def test_check_flags_a_stale_file(tmp_path, monkeypatch, capsys):
    # each file stale in turn, then both: --check names each stale file
    # and writes nothing, and the script makes both current
    monkeypatch.setattr(gen, "ROOT", str(tmp_path))
    paths = [tmp_path / m.path for m in gen.MODULES]
    paths[0].parent.mkdir(parents=True)
    for stale in [[0], [1], [0, 1]]:
        for k, (module, path) in enumerate(zip(gen.MODULES, paths)):
            source = gen.generate(module)
            path.write_text(source.replace("t1 ", "t_1 ", 1) if k in stale else source)
        assert gen.main(["--check"]) == 1
        err = capsys.readouterr().err
        assert all((gen.MODULES[k].path in err) is (k in stale) for k in range(2))
        assert REGENERATE in err
        assert "t_1 " in paths[stale[0]].read_text()
        assert gen.main([]) == 0
        assert [p.read_text() for p in paths] == [gen.generate(m) for m in gen.MODULES]
        assert gen.main(["--check"]) == 0


def test_one_run_is_a_fixpoint(tmp_path, monkeypatch):
    # an edit of composed_abr reaches both files in one run: `rk4_step` is
    # traced through `flow.stage`, whose `abr` the trace binds to the
    # composed form, not to the kernel imported with `flow`
    source = inspect.getsource(gen.composed_abr)
    assert source.count("s = a * b + tr12") == 1
    namespace = dict(vars(gen))
    exec(source.replace("s = a * b + tr12", "s = b * a + tr12"), namespace)
    regrouped = namespace["composed_abr"]
    kernels = gen.MODULES[0].kernels
    modules = (
        gen.MODULES[0]._replace(kernels=(kernels[0]._replace(form=regrouped), *kernels[1:])),
        *gen.MODULES[1:],
    )
    monkeypatch.setattr(gen, "composed_abr", regrouped)
    monkeypatch.setattr(gen, "MODULES", modules)
    monkeypatch.setattr(gen, "ROOT", str(tmp_path))
    paths = [tmp_path / m.path for m in modules]
    paths[0].parent.mkdir(parents=True)
    assert gen.main([]) == 0
    written = [p.read_text() for p in paths]
    # a and b are t0 and t1 in a pass of rk4_step; neither file has the
    # product in this order today
    assert "b * a + " in written[0] and "t1 * t0 + " in written[1]
    assert gen.main(["--check"]) == 0


def test_trace_rejects_a_branch():
    # a branch that does not raise, a guard's branch that computes, a
    # function the trace has no node for, and constants with no float
    def guarded(a):
        return (a if a > 0 else -a,)

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


@pytest.mark.parametrize(
    "samples",
    [survey_samples, scaling_samples, acceptance_samples],
    ids=["survey", "scaling", "acceptance"],
)
def test_j_verdicts_equal_composed_form_on_samples(samples):
    for s in samples():
        args = j_args(s)
        want = gen.composed_j_verdicts(*args)
        assert bits(_kernels.j_verdicts(*args)) == bits(want)
        assert repr(s.j_squared_residual) == repr(abs(want[0]))
        assert s.metric_spd is is_spd9(*want[1:])


def random_kernel_states(seed, n):
    """n argument lists (a, b, Q1, Q2, P, det P) of 30 floats whose sizes
    span 1e-5 ... 1e5, with about one entry in ten an exact zero (det P
    never is)."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(n, 30)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, 30))
    values[:, :29][rng.random((n, 29)) < 0.1] = 0.0
    return [(v[0], v[1], v[2:11], v[11:20], v[20:29], v[29]) for v in values.tolist()]


def test_kernels_equal_composed_forms_on_random_states():
    # at 3000 states, a sum regrouped in either kernel differs on 100 to 550
    # of them, and B written as -(x - z) -> z - x, which moves only the sign
    # of a zero, on one
    verdicts = []
    for a, b, q1, q2, p, det_p in random_kernel_states(40, 3000):
        want = gen.composed_j_verdicts(a, b, q1, q2, p, det_p)
        assert bits(_kernels.j_verdicts(a, b, q1, q2, p, det_p)) == bits(want)
        assert bits(_kernels.abr(a, b, q1, q2)) == bits(gen.composed_abr(a, b, q1, q2))
        verdicts.append(is_spd9(*want[1:]))
    # most random states are not SPD, but some are
    assert any(verdicts) and not all(verdicts)


def random_complex_states(seed, n):
    """n argument lists (a, b, Q1, Q2, P, det P) of 30 complex numbers,
    as a complex step makes them: the real parts' sizes span 1e-3 ... 1e3,
    and the imaginary parts' sizes span 1e-120 ... 1 on about 30% of the
    entries and are exact zeros on the rest."""
    rng = np.random.default_rng(seed)
    re = rng.choice([-1.0, 1.0], size=(n, 30)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 30))
    im = rng.choice([-1.0, 1.0], size=(n, 30)) * 10.0 ** rng.uniform(-120.0, 0.0, (n, 30))
    im[rng.random((n, 30)) >= 0.3] = 0.0
    states = [list(map(complex, x, y)) for x, y in zip(re.tolist(), im.tolist())]
    return [(v[0], v[1], v[2:11], v[11:20], v[20:29], v[29]) for v in states]


def test_kernels_equal_composed_forms_on_complex_states():
    # the root-solve sampler's complex-step Jacobian runs `abr` on complex
    # states; there a float constant multiplies as the composed form's
    # integer constant does, to the bit
    for a, b, q1, q2, p, det_p in random_complex_states(43, 3000):
        assert bits(_kernels.abr(a, b, q1, q2)) == bits(gen.composed_abr(a, b, q1, q2))
        want = gen.composed_j_verdicts(a, b, q1, q2, p, det_p)
        assert bits(_kernels.j_verdicts(a, b, q1, q2, p, det_p)) == bits(want)


def test_structure_reads_the_generated_kernels():
    assert structure.abr is _kernels.abr
    assert structure.j_verdicts is _kernels.j_verdicts


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
