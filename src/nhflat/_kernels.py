"""Straight-line kernels of the package.  GENERATED by tools/gen_kernels.py
from the composed forms there, over the `mat3` helpers: do not edit.  To
change a kernel, change its composed form and run

    python tools/gen_kernels.py

Each kernel computes what its composed form computes, with the same
operations on the same operands in the same order, so the results agree
to the last bit.  The kernels take floats, or complex numbers: none has a
guard or calls `math.sqrt`.  Every constant is written as a float, so on
``fractions.Fraction`` input only the composed forms, which keep their
integer constants, are exact."""


def abr(a, b, q1, q2):
    """F = (A, B, R1, R2) of gamma as a 20-tuple, with gamma and F in the
    coordinate layout of `invariant_three_form`: a, b, then Q1 = (u..) and
    Q2 = (v..) row-major, and A, B, then R1 and R2 row-major:

        A  =   a tr(Q1^T Q2) - 2 det Q1 - a^2 b
        B  = -(b tr(Q1^T Q2) - 2 det Q2 - a b^2)
        R1 = -((a b + tr(Q1^T Q2)) Q1 - 2 a Adj(Q2^T) - 2 Q1 Q2^T Q1)
        R2 =   (a b + tr(Q1^T Q2)) Q2 - 2 b Adj(Q1^T) - 2 Q2 Q1^T Q2

    J gamma = (2 / det P) F, and the flow's evolution equations
    gamma' = d omega - lambda J gamma read F too: construction and
    `flow.stage` call this kernel, and the flow's `rk4_step`
    (``nhflat._flow_kernels``) is traced from the same composed form.
    It uses only +, - and * and integer constants, so the composed form
    is exact on ``fractions.Fraction`` input; the kernel `abr` writes
    each constant as a float and equals it, to the bit, on floats and
    complex numbers."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    t0 = u00 * v00 + u10 * v10 + u20 * v20
    t1 = u00 * v01 + u10 * v11 + u20 * v21
    t2 = u00 * v02 + u10 * v12 + u20 * v22
    t3 = u01 * v00 + u11 * v10 + u21 * v20
    t4 = u01 * v01 + u11 * v11 + u21 * v21
    t5 = u01 * v02 + u11 * v12 + u21 * v22
    t6 = u02 * v00 + u12 * v10 + u22 * v20
    t7 = u02 * v01 + u12 * v11 + u22 * v21
    t8 = u02 * v02 + u12 * v12 + u22 * v22
    t9 = t0 + t4 + t8
    t10 = a * b
    t11 = t10 + t9
    t12 = 2.0 * a
    t13 = 2.0 * b
    t14 = v11 * v22 - v12 * v21
    t15 = v12 * v20
    t16 = v10 * v22
    t17 = v10 * v21 - v11 * v20
    t18 = u11 * u22 - u12 * u21
    t19 = u12 * u20
    t20 = u10 * u22
    t21 = u10 * u21 - u11 * u20
    return (
        a * t9 - 2.0 * (u00 * t18 - u01 * (t20 - t19) + u02 * t21) - a * a * b,
        -(b * t9 - 2.0 * (v00 * t14 - v01 * (t16 - t15) + v02 * t17) - t10 * b),
        -(t11 * u00 - t12 * t14 - 2.0 * (u00 * t0 + u01 * t1 + u02 * t2)),
        -(t11 * u01 - t12 * (t15 - t16) - 2.0 * (u00 * t3 + u01 * t4 + u02 * t5)),
        -(t11 * u02 - t12 * t17 - 2.0 * (u00 * t6 + u01 * t7 + u02 * t8)),
        -(t11 * u10 - t12 * (v02 * v21 - v01 * v22) - 2.0 * (u10 * t0 + u11 * t1 + u12 * t2)),
        -(t11 * u11 - t12 * (v00 * v22 - v02 * v20) - 2.0 * (u10 * t3 + u11 * t4 + u12 * t5)),
        -(t11 * u12 - t12 * (v01 * v20 - v00 * v21) - 2.0 * (u10 * t6 + u11 * t7 + u12 * t8)),
        -(t11 * u20 - t12 * (v01 * v12 - v02 * v11) - 2.0 * (u20 * t0 + u21 * t1 + u22 * t2)),
        -(t11 * u21 - t12 * (v02 * v10 - v00 * v12) - 2.0 * (u20 * t3 + u21 * t4 + u22 * t5)),
        -(t11 * u22 - t12 * (v00 * v11 - v01 * v10) - 2.0 * (u20 * t6 + u21 * t7 + u22 * t8)),
        t11 * v00 - t13 * t18 - 2.0 * (v00 * t0 + v01 * t3 + v02 * t6),
        t11 * v01 - t13 * (t19 - t20) - 2.0 * (v00 * t1 + v01 * t4 + v02 * t7),
        t11 * v02 - t13 * t21 - 2.0 * (v00 * t2 + v01 * t5 + v02 * t8),
        t11 * v10 - t13 * (u02 * u21 - u01 * u22) - 2.0 * (v10 * t0 + v11 * t3 + v12 * t6),
        t11 * v11 - t13 * (u00 * u22 - u02 * u20) - 2.0 * (v10 * t1 + v11 * t4 + v12 * t7),
        t11 * v12 - t13 * (u01 * u20 - u00 * u21) - 2.0 * (v10 * t2 + v11 * t5 + v12 * t8),
        t11 * v20 - t13 * (u01 * u12 - u02 * u11) - 2.0 * (v20 * t0 + v21 * t3 + v22 * t6),
        t11 * v21 - t13 * (u02 * u10 - u00 * u12) - 2.0 * (v20 * t1 + v21 * t4 + v22 * t7),
        t11 * v22 - t13 * (u00 * u11 - u01 * u10) - 2.0 * (v20 * t2 + v21 * t5 + v22 * t8),
    )


def j_verdicts(a, b, q1, q2, p, det_p):
    """What the two J verdicts of a structure (a, b, Q1, Q2) read, with P
    taken times the sign of det P (`p`), as (j, A, B, C):

    j is (J^2)_11 + 1 (`NhfStructure.j_squared_residual` is |j|): row 1 of
    J^T times its column 1, from the blocks oo, oe, eo, ee of (det P) J^T
    (`structure._j_blocks9`), each entry divided by det P first, so that
    no (det P)^2 can underflow.  By Hitchin's identity L^2 = -bracket id
    for L = (det P) J^T, J^2 + id = (1 - bracket / (det P)^2) id, so this
    one entry is, up to rounding, the largest |entry| of J^2 + id.

    A, B, C are row-major 9-tuples, the blocks [[A, B], [B^T, C]] of
    |det P| (g + g^T) that `NhfStructure.metric_spd` passes to
    `mat3.is_spd9`.  On the odd and on the even coframe indices
    W = [[0, P], [-P^T, 0]] and (det P) J = [[oo^T, eo^T], [oe^T, ee^T]],
    so (det P)(g + g^T) has the blocks

        P oe^T + oe P^T,   P ee^T - oo P,   -(P^T eo^T + eo P)."""
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    t0 = u00 * v00 + u10 * v10 + u20 * v20
    t1 = u01 * v01 + u11 * v11 + u21 * v21
    t2 = u02 * v02 + u12 * v12 + u22 * v22
    t3 = a * b - (t0 + t1 + t2)
    t4 = 2.0 * (v00 * u10 + v01 * u11 + v02 * u12)
    t5 = 2.0 * (v00 * u20 + v01 * u21 + v02 * u22)
    t6 = 2.0 * (v10 * u00 + v11 * u01 + v12 * u02)
    t7 = 2.0 * (v10 * u20 + v11 * u21 + v12 * u22)
    t8 = 2.0 * (v20 * u00 + v21 * u01 + v22 * u02)
    t9 = 2.0 * (v20 * u10 + v21 * u11 + v22 * u12)
    t10 = -2.0 * (u00 * v01 + u10 * v11 + u20 * v21)
    t11 = -2.0 * (u00 * v02 + u10 * v12 + u20 * v22)
    t12 = -2.0 * (u01 * v00 + u11 * v10 + u21 * v20)
    t13 = -2.0 * (u01 * v02 + u11 * v12 + u21 * v22)
    t14 = -2.0 * (u02 * v00 + u12 * v10 + u22 * v20)
    t15 = -2.0 * (u02 * v01 + u12 * v11 + u22 * v21)
    t16 = 2.0 * (v00 * u00 + v01 * u01 + v02 * u02) + t3
    t17 = -2.0 * t0 - t3
    t18 = 2.0 * (v10 * u10 + v11 * u11 + v12 * u12) + t3
    t19 = -2.0 * t1 - t3
    t20 = 2.0 * (v20 * u20 + v21 * u21 + v22 * u22) + t3
    t21 = -2.0 * t2 - t3
    t22 = -2.0 * (a * v00 - (u11 * u22 - u12 * u21))
    t23 = -2.0 * (a * v01 - (u12 * u20 - u10 * u22))
    t24 = -2.0 * (a * v02 - (u10 * u21 - u11 * u20))
    t25 = -2.0 * (a * v10 - (u02 * u21 - u01 * u22))
    t26 = -2.0 * (a * v11 - (u00 * u22 - u02 * u20))
    t27 = -2.0 * (a * v12 - (u01 * u20 - u00 * u21))
    t28 = -2.0 * (a * v20 - (u01 * u12 - u02 * u11))
    t29 = -2.0 * (a * v21 - (u02 * u10 - u00 * u12))
    t30 = -2.0 * (a * v22 - (u00 * u11 - u01 * u10))
    t31 = 2.0 * (b * u00 - (v11 * v22 - v12 * v21))
    t32 = 2.0 * (b * u10 - (v02 * v21 - v01 * v22))
    t33 = 2.0 * (b * u20 - (v01 * v12 - v02 * v11))
    t34 = 2.0 * (b * u01 - (v12 * v20 - v10 * v22))
    t35 = 2.0 * (b * u11 - (v00 * v22 - v02 * v20))
    t36 = 2.0 * (b * u21 - (v02 * v10 - v00 * v12))
    t37 = 2.0 * (b * u02 - (v10 * v21 - v11 * v20))
    t38 = 2.0 * (b * u12 - (v01 * v20 - v00 * v21))
    t39 = 2.0 * (b * u22 - (v00 * v11 - v01 * v10))
    t40 = t16 / det_p
    t41 = p00 * t22 + p01 * t23 + p02 * t24
    t42 = p00 * t25 + p01 * t26 + p02 * t27
    t43 = p00 * t28 + p01 * t29 + p02 * t30
    t44 = p10 * t22 + p11 * t23 + p12 * t24
    t45 = p10 * t25 + p11 * t26 + p12 * t27
    t46 = p10 * t28 + p11 * t29 + p12 * t30
    t47 = p20 * t22 + p21 * t23 + p22 * t24
    t48 = p20 * t25 + p21 * t26 + p22 * t27
    t49 = p20 * t28 + p21 * t29 + p22 * t30
    t50 = p00 * t31 + p10 * t32 + p20 * t33
    t51 = p00 * t34 + p10 * t35 + p20 * t36
    t52 = p00 * t37 + p10 * t38 + p20 * t39
    t53 = p01 * t31 + p11 * t32 + p21 * t33
    t54 = p01 * t34 + p11 * t35 + p21 * t36
    t55 = p01 * t37 + p11 * t38 + p21 * t39
    t56 = p02 * t31 + p12 * t32 + p22 * t33
    t57 = p02 * t34 + p12 * t35 + p22 * t36
    t58 = p02 * t37 + p12 * t38 + p22 * t39
    return (
        t40 * t40 + t4 / det_p * (t6 / det_p) + t5 / det_p * (t8 / det_p) + t22 / det_p * (t31 / det_p) + t23 / det_p * (t34 / det_p) + t24 / det_p * (t37 / det_p) + 1.0,
        (
            t41 + t41,
            t42 + t44,
            t43 + t47,
            t44 + t42,
            t45 + t45,
            t46 + t48,
            t47 + t43,
            t48 + t46,
            t49 + t49,
        ),
        (
            p00 * t17 + p01 * t10 + p02 * t11 - (t16 * p00 + t4 * p10 + t5 * p20),
            p00 * t12 + p01 * t19 + p02 * t13 - (t16 * p01 + t4 * p11 + t5 * p21),
            p00 * t14 + p01 * t15 + p02 * t21 - (t16 * p02 + t4 * p12 + t5 * p22),
            p10 * t17 + p11 * t10 + p12 * t11 - (t6 * p00 + t18 * p10 + t7 * p20),
            p10 * t12 + p11 * t19 + p12 * t13 - (t6 * p01 + t18 * p11 + t7 * p21),
            p10 * t14 + p11 * t15 + p12 * t21 - (t6 * p02 + t18 * p12 + t7 * p22),
            p20 * t17 + p21 * t10 + p22 * t11 - (t8 * p00 + t9 * p10 + t20 * p20),
            p20 * t12 + p21 * t19 + p22 * t13 - (t8 * p01 + t9 * p11 + t20 * p21),
            p20 * t14 + p21 * t15 + p22 * t21 - (t8 * p02 + t9 * p12 + t20 * p22),
        ),
        (
            -(t50 + t50),
            -(t51 + t53),
            -(t52 + t56),
            -(t53 + t51),
            -(t54 + t54),
            -(t55 + t57),
            -(t56 + t52),
            -(t57 + t55),
            -(t58 + t58),
        ),
    )
