"""The straight-line kernel of the torsion pass.  GENERATED by
tools/gen_kernels.py from the composed forms there, over the `mat3`
helpers and the `tolerance` rules of a largest value: do not edit.  To
change the kernel, change its composed forms and run

    python tools/gen_kernels.py

`w3(lam, a, b, det_p, w1p, p, q1, q2, r1, r2, A, B, jg, sizes)` is what
`torsion.extract_torsion`, `classify` and `w3_form` read of w3: its
20-list, its membership residual, |w3|^2 and the residual of w3 = 0.  It
takes a structure's values as `NhfStructure` holds them: lambda, a, b,
det P and w1+, the row-major 9-lists P, Q1, Q2, R1 and R2 of `m9`, A and
B, the 20-list `jgamma_coords` of J gamma and the six `sizes`.  It
computes what its composed form computes, with the same operations on
the same operands in the same order, so the results agree to the last
bit.  It has no guard and compares only moduli, in its largest values,
so it takes floats, or complex numbers in any input.  The comparisons
with the tolerance stay in `torsion`.  Every constant is written as a
float, as in every generated kernel.  Only `nhflat.torsion` imports this
module, so that `flow`, `family` and a `check` of an invalid record do
not compile it."""


def w3(lam, a, b, det_p, w1p, p, q1, q2, r1, r2, A, B, jg, sizes):
    """What the torsion pass reads of w3, for a structure with the data
    of `composed_construct` (F = (A, B, R1, R2), J gamma's 20-list jg and
    the sizes) and w1+ = `NhfStructure.w1plus`, as

        (y, membership, norm2, zero):

    y is the 20-list (see `invariant_three_form`) of
    w3 = d(omega) - w1+ gamma - (3 lambda / 4) J gamma.
    d(omega) = invariant_three_form(0, 0, P, -P) exactly and J gamma is
    (2 / det P)(A, B, R1, R2) on gamma's slots, so with
    c = 3 lambda / (2 det P)

        e135: -w1+ a - c A,          de^{2i-1} ^ e^{2j}: P - w1+ Q1 - c R1,
        e246: -w1+ b - c B,          e^{2i-1} ^ de^{2j}: -P - w1+ Q2 - c R2.

    `size` is the size of w3's terms d(omega), w1+ gamma and
    (3 lambda / 4) J gamma.  membership is the largest relative residual
    of w3 ^ omega = w3 ^ gamma = w3 ^ J gamma = 0 on coordinates
    (`three_form_wedge_omega` and `three_form_volume`, J gamma's read off
    jg), each divided by size times the size of the form wedged with w3;
    norm2 is |w3|^2 = -D^2 lambda[y, y] / (2 (det P)^2)
    (`composed_bracket_hessian`); zero is relative(y, size), the residual
    of w3 = 0.  It compares nothing with a tolerance: `torsion` does."""
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = p
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = q1
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = q2
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r1
    s00, s01, s02, s10, s11, s12, s20, s21, s22 = r2
    (jc, jd,
     j00, j01, j02, j10, j11, j12, j20, j21, j22,
     k00, k01, k02, k10, k11, k12, k20, k21, k22) = jg
    n_gam, n_jg, n_p, n_q, n_q1, n_q2 = sizes
    t0 = 1.5 * lam / det_p
    t1 = -w1p
    t2 = t1 * a - t0 * A
    t3 = t1 * b - t0 * B
    t4 = p00 - w1p * u00 - t0 * r00
    t5 = p01 - w1p * u01 - t0 * r01
    t6 = p02 - w1p * u02 - t0 * r02
    t7 = p10 - w1p * u10 - t0 * r10
    t8 = p11 - w1p * u11 - t0 * r11
    t9 = p12 - w1p * u12 - t0 * r12
    t10 = p20 - w1p * u20 - t0 * r20
    t11 = p21 - w1p * u21 - t0 * r21
    t12 = p22 - w1p * u22 - t0 * r22
    t13 = -p00 - w1p * v00 - t0 * s00
    t14 = -p01 - w1p * v01 - t0 * s01
    t15 = -p02 - w1p * v02 - t0 * s02
    t16 = -p10 - w1p * v10 - t0 * s10
    t17 = -p11 - w1p * v11 - t0 * s11
    t18 = -p12 - w1p * v12 - t0 * s12
    t19 = -p20 - w1p * v20 - t0 * s20
    t20 = -p21 - w1p * v21 - t0 * s21
    t21 = -p22 - w1p * v22 - t0 * s22
    t22 = max(n_p, abs(w1p) * n_gam, 0.75 * abs(lam) * n_jg)
    t23 = abs(t4 * p01 + t7 * p11 + t10 * p21 - (t5 * p00 + t8 * p10 + t11 * p20))
    t24 = abs(t16 * p00 + t17 * p01 + t18 * p02 - (t13 * p10 + t14 * p11 + t15 * p12))
    t25 = abs(t6 * p00 + t9 * p10 + t12 * p20 - (t4 * p02 + t7 * p12 + t10 * p22))
    t26 = abs(t13 * p20 + t14 * p21 + t15 * p22 - (t19 * p00 + t20 * p01 + t21 * p02))
    t27 = abs(t5 * p02 + t8 * p12 + t11 * p22 - (t6 * p01 + t9 * p11 + t12 * p21))
    t28 = abs(t19 * p10 + t20 * p11 + t21 * p12 - (t16 * p20 + t17 * p21 + t18 * p22))
    t29 = t2 * b
    t30 = t4 * v00
    t31 = t5 * v01
    t32 = t6 * v02
    t33 = t7 * v10
    t34 = t8 * v11
    t35 = t9 * v12
    t36 = t10 * v20
    t37 = t11 * v21
    t38 = t12 * v22
    t39 = u00 * v00 + u10 * v10 + u20 * v20
    t40 = u01 * v01 + u11 * v11 + u21 * v21
    t41 = u02 * v02 + u12 * v12 + u22 * v22
    t42 = t4 * t13 + t7 * t16 + t10 * t19
    t43 = t5 * t14 + t8 * t17 + t11 * t20
    t44 = t6 * t15 + t9 * t18 + t12 * t21
    t45 = t30 + t33 + t36 + (u00 * t13 + u10 * t16 + u20 * t19)
    t46 = t4 * v01 + t7 * v11 + t10 * v21 + (u00 * t14 + u10 * t17 + u20 * t20)
    t47 = t4 * v02 + t7 * v12 + t10 * v22 + (u00 * t15 + u10 * t18 + u20 * t21)
    t48 = t5 * v00 + t8 * v10 + t11 * v20 + (u01 * t13 + u11 * t16 + u21 * t19)
    t49 = t31 + t34 + t37 + (u01 * t14 + u11 * t17 + u21 * t20)
    t50 = t5 * v02 + t8 * v12 + t11 * v22 + (u01 * t15 + u11 * t18 + u21 * t21)
    t51 = t6 * v00 + t9 * v10 + t12 * v20 + (u02 * t13 + u12 * t16 + u22 * t19)
    t52 = t6 * v01 + t9 * v11 + t12 * v21 + (u02 * t14 + u12 * t17 + u22 * t20)
    t53 = t32 + t35 + t38 + (u02 * t15 + u12 * t18 + u22 * t21)
    t54 = t39 + t40 + t41
    t55 = t42 + t43 + t44
    t56 = t45 + t49 + t53
    t57 = t29 + a * t3 - t56
    t58 = abs(t2)
    t59 = abs(t3)
    t60 = abs(t4)
    t61 = abs(t5)
    t62 = abs(t6)
    t63 = abs(t7)
    t64 = abs(t8)
    t65 = abs(t9)
    t66 = abs(t10)
    t67 = abs(t11)
    t68 = abs(t12)
    t69 = abs(t13)
    t70 = abs(t14)
    t71 = abs(t15)
    t72 = abs(t16)
    t73 = abs(t17)
    t74 = abs(t18)
    t75 = abs(t19)
    t76 = abs(t20)
    t77 = abs(t21)
    return (
        [
            t2,
            t3,
            t4,
            t5,
            t6,
            t7,
            t8,
            t9,
            t10,
            t11,
            t12,
            t13,
            t14,
            t15,
            t16,
            t17,
            t18,
            t19,
            t20,
            t21,
        ],
        max(min(t23 + t24 + t25 + t26 + t27 + t28, max(t23, t24, t25, t26, t27, t28)) / max(abs(t22 * n_p), 1e-300), abs(t3 * a - t29 + (t30 + t31 + t32 + t33 + t34 + t35 + t36 + t37 + t38) - (t13 * u00 + t14 * u01 + t15 * u02 + t16 * u10 + t17 * u11 + t18 * u12 + t19 * u20 + t20 * u21 + t21 * u22)) / max(abs(t22 * n_gam), 1e-300), abs(t3 * jc - t2 * jd + (t4 * k00 + t5 * k01 + t6 * k02 + t7 * k10 + t8 * k11 + t9 * k12 + t10 * k20 + t11 * k21 + t12 * k22) - (t13 * j00 + t14 * j01 + t15 * j02 + t16 * j10 + t17 * j11 + t18 * j12 + t19 * j20 + t20 * j21 + t21 * j22)) / max(abs(t22 * n_jg), 1e-300)),
        -(-2.0 * t57 * t57 - 4.0 * (a * b - t54) * (t2 * t3 - t55) + 4.0 * t56 * t56 + 8.0 * t54 * t55 - 4.0 * (t45 * t45 + t46 * t48 + t47 * t51 + t48 * t46 + t49 * t49 + t50 * t52 + t51 * t47 + t52 * t50 + t53 * t53) - 8.0 * (t39 * t42 + (u00 * v01 + u10 * v11 + u20 * v21) * (t5 * t13 + t8 * t16 + t11 * t19) + (u00 * v02 + u10 * v12 + u20 * v22) * (t6 * t13 + t9 * t16 + t12 * t19) + (u01 * v00 + u11 * v10 + u21 * v20) * (t4 * t14 + t7 * t17 + t10 * t20) + t40 * t43 + (u01 * v02 + u11 * v12 + u21 * v22) * (t6 * t14 + t9 * t17 + t12 * t20) + (u02 * v00 + u12 * v10 + u22 * v20) * (t4 * t15 + t7 * t18 + t10 * t21) + (u02 * v01 + u12 * v11 + u22 * v21) * (t5 * t15 + t8 * t18 + t11 * t21) + t41 * t44) - 8.0 * (t2 * ((v11 * v22 - v12 * v21) * t13 + (v12 * v20 - v10 * v22) * t14 + (v10 * v21 - v11 * v20) * t15 + (v02 * v21 - v01 * v22) * t16 + (v00 * v22 - v02 * v20) * t17 + (v01 * v20 - v00 * v21) * t18 + (v01 * v12 - v02 * v11) * t19 + (v02 * v10 - v00 * v12) * t20 + (v00 * v11 - v01 * v10) * t21) + t3 * ((u11 * u22 - u12 * u21) * t4 + (u12 * u20 - u10 * u22) * t5 + (u10 * u21 - u11 * u20) * t6 + (u02 * u21 - u01 * u22) * t7 + (u00 * u22 - u02 * u20) * t8 + (u01 * u20 - u00 * u21) * t9 + (u01 * u12 - u02 * u11) * t10 + (u02 * u10 - u00 * u12) * t11 + (u00 * u11 - u01 * u10) * t12) + a * (v00 * (t17 * t21 - t18 * t20) + v01 * (t18 * t19 - t16 * t21) + v02 * (t16 * t20 - t17 * t19) + v10 * (t15 * t20 - t14 * t21) + v11 * (t13 * t21 - t15 * t19) + v12 * (t14 * t19 - t13 * t20) + v20 * (t14 * t18 - t15 * t17) + v21 * (t15 * t16 - t13 * t18) + v22 * (t13 * t17 - t14 * t16)) + b * (u00 * (t8 * t12 - t9 * t11) + u01 * (t9 * t10 - t7 * t12) + u02 * (t7 * t11 - t8 * t10) + u10 * (t6 * t11 - t5 * t12) + u11 * (t4 * t12 - t6 * t10) + u12 * (t5 * t10 - t4 * t11) + u20 * (t5 * t9 - t6 * t8) + u21 * (t6 * t7 - t4 * t9) + u22 * (t4 * t8 - t5 * t7)))) / (2.0 * det_p * det_p),
        min(t58 + t59 + t60 + t61 + t62 + t63 + t64 + t65 + t66 + t67 + t68 + t69 + t70 + t71 + t72 + t73 + t74 + t75 + t76 + t77, max(t58, t59, t60, t61, t62, t63, t64, t65, t66, t67, t68, t69, t70, t71, t72, t73, t74, t75, t76, t77)) / max(abs(t22), 1e-300),
    )
